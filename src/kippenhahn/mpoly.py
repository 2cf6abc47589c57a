"""Sparse multivariate polynomials over exact rationals.

Monomials are plain exponent tuples, one entry per variable; a polynomial is
its variable names and a map from exponent tuples to nonzero Fraction
coefficients, and carries no monomial order.  Its sorting, leading term and
normalization use graded reverse lexicographic order; the orders here are
small key objects that a caller (a Groebner basis computation, through its
``Ideal``) passes where it needs lexicographic or block elimination order.

Evaluation at a point of rationals and rational intervals runs on Python
integers: the coordinates over one common denominator D, the coefficients
over one L, each term scaled to the common denominator L*D^deg, and one
division at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import compress, repeat
from math import comb, gcd, inf

from .exactnum import (
    ParseError,
    RationalInterval,
    UniPoly,
    _mul_range,
    _ordered,
    _over_common_den,
    _pow_range,
)

__all__ = [
    "MonomialOrder",
    "grevlex_order",
    "lex_order",
    "elimination_order",
    "MultiPoly",
    "poly_gcd",
    "parse_poly",
]


class MonomialOrder:
    """Strict total well-order on exponent tuples, given by weight rows.

    ``rows`` holds nonnegative 0/1 weight vectors and ``key(exp)`` their
    weighted sums; monomials compare as their keys do, lexicographically.
    grevlex takes the total degree, then the prefix sums e1 + ... + e_(n-1),
    ..., e1 (at equal degree a larger prefix sum is a smaller last exponent);
    a block order takes those rows within each block, the eliminated block
    first; lex takes the identity rows.  The key is linear in the exponents,
    so the key of a product of monomials is the componentwise sum of their
    keys, and no entry of a key exceeds the total degree.
    """

    def __init__(self, kind: str, nvars: int, split: int = 0):
        if kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == "block" and not (0 < split < nvars):
            raise ValueError("block order needs 0 < split < nvars")
        self.kind = kind
        self.nvars = nvars
        self.split = split if kind == "block" else 0
        if kind == "lex":
            spans = [(i, i + 1) for i in range(nvars)]
        else:
            blocks = [(0, split), (split, nvars)] if kind == "block" else [(0, nvars)]
            spans = [
                (start, stop) for start, end in blocks for stop in range(end, start, -1)
            ]
        # row (start, stop) weighs the variables start, ..., stop - 1 by 1
        self.rows = tuple(
            (0,) * start + (1,) * (stop - start) + (0,) * (nvars - stop)
            for start, stop in spans
        )

    def key(self, exp):
        return tuple(map(sum, map(compress, repeat(exp), self.rows)))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and (self.kind, self.nvars, self.split)
            == (other.kind, other.nvars, other.split)
        )

    def __hash__(self):
        return hash((self.kind, self.nvars, self.split))

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder('block', {self.nvars}, split={self.split})"
        return f"MonomialOrder({self.kind!r}, {self.nvars})"


@cache
def grevlex_order(nvars: int) -> MonomialOrder:
    """The grevlex order on ``nvars`` variables, one shared instance per nvars."""
    return MonomialOrder("grevlex", nvars)


def lex_order(nvars: int) -> MonomialOrder:
    return MonomialOrder("lex", nvars)


def elimination_order(nvars: int, split: int) -> MonomialOrder:
    """Block order eliminating the first ``split`` variables.

    Any monomial containing one of the first ``split`` variables is greater
    than every monomial free of them; ties are broken grevlex blockwise.
    """
    return MonomialOrder("block", nvars, split)


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        clean = {}
        if terms:
            n = len(variables)
            for exp, coef in terms.items():
                coef = Fraction(coef)
                if not coef:
                    continue
                exp = tuple(int(e) for e in exp)
                if len(exp) != n or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp}")
                clean[exp] = coef
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables, c):
        n = len(tuple(variables))
        return cls(variables, {(0,) * n: Fraction(c)})

    @classmethod
    def variable(cls, variables, index):
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[index] = 1
        return cls(variables, {tuple(exp): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def total_degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return -inf
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if inhomogeneous."""
        if not self.terms:
            raise ValueError("zero polynomial")
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_terms(self, order=None):
        """Terms by decreasing monomial under ``order`` (default grevlex)."""
        order = order or grevlex_order(len(self.variables))
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def leading_term(self, order=None):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        order = order or grevlex_order(len(self.variables))
        exp = max(self.terms, key=order.key)
        return exp, self.terms[exp]

    def num_terms(self) -> int:
        return len(self.terms)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other):
        if self.variables != other.variables:
            raise ValueError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_compatible(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(exp, Fraction(0)) + c1 * c2
                if s:
                    terms[exp] = s
                else:
                    terms.pop(exp, None)
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self**n by square-and-multiply; NotImplemented unless n is an
        int >= 0."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result, base = MultiPoly.constant(self.variables, 1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.variables, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def diff(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < len(self.variables):
            raise ValueError(f"variable index {var} out of range")
        terms = {}
        for exp, c in self.terms.items():
            e = exp[var]
            if e:
                nexp = exp[:var] + (e - 1,) + exp[var + 1 :]
                terms[nexp] = terms.get(nexp, Fraction(0)) + c * e
        return MultiPoly(self.variables, terms)

    def gradient(self):
        return [self.diff(i) for i in range(len(self.variables))]

    def evaluate(self, point):
        """f at ``point``.

        At a point of ints, Fractions and RationalIntervals the value is
        exact: a Fraction, or the interval enclosure (Moore's rules, even
        powers tight) once a term involves an interval coordinate, computed
        on integers by ``_evaluate_rational``.  At any other point it is the
        sum of terms in the coordinates' ring, which needs +, * and **:
        floats, or the ``MultiPoly`` coordinates of a substitution."""
        if len(point) != len(self.variables):
            raise ValueError("point length does not match variable count")
        if all(isinstance(v, (int, Fraction, RationalInterval)) for v in point):
            return _evaluate_rational(self.terms, point)
        acc = None
        for exp, c in self.sorted_terms():
            term = c
            for v, e in zip(point, exp):
                if e:
                    term = term * v**e
            acc = term if acc is None else acc + term
        if acc is None:
            return Fraction(0)
        return acc

    def shifted(self, shift) -> "MultiPoly":
        """f(x + shift) at a rational point by a Taylor shift on integers: with
        c = p/q and top degree D in a variable, x^e becomes sum_k C(e, k)
        p^(e-k) q^(D-e+k) x^k over q^D; one division at the end."""
        if len(shift) != len(self.variables):
            raise ValueError("shift length does not match variable count")
        nums, den = _over_common_den(self.terms.values())
        terms = dict(zip(self.terms, nums))
        for i, c in enumerate(map(Fraction, shift)):
            if not c:
                continue
            p, q, top = c.numerator, c.denominator, max((e[i] for e in terms), default=0)
            rows = {e: [comb(e, k) * p ** (e - k) * q ** (top - e + k) for k in range(e + 1)]
                    for e in {exp[i] for exp in terms}}
            out = {}
            for exp, a in terms.items():
                for k, b in enumerate(rows[exp[i]]):
                    key = exp[:i] + (k,) + exp[i + 1 :]
                    out[key] = out.get(key, 0) + a * b
            terms, den = out, den * q**top
        return MultiPoly(self.variables, {e: Fraction(a, den) for e, a in terms.items()})

    # -- normalization -----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        nums, den = _over_common_den(self.terms.values())
        return Fraction(gcd(*nums), den)

    def normalized(self) -> "MultiPoly":
        """Scale to coprime integer coefficients with positive leading coefficient.

        The canonical representative of a curve equation defined up to scalar.
        """
        if not self.terms:
            return self
        c = self.content()
        _, lead = self.leading_term()
        if lead < 0:
            c = -c
        return MultiPoly(self.variables, {e: v / c for e, v in self.terms.items()})

    def proportional_to(self, other: "MultiPoly") -> bool:
        """True when self = c * other for some nonzero rational c."""
        if self.variables != other.variables:
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.normalized().terms == other.normalized().terms

    # -- structure ---------------------------------------------------------

    def exponent_gcd(self, var: int) -> int:
        """gcd of the exponents of ``var`` over all terms (0 when absent)."""
        g = 0
        for exp in self.terms:
            g = gcd(g, exp[var])
        return g

    def monomial_content(self):
        """Per-variable minimum exponents (the monomial dividing every term)."""
        if not self.terms:
            return (0,) * len(self.variables)
        mins = None
        for exp in self.terms:
            mins = exp if mins is None else tuple(map(min, mins, exp))
        return mins

    def shift_down(self, shifts) -> "MultiPoly":
        """Divide by the monomial with the given exponent vector."""
        terms = {}
        for exp, c in self.terms.items():
            nexp = tuple(e - s for e, s in zip(exp, shifts))
            if any(e < 0 for e in nexp):
                raise ValueError("monomial does not divide every term")
            terms[nexp] = c
        return MultiPoly(self.variables, terms)

    def compress_exponents(self, strides) -> "MultiPoly":
        """Replace v**stride by v for each variable; exponents must comply."""
        terms = {}
        for exp, c in self.terms.items():
            nexp = []
            for e, s in zip(exp, strides):
                if s > 1:
                    if e % s:
                        raise ValueError("exponent not divisible by stride")
                    e //= s
                nexp.append(e)
            terms[tuple(nexp)] = c
        return MultiPoly(self.variables, terms)

    def coefficients(self, var: int) -> list[UniPoly]:
        """Coefficients of a bivariate polynomial in ascending powers of ``var``,
        each a UniPoly in the other variable; one zero column for zero."""
        if len(self.variables) != 2:
            raise ValueError("coefficients expects a bivariate polynomial")
        other = 1 - var
        cols = [[0] * (self.degree_in(other) + 1) for _ in range(self.degree_in(var) + 1)]
        for exp, c in self.terms.items():
            cols[exp[var]][exp[other]] = c
        return [UniPoly(c) for c in cols] or [UniPoly([])]

    # -- gcd / squarefree ---------------------------------------------------

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ValueError when the remainder is nonzero."""
        self._check_compatible(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        key = grevlex_order(len(self.variables)).key
        dexp, dcoef = divisor.leading_term()
        rem = dict(self.terms)
        quot = {}
        while rem:
            exp = max(rem, key=key)
            c = rem[exp]
            qexp = tuple(a - b for a, b in zip(exp, dexp))
            if any(e < 0 for e in qexp):
                raise ValueError("polynomials do not divide exactly")
            qc = c / dcoef
            quot[qexp] = qc
            for e2, c2 in divisor.terms.items():
                nexp = tuple(a + b for a, b in zip(qexp, e2))
                s = rem.get(nexp, Fraction(0)) - qc * c2
                if s:
                    rem[nexp] = s
                else:
                    rem.pop(nexp, None)
        return MultiPoly(self.variables, quot)

    def squarefree_part(self) -> "MultiPoly":
        """Product of the distinct irreducible factors, up to a rational scalar.

        Computed as f / gcd(f, df/dx1, ..., df/dxn), then normalized.
        """
        if self.is_zero:
            raise ValueError("zero polynomial")
        g = self
        for i in range(len(self.variables)):
            d = self.diff(i)
            if d:
                g = poly_gcd(g, d)
        if g.total_degree == 0:
            return self.normalized()
        return self.divexact(g).normalized()

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"


def _form_degree(q: MultiPoly) -> int:
    """The degree of q, which must be a nonzero form in three variables."""
    if len(q.variables) != 3:
        raise ValueError("expected a polynomial in three homogeneous variables")
    deg = q.homogeneous_degree()  # raises ValueError for the zero polynomial
    if deg is None:
        raise ValueError("polynomial must be homogeneous")
    return deg


def _evaluate_rational(terms, point):
    """Sum of c*X^e over a point of ints, Fractions and RationalIntervals:
    with the coordinate endpoints over one denominator D and the
    coefficients over one L, each term c*X^e*D^(deg - |e|) is an integer
    range, built from one power range per (variable, exponent), and the sum
    is divided once by L*D^deg.  A number is the point range [x, x]."""
    if not terms:
        return Fraction(0)
    boxed = [isinstance(v, RationalInterval) for v in point]
    ends, den = _over_common_den(
        [x for v, b in zip(point, boxed) for x in ((v.lo, v.hi) if b else (v, v))]
    )
    coeffs, cden = _over_common_den(terms.values())
    deg = max(map(sum, terms))
    dpow = [den**k for k in range(deg + 1)]
    powers = {}
    lo_sum = hi_sum = 0
    for exp, c in zip(terms, coeffs):
        lo = hi = c * dpow[deg - sum(exp)]
        for i, e in enumerate(exp):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = _pow_range(ends[2 * i], ends[2 * i + 1], e)
                lo, hi = _mul_range(lo, hi, *powers[i, e])
        lo_sum += lo
        hi_sum += hi
    scale = cden * dpow[deg]
    if not any(e and b for exp in terms for e, b in zip(exp, boxed)):
        return Fraction(lo_sum, scale)
    return _ordered(Fraction(lo_sum, scale), Fraction(hi_sum, scale))


# --- multivariate gcd -------------------------------------------------------


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd as f*g / lcm(f, g), normalized to integer content 1.

    The lcm generates (t*f, (1 - t)*g) ∩ Q[x] (Cox, Little and O'Shea,
    *Ideals, Varieties, and Algorithms*, ch. 4 §3): the one element free of
    t in a Groebner basis under the block order eliminating t.  Buchberger
    runs under its default caps and raises ResourceLimitError past them.
    """
    # imported here because groebner imports this module
    from .groebner import Ideal, eliminate

    if f.variables != g.variables:
        raise ValueError("variable lists differ")
    if f.is_zero:
        return g.normalized()
    if g.is_zero:
        return f.normalized()
    n = len(f.variables)
    ring = ("t",) + f.variables

    def lift(h: MultiPoly) -> MultiPoly:
        return MultiPoly(ring, {(0,) + e: c for e, c in h.terms.items()})

    t = MultiPoly.variable(ring, 0)
    [lcm] = eliminate(
        Ideal([t * lift(f), (1 - t) * lift(g)], elimination_order(n + 1, 1))
    )
    lcm = MultiPoly(f.variables, {e[1:]: c for e, c in lcm.terms.items()})
    return (f * g).divexact(lcm).normalized()


# --- text form ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\^(?P<exp>\d+))?|(?P<op>[*+-]))"
)


def parse_poly(text: str, variables) -> MultiPoly:
    """Parse a human-readable sum of terms like "x0^3 - 3/4*x2*x0^2".

    Whitespace and term order are free; variables must come from the given
    list.  Implicit multiplication is not supported: factors are separated
    by '*', matching the printer's output.
    """
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    terms: dict = {}
    pos = 0
    length = len(text)

    def skip_ws(p):
        while p < length and text[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    if pos == length:
        raise ParseError("empty polynomial", column=pos + 1)
    while pos < length:
        sign = 1
        pos = skip_ws(pos)
        while pos < length and text[pos] in "+-":
            if text[pos] == "-":
                sign = -sign
            pos += 1
            pos = skip_ws(pos)
        if pos >= length:
            raise ParseError("dangling sign", column=pos + 1)
        coef = Fraction(sign)
        exp = [0] * n
        expect_factor = True
        while expect_factor:
            m = _TOKEN.match(text, pos)
            if not m or m.group("op"):
                raise ParseError(
                    f"expected coefficient or variable near {text[pos:pos+12]!r}",
                    column=pos + 1,
                )
            if m.group("num"):
                try:
                    coef *= Fraction(m.group("num"))
                except ZeroDivisionError:
                    raise ParseError(
                        f"zero denominator in {m.group('num')!r}", column=m.start("num") + 1
                    ) from None
            else:
                name = m.group("var")
                if name not in index:
                    raise ParseError(f"unknown variable {name!r}", column=pos + 1)
                exp[index[name]] += int(m.group("exp") or 1)
            pos = m.end()
            pos = skip_ws(pos)
            if pos < length and text[pos] == "*":
                pos += 1
                expect_factor = True
            else:
                expect_factor = False
        key = tuple(exp)
        s = terms.get(key, Fraction(0)) + coef
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
        pos = skip_ws(pos)
        if pos < length and text[pos] not in "+-":
            raise ParseError(
                f"expected '+' or '-' near {text[pos:pos+12]!r}", column=pos + 1
            )
    return MultiPoly(variables, terms)


def format_poly(f: MultiPoly) -> str:
    """Canonical text: grevlex-descending terms, e.g. "x0^2 - 2*x1^2*x0"."""
    if f.is_zero:
        return "0"
    pieces = []
    for exp, c in f.sorted_terms():
        factors = []
        if abs(c) != 1 or not any(exp):
            factors.append(str(abs(c)))
        for name, e in zip(f.variables, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
