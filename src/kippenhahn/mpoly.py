"""Sparse multivariate polynomials over exact rationals.

Monomials are plain exponent tuples, one entry per variable; polynomials map
exponent tuples to nonzero Fraction coefficients.  Monomial orders are small
key objects so that the same polynomial can be viewed under graded reverse
lexicographic, lexicographic, or block elimination order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, inf

from .exactnum import ParseError

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
    """Strict total well-order on exponent tuples.

    ``key(exp)`` returns a tuple that compares consistently with the order;
    the key is a componentwise-linear function of the exponents, so the key
    of a product of monomials is the componentwise sum of their keys.
    """

    def __init__(self, kind: str, nvars: int, split: int = 0):
        if kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == "block" and not (0 < split < nvars):
            raise ValueError("block order needs 0 < split < nvars")
        self.kind = kind
        self.nvars = nvars
        self.split = split if kind == "block" else 0

    def key(self, exp):
        if self.kind == "lex":
            return exp
        if self.kind == "grevlex":
            return (sum(exp),) + tuple(-e for e in reversed(exp))
        k = self.split
        head, tail = exp[:k], exp[k:]
        return (
            (sum(head),)
            + tuple(-e for e in reversed(head))
            + (sum(tail),)
            + tuple(-e for e in reversed(tail))
        )

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


def grevlex_order(nvars: int) -> MonomialOrder:
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

    __slots__ = ("variables", "terms", "order")

    def __init__(self, variables, terms=None, order=None):
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
        object.__setattr__(self, "order", order or grevlex_order(len(variables)))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, order=None):
        return cls(variables, {}, order)

    @classmethod
    def constant(cls, variables, c, order=None):
        n = len(tuple(variables))
        return cls(variables, {(0,) * n: Fraction(c)}, order)

    @classmethod
    def variable(cls, variables, index, order=None):
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[index] = 1
        return cls(variables, {tuple(exp): Fraction(1)}, order)

    def with_order(self, order) -> "MultiPoly":
        return MultiPoly(self.variables, self.terms, order)

    def rename_variables(self, variables) -> "MultiPoly":
        variables = tuple(variables)
        if len(variables) != len(self.variables):
            raise ValueError("variable count mismatch")
        return MultiPoly(variables, self.terms, self.order)

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
        order = order or self.order
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def leading_term(self, order=None):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        order = order or self.order
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
        return MultiPoly(self.variables, terms, self.order)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(
            self.variables, {e: -c for e, c in self.terms.items()}, self.order
        )

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
        return MultiPoly(self.variables, terms, self.order)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = MultiPoly.constant(self.variables, 1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.variables, other, self.order)
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
        return MultiPoly(self.variables, terms, self.order)

    def gradient(self):
        return [self.diff(i) for i in range(len(self.variables))]

    def evaluate(self, point):
        """Exact evaluation at a point of any ring with +, * and ** (Fraction,
        GaussianRational, float/complex, RationalInterval, ComplexInterval)."""
        if len(point) != len(self.variables):
            raise ValueError("point length does not match variable count")
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

    # -- normalization -----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def normalized(self, order=None) -> "MultiPoly":
        """Scale to coprime integer coefficients with positive leading coefficient.

        The canonical representative of a curve equation defined up to scalar.
        """
        if not self.terms:
            return self
        c = self.content()
        _, lead = self.leading_term(order or self.order)
        if lead < 0:
            c = -c
        return MultiPoly(
            self.variables,
            {e: v / c for e, v in self.terms.items()},
            self.order,
        )

    def monic(self, order=None) -> "MultiPoly":
        if not self.terms:
            return self
        _, lead = self.leading_term(order or self.order)
        return MultiPoly(
            self.variables,
            {e: v / lead for e, v in self.terms.items()},
            self.order,
        )

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        if not c:
            return MultiPoly.zero(self.variables, self.order)
        return MultiPoly(
            self.variables, {e: v * c for e, v in self.terms.items()}, self.order
        )

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
        return MultiPoly(self.variables, terms, self.order)

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
        return MultiPoly(self.variables, terms, self.order)

    def univariate_in(self, var: int):
        """View as univariate in ``var``: dict degree -> coefficient MultiPoly."""
        buckets = {}
        for exp, c in self.terms.items():
            d = exp[var]
            nexp = exp[:var] + (0,) + exp[var + 1 :]
            bucket = buckets.setdefault(d, {})
            bucket[nexp] = bucket.get(nexp, Fraction(0)) + c
        return {
            d: MultiPoly(self.variables, t, self.order) for d, t in buckets.items()
        }

    def restrict_line(self, base, direction):
        """Ascending coefficients in t of f(1, base1 + t*d1, base2 + t*d2).

        ``self`` must be trivariate homogeneous-or-not; the substitution uses
        the affine chart first-variable = 1.  Returns a tuple of Fractions.
        """
        if len(self.variables) != 3:
            raise ValueError("restrict_line expects a trivariate polynomial")
        b1, b2 = (Fraction(v) for v in base)
        d1, d2 = (Fraction(v) for v in direction)
        if not d1 and not d2:
            raise ValueError("zero direction")
        out = {}
        for (e0, e1, e2), c in self.terms.items():
            # expand (b1 + t d1)^e1 (b2 + t d2)^e2 via binomial convolution
            part = {0: c}
            for deg, b, d in ((e1, b1, d1), (e2, b2, d2)):
                for _ in range(deg):
                    nxt = {}
                    for k, v in part.items():
                        if b:
                            nxt[k] = nxt.get(k, Fraction(0)) + v * b
                        if d:
                            nxt[k + 1] = nxt.get(k + 1, Fraction(0)) + v * d
                    part = nxt
            for k, v in part.items():
                out[k] = out.get(k, Fraction(0)) + v
        if not out:
            return (Fraction(0),)
        top = max(out)
        return tuple(out.get(k, Fraction(0)) for k in range(top + 1))

    # -- gcd / squarefree ---------------------------------------------------

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ValueError when the remainder is nonzero."""
        self._check_compatible(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        order = self.order
        key = order.key
        dexp, dcoef = divisor.leading_term(order)
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
        return MultiPoly(self.variables, quot, self.order)

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


# --- multivariate gcd -------------------------------------------------------


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd via primitive Euclidean remainders, recursing on variables.

    Suitable for the small inputs that show up here (three variables, sparse,
    degree at most a few dozen); normalized to integer content 1.
    """
    if f.variables != g.variables:
        raise ValueError("variable lists differ")
    if f.is_zero:
        return g.normalized()
    if g.is_zero:
        return f.normalized()
    active = [
        i
        for i in range(len(f.variables))
        if f.degree_in(i) > 0 or g.degree_in(i) > 0
    ]
    if not active:
        return MultiPoly.constant(f.variables, 1, f.order)
    var = active[0]
    return _gcd_univar(f, g, var).normalized()


def _gcd_univar(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    fc, fp = _content_primitive(f, var)
    gc, gp = _content_primitive(g, var)
    cont = poly_gcd(fc, gc)
    a, b = fp, gp
    while True:
        db = b.degree_in(var)
        if db < 0:
            break
        da = a.degree_in(var)
        if da < db:
            a, b = b, a
            continue
        r = _pseudo_rem(a, b, var)
        if not r.is_zero:
            r = r.normalized()  # strip rational content to bound growth
        a, b = b, r
        if b.is_zero:
            break
    _, prim = _content_primitive(a, var)
    return cont * prim


def _content_primitive(f: MultiPoly, var: int):
    """Content (gcd of the coefficients w.r.t. var) and primitive part."""
    coeffs = f.univariate_in(var)
    cont = None
    for d in sorted(coeffs):
        cont = coeffs[d] if cont is None else poly_gcd(cont, coeffs[d])
        if cont.total_degree == 0:
            break
    if cont.total_degree == 0:
        return MultiPoly.constant(f.variables, 1, f.order), f
    return cont, f.divexact(cont)


def _pseudo_rem(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to ``var``."""
    da = a.degree_in(var)
    db = b.degree_in(var)
    lb = b.univariate_in(var)[db]
    r = a
    xv = MultiPoly.variable(a.variables, var, a.order)
    while not r.is_zero and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        lr = r.univariate_in(var)[dr]
        r = lb * r - lr * xv ** (dr - db) * b
    return r


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
                coef *= Fraction(m.group("num"))
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
    for exp, c in f.sorted_terms(grevlex_order(len(f.variables))):
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
