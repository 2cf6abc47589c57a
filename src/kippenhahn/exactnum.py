"""Exact scalars: rational and Gaussian-rational parsing, rational and
complex intervals and real algebraic numbers, together with the package's
dense univariate polynomials over the rationals (``UniPoly``, whose one
interpolation routine takes samples at 0, 1, 2, ...), the one exact
determinant kernel (``_bareiss``, fraction-free over Gaussian integers) that
every pencil determinant, definiteness test and resultant sample runs on, and
the one Sturm chain per polynomial (kept in a small cache) that every root
count and algebraic-number certificate runs on.

Certification arithmetic runs on integers over one common positive
denominator (``_over_common_den``), reduced once at the end or, for a sign,
never: ``UniPoly``'s integer Horner, the one integer pseudo-division
(``_pdiv``, by |lc| so that signs survive), and Moore's interval product and
power (``_mul_range``, ``_pow_range``).  Positive scaling commutes exactly
with each, so results equal those of the same arithmetic on ``Fraction``s.
``_pdiv`` gives the Sturm remainders and ``UniPoly.gcd``, the quotients of a
chain by gcd(f, f'), and the reductions modulo an algebraic number's
polynomial.

A ``GaussianRational`` is parsed, printed and read by its parts ``re`` and
``im``; it has no arithmetic, since exact matrices compute on integer rows.
``UniPoly`` keeps negation but no other ring operator: it is evaluated,
reduced to its primitive and squarefree parts, and interpolated.  Interval
arithmetic (``RationalInterval``, ``ComplexInterval``) keeps +, -, * and /.

An ``AlgebraicReal`` refines its interval to the very cells of bisection by
quadratic interval refinement, and takes gcds over the field it generates
by Euclid without inverses.  Values never change after construction; ``UniPoly`` and
``AlgebraicReal`` keep private caches of derived forms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, isqrt, lcm

__all__ = [
    "ParseError",
    "parse_rational",
    "GaussianRational",
    "parse_gaussian",
    "RationalInterval",
    "ComplexInterval",
    "AlgebraicReal",
    "UniPoly",
    "sturm_count",
    "simplest_in_interval",
]


def _over_common_den(qs):
    """The ints or Fractions ``qs`` as integers over their least common
    denominator: (nums, den) with qs[k] = nums[k] / den and den > 0."""
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _mul_range(a, b, c, d):
    """(lo, hi) of x*y over a <= x <= b, c <= y <= d, for ints or Fractions:
    the nine sign cases of Moore (1966); only when both ranges straddle 0 do
    the extremes need four products and two comparisons."""
    if a.numerator >= 0:
        if c.numerator >= 0:
            return a * c, b * d
        if d.numerator <= 0:
            return b * c, a * d
        return b * c, b * d
    if b.numerator <= 0:
        if c.numerator >= 0:
            return a * d, b * c
        if d.numerator <= 0:
            return b * d, a * c
        return a * d, a * c
    if c.numerator >= 0:
        return a * d, b * d
    if d.numerator <= 0:
        return b * c, a * c
    return min(a * d, b * c), max(a * c, b * d)


def _pow_range(a, b, n):
    """(lo, hi) of x**n over a <= x <= b, n >= 0: odd powers are monotone;
    even ones run between the endpoint moduli, from 0 when 0 lies inside."""
    if n % 2:
        return a**n, b**n
    lo, hi = sorted((abs(a), abs(b)))
    if a <= 0 <= b:
        lo = 0
    return lo**n, hi**n


class ParseError(ValueError):
    """Raised when scalar/polynomial/matrix text cannot be parsed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is None:
            return base
        column = "" if self.column is None else f", column {self.column}"
        return f"line {self.line}{column}: {base}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p"; surrounding whitespace is allowed."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text.strip()!r}") from None
    except ValueError as exc:
        raise ParseError(f"invalid rational {text.strip()!r}: {exc}") from None


class GaussianRational:
    """Complex scalar with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_value(cls, v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        return cls(v)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if not self.re and not self.im:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            if self.im == 1:
                imtxt = "i"
            elif self.im == -1:
                imtxt = "-i"
            else:
                imtxt = f"{self.im}*i"
            if parts and not imtxt.startswith("-"):
                parts.append("+" + imtxt)
            else:
                parts.append(imtxt)
        return "".join(parts)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_GAUSS_TERM = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:(?P<coef>\d+(?:/\d+)?)\*?(?P<imag1>i)?|(?P<imag2>i))"
)


def parse_gaussian(text: str) -> GaussianRational:
    """Parse "a/b+c/d*i" with optional signs and omitted zero parts.

    Accepts e.g. "3", "-1/4", "i", "-i", "2*i", "1/2-2/3*i".
    """
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty Gaussian rational")
    re_part = Fraction(0)
    im_part = Fraction(0)
    pos = 0
    first = True
    while pos < len(compact):
        m = _GAUSS_TERM.match(compact, pos)
        if not m or (not first and not m.group("sign")):
            raise ParseError(f"invalid Gaussian rational {text.strip()!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = m.group("coef")
        value = parse_rational(coef) if coef is not None else Fraction(1)
        if m.group("imag1") or m.group("imag2"):
            im_part += sign * value
        else:
            re_part += sign * value
        pos = m.end()
        first = False
    return GaussianRational(re_part, im_part)


class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = lo if type(lo) is Fraction else Fraction(lo)
        hi = hi if type(hi) is Fraction else Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("RationalInterval is immutable")

    @classmethod
    def point(cls, q) -> "RationalInterval":
        q = Fraction(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self) -> int:
        """-1 / +1 when the interval is sign-definite, 0 otherwise."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0

    def __add__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return _ordered(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self):
        return _ordered(-self.hi, -self.lo)

    def __sub__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return _ordered(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return _ordered(*_mul_range(self.lo, self.hi, other.lo, other.hi))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return RationalInterval(*_pow_range(self.lo, self.hi, n))

    def reciprocal(self) -> "RationalInterval":
        if self.contains_zero():
            raise ZeroDivisionError("interval contains zero")
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def intersect(self, other: "RationalInterval"):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return RationalInterval(lo, hi)

    def __eq__(self, other):
        return (
            isinstance(other, RationalInterval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"RationalInterval({self.lo}, {self.hi})"

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def _ordered(lo: Fraction, hi: Fraction) -> RationalInterval:
    """The interval [lo, hi] from Fraction endpoints already known to be in
    order: the arithmetic's own results skip the public constructor's
    conversion and check."""
    iv = object.__new__(RationalInterval)
    object.__setattr__(iv, "lo", lo)
    object.__setattr__(iv, "hi", hi)
    return iv


def _coerce_interval(v):
    if isinstance(v, RationalInterval):
        return v
    if isinstance(v, (int, Fraction)):
        return RationalInterval(v, v)
    return NotImplemented


class ComplexInterval:
    """Axis-aligned rectangle in the complex plane with rational corners."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        if not isinstance(re, RationalInterval):
            re = RationalInterval(re, re)
        if im is None:
            im = RationalInterval(0, 0)
        elif not isinstance(im, RationalInterval):
            im = RationalInterval(im, im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexInterval is immutable")

    def __add__(self, other):
        if not isinstance(other, ComplexInterval):
            return NotImplemented
        return ComplexInterval(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return ComplexInterval(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, ComplexInterval):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ComplexInterval):
            return NotImplemented
        return ComplexInterval(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        if not isinstance(other, ComplexInterval):
            return NotImplemented
        n2 = other.re**2 + other.im**2
        inv = n2.reciprocal()
        conj = ComplexInterval(other.re, -other.im)
        num = self * conj
        return ComplexInterval(num.re * inv, num.im * inv)

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def strictly_inside(self, other: "ComplexInterval") -> bool:
        return (
            other.re.lo < self.re.lo
            and self.re.hi < other.re.hi
            and other.im.lo < self.im.lo
            and self.im.hi < other.im.hi
        )

    def to_complex(self) -> complex:
        return float(self.re.mid) + 1j * float(self.im.mid)

    def __repr__(self):
        return f"ComplexInterval({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"({self.re} + {self.im}*i)"


# --- the exact determinant kernel -------------------------------------------


def _bareiss(re, im, swap):
    """Yield the pivots (p, q) = p + qi of Bareiss elimination on the matrix
    re + i*im of integer rows, which it overwrites.  Pivot k = 0..n is the k-th
    leading principal minor of the rows in their current order, negated per
    row swap: the last is the determinant.  A zero pivot ends the pass unless
    ``swap`` and a lower nonzero entry in its column allow a swap.  Division by
    the previous pivot p + qi is exact: by p if q = 0, else times p - qi and
    // (p^2 + q^2)."""
    n = len(re)
    sign, prev_p, prev_q, norm = 1, 1, 0, 1
    yield 1, 0
    for k in range(n):
        if not (re[k][k] or im[k][k]):
            r = next((r for r in range(k + 1, n) if re[r][k] or im[r][k]), None)
            if r is None or not swap:
                yield 0, 0
                return
            re[k], re[r], im[k], im[r] = re[r], re[k], im[r], im[k]
            sign = -sign
        rk, ik, p, q = re[k], im[k], re[k][k], im[k][k]
        yield sign * p, sign * q
        for ri, ii in zip(re[k + 1 :], im[k + 1 :]):
            a, b = ri[k], ii[k]
            for j in range(k + 1, n):
                x = p * ri[j] - q * ii[j] - a * rk[j] + b * ik[j]
                y = p * ii[j] + q * ri[j] - a * ik[j] - b * rk[j]
                if prev_q:
                    x, y = x * prev_p + y * prev_q, y * prev_p - x * prev_q
                ri[j], ii[j] = x // norm, y // norm
        prev_p, prev_q, norm = p, q, p * p + q * q if q else p


# --- dense univariate polynomials and the Sturm chain --------------------------


class UniPoly:
    """Univariate polynomial, ascending Fraction coefficients."""

    # _scaled caches the integer form (numerators over the common
    # denominator, highest first; that denominator) for _horner
    __slots__ = ("coeffs", "_scaled")

    def __init__(self, coeffs):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_scaled", None)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def interpolate(ys) -> "UniPoly":
        """The polynomial of degree < m = len(ys) through the points
        (k, ys[k]), k = 0..m-1: Newton forward differences of the integers
        D*ys[k], D the common denominator, and one division by D*(m-1)!."""
        c, den = _over_common_den(ys)
        m = len(c)
        for j in range(1, m):
            for k in range(m - 1, j - 1, -1):
                c[k] -= c[k - 1]
        # c[k] is now k! times the Newton coefficient; expand (m-1)! times the
        # Newton form c0 + x(c1 + (x - 1)(c2/2! + ...)) from inside, on the
        # integers w*c[k] with w = (m-1)!/k!, so w ends as (m-1)!
        out, w = [0] * m, 1
        for k in range(m - 1, -1, -1):
            for i in range(m - 1, 0, -1):
                out[i] = out[i - 1] - k * out[i]
            out[0] = w * c[k] - k * out[0]
            w *= k or 1
        return UniPoly([Fraction(x, den * w) for x in out])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _horner(self, x):
        """(acc, den) with f(x) = acc / den and den > 0, for an int or
        Fraction x = p/q: Horner on the integers L*c_i, L the common
        denominator, so acc = sum L c_i p^i q^(d-i) and den = L q^d."""
        if self._scaled is None:
            nums, den = _over_common_den(self.coeffs)
            object.__setattr__(self, "_scaled", (nums[::-1] or [0], den))
        (acc, *rest), den = self._scaled
        p, q = x.numerator, x.denominator
        qk = 1
        for c in rest:
            qk *= q
            acc = acc * p + c * qk
        return acc, den * qk

    def __call__(self, x):
        """f(x): at an int or Fraction, the integer Horner reduced by one gcd
        at the end; at any other ring element (an interval, say), Horner in
        that ring."""
        if isinstance(x, (int, Fraction)):
            return Fraction(*self._horner(x))
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0)
        return acc

    def sign_at(self, x) -> int:
        """The sign (-1, 0 or 1) of f at an int or Fraction x, read off the
        integer Horner's numerator; nothing is reduced."""
        acc = self._horner(x)[0]
        return (acc > 0) - (acc < 0)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def primitive(self) -> "UniPoly":
        """Scale to coprime integers with positive leading coefficient."""
        if self.is_zero:
            return self
        p = self.scaled_primitive()
        if p.coeffs[-1] < 0:
            return UniPoly([-c for c in p.coeffs])
        return p

    def scaled_primitive(self) -> "UniPoly":
        """Scale by a positive rational to coprime integers (sign preserved)."""
        return UniPoly(_primitive_ints(self.coeffs))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Primitive gcd, by a remainder sequence of integer
        pseudo-remainders (``_pdiv``), each scaled back to coprime integers
        (Brown-Traub primitive PRS), so the coefficients stay near the size
        of the inputs' instead of growing as in Euclid over the rationals."""
        a, b = _primitive_ints(self.coeffs), _primitive_ints(other.coeffs)
        while b:
            a, b = b, _primitive_ints(_pdiv(a, b, 0)[1])
        return UniPoly(a).primitive()

    def squarefree_part(self) -> "UniPoly":
        """f / gcd(f, f'), primitive: the head of f's Sturm chain."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        return _sturm_chain(self)[0].primitive()

    def compose_power(self, stride: int) -> "UniPoly":
        """Substitute t**stride for the variable: f(v) -> f(t**stride)."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        out = [Fraction(0)] * (stride * self.degree + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[i * stride] = c
        return UniPoly(out)

    def int_coeffs(self):
        p = self.primitive()
        return tuple(int(c) for c in p.coeffs)

    def root_bound(self) -> Fraction:
        """M, the least power of two >= the Cauchy bound 1 + max |c_i / c_d|:
        every real root lies in (-M, M), and bisection from +-M stays dyadic."""
        if self.degree < 0:
            raise ValueError("zero polynomial")
        lead = abs(self.coeffs[-1])
        m = max((abs(c) for c in self.coeffs[:-1]), default=Fraction(0))
        return Fraction(1 << ceil(m / lead).bit_length())

    def __repr__(self):
        return f"UniPoly({[str(c) for c in self.coeffs]})"


def _primitive_ints(coeffs) -> list:
    """The ints or Fractions ``coeffs`` scaled by a positive rational to
    coprime integers (sign preserved); [] for zero."""
    nums, _ = _over_common_den(coeffs)
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(*nums)
    return [c // g for c in nums]


def _pdiv(a: list, b: list, k: int) -> tuple:
    """(q, r) with |lc b|^k a = q b + r and deg r < deg b, for ascending
    integer lists a and b (b's top nonzero); a k below the number of steps,
    max(len a - len b + 1, 0), counts as that number, and r has no trailing
    zeros.  Each step scales by |lc b| > 0 and subtracts sign(lc b) times
    the top, so q and r are positive multiples of the quotient and the
    remainder over Q, with their signs."""
    r, db = list(a), len(b) - 1
    m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
    q = [0] * max(len(r) - db, 0)
    for shift in range(len(q) - 1, -1, -1):
        top = r.pop() * s
        if m != 1:
            r, q = [m * c for c in r], [m * c for c in q]
        q[shift] = top
        for i in range(db):
            r[shift + i] -= top * b[i]
    if m != 1 and k > len(q):
        scale = m ** (k - len(q))
        r, q = [scale * c for c in r], [scale * c for c in q]
    while r and not r[-1]:
        r.pop()
    return q, r


def _sturm_chain(f: UniPoly) -> tuple:
    """Sturm chain of a nonzero f, each member rescaled to coprime integers
    by a positive rational; the sign structure is what the root count lives
    on.  Each member after f' is the primitive part of -rem(a, b), a and b
    the two before it, by integer pseudo-division (``_pdiv``).  When the
    last member, gcd(f, f'), is not constant, every member is divided by
    it, so that a multiple root at an interval end is counted like a simple
    one.  The last few chains are cached by that first member, so a
    polynomial's chain is built once."""
    return _chain_of_primitive(tuple(_primitive_ints(f.coeffs)))


@lru_cache(maxsize=16)
def _chain_of_primitive(head: tuple) -> tuple:
    rows = [list(head)]
    d = _primitive_ints([i * c for i, c in enumerate(head)][1:])
    if d:
        rows.append(d)
        while r := _primitive_ints([-c for c in _pdiv(rows[-2], rows[-1], 0)[1]]):
            rows.append(r)
    # the quotients by a nonconstant gcd are integral (Gauss's lemma): the
    # primitive part of the pseudo-quotient is the quotient itself
    if len(rows[-1]) > 1:
        rows = [_primitive_ints(_pdiv(h, rows[-1], 0)[0]) for h in rows]
    return tuple(UniPoly(r) for r in rows)


def _variations(chain, x) -> int:
    signs = []
    for p in chain:
        v = p.sign_at(x)
        if v:
            signs.append(v)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(coeffs, lo, hi) -> int:
    """Number of distinct real roots of ``coeffs`` in the half-open (lo, hi].

    ``coeffs`` holds ascending coefficients of a not-necessarily-squarefree
    polynomial; the count is of distinct roots.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    f = UniPoly(coeffs)
    if f.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    chain = _sturm_chain(f)
    return _variations(chain, lo) - _variations(chain, hi)


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational with the smallest denominator in the closed interval [lo, hi].

    Stern-Brocot style descent; used as the fast path when checking whether an
    isolating interval actually contains a rational root.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_in_interval(-hi, -lo)

    def rec(a: Fraction, b: Fraction) -> Fraction:
        ia = a.numerator // a.denominator
        if a == ia:
            return Fraction(ia)
        if ia + 1 <= b:
            return Fraction(ia + 1)
        # both in (ia, ia+1); recurse on the reciprocal of the fractional part
        fa = a - ia
        fb = b - ia
        return ia + 1 / rec(1 / fb, 1 / fa)

    return rec(lo, hi)


def _cross(p: list, q: list, r: list, s: list) -> list:
    """p*q - r*s for ascending integer coefficient lists (trailing zeros
    kept)."""
    out = [0] * max(len(p) + len(q), len(r) + len(s))
    for (u, v), sign in (((p, q), 1), ((r, s), -1)):
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                out[i + j] += sign * x * y
    return out


def _grid_cell(f: UniPoly, lo: Fraction, hi: Fraction, cells: int) -> tuple:
    """The one of ``cells`` equal cells of [lo, hi] that holds the one root
    of f there, as (lo', hi'), or (r, r) when the root r is a cell end; f is
    nonzero at lo and hi.  Quadratic interval refinement (Abbott 2014) on
    the grid points lo + i*h, i = a..b, which bracket the root: the secant
    through the exact values at a and b picks one of n parts of the bracket
    and two signs test it; n squares on a hit, and a miss takes sqrt(n) and
    one bisection step."""
    h = (hi - lo) / cells
    (va, da), (vb, db) = f._horner(lo), f._horner(hi)
    a, b, n = 0, cells, 4

    def probe(x) -> bool:
        """f's sign at grid point x moves the bracket end of that sign to x;
        True when x is the root."""
        nonlocal a, b, va, da, vb, db
        v, d = f._horner(lo + x * h)
        if v and (v > 0) == (va > 0):
            a, va, da = x, v, d
        elif v:
            b, vb, db = x, v, d
        return not v

    while b - a > 1:
        w = max((b - a) // n, 1)
        # the nearest a + k*w to the secant root a + (b - a) |va| / (|va| + |vb|)
        num, den = abs(va) * db * (b - a), (abs(va) * db + abs(vb) * da) * w
        m = min(a + w * ((2 * num + den) // (2 * den)), b)
        if a < m < b and probe(m):
            return (lo + m * h,) * 2
        # m is now an end of the bracket: test the part of width w beside it
        x = a + w if m == a else b - w
        if a < x < b and probe(x):
            return (lo + x * h,) * 2
        if b - a <= w:
            n = min(n * n, b - a)
            continue
        n = max(isqrt(n), 2)
        x = (a + b) // 2
        if probe(x):
            return (lo + x * h,) * 2
    return lo + a * h, lo + b * h


class AlgebraicReal:
    """Real algebraic number: squarefree integer polynomial + isolating interval.

    The polynomial is a candidate annihilator (not certified minimal); the
    constructor, the only way to make one, certifies via a Sturm count that
    the closed interval holds exactly one of its real roots, and collapses
    the interval to that root when it is an endpoint.  ``refine`` keeps
    each width's interval on the number.
    """

    __slots__ = ("poly", "interval", "_refined")

    def __init__(self, poly, interval: RationalInterval):
        poly = tuple(poly)
        if not all(isinstance(c, (int, Fraction)) and c.denominator == 1 for c in poly):
            raise ValueError(f"coefficients {list(poly)} are not all integers")
        f = UniPoly(poly)
        if f.degree < 1:
            raise ValueError("polynomial must have positive degree")
        # the chain divides by a nonconstant gcd(f, f'), lowering its head
        chain = _sturm_chain(f)
        if chain[0].degree < f.degree:
            raise ValueError("polynomial is not squarefree")
        coeffs = tuple(int(c) for c in f.coeffs)
        interval = RationalInterval(interval.lo, interval.hi)
        lo, hi = interval.lo, interval.hi
        # roots in the closed [lo, hi]: the Sturm count on (lo, hi], plus lo
        at_lo = not f.sign_at(lo)
        n = at_lo + (_variations(chain, lo) - _variations(chain, hi) if lo < hi else 0)
        if n != 1:
            raise ValueError(f"interval {interval} isolates {n} roots, expected exactly 1")
        # the one root at an endpoint collapses the interval to that point
        if at_lo or not f.sign_at(hi):
            interval = RationalInterval.point(lo if at_lo else hi)
        object.__setattr__(self, "poly", coeffs)
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "_refined", {})

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicReal is immutable")

    @property
    def is_rational(self) -> bool:
        return self.interval.width == 0

    def is_root_of(self, f: UniPoly) -> bool:
        """Exactly decide whether f vanishes at this number.

        ``poly`` is only a squarefree candidate annihilator, so the test goes
        through g = gcd(f, poly): f vanishes here iff g does, and g's roots
        are roots of ``poly``, of which the isolating interval holds one.
        """
        if f.is_zero:
            return True
        g = f.gcd(UniPoly(self.poly))
        if g.degree <= 0:
            return False
        iv = self.interval
        if iv.width == 0:
            return not g.sign_at(iv.lo)
        return sturm_count(g.int_coeffs(), iv.lo, iv.hi) == 1

    def gcd(self, f, g) -> list:
        """gcd(f(a, t), g(a, t)) in Q(a)[t], a this number, for f and g given
        by their coefficients in ascending powers of t, each a ``UniPoly`` in
        a.  The gcd comes the same way, each coefficient an ascending integer
        list in a reduced modulo m = ``poly``, the leading one nonzero at a;
        [] when both f and g vanish at a.

        Euclid by pseudo-remainders (Della Dora, Dicrescenzo and Duval 1985)
        on integer polynomials in w reduced modulo m: each reduction
        pseudo-divides every coefficient of a t-polynomial by m with one k,
        so the whole polynomial scales by one |lc m|^k, and strips its
        integer content.  A leading coefficient is zero exactly when
        ``is_root_of`` says so and is dropped before each step, so a step
        multiplies only by leading coefficients nonzero at a: no inverse is
        taken, and a reducible m needs no splitting."""
        m, dm = self.poly, len(self.poly) - 1

        def reduced(cs):
            k = max(map(len, cs)) - dm
            out = [_pdiv(c, m, k)[1] for c in cs]
            content = gcd(*(x for c in out for x in c))
            out = [[x // content for x in c] for c in out] if content > 1 else out
            while out and (not out[-1] or self.is_root_of(UniPoly(out[-1]))):
                out.pop()
            return out

        def ints(cs):
            nums = iter(_over_common_den([x for c in cs for x in c.coeffs] or [0])[0])
            return reduced([[next(nums) for _ in c.coeffs] for c in cs] or [[]])

        a, b = ints(f), ints(g)
        while b:
            while len(a) >= len(b):
                # a <- lc(b) a - top t^shift b, with the top term dropped
                top, shift = a.pop(), len(a) - len(b) + 1
                a = [_cross(b[-1], c, top, b[i - shift] if i >= shift else []) for i, c in enumerate(a)]
                a = reduced(a) if a else a
            a, b = b, a
        return a

    def refine(self, eps) -> RationalInterval:
        """Nested isolating interval of width <= eps, kept per eps; it resumes
        from the narrowest kept interval wider than eps.  The result is what
        sign bisection of that interval returns: after the fewest halvings
        that reach width <= eps, the cell of that grid holding the root, or
        the root itself when it is a grid point (``_grid_cell``)."""
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        iv = self.interval
        if iv.width == 0:
            return iv
        if eps in self._refined:
            return self._refined[eps]
        lo, hi = iv.lo, iv.hi
        for k in self._refined.values():  # bisection passes through each
            if eps < k.width < hi - lo:
                lo, hi = k.lo, k.hi
        cells = 1 << (ceil((hi - lo) / eps) - 1).bit_length()
        if cells > 1:
            lo, hi = _grid_cell(UniPoly(self.poly), lo, hi, cells)
        out = self._refined[eps] = RationalInterval(lo, hi)
        return out

    def __float__(self):
        return float(self.refine(Fraction(1, 10**17)).mid)

    def __repr__(self):
        return f"AlgebraicReal({list(self.poly)}, {self.interval!r})"

    def __str__(self):
        if self.is_rational:
            return str(self.interval.lo)
        return f"root of {list(self.poly)} in {self.interval}"

