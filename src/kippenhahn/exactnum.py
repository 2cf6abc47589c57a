"""Exact scalars: arbitrary-precision rationals, Gaussian rationals,
rational intervals and real algebraic numbers.

All values are immutable after construction; every operation is a pure
function, so sharing between threads is safe.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

# Arbitrary-precision rational scalar used throughout the library.  Python's
# Fraction already enforces the canonical form: reduced, positive denominator,
# canonical zero 0/1.
BigRational = Fraction

__all__ = [
    "BigRational",
    "ParseError",
    "parse_rational",
    "format_rational",
    "GaussianRational",
    "parse_gaussian",
    "RationalInterval",
    "ComplexInterval",
    "AlgebraicReal",
    "sturm_count",
    "simplest_in_interval",
]


class ParseError(ValueError):
    """Raised when scalar/polynomial/matrix text cannot be parsed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"line {self.line}, column {self.column or 0}: {base}"
        return base


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p"; surrounding whitespace is allowed."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text.strip()!r}: {exc}") from None


def format_rational(q) -> str:
    """Canonical text form, "p/q" or "p"."""
    return str(Fraction(q))


class GaussianRational:
    """Complex scalar with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_value(cls, v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        return cls(v)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus re^2 + im^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def __add__(self, other):
        other = _coerce_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        n2 = other.norm2()
        if not n2:
            raise ZeroDivisionError("division by zero Gaussian rational")
        conj = other.conjugate()
        num = self * conj
        return GaussianRational(num.re / n2, num.im / n2)

    def __rtruediv__(self, other):
        other = _coerce_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        other = _coerce_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * float(self.im)

    def __str__(self):
        if self.is_zero:
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


def _coerce_gaussian(v):
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    return NotImplemented


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
        value = Fraction(coef) if coef is not None else Fraction(1)
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
        lo = Fraction(lo)
        hi = Fraction(hi)
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

    def contains(self, q) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

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
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n == 0:
            return RationalInterval(1, 1)
        if n % 2 == 1:
            return RationalInterval(self.lo**n, self.hi**n)
        lo_abs = min(abs(self.lo), abs(self.hi))
        if self.contains_zero():
            lo_abs = Fraction(0)
        hi_abs = max(abs(self.lo), abs(self.hi))
        return RationalInterval(lo_abs**n, hi_abs**n)

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

    def hull(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(min(self.lo, other.lo), max(self.hi, other.hi))

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

    @classmethod
    def from_gaussian(cls, z: GaussianRational) -> "ComplexInterval":
        return cls(RationalInterval.point(z.re), RationalInterval.point(z.im))

    def __add__(self, other):
        other = _coerce_complex_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexInterval(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexInterval(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce_complex_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_complex_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_complex_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexInterval(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = ComplexInterval(RationalInterval(1, 1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        other = _coerce_complex_interval(other)
        if other is NotImplemented:
            return NotImplemented
        n2 = other.re**2 + other.im**2
        inv = n2.reciprocal()
        conj = ComplexInterval(other.re, -other.im)
        num = self * conj
        return ComplexInterval(num.re * inv, num.im * inv)

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def contains(self, other: "ComplexInterval") -> bool:
        return self.re.contains_interval(other.re) and self.im.contains_interval(
            other.im
        )

    def strictly_inside(self, other: "ComplexInterval") -> bool:
        return (
            other.re.lo < self.re.lo
            and self.re.hi < other.re.hi
            and other.im.lo < self.im.lo
            and self.im.hi < other.im.hi
        )

    def mid(self) -> GaussianRational:
        return GaussianRational(self.re.mid, self.im.mid)

    def conjugate(self) -> "ComplexInterval":
        return ComplexInterval(self.re, -self.im)

    def to_complex(self) -> complex:
        return float(self.re.mid) + 1j * float(self.im.mid)

    def __repr__(self):
        return f"ComplexInterval({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"({self.re} + {self.im}*i)"


def _coerce_complex_interval(v):
    if isinstance(v, ComplexInterval):
        return v
    if isinstance(v, GaussianRational):
        return ComplexInterval.from_gaussian(v)
    if isinstance(v, (int, Fraction)):
        return ComplexInterval(RationalInterval.point(v))
    if isinstance(v, RationalInterval):
        return ComplexInterval(v)
    return NotImplemented


# --- univariate sign/Sturm helpers on plain coefficient tuples ------------
#
# Coefficients are ascending; these helpers stay private to this module so
# that the heavier machinery in realroots can be cross-checked against them.


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deriv(coeffs):
    return tuple(i * c for i, c in enumerate(coeffs) if i >= 1)


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _poly_rem(f, g):
    """Remainder of f by g over the rationals."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and any(f):
        df = len(f) - 1
        if not f[-1]:
            f.pop()
            continue
        factor = f[-1] / lg
        shift = df - dg
        for i, c in enumerate(g):
            f[shift + i] -= factor * c
        f.pop()
    return _poly_trim(f)


def _sturm_chain(coeffs):
    f = _poly_trim(tuple(Fraction(c) for c in coeffs))
    if not f:
        return []
    chain = [f]
    d = _poly_trim(_poly_deriv(f))
    if d:
        chain.append(d)
        while True:
            r = _poly_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(tuple(-c for c in r))
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for f in chain:
        v = _poly_eval(f, x)
        if v:
            signs.append(1 if v > 0 else -1)
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
    chain = _sturm_chain(coeffs)
    if not chain:
        raise ValueError("zero polynomial has no isolated roots")
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


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


class AlgebraicReal:
    """Real algebraic number: squarefree integer polynomial + isolating interval.

    The polynomial is a candidate annihilator (not certified minimal); the
    constructor certifies via a Sturm count that the interval isolates exactly
    one of its real roots.
    """

    __slots__ = ("poly", "interval")

    def __init__(self, poly, interval: RationalInterval):
        coeffs = _poly_trim(tuple(int(c) for c in poly))
        if len(coeffs) < 2:
            raise ValueError("polynomial must have positive degree")
        if not _is_squarefree_int(coeffs):
            raise ValueError("polynomial is not squarefree")
        interval = RationalInterval(interval.lo, interval.hi)
        # collapse endpoint roots to exact points up front
        for end in (interval.lo, interval.hi):
            if _poly_eval(coeffs, end) == 0:
                interval = RationalInterval(end, end)
                break
        if interval.width > 0:
            n = sturm_count(coeffs, interval.lo, interval.hi)
            if _poly_eval(coeffs, interval.lo) == 0:
                n += 1
            if n != 1:
                raise ValueError(
                    f"interval {interval} isolates {n} roots, expected exactly 1"
                )
        object.__setattr__(self, "poly", coeffs)
        object.__setattr__(self, "interval", interval)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicReal is immutable")

    @property
    def is_rational(self) -> bool:
        return self.interval.width == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not certified rational")
        return self.interval.lo

    def refine(self, eps) -> RationalInterval:
        """Nested isolating interval of width <= eps, by sign bisection."""
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        iv = self.interval
        if iv.width == 0:
            return iv
        lo, hi = iv.lo, iv.hi
        sign_lo = 1 if _poly_eval(self.poly, lo) > 0 else -1
        while hi - lo > eps:
            mid = (lo + hi) / 2
            v = _poly_eval(self.poly, mid)
            if v == 0:
                return RationalInterval(mid, mid)
            if (1 if v > 0 else -1) == sign_lo:
                lo = mid
            else:
                hi = mid
        return RationalInterval(lo, hi)

    def to_float(self, eps=Fraction(1, 10**17)) -> float:
        return float(self.refine(eps).mid)

    def __float__(self):
        return self.to_float()

    def __repr__(self):
        return f"AlgebraicReal({list(self.poly)}, {self.interval!r})"

    def __str__(self):
        if self.is_rational:
            return str(self.interval.lo)
        return f"root of {list(self.poly)} in {self.interval}"


def _int_content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    return g or 1


def _is_squarefree_int(coeffs) -> bool:
    # squarefree over Q iff gcd(f, f') is constant
    f = tuple(Fraction(c) for c in coeffs)
    g = _poly_trim(_poly_deriv(f))
    while g:
        f, g = g, _poly_rem(f, g)
    return len(f) == 1
