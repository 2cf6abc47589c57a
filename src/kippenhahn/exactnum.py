"""Exact scalars: arbitrary-precision rationals, Gaussian rationals,
rational intervals and real algebraic numbers, together with the package's
dense univariate polynomials over the rationals (``UniPoly``) and the one
Sturm chain that every root count and algebraic-number certificate runs on.

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
    "UniPoly",
    "sturm_count",
    "simplest_in_interval",
]


def power(base, n, one):
    """base**n by square-and-multiply, starting from ``one``; NotImplemented
    unless n is an int >= 0."""
    if not isinstance(n, int) or n < 0:
        return NotImplemented
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


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

    def norm2(self) -> Fraction:
        """Squared modulus re^2 + im^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

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
        return power(self, n, GaussianRational(1))

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
        return _ordered(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return _ordered(-self.hi, -self.lo)

    def __sub__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return _ordered(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_interval(other)
        if other is NotImplemented:
            return NotImplemented
        # the nine sign cases of [a, b] * [c, d] (Moore 1966): only when both
        # straddle 0 do the extremes need four products and two comparisons
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a.numerator >= 0:
            if c.numerator >= 0:
                return _ordered(a * c, b * d)
            if d.numerator <= 0:
                return _ordered(b * c, a * d)
            return _ordered(b * c, b * d)
        if b.numerator <= 0:
            if c.numerator >= 0:
                return _ordered(a * d, b * c)
            if d.numerator <= 0:
                return _ordered(b * d, a * c)
            return _ordered(a * d, a * c)
        if c.numerator >= 0:
            return _ordered(a * d, b * d)
        if d.numerator <= 0:
            return _ordered(b * c, a * c)
        return _ordered(min(a * d, b * c), max(a * c, b * d))

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
        return power(self, n, ComplexInterval(RationalInterval(1, 1)))

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


# --- dense univariate polynomials and the Sturm chain --------------------------


class UniPoly:
    """Univariate polynomial, ascending Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def interpolate(xs, ys) -> "UniPoly":
        """The polynomial of degree < len(xs) through the points
        (xs[k], ys[k]), by Newton divided differences."""
        xs = list(xs)
        c = [Fraction(y) for y in ys]
        m = len(xs)
        for j in range(1, m):
            for k in range(m - 1, j - 1, -1):
                c[k] = (c[k] - c[k - 1]) / (xs[k] - xs[k - j])
        # expand the Newton form c0 + (x - x0)(c1 + (x - x1)(c2 + ...)) from inside
        out = [Fraction(0)] * m
        for k in range(m - 1, -1, -1):
            for i in range(m - 1, 0, -1):
                out[i] = out[i - 1] - xs[k] * out[i]
            out[0] = c[k] - xs[k] * out[0]
        return UniPoly(out)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        cs = self.coeffs
        if cs and isinstance(x, (int, Fraction)):
            # Horner on integers: with L the lcm of the coefficient
            # denominators and x = p/q, f(x) = sum (L c_i) p^i q^(d-i) / (L q^d),
            # reduced by one gcd at the end instead of one per step
            lcm = 1
            for c in cs:
                den = c.denominator
                if den != 1:
                    lcm = lcm * den // gcd(lcm, den)
            p, q = x.numerator, x.denominator
            acc = cs[-1].numerator * (lcm // cs[-1].denominator)
            qk = 1
            for i in range(len(cs) - 2, -1, -1):
                qk *= q
                acc = acc * p + cs[i].numerator * (lcm // cs[i].denominator) * qk
            return Fraction(acc, lcm * qk)
        acc = None
        for c in reversed(cs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0)
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __add__(self, other):
        other = _coerce_unipoly(other)
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return UniPoly(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce_unipoly(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_unipoly(other)
        if self.is_zero or other.is_zero:
            return UniPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other: "UniPoly"):
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        r = list(self.coeffs)
        lb = other.coeffs[-1]
        db = other.degree
        while len(r) - 1 >= db and any(r):
            if not r[-1]:
                r.pop()
                continue
            shift = len(r) - 1 - db
            factor = r[-1] / lb
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                r[shift + i] -= factor * c
            r.pop()
        return UniPoly(q), UniPoly(r)

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
        if self.is_zero:
            return self
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return UniPoly(
            [c.numerator * (den // c.denominator) // num for c in self.coeffs]
        )

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Primitive gcd, by a remainder sequence whose every member is
        scaled back to coprime integers (Brown-Traub primitive PRS), so the
        coefficients stay near the size of the inputs' instead of growing
        as in Euclid over the rationals."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1].scaled_primitive()
        if a.is_zero:
            return a
        return a.primitive()

    def resultant(self, other: "UniPoly") -> Fraction:
        """Sylvester resultant, by Euclid's remainder sequence over Q:
        res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) res(b, r) for
        r = a mod b, and res(a, c) = c^deg a for a constant c."""
        a, b = self, other
        if a.is_zero or b.is_zero:
            return Fraction(0)
        out = Fraction(1)
        while b.degree > 0:
            r = a.divmod(b)[1]
            if r.is_zero:
                return Fraction(0)
            if a.degree * b.degree % 2:
                out = -out
            out *= b.coeffs[-1] ** (a.degree - r.degree)
            a, b = b, r
        return out * b.coeffs[-1] ** a.degree

    def squarefree_part(self) -> "UniPoly":
        if self.is_zero:
            raise ValueError("zero polynomial")
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self.primitive()
        return self.divmod(g)[0].primitive()

    def __pow__(self, n):
        return power(self, n, UniPoly([1]))

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
        """Cauchy bound: every real root lies in (-M, M)."""
        if self.degree < 0:
            raise ValueError("zero polynomial")
        lead = abs(self.coeffs[-1])
        m = max((abs(c) for c in self.coeffs[:-1]), default=Fraction(0))
        return 1 + m / lead

    def __repr__(self):
        return f"UniPoly({[str(c) for c in self.coeffs]})"


def _coerce_unipoly(v):
    if isinstance(v, UniPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return UniPoly([v])
    if isinstance(v, (list, tuple)):
        return UniPoly(v)
    return NotImplemented


def _sturm_chain(f: UniPoly):
    """Sturm chain of a nonzero f, each member rescaled to coprime integers
    by a positive rational; the sign structure is what the root count lives
    on.  When the last member, gcd(f, f'), is not constant, every member is
    divided by it, so that a multiple root at an interval end is counted
    like a simple one."""
    chain = [f.scaled_primitive()]
    d = f.derivative()
    if not d.is_zero:
        chain.append(d.scaled_primitive())
        while True:
            r = chain[-2].divmod(chain[-1])[1]
            if r.is_zero:
                break
            chain.append((-r).scaled_primitive())
    g = chain[-1]
    if g.degree > 0:
        chain = [h.divmod(g)[0] for h in chain]
    return chain


def _variations(chain, x) -> int:
    signs = []
    for p in chain:
        v = p(x)
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


class AlgebraicReal:
    """Real algebraic number: squarefree integer polynomial + isolating interval.

    The polynomial is a candidate annihilator (not certified minimal); the
    constructor certifies via a Sturm count that the interval isolates exactly
    one of its real roots.
    """

    __slots__ = ("poly", "interval")

    def __init__(self, poly, interval: RationalInterval):
        f = UniPoly(int(c) for c in poly)
        if f.degree < 1:
            raise ValueError("polynomial must have positive degree")
        if f.gcd(f.derivative()).degree > 0:
            raise ValueError("polynomial is not squarefree")
        coeffs = tuple(int(c) for c in f.coeffs)
        interval = RationalInterval(interval.lo, interval.hi)
        # collapse endpoint roots to exact points up front
        for end in (interval.lo, interval.hi):
            if f(end) == 0:
                interval = RationalInterval(end, end)
                break
        if interval.width > 0:
            n = sturm_count(coeffs, interval.lo, interval.hi)
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
            return g(iv.lo) == 0
        return sturm_count(g.int_coeffs(), iv.lo, iv.hi) == 1

    def refine(self, eps) -> RationalInterval:
        """Nested isolating interval of width <= eps, by sign bisection."""
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        iv = self.interval
        if iv.width == 0:
            return iv
        f = UniPoly(self.poly)
        lo, hi = iv.lo, iv.hi
        sign_lo = 1 if f(lo) > 0 else -1
        while hi - lo > eps:
            mid = (lo + hi) / 2
            v = f(mid)
            if v == 0:
                return RationalInterval(mid, mid)
            if (1 if v > 0 else -1) == sign_lo:
                lo = mid
            else:
                hi = mid
        return RationalInterval(lo, hi)

    def _with_interval(self, interval: RationalInterval) -> "AlgebraicReal":
        """This number on ``interval``, which the caller has proved to be an
        isolating interval of it; nothing is certified again."""
        out = object.__new__(AlgebraicReal)
        object.__setattr__(out, "poly", self.poly)
        object.__setattr__(out, "interval", interval)
        return out

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

