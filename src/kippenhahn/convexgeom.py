"""Projective pole/polar duality, numerical-range geometry, convex hulls, and
the verification pipeline tying support functions, dual curves and singular
points together.

Convex sets enter through a small body abstraction: a pencil-backed body
evaluates its support function through the smallest eigenvalue, an oracle
body through a callback plus an exact curve polynomial, so the same checks
run on numerical ranges and on support-function counterexamples alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactnum import (
    AlgebraicReal,
    ComplexInterval,
    RationalInterval,
    UniPoly,
    _mul_range,
    _ordered,
    _over_common_den,
    sturm_count,
)
from .mpoly import MultiPoly, _evaluate_rational, _form_degree, parse_poly
from .matrixpencil import (
    HermitianPencil,
    _direction_stack,
    _direction_sweep,
    det_along_line,
    pencil_det,
    support_function,
    sample_numrange_boundary,
)
from .groebner import (
    DEFAULT_MAX_BITS,
    DEFAULT_MAX_TERMS,
    NonPrincipalIdealError,
    ResourceLimitError,
    dual_curve,
)
from .realroots import PrecisionError, count_real_roots, real_singular_points

__all__ = [
    "ProjPoint",
    "ProjLine",
    "PointCloud",
    "PencilBody",
    "OracleBody",
    "fermat6_body",
    "OutsideResult",
    "MeetResult",
    "LineRealResult",
    "TangencyWitness",
    "point_outside_W",
    "line_meets_interior_dual",
    "check_lemma_ws",
    "line_curve_real_check",
    "sample_kippenhahn_curve",
    "convex_hull",
    "hausdorff",
    "tangency_check",
    "CheckResult",
    "VerificationReport",
    "run_verification",
    "VerifyConfig",
]

GEOM_TOL = 1e-9

# the hull_hausdorff tolerance is HULL_CONSTANT / resolution^2
HULL_CONSTANT = 24.0  # calibrated on the n = 2 ellipse case


# --- projective duality -------------------------------------------------------


class ProjPoint:
    """Point of the projective plane, coordinates up to nonzero scaling.

    Coordinates may be Fraction, AlgebraicReal, or float; the pole/polar
    correspondence is with respect to the quadric x0^2 + x1^2 + x2^2 = 0.
    """

    __slots__ = ("coords",)

    def __init__(self, c0, c1, c2):
        coords = tuple(
            c if isinstance(c, (AlgebraicReal, float)) else Fraction(c)
            for c in (c0, c1, c2)
        )
        if all(_coord_is_zero(c) for c in coords):
            raise ValueError("projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @classmethod
    def from_affine(cls, y1, y2) -> "ProjPoint":
        return cls(1, y1, y2)

    def float_coords(self):
        return tuple(float(c) for c in self.coords)

    def polar(self) -> "ProjLine":
        """The polar line {y : x0 y0 + x1 y1 + x2 y2 = 0} of this point."""
        return ProjLine(self)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __repr__(self):
        return f"ProjPoint{self.coords!r}"


class ProjLine:
    """Line of the projective plane, identified with its pole."""

    __slots__ = ("pole",)

    def __init__(self, pole: ProjPoint):
        object.__setattr__(self, "pole", pole)

    def __setattr__(self, name, value):
        raise AttributeError("ProjLine is immutable")

    def polar(self) -> ProjPoint:
        """The pole of this line; inverse of ProjPoint.polar."""
        return self.pole

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self.pole == other.pole

    def __repr__(self):
        return f"ProjLine(pole={self.pole!r})"


def _coord_is_zero(c) -> bool:
    if isinstance(c, AlgebraicReal):
        # the closed interval holds exactly one root of poly
        return not c.poly[0] and c.interval.contains_zero()
    return not c


# --- convex bodies -------------------------------------------------------------


class PencilBody:
    """Compact convex set presented as the numerical range of a pencil."""

    def __init__(self, pencil: HermitianPencil, name: str = "pencil"):
        self.pencil = pencil
        self.name = name
        self._curve_poly = None

    def support(self, x1: float, x2: float) -> float:
        return support_function(self.pencil, (x1, x2))

    def margin(self, s1: float, s2: float) -> float:
        """1 + h(s): positive inside the dual set S, zero on its boundary."""
        if s1 == 0.0 and s2 == 0.0:
            return 1.0
        return 1.0 + self.support(s1, s2)

    @property
    def curve_poly(self) -> MultiPoly:
        if self._curve_poly is None:
            self._curve_poly = pencil_det(self.pencil)
        return self._curve_poly

    def translated_to_centroid(self) -> "PencilBody":
        c1, c2 = self.pencil.centroid()
        if c1 == 0 and c2 == 0:
            return self
        return PencilBody(self.pencil.translated(c1, c2), name=self.name + "@centroid")

    def interior_exact(self, s1: Fraction, s2: Fraction) -> bool:
        """Exact strict membership of a rational point in the dual set S."""
        return self.pencil.combine_exact(s1, s2, shift=1).is_positive_definite()

    def restriction_poly(self, e, direction) -> UniPoly:
        """Exact det((1 + e.K+L) + t (d.K+L)) along the affine line e + t d."""
        A = self.pencil.combine_exact(Fraction(e[0]), Fraction(e[1]), shift=1)
        B = self.pencil.combine_exact(Fraction(direction[0]), Fraction(direction[1]))
        return UniPoly(det_along_line(A, B))

    def is_degenerate(self) -> bool:
        """True when the numerical range has empty interior (point or segment)."""
        if self.pencil.n == 1:
            return True
        pts = [y for _, y, _ in sample_numrange_boundary(self.pencil, 64)]
        arr = np.array(pts)
        centered = arr - arr.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        return bool(sv[1] <= GEOM_TOL * max(1.0, sv[0]))


class OracleBody:
    """Convex set given by a support-function callback plus exact curve data.

    ``curve_poly`` is the homogeneous polynomial whose projective zero set
    contains the poles (-h(x) : x1 : x2) of all supporting lines.  The dual
    set is taken to be S = {s : curve_poly(1, s1, s2) >= 0}, with
    curve_poly(1, s1, s2) > 0 inside: ``interior_exact`` and
    ``interior_interval`` read that sign.
    """

    def __init__(self, support, curve_poly: MultiPoly, name: str = "oracle"):
        self._support = support
        self.curve_poly = curve_poly
        self.name = name
        self.pencil = None

    def support(self, x1: float, x2: float) -> float:
        return self._support(x1, x2)

    def margin(self, s1: float, s2: float) -> float:
        if s1 == 0.0 and s2 == 0.0:
            return 1.0
        return 1.0 + self.support(s1, s2)

    def interior_exact(self, s1: Fraction, s2: Fraction) -> bool:
        val = self.curve_poly.evaluate((Fraction(1), Fraction(s1), Fraction(s2)))
        return val > 0

    def interior_interval(self, b1: RationalInterval, b2: RationalInterval):
        """Interval enclosure of the dual-set margin curve_poly(1, s1, s2)."""
        one = RationalInterval.point(Fraction(1))
        return self.curve_poly.evaluate((one, b1, b2))

    def restriction_poly(self, e, direction) -> UniPoly:
        """curve_poly(1, e1 + d1*T, e2 + d2*T) as a UniPoly in T, interpolated
        from its exact values at T = 0..deg."""
        f, (e1, e2), (d1, d2) = self.curve_poly, e, direction
        ys = [f.evaluate((1, e1 + k * d1, e2 + k * d2)) for k in range(f.total_degree + 1)]
        return UniPoly.interpolate(ys)

    def is_degenerate(self) -> bool:
        return False


def fermat6_body() -> OracleBody:
    """The support-function example h(x) = -(x1^6 + x2^6)^(1/6).

    Its supporting-line poles sweep the sextic Fermat curve; the dual convex
    set is {s : s1^6 + s2^6 <= 1}.
    """

    def h(x1: float, x2: float) -> float:
        return -((x1**6 + x2**6) ** (1.0 / 6.0))

    p = parse_poly("x0^6 - x1^6 - x2^6", ("x0", "x1", "x2"))
    return OracleBody(h, p, name="fermat6")


# --- point/line location checks ------------------------------------------------


@dataclass(frozen=True)
class OutsideResult:
    """Outcome of the separating-direction search for a point against W.

    ``outside`` is None inside the degenerate tolerance band around the
    boundary; ``direction`` witnesses separation when outside.
    """

    outside: bool | None
    margin: float
    direction: tuple[float, float] | None


def _refine_minimum(f, a, b):
    """Golden-section minimum of f on [a, b], 60 steps."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
    xm = (a + b) / 2.0
    return xm, f(xm)


def _support_sweep(body, m: int) -> tuple[list[float], list[float]]:
    """The angles theta_j = 2 pi j / m and the support values h(theta_j): for
    a pencil one stacked ``eigvalsh`` call, bit for bit ``support_function``."""
    if body.pencil is None:
        thetas = [2.0 * math.pi * j / m for j in range(m)]
        return thetas, [body.support(math.cos(t), math.sin(t)) for t in thetas]
    thetas, stack = _direction_stack(body.pencil, m)
    return thetas, np.linalg.eigvalsh(stack)[:, 0].tolist()


def point_outside_W(body, y) -> OutsideResult:
    """Decide whether y lies outside the convex set via supporting lines.

    Minimizes <x(theta), y> - h(x(theta)) over the unit circle by grid
    sampling at 96 angles plus golden-section refinement of each local
    minimum; negative minimum means a separating direction, positive means
    every supporting half-plane contains y.
    """
    y1, y2 = float(y[0]), float(y[1])
    ndirs = 96

    def gap(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        return c * y1 + s * y2 - body.support(c, s)

    thetas, hs = _support_sweep(body, ndirs)
    vals = [math.cos(t) * y1 + math.sin(t) * y2 - h for t, h in zip(thetas, hs)]
    best_theta, best_val = None, math.inf
    for j in range(ndirs):
        prev = vals[(j - 1) % ndirs]
        here = vals[j]
        nxt = vals[(j + 1) % ndirs]
        if here <= prev and here <= nxt:
            a = thetas[j] - 2.0 * math.pi / ndirs
            b = thetas[j] + 2.0 * math.pi / ndirs
            xm, vm = _refine_minimum(gap, a, b)
            if vm < best_val:
                best_theta, best_val = xm, vm
    if best_val < -GEOM_TOL:
        return OutsideResult(True, best_val, (math.cos(best_theta), math.sin(best_theta)))
    if best_val > GEOM_TOL:
        return OutsideResult(False, best_val, None)
    return OutsideResult(None, best_val, None)


@dataclass(frozen=True)
class MeetResult:
    """Outcome of searching a line for interior points of the dual set."""

    meets: bool | None
    margin: float
    point: tuple[float, float] | None


def line_meets_interior_dual(body, line: ProjLine) -> MeetResult:
    """Does the affine part of the line contain an interior point of S = W*?

    The membership margin 1 + h(s) is concave along the line, so a golden
    section search after bracket expansion finds its maximum.
    """
    a, b, c = line.pole.float_coords()
    if b == 0.0 and c == 0.0:
        return MeetResult(False, -math.inf, None)  # line at infinity
    n2 = b * b + c * c
    base = (-a * b / n2, -a * c / n2)
    d = (-c / math.sqrt(n2), b / math.sqrt(n2))

    def m(t: float) -> float:
        return body.margin(base[0] + t * d[0], base[1] + t * d[1])

    # expand until the concave margin is decreasing at both ends
    span = 1.0
    for _ in range(60):
        if m(span) < m(span * 0.98) and m(-span) < m(-span * 0.98):
            break
        span *= 2.0
    tm, _ = _refine_minimum(lambda t: -m(t), -span, span)
    vm = m(tm)
    pt = (base[0] + tm * d[0], base[1] + tm * d[1])
    if vm > GEOM_TOL:
        return MeetResult(True, vm, pt)
    if vm < -GEOM_TOL:
        return MeetResult(False, vm, None)
    return MeetResult(None, vm, None)


@dataclass(frozen=True)
class LemmaSample:
    point: tuple[float, float]
    outside: bool | None
    meets: bool | None

    @property
    def degenerate(self) -> bool:
        return self.outside is None or self.meets is None

    @property
    def consistent(self) -> bool:
        return self.degenerate or self.outside == self.meets


def check_lemma_ws(body, samples):
    """Point-outside-W versus polar-meets-interior-of-dual, sample by sample.

    The body must contain the origin as an interior point (translate to the
    centroid first).  Returns (samples, mismatches, degenerate_count).
    """
    out = []
    mismatches = []
    degenerate = 0
    for y in samples:
        o = point_outside_W(body, y)
        l = line_meets_interior_dual(body, ProjPoint.from_affine(*y).polar())
        rec = LemmaSample((float(y[0]), float(y[1])), o.outside, l.meets)
        out.append(rec)
        if rec.degenerate:
            degenerate += 1
        elif not rec.consistent:
            mismatches.append(rec)
    return out, mismatches, degenerate


@dataclass(frozen=True)
class LineRealResult:
    """Exact intersection record of a rational line with the curve D."""

    all_real: bool
    finite_roots: int
    distinct_roots: int
    meets_at_infinity: bool
    restriction: UniPoly


def line_curve_real_check(body, e, direction) -> LineRealResult:
    """Certify that a rational line through the interior of S meets D only in
    real points (or exhibit the failure).

    The restriction polynomial f is exact; realness of all its complex roots
    is decided by counting f's distinct real roots on its Sturm chain, which
    also yields the squarefree part as its head.
    """
    e = (Fraction(e[0]), Fraction(e[1]))
    direction = (Fraction(direction[0]), Fraction(direction[1]))
    if not any(direction):
        raise ValueError("zero direction")
    if not body.interior_exact(*e):
        raise ValueError("base point is not strictly interior to S")
    f = body.restriction_poly(e, direction)
    if f.is_zero:
        raise ValueError("line lies inside the curve")
    expected = None
    if body.pencil is not None:
        expected = body.pencil.n
    elif body.curve_poly is not None:
        expected = body.curve_poly.homogeneous_degree()
    at_infinity = expected is not None and f.degree < expected
    fs = f.squarefree_part()
    distinct = 0
    if fs.degree > 0:
        distinct = count_real_roots(f)
    return LineRealResult(
        all_real=(fs.degree <= 0) or (distinct == fs.degree),
        finite_roots=f.degree,
        distinct_roots=distinct,
        meets_at_infinity=at_infinity,
        restriction=f,
    )


# --- curve sampling, hulls, distances -------------------------------------------


@dataclass
class PointCloud:
    """Finite planar point set with the direction and eigenvector branch of
    each point; ``points`` is held as one (N, 2) float64 array."""

    points: np.ndarray
    thetas: list = field(default_factory=list)
    branches: list = field(default_factory=list)

    def __post_init__(self):
        self.points = np.asarray(self.points, float).reshape(-1, 2)
        if not np.isfinite(self.points).all():
            raise ValueError("point cloud contains a non-finite entry")

    def __len__(self):
        return len(self.points)

    def to_csv(self) -> str:
        lines = ["theta,y1,y2,branch"]
        for i, (x, y) in enumerate(self.points.tolist()):
            theta = self.thetas[i] if len(self.thetas) else float("nan")
            branch = self.branches[i] if len(self.branches) else 0
            lines.append(f"{theta:.12e},{x:.12e},{y:.12e},{branch}")
        return "\n".join(lines) + "\n"


def sample_kippenhahn_curve(P: HermitianPencil, m: int) -> PointCloud:
    """Quadratic-form images of every eigenvector branch of cos/sin pencils.

    For each direction the n eigenvectors of x1 K + x2 L produce n points;
    together they sweep all real branches of the boundary generating curve,
    including the inner branches enveloped by non-extremal tangent lines.
    """
    thetas, _, images = _direction_sweep(P, m)
    n = P.n
    return PointCloud(
        images.reshape(-1, 2),
        np.repeat(thetas, n),
        np.tile(np.arange(n), m),
    )


def convex_hull(points) -> list:
    """Counterclockwise extreme points by the monotone chain; collinear
    interior points are dropped."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hausdorff(cloud_a, cloud_b) -> float:
    """Symmetric Hausdorff distance between two finite point sets, each an
    (N, 2) array or a list of (x, y) pairs."""
    A = np.asarray(cloud_a, dtype=float)
    B = np.asarray(cloud_b, dtype=float)
    if A.size == 0 or B.size == 0:
        raise ValueError("empty point set")

    def directed(U, V):
        worst = 0.0
        step = 64  # rows per block: the block's float array is 2 * step * len(V)
        for i in range(0, len(U), step):
            chunk = U[i : i + step]
            d2 = ((chunk[:, None, :] - V[None, :, :]) ** 2).sum(axis=2)
            worst = max(worst, float(np.sqrt(d2.min(axis=1).max())))
        return worst

    return max(directed(A, B), directed(B, A))


def _affine_values(terms, X, Y) -> np.ndarray:
    """p(1, X, Y) at the float arrays X and Y: the sum of c X^e1 Y^e2 over
    the (exponent, coefficient) pairs ``terms``, added in their given order,
    which fixes the rounding."""
    Z = np.zeros_like(X)
    for exp, c in terms:
        Z += float(c) * X ** exp[1] * Y ** exp[2]
    return Z


# --- tangency certification -----------------------------------------------------
#
# Coordinates of the dual point may involve one real algebraic number; the
# polar line is parametrized with denominator-free coefficients in Z[w], the
# restriction g(t) of the curve to the line is formed over Z[w][t], and one
# exact object, the contact gcd G = gcd(g, g') over Q(w), both decides a
# double root (deg G > 0) and carries the contact points: complex interval
# Newton on G localizes them, so each witness box holds a root of G.

# width to which the algebraic generator's isolating interval is refined
TANGENCY_EPS = Fraction(1, 10**30)
# outward rounding grid 1/_GRID = 2^-200, far below TANGENCY_EPS (about 2^-100)
_GRID = 1 << 2 * TANGENCY_EPS.denominator.bit_length()


@dataclass(frozen=True)
class TangencyWitness:
    """Certified tangency contact point in the affine chart x0 = 1."""

    x1: ComplexInterval
    x2: ComplexInterval
    parameter: ComplexInterval


def _generator_sign(c: AlgebraicReal, base: AlgebraicReal) -> int:
    """+1/-1 when c is the same root as base or its negation, else 0.  Each
    refined interval holds exactly one root of the common polynomial, so
    two of them hold the same root iff their closed intersection holds a
    root, which a Sturm count decides."""
    if c.poly != base.poly:
        return 0
    a = c.refine(TANGENCY_EPS)
    b = base.refine(TANGENCY_EPS)

    def holds_root(iv) -> bool:
        return iv is not None and (
            sturm_count(c.poly, iv.lo, iv.hi) > 0 or not UniPoly(c.poly).sign_at(iv.lo)
        )

    if holds_root(a.intersect(b)):
        return 1
    # the negated root satisfies the same polynomial iff m(-t) = +-m(t)
    odd_zero = all(not coef for i, coef in enumerate(c.poly) if i % 2 == 1)
    even_zero = all(not coef for i, coef in enumerate(c.poly) if i % 2 == 0)
    if (odd_zero or even_zero) and holds_root(a.intersect(-b)):
        return -1
    return 0


def _coords_as_wpolys(coords):
    """Express projective coordinates as integer polynomials in one generator.

    Returns (coeff_polys, gen): each coordinate becomes a UniPoly with
    integer coefficients in the generator w, and gen is the AlgebraicReal w.
    Coordinates may be rationals plus one algebraic number (up to sign);
    all-rational input uses the trivial generator w = 0.
    """
    gen: AlgebraicReal | None = None
    signs = {}
    for i, c in enumerate(coords):
        if isinstance(c, AlgebraicReal):
            if gen is None:
                gen = c
                signs[i] = 1
            else:
                s = _generator_sign(c, gen)
                if s == 0:
                    raise ValueError(
                        "coordinates may involve at most one algebraic generator"
                    )
                signs[i] = s
        elif isinstance(c, float):
            raise ValueError("this check needs exact coordinates")
    den = math.lcm(*(c.denominator for c in coords if isinstance(c, Fraction)))
    polys = []
    for i, c in enumerate(coords):
        if isinstance(c, AlgebraicReal):
            polys.append(UniPoly([0, signs[i] * den]))
        else:
            polys.append(UniPoly([c * den]))
    if gen is None:
        gen = AlgebraicReal((0, 1), RationalInterval.point(0))
    return polys, gen


def _enclose(f: UniPoly, iv: RationalInterval) -> RationalInterval:
    """Enclosure of f over iv by the census's interval evaluator
    ``_evaluate_rational`` (a point interval when deg f < 1)."""
    v = _evaluate_rational({(i,): c for i, c in enumerate(f.coeffs)}, (iv,))
    return v if isinstance(v, RationalInterval) else RationalInterval.point(v)


def _round_out(z: ComplexInterval) -> ComplexInterval:
    """The box z widened outward to the grid 1/_GRID, so that its integers
    stay short: lower ends floored and upper ends ceiled where the
    denominator is longer than the grid's; a short end stays exact."""

    def floor(q: Fraction) -> Fraction:
        return q if q.denominator <= _GRID else Fraction(q.numerator * _GRID // q.denominator, _GRID)

    return ComplexInterval(*(_ordered(floor(iv.lo), -floor(-iv.hi)) for iv in (z.re, z.im)))


def _polar_line_param(point_coords, eps):
    """Denominator-free parametrization P + t Q of the polar line of a point.

    Returns (Pp, Qq, gen, w_iv): the coordinates of P and Q as integer
    polynomials in the point's generator (see ``_coords_as_wpolys``), the
    generator, and its isolating interval refined to width eps.  Pivots on
    the coordinate of largest magnitude:
    P = y_piv e_j - y_j e_piv, Q = y_piv e_k - y_k e_piv.
    """
    coords, gen = _coords_as_wpolys(point_coords)
    w_iv = gen.refine(eps)
    mags = [abs(_enclose(c, w_iv).mid) for c in coords]
    piv = max(range(3), key=lambda i: mags[i])
    j, k = [i for i in range(3) if i != piv]
    Pp = [UniPoly([])] * 3
    Pp[j] = coords[piv]
    Pp[piv] = -coords[j]
    Qq = [UniPoly([])] * 3
    Qq[k] = coords[piv]
    Qq[piv] = -coords[k]
    return Pp, Qq, gen, w_iv


def _horner(coeffs, t: ComplexInterval) -> ComplexInterval:
    """Complex interval Horner value of the nonempty ascending ``coeffs`` at
    t, each step acc*t (re*re - im*im, re*im + im*re) + c, on integers: the
    coefficient endpoints over one denominator Dc and t's over one Dt, so
    that after k + 1 steps acc is an integer box over Dc*Dt^k.  Each endpoint
    is reduced once, at the end."""
    ends, dc = _over_common_den(
        [x for c in coeffs for x in (c.re.lo, c.re.hi, c.im.lo, c.im.hi)]
    )
    (a, b, c, d), dt = _over_common_den([t.re.lo, t.re.hi, t.im.lo, t.im.hi])
    rl, rh, il, ih = ends[-4:]
    w = 1
    for k in range(len(ends) - 8, -1, -4):
        w *= dt
        (p0, p1), (q0, q1) = _mul_range(rl, rh, a, b), _mul_range(il, ih, c, d)
        (u0, u1), (v0, v1) = _mul_range(rl, rh, c, d), _mul_range(il, ih, a, b)
        rl, rh = p0 - q1 + ends[k] * w, p1 - q0 + ends[k + 1] * w
        il, ih = u0 + v0 + ends[k + 2] * w, u1 + v1 + ends[k + 3] * w
    den = dc * w
    return ComplexInterval(
        _ordered(Fraction(rl, den), Fraction(rh, den)),
        _ordered(Fraction(il, den), Fraction(ih, den)),
    )


def tangency_check(p: MultiPoly, y: ProjPoint):
    """Contact points where the polar line of y touches the curve {p = 0}.

    Restricts p to the polar line of y (parametrized denominator-free over
    the ring generated by y's coordinates) as g(w, t) and takes the contact
    gcd G = gcd(g, g') in Q(w)[t] at the algebraic generator w
    (``AlgebraicReal.gcd``, Euclid without inverses): the roots of G are
    exactly the multiple roots of g.  Complex interval Newton on G
    certifies each witness box to hold one root of G, so every witness is a
    proven contact point; at a double tangent G is squarefree and there is
    one witness per root of G.  Returns the witnesses in the chart x0 = 1,
    none when deg G = 0 (the polar of y is not tangent).  A contact at
    infinity gives no witness.  Raises ``PrecisionError`` when Newton
    certifies fewer roots than deg G, as at a multiple root of G (a contact
    of order three or more), and ``ValueError`` when the polar line lies
    inside the curve or p is not a nonzero form in three variables.  A
    nonzero constant p has an empty curve and no witnesses.
    """
    if _form_degree(p) == 0:
        return []
    Pp, Qq, gen, w_iv = _polar_line_param(y.coords, TANGENCY_EPS)
    wt = ("w", "t")
    t = MultiPoly.variable(wt, 1)

    def lift(f: UniPoly) -> MultiPoly:
        return MultiPoly(wt, {(i, 0): c for i, c in enumerate(f.coeffs)})

    g = p.normalized().evaluate([lift(Pp[i]) + t * lift(Qq[i]) for i in range(3)])
    G = gen.gcd(g.coefficients(1), g.diff(1).coefficients(1))
    if not G:
        raise ValueError("polar line lies inside the curve")
    if len(G) == 1:
        return []

    # interval coefficients in t of G and G', each enclosing its w-polynomial
    # over w_iv
    G_iv, Gp_iv = (
        [_round_out(ComplexInterval(_enclose(UniPoly(c), w_iv))) for c in h]
        for h in (G, [[j * x for x in c] for j, c in enumerate(G)][1:])
    )

    # localize the roots of G numerically, certify by interval Newton
    lead = G_iv[-1].re.mid
    roots = np.roots([float(c.re.mid / lead) for c in reversed(G_iv)])
    boxes = []
    for r in roots:
        rad = Fraction(1, 10**6)
        t0_re = Fraction(float(r.real)).limit_denominator(10**15)
        t0_im = Fraction(float(r.imag)).limit_denominator(10**15)
        for _ in range(8):
            T = ComplexInterval(
                RationalInterval(t0_re - rad, t0_re + rad),
                RationalInterval(t0_im - rad, t0_im + rad),
            )
            mid = ComplexInterval(t0_re, t0_im)
            try:
                newton = mid - _horner(G_iv, mid) / _horner(Gp_iv, T)
            except ZeroDivisionError:
                rad = rad / 16
                continue
            if newton.strictly_inside(T):
                # the exact box proved one zero; rounding out keeps it inside
                boxes.append(_round_out(newton))
                break
            rad = rad / 16
    if len(boxes) < len(G) - 1:
        raise PrecisionError(f"certified {len(boxes)} of the {len(G) - 1} contact roots")

    out = []
    for T in boxes:
        xs = [
            ComplexInterval(_enclose(Pp[i], w_iv))
            + T * ComplexInterval(_enclose(Qq[i], w_iv))
            for i in range(3)
        ]
        x0 = xs[0]
        if x0.contains_zero():
            continue  # contact in the chart at infinity; not representable here
        out.append(TangencyWitness(x1=xs[1] / x0, x2=xs[2] / x0, parameter=T))
    return out


# --- verification pipeline -------------------------------------------------------


@dataclass
class VerifyConfig:
    """Knobs for the end-to-end verification run."""

    resolution: int = 720
    max_terms: int = DEFAULT_MAX_TERMS
    max_bits: int = DEFAULT_MAX_BITS
    lemma_samples: int = 200
    obs2_lines: int = 100
    seed: int = 20230114

    def hull_tolerance(self) -> float:
        return HULL_CONSTANT / float(self.resolution) ** 2


@dataclass
class CheckResult:
    name: str
    status: str  # pass / fail / degenerate / unchecked
    details: str = ""
    witnesses: list = field(default_factory=list)


class VerificationReport:
    """Named check outcomes; failures always carry concrete witnesses."""

    def __init__(self, title: str):
        self.title = title
        self.checks: list[CheckResult] = []

    def add(self, *args, **kwargs):
        self.checks.append(CheckResult(*args, **kwargs))

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def degenerate(self) -> bool:
        return any(c.status == "degenerate" for c in self.checks)

    def format_text(self) -> str:
        lines = [f"verification report: {self.title}"]
        for c in sorted(self.checks, key=lambda c: c.name):
            line = f"{c.status.upper():10s} {c.name:28s} {c.details}"
            lines.append(line.rstrip())
            for w in c.witnesses:
                lines.append(f"{'':10s} witness: {w}")
        return "\n".join(lines) + "\n"


def _certified_polar_crossing(body, point_coords):
    """Certificate that the polar of an outside point meets the interior of S.

    For exact coordinates on an oracle body the dual-set margin is evaluated
    in interval arithmetic at a rational parameter of the polar line, giving
    a rigorous strictly-positive enclosure; otherwise fall back to the float
    search.
    """
    line = ProjPoint(*point_coords).polar()
    meet = line_meets_interior_dual(body, line)
    exact = None
    if (
        meet.meets
        and isinstance(body, OracleBody)
        and not any(isinstance(c, float) for c in point_coords)
    ):
        Pp, Qq, _, w_iv = _polar_line_param(point_coords, Fraction(1, 10**25))
        # rational parameter near the float optimum
        sx, sy = meet.point
        pf = [_enclose(c, w_iv) for c in Pp]
        qf = [_enclose(c, w_iv) for c in Qq]
        denom = float(qf[0].mid) * sx - float(qf[1].mid)
        tstar = Fraction(0)
        if abs(denom) > 1e-12:
            tstar = Fraction(
                (float(pf[1].mid) - float(pf[0].mid) * sx) / denom
            ).limit_denominator(2**24)
        x = [pf[i] + tstar * qf[i] for i in range(3)]
        if not x[0].contains_zero():
            s1 = x[1] / x[0]
            s2 = x[2] / x[0]
            margin_iv = body.interior_interval(s1, s2)
            if margin_iv.sign() > 0:
                exact = (s1, s2, margin_iv)
    return meet, exact


def run_verification(body, config: VerifyConfig | None = None) -> VerificationReport:
    """End-to-end verification: determinant curve, dual curve, duality lemma,
    interior-line realness, singular-point location against the convex set,
    and the hull comparison for pencil bodies."""
    cfg = config or VerifyConfig()
    rng = np.random.default_rng(cfg.seed)
    report = VerificationReport(body.name)

    # degenerate geometry short-circuits everything
    if body.is_degenerate():
        report.add(
            "degenerate_geometry",
            "degenerate",
            "numerical range has empty interior (point or segment); "
            "duality checks need an interior origin and are skipped",
        )
        _add_unchecked(report, no_dual=True)
        return report

    p = body.curve_poly
    deg = p.homogeneous_degree()
    report.add(
        "determinant_curve",
        "pass",
        f"degree {deg}, {p.num_terms()} terms: {p}",
    )

    q = None
    try:
        q = dual_curve(p, max_terms=cfg.max_terms, max_bits=cfg.max_bits)
        report.add(
            "dual_curve",
            "pass",
            f"degree {q.total_degree}, {q.num_terms()} terms",
        )
    except ResourceLimitError as exc:
        report.add("dual_curve", "fail", f"resource cap: {exc}", witnesses=[str(exc)])
    except (NonPrincipalIdealError, ValueError) as exc:  # ValueError: not squarefree
        report.add("dual_curve", "fail", str(exc), witnesses=[str(exc)])

    # Lemma on the centroid-translated body (interior origin guaranteed)
    lemma_body = (
        body.translated_to_centroid() if isinstance(body, PencilBody) else body
    )
    extent = _body_extent(lemma_body)
    samples = [
        (float(rng.uniform(-extent, extent)), float(rng.uniform(-extent, extent)))
        for _ in range(cfg.lemma_samples)
    ]
    _, mismatches, degen = check_lemma_ws(lemma_body, samples)
    if mismatches:
        report.add(
            "lemma_ws",
            "fail",
            f"{len(mismatches)} of {len(samples)} samples disagree",
            witnesses=[m.point for m in mismatches[:8]],
        )
    else:
        report.add(
            "lemma_ws",
            "pass",
            f"{len(samples) - degen} samples agree ({degen} boundary-band skipped)",
        )

    # interior lines meet the curve in real points (hyperbolicity-style check)
    bad_lines = []
    tested = 0
    attempts = 0
    while tested < cfg.obs2_lines and attempts < cfg.obs2_lines * 40:
        attempts += 1
        # the origin is always strictly interior (margin there is 1), so
        # shrinking the sampling box guarantees progress
        scale = extent / (1.0 + attempts / (2.0 * cfg.obs2_lines))
        e = (
            Fraction(float(rng.uniform(-scale, scale))).limit_denominator(64),
            Fraction(float(rng.uniform(-scale, scale))).limit_denominator(64),
        )
        if not body.interior_exact(*e):
            continue
        d = (
            Fraction(float(rng.uniform(-1, 1))).limit_denominator(64),
            Fraction(float(rng.uniform(-1, 1))).limit_denominator(64),
        )
        if not any(d):
            continue
        tested += 1
        res = line_curve_real_check(body, e, d)
        if not res.all_real:
            bad_lines.append((e, d))
    if bad_lines:
        report.add(
            "observation2_lines",
            "fail",
            f"{len(bad_lines)} of {tested} interior lines meet the curve at "
            "non-real points",
            witnesses=[
                f"e=({e[0]},{e[1]}) dir=({d[0]},{d[1]})" for e, d in bad_lines[:6]
            ],
        )
    else:
        report.add(
            "observation2_lines",
            "pass",
            f"{tested} random interior lines: all intersections real "
            "(exact Sturm certificates)",
        )

    # singular points of the dual curve against the convex set
    if q is not None:
        pts = real_singular_points(q)
        affine = [s for s in pts if s.chart == "affine"]
        outside_witnesses = []
        for s in affine:
            o = point_outside_W(body, s.float_coords())
            if o.outside:
                coords3 = (Fraction(1), s.y1, s.y2)
                meet, exact = _certified_polar_crossing(body, coords3)
                wit = {
                    "point": s.float_coords(),
                    "isolated": s.isolated,
                    "separating_direction": o.direction,
                    "separation": o.margin,
                    "polar_meets_S_interior": meet.meets,
                    "polar_interior_point": meet.point,
                }
                if exact is not None:
                    wit["interval_margin"] = (
                        f"[{float(exact[2].lo):.6g}, {float(exact[2].hi):.6g}]"
                    )
                outside_witnesses.append(wit)
        ninf = len(pts) - len(affine)
        if outside_witnesses:
            report.add(
                "hull_inclusion",
                "fail",
                f"{len(outside_witnesses)} of {len(affine)} real affine singular "
                "points lie outside the convex set",
                witnesses=outside_witnesses,
            )
        else:
            report.add(
                "hull_inclusion",
                "pass",
                f"all {len(affine)} real affine singular points lie in the convex "
                f"set ({ninf} at infinity)",
            )
        report.add(
            "singular_census",
            "pass",
            f"{len(affine)} affine real singular points, {ninf} at infinity, "
            f"{sum(1 for s in affine if s.isolated)} isolated",
        )

    # two-sided hull comparison (pencil bodies only)
    if isinstance(body, PencilBody):
        m = cfg.resolution
        cloud = sample_kippenhahn_curve(body.pencil, m)
        # each direction's first point is its smallest eigenvector's image,
        # the point sample_numrange_boundary returns
        boundary = cloud.points[:: body.pencil.n]
        hull = convex_hull(cloud.points)
        dist = hausdorff(hull, boundary)
        tol_hull = cfg.hull_tolerance()
        status = "pass" if dist <= tol_hull else "fail"
        report.add(
            "hull_hausdorff",
            status,
            f"Hausdorff(hull(curve cloud), boundary samples) = {dist:.3e} "
            f"(tolerance {tol_hull:.3e}, m={m})",
            witnesses=[] if status == "pass" else [f"distance {dist:.3e}"],
        )
        if q is not None:
            qn = q.normalized()
            norm1 = sum(abs(c) for c in qn.terms.values())
            worst = np.abs(_affine_values(qn.sorted_terms(), *cloud.points.T)).max()
            rel = worst / float(norm1)
            status = "pass" if rel <= 1e-6 else "fail"
            report.add(
                "cloud_on_dual_curve",
                status,
                f"max |q(1,y)| / ||q||_1 = {rel:.3e} over {len(cloud)} points",
            )
    else:
        report.add(
            "hull_hausdorff",
            "degenerate",
            "no pencil: eigenvector curve sampling not available; hull location "
            "is decided by the singular-point checks above",
        )

    _add_unchecked(report, no_dual=q is None)
    return report


def _add_unchecked(report: VerificationReport, no_dual: bool):
    report.add(
        "complex_singular_count",
        "unchecked",
        "the count of complex singular points of the dual curve is not "
        "reproduced at desk scale",
    )
    report.add(
        "dual_irreducibility",
        "unchecked",
        "irreducibility of the dual polynomial is not certified; "
        + (
            "no dual polynomial was computed"
            if no_dual
            else "only squarefreeness is verified"
        ),
    )


def _body_extent(body) -> float:
    """A box half-width comfortably containing the convex set."""
    _, hs = _support_sweep(body, 32)
    return 1.5 * max(abs(h) for h in hs) + 0.5
