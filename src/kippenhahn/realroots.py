"""Exact univariate real-root isolation on the Sturm chain of ``exactnum``,
returning each root as an ``AlgebraicReal``; Sylvester resultants of
bivariate ``MultiPoly`` systems, sampled at integers, taken with
``UniPoly.resultant`` and interpolated with ``UniPoly.interpolate``; and the
real singular points of plane curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactnum import (
    AlgebraicReal,
    RationalInterval,
    UniPoly,
    _sturm_chain,
    _variations,
    simplest_in_interval,
    sturm_count,
)
from .mpoly import MultiPoly

__all__ = [
    "UniPoly",
    "SingularPoint",
    "PrecisionError",
    "DegenerateSystemError",
    "sturm_isolate",
    "count_real_roots",
    "roots_all_real",
    "resultant",
    "real_singular_points",
]


class PrecisionError(RuntimeError):
    """A box could not be resolved at the configured working precision."""

    def __init__(self, message, box=None):
        super().__init__(message)
        self.box = box


class DegenerateSystemError(RuntimeError):
    """The polynomial system has a shared component (not zero-dimensional)."""


# width to which the census refines irrational singular-point coordinates
COORD_EPS = Fraction(1, 10**20)


def count_real_roots(f: UniPoly, lo=None, hi=None) -> int:
    """Distinct real roots of f in (lo, hi]; whole line when bounds omitted."""
    bound = f.root_bound()
    return sturm_count(f.coeffs, -bound if lo is None else lo, bound if hi is None else hi)


def sturm_isolate(f: UniPoly) -> list[AlgebraicReal]:
    """Every real root of f, in increasing order, as an ``AlgebraicReal`` on
    the squarefree part of f with disjoint isolating intervals.

    Roots of multiplicity collapse to roots of the squarefree part.  Split
    points are never roots, so every interval has positive width.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    fs = f.squarefree_part()
    if fs.degree <= 0:
        return []
    chain = _sturm_chain(fs)
    bound = fs.root_bound()
    out: list[AlgebraicReal] = []
    poly = fs.int_coeffs()

    def split_point(a: Fraction, b: Fraction) -> Fraction:
        for num, den in ((1, 2), (1, 4), (3, 4), (1, 3), (2, 3)):
            cand = a + (b - a) * Fraction(num, den)
            if fs(cand):
                return cand
        raise PrecisionError(f"could not split ({a}, {b})")

    def rec(a: Fraction, b: Fraction, va: int, vb: int):
        n = va - vb
        if n == 0:
            return
        if n == 1:
            out.append(AlgebraicReal(poly, RationalInterval(a, b)))
            return
        m = split_point(a, b)
        vm = _variations(chain, m)
        rec(a, m, va, vm)
        rec(m, b, vm, vb)

    lo, hi = -bound, bound
    # Sturm counts roots in half-open (lo, hi]; the Cauchy bound keeps both
    # endpoints away from roots.
    rec(lo, hi, _variations(chain, lo), _variations(chain, hi))
    out.sort(key=lambda r: r.interval.lo)
    return out


def roots_all_real(f: UniPoly) -> bool:
    """Exactly decide whether every complex root of f is real."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    fs = f.squarefree_part()
    if fs.degree <= 0:
        return True
    return count_real_roots(fs) == fs.degree


# --- Sylvester resultants ----------------------------------------------------


def resultant(f: MultiPoly, g: MultiPoly, eliminate: int) -> UniPoly:
    """Sylvester resultant of two bivariate polynomials.

    ``eliminate`` is the variable index removed; the result is a univariate
    polynomial in the other variable.  It vanishes at a value of the surviving
    variable iff f and g share a root above it (over the complex numbers) or
    both leading coefficients vanish there.  The inputs are first normalized
    to coprime integer coefficients.

    Evaluation and interpolation (Collins): at the integers t = 0, 1, 2, ...
    where neither leading coefficient in the eliminated variable vanishes,
    res(f, g)(t) is the resultant of the specialized univariate polynomials.
    Its degree is at most df*deg_t g + dg*deg_t f, and, from the degree
    weights of the Sylvester matrix entries, at most l*dg + m*df - df*dg for
    total degrees l, m and degrees df, dg in the eliminated variable.
    """
    if f.variables != g.variables or len(f.variables) != 2:
        raise ValueError("resultant expects two polynomials in the same 2 variables")
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    keep = 1 - eliminate
    fc, gc = f.normalized().coefficients(eliminate), g.normalized().coefficients(eliminate)
    df, dg = len(fc) - 1, len(gc) - 1
    bound = min(
        df * g.degree_in(keep) + dg * f.degree_in(keep),
        f.total_degree * dg + g.total_degree * df - df * dg,
    )
    xs, ys = [], []
    t = 0
    while len(xs) <= bound:
        if fc[-1](t) and gc[-1](t):
            xs.append(t)
            ys.append(UniPoly([c(t) for c in fc]).resultant(UniPoly([c(t) for c in gc])))
        t += 1
    return UniPoly.interpolate(xs, ys)


# --- real singular points ----------------------------------------------------


@dataclass(frozen=True)
class SingularPoint:
    """A real singular point of a plane curve.

    For chart "affine" the coordinates are (y1, y2) with y0 = 1; for chart
    "infinity" they are the last two entries of the projective point
    (0 : y1 : y2).  ``isolated`` says whether no other real point of the
    curve comes near (None at infinity and when undecided).  At a rational
    point it is proved from the Newton polygon of q moved there: True when
    no edge polynomial E(s, +-1) has a real root s != 0, False for one of
    odd multiplicity or for a line through the point.  At any other point the
    interval Hessian proves it: determinant > 0 is True (a strict extremum),
    < 0 False (a node).  Otherwise exact samples of q on two rings of radius
    about 1/64 may give False when the sign changes, the one heuristic
    verdict; else it is None.
    """

    y1: object  # Fraction or AlgebraicReal
    y2: object
    chart: str
    multiplicity_hint: int
    isolated: bool | None

    def coordinate_box(self, eps) -> tuple[RationalInterval, RationalInterval]:
        return _coord_interval(self.y1, eps), _coord_interval(self.y2, eps)

    def float_coords(self) -> tuple[float, float]:
        return float(self.y1), float(self.y2)

    def is_rational(self) -> bool:
        return isinstance(self.y1, Fraction) and isinstance(self.y2, Fraction)


def _coord_interval(c, eps, boxes=None) -> RationalInterval:
    """c refined to width eps; ``boxes`` memoizes the refinements of one
    census, keyed by (coordinate, eps), an ``AlgebraicReal`` hashing by
    identity."""
    if not isinstance(c, AlgebraicReal):
        return RationalInterval.point(Fraction(c))
    if boxes is None:
        return c.refine(eps)
    key = (c, eps)
    if key not in boxes:
        boxes[key] = c.refine(eps)
    return boxes[key]


def _chart_poly(q: MultiPoly, chart: int) -> MultiPoly:
    """Restrict a trivariate polynomial to the chart variable = 1."""
    keep = [i for i in range(3) if i != chart]
    terms = {}
    for exp, c in q.terms.items():
        key = (exp[keep[0]], exp[keep[1]])
        terms[key] = terms.get(key, Fraction(0)) + c
    names = tuple(q.variables[i] for i in keep)
    return MultiPoly(names, terms)


def _poly_gcd_many(polys: list[UniPoly]) -> UniPoly:
    g = None
    for p in polys:
        if p.is_zero:
            continue
        g = p.primitive() if g is None else g.gcd(p)
    if g is None:
        raise DegenerateSystemError("all polynomials vanish identically")
    return g


def _rationalize_root(root: AlgebraicReal) -> object:
    """Return a Fraction when the isolated root is (certifiably) rational."""
    iv = root.refine(COORD_EPS)
    if iv.width == 0:
        return iv.lo
    cand = simplest_in_interval(iv.lo, iv.hi)
    if UniPoly(root.poly)(cand) == 0:
        return cand
    # root.poly is the squarefree polynomial sturm_isolate certified, and iv,
    # from bisection inside root's certified isolating interval, keeps a sign
    # change at its ends: it isolates the same root, as the public constructor
    # would prove again with a gcd and a Sturm chain
    return root._with_interval(iv)


def _common_line_roots(restrictions: list[UniPoly]) -> list:
    """Common real roots of polynomials restricted to a line, each a Fraction
    or an ``AlgebraicReal``: the roots of their gcd, isolated by Sturm.  They
    are exact common zeros and need no further verification."""
    g = _poly_gcd_many(restrictions)
    if g.degree <= 0:
        return []
    return [_rationalize_root(r) for r in sturm_isolate(g)]


def _candidate_coordinates(polys, strides, var: int):
    """Candidate values for coordinate ``var`` of common zeros, off the axes,
    of the monomial-stripped system ``polys`` compressed by ``strides``."""
    pairs = [(1, 2), (0, 1), (0, 2)]
    res = None
    for i, j in pairs:
        if polys[i].is_zero or polys[j].is_zero:
            continue
        if polys[i].degree_in(1 - var) <= 0 and polys[j].degree_in(1 - var) <= 0:
            continue
        r = resultant(polys[i], polys[j], eliminate=1 - var)
        if not r.is_zero:
            res = r
            # guard against fibers escaping where both leading coefficients
            # vanish: append their shared roots
            extra = polys[i].coefficients(1 - var)[-1].gcd(polys[j].coefficients(1 - var)[-1])
            if extra.degree > 0:
                res = res * extra
            break
    if res is None and all(p.degree_in(1 - var) <= 0 for p in polys):
        # no equation involves the eliminated variable: the common zeros lie
        # above the roots of their gcd
        res = _poly_gcd_many([p.coefficients(1 - var)[0] for p in polys])
        if res.degree <= 0:
            return []
    if res is None:
        raise DegenerateSystemError(
            "no projection resultant is nonzero; system shares a component"
        )
    # undo the exponent compression: roots in the original coordinate
    expanded = res.squarefree_part().compose_power(strides[var])
    return [_rationalize_root(r) for r in sturm_isolate(expanded)]


def _verify_box(system_polys, c1, c2, boxes) -> bool:
    """Filter an off-axis candidate pair: each polynomial's enclosure over the
    COORD_EPS box, then the COORD_EPS^2 box, must contain zero (exact for a
    constant).  Stops at the first that does not.  A rational pair's box is
    a point, so it takes one pass.  Two straddles do not prove that a common
    zero exists."""
    rational = isinstance(c1, Fraction) and isinstance(c2, Fraction)
    for e in (COORD_EPS,) if rational else (COORD_EPS, COORD_EPS**2):
        box = (_coord_interval(c1, e, boxes), _coord_interval(c2, e, boxes))
        for p in system_polys:
            v = p.evaluate(box)
            if (v != 0) if isinstance(v, Fraction) else not v.contains_zero():
                return False
    return True


def _newton_polygon_verdict(f: MultiPoly) -> bool | None:
    """Whether (0, 0) is an isolated real zero of f, from its lower Newton
    polygon: at an odd-multiplicity root s != 0 of an edge polynomial
    E(s, +-1), f changes sign along u = s|v|^(wv/wu), a real branch (False);
    without real roots s != 0 no real curve reaches (0, 0) off the axes, by
    the curve selection lemma (True); even multiplicities leave None."""
    a = min((i for i, j in f.terms if j == 0), default=None)
    b = min((j for i, j in f.terms if i == 0), default=None)
    if a is None or b is None:
        return False  # f(u, 0) or f(0, v) is 0: a line through the point
    # the polygon runs from (0, b) to (a, 0), never above the segment between
    pts = [e for e in f.terms if e[0] * b + e[1] * a <= a * b]
    verdict, (i0, j0) = True, (0, b)
    while i0 < a:
        # next vertex: least slope from (i0, j0), the farthest one on a tie
        i1, j1 = min(
            (e for e in pts if e[0] > i0),
            key=lambda e: (Fraction(e[1] - j0, e[0] - i0), -e[0]),
        )
        edge = [e for e in pts if (j0 - j1) * (e[0] - i0) + (i1 - i0) * (e[1] - j0) == 0]
        for sign in (1, -1):
            coeffs = [0] * (i1 - i0 + 1)
            for i, j in edge:
                coeffs[i - i0] = f.terms[i, j] * sign**j
            g = UniPoly(coeffs)
            for root in sturm_isolate(g):
                # isolating endpoints are not roots: g changes sign across a
                # root exactly when its multiplicity is odd
                if (g(root.interval.lo) > 0) != (g(root.interval.hi) > 0):
                    return False
                verdict = None
        i0, j0 = i1, j1
    return verdict


def _ring_sampling(q_aff: MultiPoly, c1, c2, boxes, delta=Fraction(1, 64)) -> bool | None:
    """False when exact signs of q sampled on two square rings around the
    point change or vanish, else None.  A heuristic: a sign change at
    distance delta need not come from a branch through the point."""
    # a coarse center keeps the sample denominators small
    m1 = _coord_interval(c1, COORD_EPS, boxes).mid.limit_denominator(2**32)
    m2 = _coord_interval(c2, COORD_EPS, boxes).mid.limit_denominator(2**32)
    sign_seen = 0
    for k in range(-8, 9):
        off = delta * Fraction(k, 8)
        for s1, s2 in (
            (off, -delta), (off, delta), (-delta, off), (delta, off),
            (off, -3 * delta / 4), (off, 3 * delta / 4),
            (-3 * delta / 4, off), (3 * delta / 4, off),
        ):
            v = q_aff.evaluate((m1 + s1, m2 + s2))
            if v:
                s = 1 if v > 0 else -1
                if sign_seen and s != sign_seen:
                    return False
                sign_seen = s
            else:
                return False  # exact curve point on the ring
    return None


def _certify_isolated(q_aff: MultiPoly, hessian, c1, c2, boxes) -> bool | None:
    """``SingularPoint.isolated`` at (c1, c2); ``hessian`` holds the second
    partials (q11, q12, q22).  The Hessian test rests on the Morse lemma."""
    if isinstance(c1, Fraction) and isinstance(c2, Fraction):
        u, v = (MultiPoly.variable(q_aff.variables, i) for i in (0, 1))
        verdict = _newton_polygon_verdict(q_aff.evaluate((u + c1, v + c2)))
    else:
        box = (_coord_interval(c1, COORD_EPS, boxes), _coord_interval(c2, COORD_EPS, boxes))
        h11, h12, h22 = (h.evaluate(box) for h in hessian)
        # an interval: constant entries mean a conic, whose singular points are rational
        verdict = {1: True, -1: False, 0: None}[(h11 * h22 - h12 * h12).sign()]
    return _ring_sampling(q_aff, c1, c2, boxes) if verdict is None else verdict


def _multiplicity_hint(hessian, c1, c2) -> int:
    # lower bound only: 2 because both partials vanish; 3 when every second
    # partial vanishes as well (checked exactly at rational points)
    if isinstance(c1, Fraction) and isinstance(c2, Fraction):
        if all(h.evaluate((c1, c2)) == 0 for h in hessian):
            return 3
    return 2


def _affine_singular_points(q: MultiPoly) -> list[SingularPoint]:
    q_aff = _chart_poly(q, 0)
    A = q_aff.diff(0)
    B = q_aff.diff(1)
    system = [q_aff, A, B]
    if A.is_zero and B.is_zero:
        raise DegenerateSystemError("curve gradient vanishes identically")

    # points on the axes y2 = 0 and y1 = 0 are exact common roots; only the
    # origin lies on both, and it is taken from the first
    on_y1_axis = _common_line_roots([p.coefficients(1)[0] for p in system])
    on_y2_axis = _common_line_roots([p.coefficients(0)[0] for p in system])
    pairs = [(c, Fraction(0)) for c in on_y1_axis]
    pairs += [(Fraction(0), c) for c in on_y2_axis if c != 0]

    # points off both axes: strip monomial content, compress exponent lattices
    stripped = [p.shift_down(p.monomial_content()) for p in system]
    if any(not p.is_zero and p.total_degree == 0 for p in stripped):
        # a stripped equation is a nonzero constant: no off-axis solutions
        cands1, cands2 = [], []
    else:
        strides = [max(gcd(*(p.exponent_gcd(v) for p in stripped)), 1) for v in range(2)]
        compressed = [p.compress_exponents(strides) for p in stripped]
        cands1, cands2 = (_candidate_coordinates(compressed, strides, v) for v in range(2))
    # each coordinate is refined once per eps in the census
    boxes = {}
    # a rational zero is on an axis; an AlgebraicReal never equals 0
    pairs += [
        (c1, c2)
        for c1 in cands1
        if c1 != 0
        for c2 in cands2
        if c2 != 0 and _verify_box(system, c1, c2, boxes)
    ]

    hessian = (A.diff(0), A.diff(1), B.diff(1))
    pts = [
        SingularPoint(
            c1,
            c2,
            "affine",
            _multiplicity_hint(hessian, c1, c2),
            _certify_isolated(q_aff, hessian, c1, c2, boxes),
        )
        for c1, c2 in pairs
    ]
    pts.sort(key=lambda s: s.float_coords())
    return pts


def _infinity_singular_points(q: MultiPoly) -> list[SingularPoint]:
    """Real singular points on the line y0 = 0, examined chart by chart."""
    grads = q.gradient()
    # points (0 : 1 : t)
    polys = [_chart_poly(g, 1).coefficients(0)[0] for g in grads]
    if all(p.is_zero for p in polys):
        raise DegenerateSystemError("gradient vanishes on the line at infinity")
    roots = _common_line_roots(polys)
    out = [SingularPoint(Fraction(1), t, "infinity", 2, None) for t in roots]
    # the remaining point (0 : 0 : 1)
    if all(gr.evaluate((Fraction(0), Fraction(0), Fraction(1))) == 0 for gr in grads):
        out.append(SingularPoint(Fraction(0), Fraction(1), "infinity", 2, None))
    return out


def real_singular_points(q: MultiPoly) -> list[SingularPoint]:
    """All real singular points of the projective curve {q = 0}.

    Affine-chart points carry an interval or exact-rational coordinate pair
    and an ``isolated`` verdict, proved by the Newton polygon (rational
    points) or the interval Hessian (others), or refuted by the ring-sampling
    heuristic, or None (see ``SingularPoint``).  Points on the coordinate
    axes are exact common roots on the axis; points off them pair candidate
    coordinates from resultants and pass ``_verify_box``, an interval filter
    that does not prove existence.  Points on the line at infinity are
    reported separately with chart "infinity".  Requires squarefree q.
    """
    if len(q.variables) != 3:
        raise ValueError("expected a polynomial in three homogeneous variables")
    if q.is_zero:
        raise ValueError("zero polynomial")
    if not q.squarefree_part().proportional_to(q):
        raise ValueError("polynomial must be squarefree")
    pts = _affine_singular_points(q)
    pts += _infinity_singular_points(q)
    return pts
