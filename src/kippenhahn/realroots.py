"""Exact univariate real-root isolation on the Sturm chain of ``exactnum``,
returning each root as an ``AlgebraicReal``; Sylvester resultants of
bivariate ``MultiPoly`` systems, each sample at t = 0, 1, 2, ... the
``exactnum._bareiss`` determinant of an integer Sylvester matrix, and the
samples interpolated with ``UniPoly.interpolate``; and the real singular
points of plane curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactnum import (
    AlgebraicReal,
    RationalInterval,
    UniPoly,
    _bareiss,
    _sturm_chain,
    _variations,
    simplest_in_interval,
    sturm_count,
)
from .mpoly import MultiPoly, _form_degree

__all__ = [
    "UniPoly",
    "SingularPoint",
    "PrecisionError",
    "sturm_isolate",
    "count_real_roots",
    "resultant",
    "real_singular_points",
]


class PrecisionError(RuntimeError):
    """Exact isolation or certification could not finish."""


# width to which the census refines irrational singular-point coordinates
COORD_EPS = Fraction(1, 10**20)
# widths of the coarse boxes that drop candidate pairs before any coordinate
# is refined to COORD_EPS
COARSE_EPS = (Fraction(1, 2**16), Fraction(1, 2**40))


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
    # the chain of f divided by gcd(f, f') heads with the squarefree part and
    # counts distinct roots at every point that is not one
    chain = _sturm_chain(f)
    fs = chain[0]
    if fs.degree <= 0:
        return []
    bound = fs.root_bound()
    out: list[AlgebraicReal] = []
    poly = fs.int_coeffs()

    def split_point(a: Fraction, b: Fraction) -> Fraction:
        for num, den in ((1, 2), (1, 4), (3, 4), (1, 3), (2, 3)):
            cand = a + (b - a) * Fraction(num, den)
            if fs.sign_at(cand):
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
    # Sturm counts roots in half-open (lo, hi]; the root bound keeps both
    # endpoints away from roots.
    rec(lo, hi, _variations(chain, lo), _variations(chain, hi))
    out.sort(key=lambda r: r.interval.lo)
    return out


# --- Sylvester resultants ----------------------------------------------------


def resultant(f: MultiPoly, g: MultiPoly, eliminate: int) -> UniPoly:
    """Sylvester resultant of two bivariate polynomials.

    ``eliminate`` is the variable index removed; the result is a univariate
    polynomial in the other variable.  It vanishes at a value of the surviving
    variable iff f and g share a root above it (over the complex numbers) or
    both leading coefficients vanish there.  The inputs are first normalized
    to coprime integer coefficients.

    Evaluation and interpolation (Collins): for df, dg the degrees in the
    eliminated variable, the Sylvester matrix has dg shifted rows of f's
    descending coefficients, then df of g's.  Specialized at an integer t it
    is an integer matrix whose Bareiss determinant is res(f, g)(t), also where
    a leading coefficient vanishes, so the samples are t = 0..bound.  The
    degree is at most df*deg_t g + dg*deg_t f, and, from the degree weights
    of the matrix entries, at most l*dg + m*df - df*dg for total degrees l, m.
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
    n = df + dg
    ys = []
    for t in range(bound + 1):
        a, b = ([c(t).numerator for c in reversed(cs)] for cs in (fc, gc))
        rows = [[0] * i + a + [0] * (dg - 1 - i) for i in range(dg)]
        rows += [[0] * i + b + [0] * (df - 1 - i) for i in range(df)]
        *_, (det, _) = _bareiss(rows, [[0] * n] * n, swap=True)
        ys.append(det)
    return UniPoly.interpolate(ys)


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
    odd multiplicity or for a line through the point; a rational double line
    of the tangent cone is first sheared onto an axis.  At any other point
    the interval Hessian proves it: determinant > 0 is True (a strict
    extremum), < 0 False (a node).  Every verdict is proved; where neither
    test decides it is None.
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


def _coord_interval(c, eps) -> RationalInterval:
    """c as an interval of width <= eps: a point for a rational, else the
    refinement that the ``AlgebraicReal`` keeps for that width."""
    if not isinstance(c, AlgebraicReal):
        return RationalInterval.point(Fraction(c))
    return c.refine(eps)


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
        # the axis and infinity exits: q has a repeated factor (real_singular_points)
        raise ValueError("polynomial must be squarefree")
    return g


def _rationalize_root(root: AlgebraicReal) -> object:
    """Return a Fraction when the isolated root is (certifiably) rational."""
    iv = root.refine(COORD_EPS)
    if iv.width == 0:
        return iv.lo
    cand = simplest_in_interval(iv.lo, iv.hi)
    if not UniPoly(root.poly).sign_at(cand):
        return cand
    return AlgebraicReal(root.poly, iv)


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
    of the monomial-stripped system ``polys`` compressed by ``strides``: the
    isolated roots, not yet rationalized."""
    pairs = [(1, 2), (0, 1), (0, 2)]
    res = None
    for i, j in pairs:
        if polys[i].is_zero or polys[j].is_zero:
            continue
        if polys[i].degree_in(1 - var) <= 0 and polys[j].degree_in(1 - var) <= 0:
            continue
        r = resultant(polys[i], polys[j], eliminate=1 - var)
        # where both leading coefficients vanish, a fiber escapes to infinity;
        # the Sylvester matrix's first column is zero there, so r vanishes too
        if not r.is_zero:
            res = r
            break
    if res is None:
        if any(p.degree_in(1 - var) > 0 for p in polys):
            # the projection exit: q has a repeated factor (real_singular_points)
            raise ValueError("polynomial must be squarefree")
        # no equation involves the eliminated variable: the common zeros lie
        # above the roots of their gcd
        res = _poly_gcd_many([p.coefficients(1 - var)[0] for p in polys])
    # undo the exponent compression: roots in the original coordinate
    expanded = res.squarefree_part().compose_power(strides[var])
    return sturm_isolate(expanded)


def _straddles(system_polys, box) -> bool:
    """Whether each polynomial's enclosure over ``box`` contains zero (exact
    at a point).  Stops at the first that does not."""
    for p in system_polys:
        v = p.evaluate(box)
        if (v != 0) if isinstance(v, Fraction) else not v.contains_zero():
            return False
    return True


def _verify_box(system_polys, c1, c2) -> bool:
    """Filter an off-axis candidate pair that survived the coarse boxes, its
    coordinates rationalized: each polynomial's enclosure over the COORD_EPS
    box, then the COORD_EPS^2 box, must contain zero (exact for a constant).
    A rational pair's box is a point, so it takes one pass.  Two straddles
    do not prove that a common zero exists."""
    rational = isinstance(c1, Fraction) and isinstance(c2, Fraction)
    return all(
        _straddles(system_polys, (_coord_interval(c1, e), _coord_interval(c2, e)))
        for e in ((COORD_EPS,) if rational else (COORD_EPS, COORD_EPS**2))
    )


def _newton_polygon_verdict(f: MultiPoly) -> bool | None:
    """Whether (0, 0) is an isolated real zero of f, from its lower Newton
    polygon: at an odd-multiplicity root s != 0 of an edge polynomial
    E(s, +-1), f changes sign along u = s|v|^(wv/wu), a real branch (False);
    without real roots s != 0 no real curve reaches (0, 0) off the axes, by
    the curve selection lemma (True).  A rational root s of even
    multiplicity on the tangent cone's edge (slope -1) is the double line
    u = +-s*v; when that edge is the first, the shear u -> u +- s*v moves the
    line onto the v-axis, and the sheared polygon gives the verdict, since a
    linear change of coordinates keeps the germ.  The sheared cone has u^2 as
    a factor, so its edge is not the first and no second shear follows.
    Other even multiplicities leave None."""
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
        first_cone_edge = i0 == 0 and j0 - j1 == i1 - i0
        for sign in (1, -1):
            coeffs = [0] * (i1 - i0 + 1)
            for i, j in edge:
                coeffs[i - i0] = f.terms[i, j] * sign**j
            g = UniPoly(coeffs)
            for root in sturm_isolate(g):
                # isolating endpoints are not roots: g changes sign across a
                # root exactly when its multiplicity is odd
                iv = root.interval
                if (g.sign_at(iv.lo) > 0) != (g.sign_at(iv.hi) > 0):
                    return False
                s = _rationalize_root(root) if first_cone_edge else None
                if isinstance(s, Fraction):
                    # a root s of E(s, sign) is the line u = sign*s*v
                    u, v = (MultiPoly.variable(f.variables, k) for k in range(2))
                    return _newton_polygon_verdict(f.evaluate((u + v * (sign * s), v)))
                verdict = None
        i0, j0 = i1, j1
    return verdict


def _certify_isolated(q_aff: MultiPoly, hessian, c1, c2) -> bool | None:
    """``SingularPoint.isolated`` at (c1, c2); ``hessian`` holds the second
    partials (q11, q12, q22).  The Hessian test rests on the Morse lemma."""
    if isinstance(c1, Fraction) and isinstance(c2, Fraction):
        return _newton_polygon_verdict(q_aff.shifted((c1, c2)))
    box = (_coord_interval(c1, COORD_EPS), _coord_interval(c2, COORD_EPS))
    h11, h12, h22 = (h.evaluate(box) for h in hessian)
    # an interval: constant entries mean a conic, whose singular points are rational
    return {1: True, -1: False, 0: None}[(h11 * h22 - h12 * h12).sign()]


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
    # coarse boxes first: each contains its pair's finer boxes and points,
    # and interval evaluation is inclusion-isotone, so a pair that one of them
    # rejects fails _verify_box too
    survivors = [(c1, c2) for c1 in cands1 for c2 in cands2]
    for e in COARSE_EPS:
        survivors = [(c1, c2) for c1, c2 in survivors if _straddles(system, (c1.refine(e), c2.refine(e)))]
    # each coordinate of a surviving pair is rationalized once
    exact = {c: _rationalize_root(c) for pair in survivors for c in pair}
    survivors = [(exact[c1], exact[c2]) for c1, c2 in survivors]
    # a rational zero is on an axis; an AlgebraicReal never equals 0
    pairs += [
        (c1, c2) for c1, c2 in survivors if c1 != 0 and c2 != 0 and _verify_box(system, c1, c2)
    ]

    hessian = (A.diff(0), A.diff(1), B.diff(1))
    pts = [
        SingularPoint(
            c1,
            c2,
            "affine",
            _multiplicity_hint(hessian, c1, c2),
            _certify_isolated(q_aff, hessian, c1, c2),
        )
        for c1, c2 in pairs
    ]
    pts.sort(key=lambda s: s.float_coords())
    return pts


def _infinity_singular_points(q: MultiPoly) -> list[SingularPoint]:
    """Real singular points on the line y0 = 0, examined chart by chart."""
    grads = q.gradient()
    # points (0 : 1 : t)
    roots = _common_line_roots([_chart_poly(g, 1).coefficients(0)[0] for g in grads])
    out = [SingularPoint(Fraction(1), t, "infinity", 2, None) for t in roots]
    # the remaining point (0 : 0 : 1)
    if all(gr.evaluate((Fraction(0), Fraction(0), Fraction(1))) == 0 for gr in grads):
        out.append(SingularPoint(Fraction(0), Fraction(1), "infinity", 2, None))
    return out


def real_singular_points(q: MultiPoly) -> list[SingularPoint]:
    """All real singular points of the projective curve {q = 0}, q a nonzero
    squarefree form in three variables (else ``ValueError``): affine points,
    then those on the line at infinity (chart "infinity"), examined first.
    Points on the coordinate axes are exact common roots on the axis; points
    off them pair candidate coordinates from resultants, must straddle zero
    on the coarse boxes of widths ``COARSE_EPS``, and then pass
    ``_verify_box`` on their rationalized coordinates, an interval filter
    that does not prove existence.

    The census's own exits reject a repeated factor h of q.  With q_aff =
    q(1, u, v): h = y0 makes every partial vanish on y0 = 0 (the infinity
    exit); h = y1 or y2 makes q_aff, q_u and q_v vanish on that axis (the
    axis exit); any other h survives monomial stripping and exponent
    compression with positive degree in some w, so every resultant
    eliminating w vanishes (the projection exit).  None fires for
    squarefree q: q_aff = v*r has q_v = r mod v, so the axis exit needs
    v^2 | q_aff; by Euler's identity the infinity exit needs y0 | q and so
    y0^2 | q; an irreducible g of positive v-degree dividing q_aff and q_v
    divides (dg/dv)*(q_aff/g) but not q_aff/g, so dg/dv = 0: Res_v of
    equations 0 and 2 is nonzero when the loop tries that pair, and when it
    skips it no equation involves v and the gcd branch runs (u: pair 0, 1).
    """
    if _form_degree(q) == 0:
        return []  # a nonzero constant: the curve is empty
    at_infinity = _infinity_singular_points(q)
    return _affine_singular_points(q) + at_infinity
