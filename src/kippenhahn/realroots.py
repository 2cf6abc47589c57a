"""Exact univariate real-root isolation on the Sturm chain of ``exactnum``,
returning each root as an ``AlgebraicReal``; Sylvester resultants of
bivariate ``MultiPoly`` systems, computed fraction-free (Bareiss) over Z[t]
lists that never leave ``resultant``; and the real singular points of plane
curves.
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
)
from .mpoly import MultiPoly, grevlex_order

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


def count_real_roots(f: UniPoly, lo=None, hi=None) -> int:
    """Distinct real roots of f in (lo, hi]; whole line when bounds omitted."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    fs = f.squarefree_part()
    if fs.degree == 0:
        return 0
    bound = fs.root_bound()
    lo = Fraction(lo) if lo is not None else -bound
    hi = Fraction(hi) if hi is not None else bound
    if lo > hi:
        raise ValueError("empty interval")
    chain = _sturm_chain(fs)
    return _variations(chain, lo) - _variations(chain, hi)


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
#
# Entries of the Sylvester matrix are integer univariate polynomials in the
# surviving variable; the determinant is computed fraction-free (Bareiss).


def _zp_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _zp_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _zp_trim(out)


def _zp_sub(a, b):
    n = max(len(a), len(b))
    return _zp_trim(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _zp_divexact(a, b):
    """Exact division in Z[t]; raises when the division leaves a remainder."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b) and r:
        if not r[-1]:
            r.pop()
            continue
        if r[-1] % lb:
            raise ValueError("inexact division")
        f = r[-1] // lb
        shift = len(r) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r.pop()
    if _zp_trim(r):
        raise ValueError("inexact division")
    return _zp_trim(q)


def _bareiss_det(mat):
    """Fraction-free determinant of a square matrix of integer polynomials."""
    n = len(mat)
    if n == 0:
        return [1]
    m = [row[:] for row in mat]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return []
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _zp_sub(_zp_mul(m[k][k], m[i][j]), _zp_mul(m[i][k], m[k][j]))
                m[i][j] = _zp_divexact(num, prev) if num else []
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = [-c for c in det]
    return det


def resultant(f: MultiPoly, g: MultiPoly, eliminate: int) -> UniPoly:
    """Sylvester resultant of two bivariate polynomials.

    ``eliminate`` is the variable index removed; the result is a univariate
    polynomial in the other variable.  It vanishes at a value of the surviving
    variable iff f and g share a root above it (over the complex numbers) or
    both leading coefficients vanish there.
    """
    if f.variables != g.variables or len(f.variables) != 2:
        raise ValueError("resultant expects two polynomials in the same 2 variables")
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    keep = 1 - eliminate

    def rows(p: MultiPoly):
        d = p.degree_in(eliminate)
        cs = []
        for k in range(d + 1):
            coeff = [0] * (p.degree_in(keep) + 1)
            for exp, c in p.terms.items():
                if exp[eliminate] == k:
                    coeff[exp[keep]] += int(c)
            cs.append(_zp_trim(coeff))
        return d, cs

    fi = f.normalized()
    gi = g.normalized()
    df, fc = rows(fi)
    dg, gc = rows(gi)
    if df == 0 and dg == 0:
        return UniPoly([1])
    if df == 0:
        return UniPoly([Fraction(c) for c in fc[0]]) ** dg if dg else UniPoly([1])
    if dg == 0:
        return UniPoly([Fraction(c) for c in gc[0]]) ** df
    n = df + dg
    mat = []
    for cs, d, copies in ((fc, df, dg), (gc, dg, df)):
        for i in range(copies):
            row = [[] for _ in range(n)]
            for k, c in enumerate(cs):
                row[i + d - k] = c
            mat.append(row)
    return UniPoly(_bareiss_det(mat))


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


def _coord_interval(c, eps) -> RationalInterval:
    if isinstance(c, AlgebraicReal):
        return c.refine(eps)
    return RationalInterval.point(Fraction(c))


def _chart_poly(q: MultiPoly, chart: int) -> MultiPoly:
    """Restrict a trivariate polynomial to the chart variable = 1."""
    keep = [i for i in range(3) if i != chart]
    terms = {}
    for exp, c in q.terms.items():
        key = (exp[keep[0]], exp[keep[1]])
        terms[key] = terms.get(key, Fraction(0)) + c
    names = tuple(q.variables[i] for i in keep)
    return MultiPoly(names, terms, grevlex_order(2))


def _substitute_zero(f: MultiPoly, var: int) -> UniPoly:
    """f with variable ``var`` set to 0, as a UniPoly in the other variable."""
    keep = 1 - var
    out = [Fraction(0)] * (f.degree_in(keep) + 1 if not f.is_zero else 1)
    for exp, c in f.terms.items():
        if exp[var] == 0:
            out[exp[keep]] += c
    return UniPoly(out)


def _poly_gcd_many(polys: list[UniPoly]) -> UniPoly:
    g = None
    for p in polys:
        if p.is_zero:
            continue
        g = p.primitive() if g is None else g.gcd(p)
    if g is None:
        raise DegenerateSystemError("all polynomials vanish identically")
    return g


def _rationalize_root(root: AlgebraicReal, eps) -> object:
    """Return a Fraction when the isolated root is (certifiably) rational."""
    iv = root.refine(eps)
    if iv.width == 0:
        return iv.lo
    cand = simplest_in_interval(iv.lo, iv.hi)
    if UniPoly(root.poly)(cand) == 0:
        return cand
    return AlgebraicReal(root.poly, iv)


def _candidate_coordinates(system, var: int, eps):
    """Candidate values for coordinate ``var`` of common zeros, off the axes.

    ``system`` is the monomial-stripped, exponent-compressed system together
    with the strides used for compression.
    """
    polys, strides = system
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
            lc_i = polys[i].univariate_in(1 - var).get(polys[i].degree_in(1 - var))
            lc_j = polys[j].univariate_in(1 - var).get(polys[j].degree_in(1 - var))
            extra = _substitute_zero(lc_i, 1 - var).gcd(_substitute_zero(lc_j, 1 - var))
            if extra.degree > 0:
                res = res * extra
            break
    if res is None and all(p.degree_in(1 - var) <= 0 for p in polys):
        # no equation involves the eliminated variable: the common zeros lie
        # above the roots of their gcd
        res = _poly_gcd_many([_substitute_zero(p, 1 - var) for p in polys])
        if res.degree <= 0:
            return []
    if res is None:
        raise DegenerateSystemError(
            "no projection resultant is nonzero; system shares a component"
        )
    # undo the exponent compression: roots in the original coordinate
    expanded = res.squarefree_part().compose_power(strides[var])
    roots = sturm_isolate(expanded)
    return [_rationalize_root(r, eps) for r in roots]


def _verify_box(system_polys, c1, c2, eps) -> bool:
    """Certify a candidate point: exact for rational pairs, interval otherwise."""
    if isinstance(c1, Fraction) and isinstance(c2, Fraction):
        return all(p.evaluate((c1, c2)) == 0 for p in system_polys)
    box = (_coord_interval(c1, eps), _coord_interval(c2, eps))
    values = [p.evaluate(box) for p in system_polys]
    if not all(
        isinstance(v, RationalInterval) and v.contains_zero() for v in values
    ):
        return False
    # second refinement pass guards against coincidental straddles
    box2 = (_coord_interval(c1, eps * eps), _coord_interval(c2, eps * eps))
    values2 = [p.evaluate(box2) for p in system_polys]
    return all(v.contains_zero() for v in values2)


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


def _ring_sampling(q_aff: MultiPoly, c1, c2, eps, delta=Fraction(1, 64)) -> bool | None:
    """False when exact signs of q sampled on two square rings around the
    point change or vanish, else None.  A heuristic: a sign change at
    distance delta need not come from a branch through the point."""
    # a coarse center keeps the sample denominators small
    m1 = _coord_interval(c1, eps).mid.limit_denominator(2**32)
    m2 = _coord_interval(c2, eps).mid.limit_denominator(2**32)
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


def _certify_isolated(q_aff: MultiPoly, c1, c2, eps) -> bool | None:
    """``SingularPoint.isolated`` at (c1, c2); the Hessian test rests on the
    Morse lemma."""
    if isinstance(c1, Fraction) and isinstance(c2, Fraction):
        u, v = (MultiPoly.variable(q_aff.variables, i) for i in (0, 1))
        verdict = _newton_polygon_verdict(q_aff.evaluate((u + c1, v + c2)))
    else:
        box = (_coord_interval(c1, eps), _coord_interval(c2, eps))
        d1, d2 = q_aff.diff(0), q_aff.diff(1)
        h11, h12, h22 = (h.evaluate(box) for h in (d1.diff(0), d1.diff(1), d2.diff(1)))
        # an interval: constant entries mean a conic, whose singular points are rational
        verdict = {1: True, -1: False, 0: None}[(h11 * h22 - h12 * h12).sign()]
    return _ring_sampling(q_aff, c1, c2, eps) if verdict is None else verdict


def _multiplicity_hint(system_polys, q_aff, c1, c2) -> int:
    # lower bound only: 2 because both partials vanish; 3 when every second
    # partial vanishes as well (checked exactly at rational points)
    if isinstance(c1, Fraction) and isinstance(c2, Fraction):
        second = [q_aff.diff(0).diff(0), q_aff.diff(0).diff(1), q_aff.diff(1).diff(1)]
        if all(p.evaluate((c1, c2)) == 0 for p in second):
            return 3
    return 2


def _dedupe_key(c, eps=Fraction(1, 10**12)):
    if isinstance(c, Fraction):
        return ("q", c)
    iv = c.refine(eps)
    return ("a", c.poly, iv.lo, iv.hi)


def _affine_singular_points(q: MultiPoly, eps) -> list[SingularPoint]:
    q_aff = _chart_poly(q, 0)
    A = q_aff.diff(0)
    B = q_aff.diff(1)
    system = [q_aff, A, B]
    if A.is_zero and B.is_zero:
        raise DegenerateSystemError("curve gradient vanishes identically")

    found: dict = {}

    def add_point(c1, c2):
        key = (_dedupe_key(c1), _dedupe_key(c2))
        if key in found:
            return
        hint = _multiplicity_hint(system, q_aff, c1, c2)
        isolated = _certify_isolated(q_aff, c1, c2, eps)
        found[key] = SingularPoint(c1, c2, "affine", hint, isolated)

    # points on the coordinate axes: exact univariate gcd certification
    for axis in (0, 1):
        subs = [_substitute_zero(p, 1 - axis) for p in system]
        g = _poly_gcd_many(subs)
        if g.degree > 0:
            for root in sturm_isolate(g):
                val = _rationalize_root(root, eps)
                # confirm against the full system (gcd roots are exact)
                other = Fraction(0)
                c1, c2 = (val, other) if axis == 0 else (other, val)
                if _verify_box(system, c1, c2, eps):
                    add_point(c1, c2)

    # points off both axes: strip monomial content, compress exponent lattices
    stripped = []
    for p in system:
        mc = p.monomial_content()
        stripped.append(p.shift_down(mc) if any(mc) else p)
    if any(not p.is_zero and p.total_degree == 0 for p in stripped):
        # a stripped equation is a nonzero constant: no off-axis solutions
        cands1, cands2 = [], []
    else:
        strides = []
        for v in range(2):
            g = 0
            for p in stripped:
                g = gcd(g, p.exponent_gcd(v))
            strides.append(max(g, 1))
        compressed = [p.compress_exponents(strides) for p in stripped]
        cands1 = _candidate_coordinates((compressed, strides), 0, eps)
        cands2 = _candidate_coordinates((compressed, strides), 1, eps)
    for c1 in cands1:
        if isinstance(c1, Fraction) and c1 == 0:
            continue
        for c2 in cands2:
            if isinstance(c2, Fraction) and c2 == 0:
                continue
            if _verify_box(system, c1, c2, eps):
                add_point(c1, c2)

    pts = list(found.values())
    pts.sort(key=lambda s: s.float_coords())
    return pts


def _infinity_singular_points(q: MultiPoly, eps) -> list[SingularPoint]:
    """Real singular points on the line y0 = 0, examined chart by chart."""
    grads = q.gradient()
    out = []
    # points (0 : 1 : t)
    polys = [_substitute_zero(_chart_poly(g, 1), 0) for g in grads]
    if all(p.is_zero for p in polys):
        raise DegenerateSystemError("gradient vanishes on the line at infinity")
    g = _poly_gcd_many(polys)
    if g.degree > 0:
        for root in sturm_isolate(g):
            val = _rationalize_root(root, eps)
            out.append(SingularPoint(Fraction(1), val, "infinity", 2, None))
    # the remaining point (0 : 0 : 1)
    if all(gr.evaluate((Fraction(0), Fraction(0), Fraction(1))) == 0 for gr in grads):
        out.append(SingularPoint(Fraction(0), Fraction(1), "infinity", 2, None))
    return out


def real_singular_points(
    q: MultiPoly, eps=Fraction(1, 10**20)
) -> list[SingularPoint]:
    """All real singular points of the projective curve {q = 0}.

    Affine-chart points carry an interval or exact-rational coordinate pair
    and an ``isolated`` verdict, proved by the Newton polygon (rational
    points) or the interval Hessian (others), or refuted by the ring-sampling
    heuristic, or None (see ``SingularPoint``).  Points on the line at
    infinity are reported separately with chart "infinity".  Requires
    squarefree q.
    """
    if len(q.variables) != 3:
        raise ValueError("expected a polynomial in three homogeneous variables")
    if q.is_zero:
        raise ValueError("zero polynomial")
    if not q.squarefree_part().proportional_to(q):
        raise ValueError("polynomial must be squarefree")
    pts = _affine_singular_points(q, eps)
    pts += _infinity_singular_points(q, eps)
    return pts
