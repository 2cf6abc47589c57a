"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run pytest with -s or -rA to see them all)."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import make_eq3_pencil, make_random_pencil
from kippenhahn.cli import main
from kippenhahn.convexgeom import (
    PencilBody,
    ProjPoint,
    check_lemma_ws,
    convex_hull,
    hausdorff,
    line_curve_real_check,
    sample_kippenhahn_curve,
    tangency_check,
)
from kippenhahn.exactnum import AlgebraicReal, RationalInterval
from kippenhahn.groebner import dual_curve
from kippenhahn.matrixpencil import sample_numrange_boundary
from kippenhahn.mpoly import parse_poly
from kippenhahn.realroots import UniPoly, count_real_roots

V3 = ("x0", "x1", "x2")
VY = ("y0", "y1", "y2")

APPENDIX_P = "x0^3 - 3/4*x2*x0^2 - 2*x1^2*x0 - 21/16*x2^2*x0 + 55/64*x2^3 - 3/2*x1^2*x2"
APPENDIX_Q6 = (
    "1485*y0^6 - 3672*y2*y0^5 - 15282*y1^2*y0^4 - 2448*y2^2*y0^4 + 12032*y2^3*y0^3"
    " - 19872*y1^2*y2*y0^3 + 9504*y1^4*y0^2 - 5376*y2^4*y0^2 + 21312*y1^2*y2^2*y0^2"
    " - 6144*y2^5*y0 + 13824*y1^2*y2^3*y0 + 27648*y1^4*y2*y0 + 864*y1^6 + 4096*y2^6"
    " - 4608*y1^2*y2^4 + 13824*y1^4*y2^2"
)
APPENDIX_Q30 = (
    "y0^30 - 5*y1^6*y0^24 - 5*y2^6*y0^24 + 10*y1^12*y0^18 + 10*y2^12*y0^18"
    " - 605*y1^6*y2^6*y0^18 - 10*y1^18*y0^12 - 10*y2^18*y0^12"
    " - 1905*y1^6*y2^12*y0^12 - 1905*y1^12*y2^6*y0^12 + 5*y1^24*y0^6 + 5*y2^24*y0^6"
    " - 605*y1^6*y2^18*y0^6 + 1905*y1^12*y2^12*y0^6 - 605*y1^18*y2^6*y0^6"
    " - y1^30 - y2^30 - 5*y1^6*y2^24 - 10*y1^12*y2^18 - 10*y1^18*y2^12"
    " - 5*y1^24*y2^6"
)

OMEGA_POLY = (-1, 0, 0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 1)  # t^12 - 11 t^6 - 1
ALPHA_POLY = (5, 0, -10, 0, 1)  # t^4 - 10 t^2 + 5


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE CRITERION {num:2d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE CRITERION {num:2d} PASS  {title}")


@pytest.fixture(scope="module")
def eq3_body():
    return PencilBody(make_eq3_pencil(), name="eq3")


@pytest.fixture(scope="module")
def eq3_dual(eq3_body):
    return dual_curve(eq3_body.curve_poly)


def write_eq3_file(tmp_path):
    f = tmp_path / "eq3.pencil"
    f.write_text(
        "n 3\nK\n0 -1 0\n-1 0 1\n0 1 0\nL\n"
        "-1/4 -1/2 1\n-1/2 -1/4 -1/2\n1 -1/2 -1/4\n"
    )
    return f


def test_criterion_1_golden_charpoly(tmp_path, capsys):
    with criterion(1, "charpoly reproduces the appendix cubic bit-exactly, < 1 s"):
        f = write_eq3_file(tmp_path)
        t0 = time.monotonic()
        assert main(["charpoly", "--input", str(f)]) == 0
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out.strip()
        assert parse_poly(out, V3) == parse_poly(APPENDIX_P, V3)
        assert str(parse_poly(out, V3)) == out  # canonical round trip
        assert elapsed < 1.0


def test_criterion_2_golden_cubic_dual():
    with criterion(2, "dual of the appendix cubic equals the degree-6 golden, < 60 s"):
        t0 = time.monotonic()
        q = dual_curve(parse_poly(APPENDIX_P, V3))
        elapsed = time.monotonic() - t0
        golden = parse_poly(APPENDIX_Q6, VY)
        assert q.proportional_to(golden)
        # normalization pins the representative: leading coefficient 1485
        assert q == golden.normalized()
        assert q.leading_term()[1] == 1485
        assert elapsed < 60.0


def test_criterion_3_golden_fermat_dual(fermat_dual):
    with criterion(3, "dual of the Fermat sextic equals the degree-30 golden, < 10 min"):
        q, elapsed = fermat_dual
        golden = parse_poly(APPENDIX_Q30, VY)
        assert q.proportional_to(golden)
        assert q == golden.normalized()
        assert q.total_degree == 30
        assert elapsed < 600.0


def test_criterion_4_singular_census(fermat_census):
    with criterion(4, "degree-30 dual has exactly 8 real affine singular points"):
        pts = [s for s in fermat_census if s.chart == "affine"]
        assert len(pts) == 8

        rational = sorted(
            s.float_coords() for s in pts if s.is_rational()
        )
        assert rational == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
        assert all(not s.isolated for s in pts if s.is_rational())

        algebraic = [s for s in pts if not s.is_rational()]
        assert len(algebraic) == 4
        assert all(s.isolated for s in algebraic)

        # omega certified as the unique root of t^12 - 11 t^6 - 1 in [1, 2]
        omega = AlgebraicReal(OMEGA_POLY, RationalInterval(1, 2))
        iv = omega.refine(Fraction(1, 10**9))
        assert iv.width <= Fraction(1, 10**9)
        assert abs(float(iv.mid) - 1.49) < 0.005  # consistent with ~1.49
        eps = Fraction(1, 10**9)
        m_poly = UniPoly(OMEGA_POLY)
        signs = set()
        for s in algebraic:
            b1, b2 = s.coordinate_box(eps)
            for coord, box in ((s.y1, b1), (s.y2, b2)):
                hit_pos = box.intersect(iv) is not None
                hit_neg = box.intersect(RationalInterval(-iv.hi, -iv.lo)) is not None
                assert hit_pos or hit_neg
                # exact identification: the coordinate's candidate polynomial
                # shares with t^12 - 11 t^6 - 1 a factor that has a root in
                # the coordinate's isolating box, so the coordinate IS +-omega
                g = UniPoly(coord.poly).gcd(m_poly)
                assert g.degree > 0
                assert (
                    count_real_roots(g, box.lo, box.hi) >= 1
                    or g(box.lo) == 0
                )
            signs.add((b1.mid > 0, b2.mid > 0))
        assert signs == {(True, True), (True, False), (False, True), (False, False)}


def test_criterion_5_counterexample_verdict(capsys):
    with criterion(5, "verify on preset fermat6 reports hull-inclusion failure"):
        code = main(["verify", "--preset", "fermat6"])
        out = capsys.readouterr().out
        assert code == 1
        lines = out.splitlines()
        fail_line = [l for l in lines if l.startswith("FAIL") and "hull_inclusion" in l]
        assert len(fail_line) == 1
        assert "4 of 8" in fail_line[0]
        witness_lines = [l for l in lines if "witness:" in l and "isolated" in l]
        assert len(witness_lines) == 4
        for w in witness_lines:
            assert "'isolated': True" in w
            assert "separating_direction" in w
            assert "'polar_meets_S_interior': True" in w
            assert "interval_margin" in w  # rigorous enclosure of the S-margin


def test_criterion_6_hull_at_scale(eq3_body, eq3_dual):
    with criterion(6, "m=2000: Hausdorff(hull(curve), boundary) <= 1e-3 and cloud on q"):
        m = 2000
        cloud = sample_kippenhahn_curve(eq3_body.pencil, m)
        boundary = [y for _, y, _ in sample_numrange_boundary(eq3_body.pencil, m)]
        hull = convex_hull(cloud.points)
        d = hausdorff(hull, boundary)
        assert d <= 1e-3
        q = eq3_dual.normalized()
        norm1 = float(sum(abs(c) for c in q.terms.values()))
        worst = max(abs(q.evaluate((1.0, y1, y2))) for y1, y2 in cloud.points)
        assert worst <= 1e-6 * norm1


def test_criterion_7_observation2_exactness(eq3_body):
    with criterion(7, "100 random interior lines meet the curve only in real points"):
        rng = random.Random(20230114)
        body = eq3_body
        checked = 0
        while checked < 100:
            e = (
                Fraction(rng.randint(-48, 48), 64),
                Fraction(rng.randint(-48, 48), 64),
            )
            if not body.interior_exact(*e):
                continue
            d = (
                Fraction(rng.randint(-32, 32), 8),
                Fraction(rng.randint(-32, 32), 8),
            )
            if not any(d):
                continue
            checked += 1
            res = line_curve_real_check(body, e, d)
            assert res.all_real
            assert res.distinct_roots == res.restriction.squarefree_part().degree

        # the parabola case: intersections at (1:0:-1) and (0:0:1)
        from tests.test_convexgeom import parabola_body  # type: ignore

        pb = parabola_body()
        res = line_curve_real_check(pb, (0, 0), (0, 1))
        assert res.all_real
        assert res.meets_at_infinity  # (0 : 0 : 1)
        assert res.restriction.coeffs == (Fraction(1), Fraction(1))  # root at -1


def test_criterion_8_lemma_ws_suite():
    with criterion(8, "duality lemma agrees on 200 points for 5 random pencils"):
        rng = random.Random(99)
        tested_pencils = 0
        attempt = 0
        while tested_pencils < 5:
            attempt += 1
            n = (2, 3, 4)[(tested_pencils + attempt) % 3]
            body = PencilBody(make_random_pencil(rng, n), name=f"rand{n}")
            if body.is_degenerate():
                continue
            body = body.translated_to_centroid()
            extent = 1.0
            for j in range(16):
                th = 2 * math.pi * j / 16
                extent = max(extent, abs(body.support(math.cos(th), math.sin(th))))
            samples = [
                (rng.uniform(-3 * extent, 3 * extent), rng.uniform(-3 * extent, 3 * extent))
                for _ in range(200)
            ]
            _, mismatches, _ = check_lemma_ws(body, samples)
            assert mismatches == [], f"pencil {tested_pencils}: {mismatches[:3]}"
            tested_pencils += 1


def test_criterion_9_tangency_certificates():
    with criterion(9, "double tangency at (1 : w : w) certified with enclosures"):
        omega = AlgebraicReal(OMEGA_POLY, RationalInterval(1, 2))
        alpha = AlgebraicReal(ALPHA_POLY, RationalInterval(3, 4))
        p = parse_poly("x0^6 - x1^6 - x2^6", V3)
        wits = tangency_check(p, ProjPoint(1, omega, omega))
        assert len(wits) == 2

        eps = Fraction(1, 10**25)
        wi = omega.refine(eps)
        ai = alpha.refine(eps)
        re_t = -(wi * 2).reciprocal()  # -1/(2w)
        im_t = ai * (wi * 2).reciprocal()  # a/(2w)

        def holds(z, re, im):
            """The witness box z contains the box re + i*im."""
            return all(a.lo <= b.lo and b.hi <= a.hi for a, b in ((z.re, re), (z.im, im)))

        matched_signs = set()
        for w in wits:
            for sgn in (1, -1):
                scaled = im_t if sgn > 0 else RationalInterval(-im_t.hi, -im_t.lo)
                other = RationalInterval(-im_t.hi, -im_t.lo) if sgn > 0 else im_t
                if holds(w.x1, re_t, scaled) and holds(w.x2, re_t, other):
                    matched_signs.add(sgn)
        assert matched_signs == {1, -1}
        # the two witnesses form a complex-conjugate pair
        a, b = wits
        assert a.x1.re.intersect(b.x1.re) is not None
        assert a.x1.im.intersect(RationalInterval(-b.x1.im.hi, -b.x1.im.lo)) is not None


def test_criterion_10_unchecked_claims_reported(tmp_path, capsys):
    with criterion(10, "complex count and irreducibility recorded as unchecked"):
        f = write_eq3_file(tmp_path)
        assert main(["verify", "--input", str(f), "--resolution", "120"]) == 0
        out = capsys.readouterr().out
        unchecked = [l for l in out.splitlines() if l.startswith("UNCHECKED")]
        assert len(unchecked) == 2
        assert any("complex_singular_count" in l for l in unchecked)
        assert any("dual_irreducibility" in l for l in unchecked)
        assert any("not" in l and "reproduced" in l for l in unchecked)
