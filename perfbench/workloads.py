"""The benchmark workloads and the job groups they are made of.

Each ``setup_*(seed, workdir)`` builds one job group's inputs and returns its
fixed jobs; a workload's job list is the concatenation of its groups.  A job's ``run`` is the timed call into the package; its ``check``
looks at the output afterwards, outside the timed region, and returns a
list of problems.  Checks rest on facts known independently of the code
under test (closed forms from the paper, numpy float arithmetic, invariants
of the geometry); they compare no float digits of report text.

Jobs build their ``PencilBody`` inside the timed call, because a body caches
its determinant polynomial and a cached body would make later passes cheaper
than the first.
"""

from __future__ import annotations

import io
import math
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import kippenhahn as kh
from kippenhahn import cli

from inputs import (
    EQ3_TEXT,
    FERMAT6_TEXT,
    OMEGA,
    OMEGA_POLY,
    float_matrices,
    pencil_text,
    random_pencil,
    rational_direction,
)

XVARS = ("x0", "x1", "x2")

# eq3 group: run_verification at the CLI's documented resolution, with the
# duality-lemma and interior-line sample counts cut from 200 and 100 so one
# pass fits a run several times; the hull job is acceptance criterion 6 at
# m = 500 instead of 2000.
EQ3_CONFIG = dict(resolution=120, lemma_samples=16, obs2_lines=24)
EQ3_HULL_M = 500
# census group: the generator's first pencil at this seed.  At seeds 0 to 14
# one census took 5.7 to 27 s, median 13 s; the cheapest was taken so that a
# pass fits a run several times.
CENSUS_POOL_SEED = 13
CHARPOLY_SIZES = (5, 6, 7)
CHARPOLY_LINES = 3


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


# --- independent checks -------------------------------------------------------


def _expect_statuses(report, expected: dict) -> list:
    got = {c.name: c.status for c in report.checks}
    return [f"check {k}: {got.get(k)} != {v}" for k, v in expected.items() if got.get(k) != v]


def _float_eval(terms: dict, point) -> tuple[float, float]:
    """Float value of a polynomial given as {exponent: coefficient}, and the
    sum of the absolute values of its terms (the scale of rounding error)."""
    val = 0.0
    scale = 0.0
    for exp, c in terms.items():
        t = float(c)
        for v, e in zip(point, exp):
            t *= v**e
        val += t
        scale += abs(t)
    return val, scale


def _on_dual_curve(q, K, L, directions: int = 8) -> list:
    """Every eigenvector branch of cos(t) K + sin(t) L maps to a point of the
    boundary generating curve {q(1, y) = 0}; eigenvectors come from numpy."""
    problems = []
    for j in range(directions):
        t = 2 * math.pi * (j + 0.5) / directions
        _, vecs = np.linalg.eigh(math.cos(t) * K + math.sin(t) * L)
        for v in vecs.T:
            y = (1.0, float(np.real(np.vdot(v, K @ v))), float(np.real(np.vdot(v, L @ v))))
            val, scale = _float_eval(q.terms, y)
            if abs(val) > 1e-7 * max(scale, 1.0):
                problems.append(f"q(1, {y[1]:.6g}, {y[2]:.6g}) = {val:.3e} off the curve")
    return problems


def _det_matches(p_terms: dict, K, L, rng: random.Random) -> list:
    """p(1, x1, x2) against numpy's det(I + x1 K + x2 L), relative 1e-9."""
    problems = []
    n = K.shape[0]
    for _ in range(5):
        x1, x2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        M = np.eye(n) + x1 * K + x2 * L
        ref = float(np.real(np.linalg.det(M)))
        hadamard = float(np.prod(np.linalg.norm(M, axis=1)))
        val, _ = _float_eval(p_terms, (1.0, x1, x2))
        if abs(val - ref) > 1e-9 * max(hadamard, 1.0):
            problems.append(f"p(1, {x1:.4f}, {x2:.4f}) = {val:.12g}, numpy det {ref:.12g}")
    return problems


_POLY_TEXT = re.compile(r"^[0-9x^*/+\- ]+$")
_TERM = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)?\*?((?:x[0-2](?:\^\d+)?\*?)*)")


def _printed_terms(text: str) -> dict:
    """{exponent: coefficient} read off the CLI's printed polynomial by a
    parser of the benchmark's own, not the package's."""
    text = text.strip()
    if not text or not _POLY_TEXT.match(text):
        raise ValueError(f"unexpected polynomial text {text[:60]!r}")
    terms = {}
    pos = 0
    compact = text.replace(" ", "")
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot read term at {compact[pos:pos + 20]!r}")
        sign, coef, mono = m.groups()
        c = Fraction(coef) if coef else Fraction(1)
        exp = [0, 0, 0]
        for var, power in re.findall(r"x([0-2])(?:\^(\d+))?", mono):
            exp[int(var)] += int(power) if power else 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + (-c if sign == "-" else c)
        pos = m.end()
    return terms


# --- eq3 group --------------------------------------------------------------------

EQ3_EXPECTED = {
    "determinant_curve": "pass",
    "dual_curve": "pass",
    "lemma_ws": "pass",
    "observation2_lines": "pass",
    "hull_inclusion": "pass",
    "singular_census": "pass",
    "hull_hausdorff": "pass",
    "cloud_on_dual_curve": "pass",
    "complex_singular_count": "unchecked",
    "dual_irreducibility": "unchecked",
}


def setup_eq3(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    pencil = kh.parse_pencil_text(EQ3_TEXT)
    K, L = float_matrices(pencil)
    config = kh.VerifyConfig(seed=rng.randrange(2**31), **EQ3_CONFIG)
    m = EQ3_HULL_M

    def verify():
        return kh.run_verification(kh.PencilBody(pencil, "eq3"), config)

    def check_verify(report):
        return _expect_statuses(report, EQ3_EXPECTED) + (
            [] if report.passed else ["report did not pass"]
        )

    def hull():
        cloud = kh.sample_kippenhahn_curve(pencil, m)
        boundary = [y for _, y, _ in kh.sample_numrange_boundary(pencil, m)]
        hull_pts = kh.convex_hull(cloud.points)
        return cloud, boundary, hull_pts, kh.hausdorff(hull_pts, boundary)

    def check_hull(out):
        cloud, boundary, hull_pts, dist = out
        problems = []
        if len(cloud) != 3 * m or len(boundary) != m:
            problems.append(f"{len(cloud)} cloud / {len(boundary)} boundary points")
        # smallest-eigenvector contact points from numpy, direction by direction
        ref = []
        for j in range(m):
            t = 2 * math.pi * j / m
            _, vecs = np.linalg.eigh(math.cos(t) * K + math.sin(t) * L)
            v = vecs[:, 0]
            ref.append((float(np.real(np.vdot(v, K @ v))), float(np.real(np.vdot(v, L @ v)))))
        worst = max(math.dist(a, b) for a, b in zip(boundary, ref))
        if worst > 1e-8:
            problems.append(f"boundary point off by {worst:.3e} from numpy")
        H, B = np.asarray(hull_pts), np.asarray(ref)
        d = np.sqrt(((H[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
        mine = max(d.min(axis=1).max(), d.min(axis=0).max())
        if not (dist <= 1e-3 and mine <= 1e-3 and abs(mine - dist) <= 1e-8):
            problems.append(f"Hausdorff {dist:.3e}, recomputed {mine:.3e}, limit 1e-3")
        return problems

    return [Job("eq3-verify", verify, check_verify), Job("eq3-hull", hull, check_hull)]


# --- fermat6 group ----------------------------------------------------------------

FERMAT6_EXPECTED = {
    "determinant_curve": "pass",
    "dual_curve": "pass",
    "lemma_ws": "pass",
    "observation2_lines": "fail",
    "hull_inclusion": "fail",
    "singular_census": "pass",
    "hull_hausdorff": "degenerate",
    "complex_singular_count": "unchecked",
    "dual_irreducibility": "unchecked",
}


def setup_fermat6(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    config = kh.VerifyConfig(seed=rng.randrange(2**31))
    p = kh.parse_poly(FERMAT6_TEXT, XVARS)
    plus = kh.AlgebraicReal(OMEGA_POLY, kh.RationalInterval(1, 2))
    minus = kh.AlgebraicReal(OMEGA_POLY, kh.RationalInterval(-2, -1))
    signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    rng.shuffle(signs)
    points = [
        kh.ProjPoint(1, plus if s1 > 0 else minus, plus if s2 > 0 else minus)
        for s1, s2 in signs
    ]

    def verify():
        return kh.run_verification(kh.fermat6_body(), config)

    def check_verify(report):
        problems = _expect_statuses(report, FERMAT6_EXPECTED)
        if report.passed:
            problems.append("counterexample report passed")
        hull = report["hull_inclusion"]
        if "4 of 8" not in hull.details:
            problems.append(f"hull_inclusion: {hull.details!r}")
        if "4 isolated" not in report["singular_census"].details:
            problems.append(f"census: {report['singular_census'].details!r}")
        found = set()
        for w in hull.witnesses:
            y1, y2 = w["point"]
            if not (w["isolated"] and w["polar_meets_S_interior"] and "interval_margin" in w):
                problems.append(f"witness at ({y1:.6g}, {y2:.6g}) lacks a certificate")
            if abs(abs(y1) - OMEGA) > 1e-9 or abs(abs(y2) - OMEGA) > 1e-9:
                problems.append(f"witness ({y1:.6g}, {y2:.6g}) is not (+-w, +-w)")
            found.add((y1 > 0, y2 > 0))
        if len(hull.witnesses) != 4 or len(found) != 4:
            problems.append(f"{len(hull.witnesses)} witnesses in {len(found)} quadrants")
        return problems

    def tangency():
        return [kh.tangency_check(p, y) for y in points]

    def check_tangency(all_witnesses):
        # the polar of y = (1 : y1 : y2) touches x0^6 = x1^6 + x2^6 where the
        # gradient (6, -6 x1^5, -6 x2^5) is parallel to y: x_k^5 = -y_k
        problems = []
        for (s1, s2), wits in zip(signs, all_witnesses):
            if len(wits) != 2:
                problems.append(f"{len(wits)} witnesses at signs ({s1}, {s2})")
            for w in wits:
                x1, x2 = w.x1.to_complex(), w.x2.to_complex()
                err = max(abs(x1**5 + s1 * OMEGA), abs(x2**5 + s2 * OMEGA),
                          abs(1 - x1**6 - x2**6))
                if err > 1e-9:
                    problems.append(f"witness ({x1:.6g}, {x2:.6g}) off the contact point")
            if len(wits) == 2 and abs(wits[0].x1.to_complex() - wits[1].x1.to_complex().conjugate()) > 1e-9:
                problems.append("witnesses are not a conjugate pair")
        return problems

    return [Job("fermat6-verify", verify, check_verify), Job("fermat6-tangency", tangency, check_tangency)]


# --- census group -----------------------------------------------------------------


def setup_census(seed: int, workdir: Path) -> list[Job]:
    """One fixed generator pencil (see CENSUS_POOL_SEED): a fresh pencil per
    seed would cost 5.7 to 27 s, which no run could average out.  The seed
    picks only the check's points."""
    pencil = random_pencil(random.Random(CENSUS_POOL_SEED), 3)
    K, L = float_matrices(pencil)
    check_rng = random.Random(seed)

    def census():
        p = kh.pencil_det(pencil)
        q = kh.dual_curve(p)
        return p, q, kh.real_singular_points(q)

    def check(out):
        p, q, pts = out
        problems = _det_matches(p.terms, K, L, check_rng)
        problems += _on_dual_curve(q, K, L)
        if q.total_degree == 6:
            # dual of a smooth real cubic: its singular points are the cusps
            # dual to the 9 flexes, exactly 3 of them real
            if len(pts) != 3 or any(s.isolated for s in pts):
                problems.append(
                    f"{len(pts)} real singular points "
                    f"({sum(1 for s in pts if s.isolated)} isolated), expected 3 and 0"
                )
        for s in pts:
            if s.chart != "affine":
                continue
            y = (1.0, *s.float_coords())
            for f in [q.terms] + [g.terms for g in q.gradient()]:
                val, scale = _float_eval(f, y)
                if abs(val) > 1e-8 * max(scale, 1.0):
                    problems.append(f"q or its gradient is {val:.3e} at ({y[1]:.6g}, {y[2]:.6g})")
        return problems

    return [Job("census", census, check)]


# --- charpoly group ---------------------------------------------------------------


def setup_charpoly(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for n in CHARPOLY_SIZES:
        path = workdir / f"charpoly-n{n}.pencil"
        path.write_text(pencil_text(random_pencil(rng, n)))
        pencil = kh.parse_pencil_text(path.read_text())
        K, L = float_matrices(pencil)
        body = kh.PencilBody(pencil, f"rand{n}").translated_to_centroid()
        Kc, Lc = float_matrices(body.pencil)
        directions = [rational_direction(rng) for _ in range(CHARPOLY_LINES)]
        check_rng = random.Random(rng.random())

        def charpoly(path=str(path)):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["charpoly", "--input", path])
            return code, buf.getvalue()

        def check_charpoly(out, K=K, L=L, n=n, check_rng=check_rng):
            code, text = out
            if code != 0:
                return [f"exit code {code}"]
            terms = _printed_terms(text)
            if any(sum(e) != n for e in terms):
                return [f"printed polynomial is not homogeneous of degree {n}"]
            return _det_matches(terms, K, L, check_rng)

        def lines(body=body, directions=directions):
            return [kh.line_curve_real_check(body, (0, 0), d) for d in directions]

        def check_lines(results, Kc=Kc, Lc=Lc, directions=directions):
            # det(I + t (d1 K + d2 L)) has the real roots -1/lambda, one per
            # nonzero eigenvalue lambda of the Hermitian d1 K + d2 L
            problems = []
            for d, res in zip(directions, results):
                lam = np.linalg.eigvalsh(float(d[0]) * Kc + float(d[1]) * Lc)
                nonzero = int(np.sum(np.abs(lam) > 1e-9 * max(1.0, np.abs(lam).max())))
                if not res.all_real or res.finite_roots != nonzero:
                    problems.append(
                        f"line dir ({d[0]}, {d[1]}): all_real={res.all_real}, "
                        f"{res.finite_roots} finite roots, numpy {nonzero}"
                    )
            return problems

        jobs.append(Job(f"charpoly-n{n}", charpoly, check_charpoly))
        jobs.append(Job(f"lines-n{n}", lines, check_lines))
    return jobs


# Two workloads of four groups: the machine's speed drifts over tens of
# seconds, so a run lasts a minute, and four one-minute workloads would not
# fit the time a full round of benchmark runs may take.  fermat6, whose
# verification alone takes over 20 s, runs alone; the other three groups share
# the pencil layers (eigen solves, the cofactor determinant, Fraction Sturm
# chains) that fermat6 leaves idle.
WORKLOADS = {
    "eq3-census-charpoly": lambda seed, workdir: (
        setup_eq3(seed, workdir) + setup_census(seed, workdir) + setup_charpoly(seed, workdir)
    ),
    "fermat6": setup_fermat6,
}
