"""The layers the traced run measures, and where each one is expected to work.

A layer is a package module; each entry below is one of its public
functions (``Class.method`` for methods, a bare class name for its
construction).  ``svgfig`` is left out on purpose: plotting is not on the
benchmark's path.

``BUSY_ON`` names, for each entry, the workloads on which it must record
calls (the benchmark self-test asserts this); every entry's time is expected
to move the end-to-end ``wall_s`` of those workloads and no other.  Where the
share of the pass differs between them, see the table in ``README.md``.
"""

from __future__ import annotations

# the pencil layers (eigen, cofactor determinant, Sturm chains) and the
# degree-30 certification; every layer below is busy on one or both
PENCILS, FERMAT6 = "eq3-census-charpoly", "fermat6"
BOTH = (PENCILS, FERMAT6)

# (module, function) -> workloads on which it is busy
BUSY_ON = {
    ("matrixpencil", "support_function"): (PENCILS,),
    ("matrixpencil", "eigen_hermitian"): (PENCILS,),
    ("matrixpencil", "sample_numrange_boundary"): (PENCILS,),
    ("matrixpencil", "pencil_det"): (PENCILS,),
    ("matrixpencil", "det_along_line"): (PENCILS,),
    ("matrixpencil", "parse_pencil_text"): (PENCILS,),
    ("convexgeom", "run_verification"): BOTH,
    ("convexgeom", "check_lemma_ws"): BOTH,
    ("convexgeom", "point_outside_W"): BOTH,
    ("convexgeom", "line_meets_interior_dual"): BOTH,
    ("convexgeom", "line_curve_real_check"): BOTH,
    ("convexgeom", "sample_kippenhahn_curve"): (PENCILS,),
    ("convexgeom", "convex_hull"): (PENCILS,),
    ("convexgeom", "hausdorff"): (PENCILS,),
    ("convexgeom", "tangency_check"): (FERMAT6,),
    ("groebner", "dual_curve"): BOTH,
    ("groebner", "buchberger"): BOTH,
    ("realroots", "real_singular_points"): BOTH,
    ("realroots", "resultant"): BOTH,
    ("realroots", "sturm_isolate"): BOTH,
    ("realroots", "count_real_roots"): BOTH,
    ("mpoly", "MultiPoly.evaluate"): BOTH,
    ("mpoly", "poly_gcd"): BOTH,
    ("mpoly", "MultiPoly.squarefree_part"): BOTH,
    ("exactnum", "AlgebraicReal"): BOTH,
    ("exactnum", "AlgebraicReal.refine"): BOTH,
    ("exactnum", "sturm_count"): BOTH,
    ("cli", "main"): (PENCILS,),
}

LAYERS = tuple(BUSY_ON)


def _basis_counters(basis, counters):
    counters["groebner.buchberger.basis_terms"] += sum(len(g.terms) for g in basis)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for g in basis for c in g.terms.values()),
        default=0,
    )
    key = "groebner.buchberger.max_coeff_bits"
    counters[key] = max(counters[key], bits)


def _census_counters(points, counters):
    counters["realroots.real_singular_points.points"] += len(points)
    counters["realroots.real_singular_points.isolated"] += sum(
        1 for s in points if s.isolated
    )


# layer name -> hook reading counters off the layer's return value
RESULT_COUNTERS = {
    "groebner.buchberger": _basis_counters,
    "realroots.real_singular_points": _census_counters,
}

COUNTER_KEYS = (
    "groebner.buchberger.basis_terms",
    "groebner.buchberger.max_coeff_bits",
    "realroots.real_singular_points.points",
    "realroots.real_singular_points.isolated",
)

# one entry per per-layer metric the traced run prints, in BENCHMARK.json order
PER_LAYER_METRICS = tuple(
    (f"{m}.{q}.{kind}", unit)
    for m, q in LAYERS
    for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
) + tuple((key, "bits" if key.endswith("bits") else "count") for key in COUNTER_KEYS) + (
    ("trace.overhead_frac", "ratio"),
)
