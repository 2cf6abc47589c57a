#!/usr/bin/env python3
"""The sextic support-function example end to end: a convex set that is not
a numerical range, whose boundary-generating construction leaves four
isolated singular points of the dual curve outside the set.

Expect several seconds: the degree-30 dual curve and the singular-point
census run in exact arithmetic.
"""

from kippenhahn import (
    AlgebraicReal,
    ProjPoint,
    RationalInterval,
    dual_curve,
    fermat6_body,
    line_meets_interior_dual,
    point_outside_W,
    real_singular_points,
    tangency_check,
)

body = fermat6_body()
print("support function h(x) = -(x1^6 + x2^6)^(1/6);")
print("supporting-line poles sweep the curve", body.curve_poly)

print()
print("dual curve (degree 30) ...")
q = dual_curve(body.curve_poly)
print(f"  q has degree {q.total_degree} and {q.num_terms()} terms")

print()
print("real singular points of the dual curve ...")
points = [s for s in real_singular_points(q) if s.chart == "affine"]
for s in points:
    y1, y2 = s.float_coords()
    print(f"  ({y1:+.10f}, {y2:+.10f})  isolated={s.isolated}")

print()
print("the isolated points sit outside the convex set:")
for s in points:
    if not s.isolated:
        continue
    res = point_outside_W(body, s.float_coords())
    d = res.direction
    print(
        f"  {s.float_coords()}  separated along ({d[0]:+.6f}, {d[1]:+.6f}),"
        f" margin {res.margin:+.4f}"
    )
    line = ProjPoint(1, s.y1, s.y2).polar()
    meet = line_meets_interior_dual(body, line)
    print(
        f"    its polar crosses the dual set's interior at"
        f" ({meet.point[0]:+.4f}, {meet.point[1]:+.4f}), margin {meet.margin:+.4f}"
    )

print()
print("double tangency at (1 : w : w), certified with interval enclosures:")
omega = AlgebraicReal((-1, 0, 0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 1), RationalInterval(1, 2))
for w in tangency_check(body.curve_poly, ProjPoint(1, omega, omega)):
    x1 = w.x1.to_complex()
    x2 = w.x2.to_complex()
    print(f"  contact near x1 = {x1:+.10f}, x2 = {x2:+.10f}")
print("the two contact points are complex conjugates: the tangent line is")
print("real and crosses the convex dual set, so the hull statement fails here.")
