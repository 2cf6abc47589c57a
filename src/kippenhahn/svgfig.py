"""Deterministic SVG rendering: supporting-line fans, implicit curve contours
via marching squares on a sign grid, and point-cloud panels with singular
point markers.

Byte-identical output for identical inputs: floats are emitted with a fixed
format and no timestamps or ids enter the document.
"""

from __future__ import annotations

import math

import numpy as np

from .mpoly import MultiPoly

__all__ = [
    "marching_squares",
    "poly_grid",
    "SvgCanvas",
    "render_supports",
    "render_curve",
    "render_dual_curve",
    "render_kippenhahn",
]


def poly_grid(p: MultiPoly, bbox, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample p(1, x, y) on an n-by-n grid over bbox = (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = bbox
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = np.zeros_like(X)
    for exp, c in sorted(p.terms.items()):
        Z += float(c) * X ** exp[1] * Y ** exp[2]
    return xs, ys, Z


# corner bits: 0 = bottom-left, 1 = bottom-right, 2 = top-right, 3 = top-left;
# edges: 0 = bottom, 1 = right, 2 = top, 3 = left
_EDGES = {
    1: [(0, 3)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(2, 3)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(0, 3)],
}


def marching_squares(xs, ys, Z) -> list:
    """Zero-level segments of a scalar grid (corner order bl, br, tr, tl).

    The two ambiguous saddle cases are resolved by the cell-center sample, so
    the output is a deterministic function of the grid.
    """
    segs = []
    nx, ny = Z.shape
    for i in range(nx - 1):
        for j in range(ny - 1):
            v = (Z[i, j], Z[i + 1, j], Z[i + 1, j + 1], Z[i, j + 1])
            idx = 0
            for k in range(4):
                if v[k] > 0.0:
                    idx |= 1 << k
            if idx in (0, 15):
                continue
            corners = (
                (xs[i], ys[j]),
                (xs[i + 1], ys[j]),
                (xs[i + 1], ys[j + 1]),
                (xs[i], ys[j + 1]),
            )
            edges = [(0, 1), (1, 2), (2, 3), (3, 0)]

            def cut(edge):
                a, b = edges[edge]
                va, vb = v[a], v[b]
                t = 0.5 if va == vb else va / (va - vb)
                t = min(max(t, 0.0), 1.0)
                pa, pb = corners[a], corners[b]
                return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

            if idx in (5, 10):
                center = 0.25 * sum(v)
                if idx == 5:
                    pairs = [(0, 1), (2, 3)] if center > 0.0 else [(0, 3), (1, 2)]
                else:
                    pairs = [(0, 3), (1, 2)] if center > 0.0 else [(0, 1), (2, 3)]
            else:
                pairs = _EDGES[idx]
            for ea, eb in pairs:
                segs.append((cut(ea), cut(eb)))
    return segs


def _fmt(v: float) -> str:
    # tiny negatives round to "-0.000"; print them as "0.000" so the bytes do
    # not depend on the sign of rounding noise
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


class SvgCanvas:
    """Minimal SVG builder with a fixed world-to-screen transform."""

    def __init__(self, bbox, size: int = 560):
        self.x0, self.x1, self.y0, self.y1 = (float(b) for b in bbox)
        self.size = size
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">',
            f'<rect width="{size}" height="{size}" fill="white"/>',
        ]

    def to_screen(self, x: float, y: float):
        sx = (x - self.x0) / (self.x1 - self.x0) * self.size
        sy = (self.y1 - y) / (self.y1 - self.y0) * self.size
        return sx, sy

    def line(self, p, q, color="black", width=0.8, opacity=1.0):
        (x1, y1), (x2, y2) = self.to_screen(*p), self.to_screen(*q)
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}" stroke-opacity="{opacity}"/>'
        )

    def dot(self, p, r=1.2, color="black"):
        x, y = self.to_screen(*p)
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}"/>'
        )

    def marker(self, p, r=5.0, color="red"):
        x, y = self.to_screen(*p)
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )

    def axes(self, color="#bbbbbb"):
        if self.x0 < 0 < self.x1:
            self.line((0, self.y0), (0, self.y1), color=color, width=0.6)
        if self.y0 < 0 < self.y1:
            self.line((self.x0, 0), (self.x1, 0), color=color, width=0.6)

    def caption(self, text: str):
        self.parts.append(
            f'<text x="8" y="16" font-family="monospace" font-size="12" '
            f'fill="#333333">{text}</text>'
        )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _clip_line_to_box(point, direction, bbox):
    """Segment of {point + t*direction} inside the box, or None."""
    x0, x1, y0, y1 = bbox
    px, py = point
    dx, dy = direction
    t_lo, t_hi = -math.inf, math.inf
    for p, d, lo, hi in ((px, dx, x0, x1), (py, dy, y0, y1)):
        if d == 0.0:
            if not lo <= p <= hi:
                return None
            continue
        ta, tb = (lo - p) / d, (hi - p) / d
        if ta > tb:
            ta, tb = tb, ta
        t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
    if t_lo >= t_hi:
        return None
    return (
        (px + t_lo * dx, py + t_lo * dy),
        (px + t_hi * dx, py + t_hi * dy),
    )


def _pad_bbox(xs, ys, margin=0.1):
    if not xs:
        return (-1.0, 1.0, -1.0, 1.0)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w = max(x1 - x0, 1e-6)
    h = max(y1 - y0, 1e-6)
    side = max(w, h)
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    half = side / 2 * (1 + 2 * margin)
    return (cx - half, cx + half, cy - half, cy + half)


def render_supports(body, m: int, caption: str = "") -> str:
    """Supporting-line fan; the convex set shows as the empty center."""
    normals = []
    for j in range(m):
        theta = 2.0 * math.pi * j / m
        c, s = math.cos(theta), math.sin(theta)
        normals.append(((c, s), body.support(c, s)))
    feet = [(h * c, h * s) for (c, s), h in normals]
    bbox = _pad_bbox([2.2 * x for x, _ in feet], [2.2 * y for _, y in feet])
    cv = SvgCanvas(bbox)
    cv.axes()
    for (c, s), h in normals:
        seg = _clip_line_to_box((h * c, h * s), (-s, c), bbox)
        if seg:
            cv.line(*seg, color="#2b6cb0", width=0.5, opacity=0.55)
    if caption:
        cv.caption(caption)
    return cv.finish()


def render_curve(
    p: MultiPoly, bbox=None, grid: int = 512, markers=(), caption: str = ""
) -> str:
    """Implicit contour of p(1, x, y) = 0 by marching squares."""
    if bbox is None:
        bbox = (-2.0, 2.0, -2.0, 2.0)
    xs, ys, Z = poly_grid(p, bbox, grid)
    segs = marching_squares(xs, ys, Z)
    cv = SvgCanvas(bbox)
    cv.axes()
    for a, b in segs:
        cv.line(a, b, color="black", width=1.0)
    for mk in markers:
        cv.marker(mk)
        cv.dot(mk, r=1.6, color="red")
    if caption:
        cv.caption(caption)
    return cv.finish()


def render_dual_curve(q: MultiPoly, singular_points=(), bbox=None, grid: int = 512,
                      caption: str = "") -> str:
    if bbox is None:
        pts = [s for s in singular_points]
        half = 1.5 * max((max(abs(a), abs(b)) for a, b in pts), default=1.0) + 0.4
        bbox = (-half, half, -half, half)
    return render_curve(q, bbox, grid, markers=singular_points, caption=caption)


def render_kippenhahn(
    cloud_points,
    singular_points=(),
    tangent_lines=(),
    boundary_points=(),
    caption: str = "",
) -> str:
    """Point-cloud panel: curve samples, optional boundary, singular markers,
    and optional (double) tangent lines given as (point, direction) pairs."""
    xs = [x for x, _ in cloud_points] + [x for x, _ in singular_points]
    ys = [y for _, y in cloud_points] + [y for _, y in singular_points]
    bbox = _pad_bbox(xs, ys)
    cv = SvgCanvas(bbox)
    cv.axes()
    for pt, direction in tangent_lines:
        seg = _clip_line_to_box(pt, direction, bbox)
        if seg:
            cv.line(*seg, color="#2b6cb0", width=0.7, opacity=0.8)
    for p in boundary_points:
        cv.dot(p, r=0.8, color="#999999")
    for p in cloud_points:
        cv.dot(p, r=1.0, color="black")
    for p in singular_points:
        cv.marker(p)
        cv.dot(p, r=1.6, color="red")
    if caption:
        cv.caption(caption)
    return cv.finish()
