"""Command-line entry point: compute determinant curves and duals, locate
real singular points, run the verification pipeline, and draw the four
standard panels as SVG.

Exit codes: 0 success (or degenerate geometry with a warning), 1 failed
verification, 2 parse error or invalid curve, 3 resource cap exceeded,
4 non-principal elimination ideal, 5 precision exhaustion.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from .exactnum import ParseError
from .groebner import NonPrincipalIdealError, ResourceLimitError, dual_curve
from .matrixpencil import parse_pencil_text, pencil_det
from .mpoly import MultiPoly, parse_poly
from .realroots import PrecisionError, real_singular_points
from .convexgeom import (
    PencilBody,
    VerifyConfig,
    _support_sweep,
    fermat6_body,
    run_verification,
    sample_kippenhahn_curve,
)
from . import svgfig

PANELS = ("supports", "primal-curve", "dual-curve", "kippenhahn")

CONFIG_ENV = "KIPPENHAHN_CONFIG"
CONFIG_DEFAULT_NAME = "kippenhahn.cfg"


# config-file keys (dashes read as underscores) and their value types
CONFIG_FIELDS = {
    "resolution": int,
    "max_terms": int,
    "max_bits": int,
    "out_dir": str,
}


def _load_config_file() -> dict:
    """Values of the config file, converted; an unknown key or a value that
    does not convert is a ParseError naming the key and its line."""
    path = os.environ.get(CONFIG_ENV, CONFIG_DEFAULT_NAME)
    values = {}
    p = Path(path)
    if not p.is_file():
        return values
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line has no '=': {line!r}", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        name = key.replace("-", "_")
        if name not in CONFIG_FIELDS:
            raise ParseError(f"unknown config key {key!r} in {path}", line=lineno)
        try:
            values[name] = CONFIG_FIELDS[name](val)
        except ValueError:
            raise ParseError(
                f"invalid value {val!r} for config key {key!r} in {path}", line=lineno
            ) from None
    return values


def _build_config(args) -> tuple[VerifyConfig, str]:
    """The VerifyConfig and output directory from flags > config file >
    defaults."""
    values = {"out_dir": "."}
    values.update(_load_config_file())
    for name, conv in CONFIG_FIELDS.items():
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = conv(flag)
    out_dir = values.pop("out_dir")
    cfg = VerifyConfig(**values)
    if cfg.resolution < 3:
        raise ParseError("resolution must be at least 3")
    return cfg, out_dir


def _read_input(args) -> str:
    if not args.input:
        raise ParseError("need --input FILE or --preset NAME")
    p = Path(args.input)
    if not p.is_file():
        raise ParseError(f"input file not found: {args.input}")
    return p.read_text()


def _looks_like_pencil(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        return bool(re.match(r"n\s*=?\s*\d+$", line))
    return False


def _infer_variables(text: str):
    names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text))
    if not names:
        raise ParseError("no variables found in polynomial input")
    letters = {n[0] for n in names}
    if len(letters) != 1:
        raise ParseError(f"polynomial mixes variable families: {sorted(names)}")
    base = letters.pop()
    return tuple(f"{base}{i}" for i in range(3))


def _load_curve_poly(args) -> MultiPoly:
    """Polynomial from --input (polynomial or matrix file) or --preset."""
    if getattr(args, "preset", None):
        return _load_body(args).curve_poly
    text = _read_input(args)
    if _looks_like_pencil(text):
        return pencil_det(parse_pencil_text(text))
    return parse_poly(text, _infer_variables(text))


def _load_body(args):
    if getattr(args, "preset", None):
        if args.preset != "fermat6":
            raise ParseError(f"unknown preset {args.preset!r}")
        return fermat6_body()
    text = _read_input(args)
    if not _looks_like_pencil(text):
        raise ParseError("verify expects a matrix pencil file or a preset")
    name = Path(args.input).stem
    return PencilBody(parse_pencil_text(text), name=name)


# --- commands -------------------------------------------------------------------


def cmd_charpoly(args) -> int:
    text = _read_input(args)
    pencil = parse_pencil_text(text)
    p = pencil_det(pencil)
    print(p)
    return 0


def cmd_dual(args) -> int:
    cfg, _ = _build_config(args)
    q = dual_curve(_load_curve_poly(args), max_terms=cfg.max_terms, max_bits=cfg.max_bits)
    print(q)
    print(f"degree {q.total_degree}, {q.num_terms()} terms", file=sys.stderr)
    return 0


def _format_coord(c) -> str:
    if isinstance(c, Fraction):
        return str(c)
    iv = c.refine(Fraction(1, 10**12))
    return f"[{float(iv.lo):.12g}, {float(iv.hi):.12g}]"


def cmd_singular(args) -> int:
    p = _load_curve_poly(args)
    if getattr(args, "preset", None):
        # the preset names a convex-set example; its curve of interest for the
        # singular census is the dual curve
        cfg, _ = _build_config(args)
        p = dual_curve(p, max_terms=cfg.max_terms, max_bits=cfg.max_bits)
    pts = real_singular_points(p)
    print(f"{'chart':9s} {'y1':>34s} {'y2':>34s} {'isolated':9s} {'mult>=':6s}")
    for s in pts:
        iso = "-" if s.isolated is None else ("yes" if s.isolated else "no")
        print(
            f"{s.chart:9s} {_format_coord(s.y1):>34s} {_format_coord(s.y2):>34s} "
            f"{iso:9s} {s.multiplicity_hint:d}"
        )
    if not pts:
        print("(no real singular points)", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    cfg, _ = _build_config(args)
    body = _load_body(args)
    report = run_verification(body, cfg)
    sys.stdout.write(report.format_text())
    if report.degenerate and report.passed:
        print("warning: degenerate geometry; duality checks skipped", file=sys.stderr)
        return 0
    return 0 if report.passed else 1


def cmd_plot(args) -> int:
    cfg, out_dir = _build_config(args)
    panel = args.panel
    if panel not in PANELS:
        raise ParseError(f"unknown panel {panel!r}; choose from {', '.join(PANELS)}")
    body = _load_body(args)
    stem = args.preset or Path(args.input).stem
    p = body.curve_poly
    if panel in ("dual-curve", "kippenhahn"):
        q = dual_curve(p, max_terms=cfg.max_terms, max_bits=cfg.max_bits)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    extra_files = []
    if panel == "supports":
        svg = svgfig.render_supports(body, min(cfg.resolution, 240), caption=f"{stem}: supporting lines")
    elif panel == "primal-curve":
        half = _curve_extent(body)
        svg = svgfig.render_curve(
            p, bbox=(-half, half, -half, half), caption=f"{stem}: determinant curve"
        )
    elif panel == "dual-curve":
        pts = [
            s.float_coords()
            for s in real_singular_points(q)
            if s.chart == "affine"
        ]
        svg = svgfig.render_dual_curve(
            q, singular_points=pts, caption=f"{stem}: dual curve"
        )
    else:  # kippenhahn
        singular = [
            s.float_coords()
            for s in real_singular_points(q)
            if s.chart == "affine" and s.isolated
        ]
        if isinstance(body, PencilBody):
            cloud = sample_kippenhahn_curve(body.pencil, cfg.resolution)
            svg = svgfig.render_kippenhahn(
                cloud.points, singular_points=singular, caption=f"{stem}: boundary generating curve"
            )
            csv_path = out_dir / f"{stem}_kippenhahn.csv"
            csv_path.write_text(cloud.to_csv())
            extra_files.append(csv_path)
        else:
            # no pencil: draw the dual convex set's boundary curve and the
            # polars of the isolated singular points (the double tangents)
            tangents = []
            for a, b in singular:
                n2 = a * a + b * b
                tangents.append(((-a / n2, -b / n2), (-b, a)))
            half = _curve_extent(body)
            xs, ys, Z = svgfig.poly_grid(p, (-half, half, -half, half), svgfig.GRID)
            segs = svgfig.marching_squares(xs, ys, Z)
            boundary = [seg[0] for seg in segs]
            svg = svgfig.render_kippenhahn(
                [],
                singular_points=singular,
                tangent_lines=tangents,
                boundary_points=boundary,
                caption=f"{stem}: double tangents crossing the dual set",
            )
    path = out_dir / f"{stem}_{panel}.svg"
    path.write_text(svg)
    for f in [path] + extra_files:
        print(f)
    return 0


def _curve_extent(body) -> float:
    _, hs = _support_sweep(body, 64)
    return 2.5 * max(abs(h) for h in hs) + 0.25


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kippenhahn",
        description="determinant curves, dual curves, singular points, and "
        "numerical-range verification",
    )
    ap.add_argument(
        "--show-config",
        action="store_true",
        help="print the effective configuration and exit",
    )
    sub = ap.add_subparsers(dest="command")

    def common(sp, preset=True):
        sp.add_argument("--input", help="input file (matrix pencil or polynomial)")
        if preset:
            sp.add_argument("--preset", help='built-in example (e.g. "fermat6")')
        sp.add_argument("--resolution", type=int, default=None)
        sp.add_argument("--max-terms", dest="max_terms", type=int, default=None)
        sp.add_argument("--max-bits", dest="max_bits", type=int, default=None)
        sp.add_argument("--out-dir", dest="out_dir", default=None)

    sp = sub.add_parser("charpoly", help="determinant polynomial of a pencil")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=cmd_charpoly)

    sp = sub.add_parser("dual", help="dual curve via Groebner elimination")
    common(sp)
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("singular", help="real singular points of a plane curve")
    common(sp)
    sp.set_defaults(func=cmd_singular)

    sp = sub.add_parser("verify", help="run the full verification pipeline")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("plot", help="render a panel as SVG")
    common(sp)
    sp.add_argument("--panel", required=True, choices=PANELS)
    sp.set_defaults(func=cmd_plot)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.show_config:
            cfg, out_dir = _build_config(args)
            print("configuration:")
            for f in fields(cfg):
                print(f"  {f.name} = {getattr(cfg, f.name)}")
            print(f"  out_dir = {out_dir}")
            return 0
        if not getattr(args, "command", None):
            ap.print_help()
            return 0
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a curve the exact layers reject
        print(f"invalid curve: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except NonPrincipalIdealError as exc:
        print(f"non-principal elimination ideal: {exc}", file=sys.stderr)
        return 4
    except PrecisionError as exc:
        print(f"precision exhaustion: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
