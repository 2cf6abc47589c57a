"""Byte-for-byte CLI transcripts.

Each case runs ``cli.main`` in-process and compares its stdout, stderr and
exit code with ``tests/golden/<case>.json``: `charpoly`, `dual` and
`singular` on the eq3 pencil and on the seed-13 pencil of
``conftest.make_random_pencil``; `singular` on the dual curves of those two
pencils, written as ``<name>-dual.poly`` (the determinant cubics have no
singular points, their duals have three cusps each); `singular` on three
hand-written curves it rejects, one with a y0^2 factor, a line times a
squared conic, and the inhomogeneous cusp x1^2 + x2^3; `charpoly` alone on
its seed-7 pencil of size 7 (`dual` or `singular` there would be slow) and
on the hand-written
``amatrix.pencil``, whose A section ``HermitianPencil.from_matrix`` splits;
and `dual`, `singular` and `verify` on the fermat6 preset.  `verify` on a
pencil is left out: its floats come from LAPACK, while the fermat6 oracle
body calls no LAPACK.

The SVG panels that call no LAPACK are pinned by their SHA-256 in
``tests/golden/plot-sha256.json``: `plot --panel dual-curve` on the eq3 and
seed-13 pencils, and all four panels of the fermat6 preset.

After a deliberate change of output, rewrite the files (pins included) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from conftest import make_eq3_pencil, make_random_pencil
from kippenhahn.cli import CONFIG_ENV, main
from kippenhahn.groebner import dual_curve
from kippenhahn.matrixpencil import format_pencil_text, pencil_det

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = {
    "eq3": make_eq3_pencil,
    "seed13": lambda: make_random_pencil(random.Random(13), 3),
}
CHARPOLY_INPUTS = {"seed7": lambda: make_random_pencil(random.Random(7), 7)}
WRITTEN = {**INPUTS, **CHARPOLY_INPUTS}
CASES = {
    f"{cmd}-{name}": [cmd, "--input", str(GOLDEN / f"{name}.pencil")]
    for name in INPUTS
    for cmd in ("charpoly", "dual", "singular")
}
CASES.update(
    {
        f"singular-{name}-dual": ["singular", "--input", str(GOLDEN / f"{name}-dual.poly")]
        for name in INPUTS
    }
)
CASES.update(
    {
        f"singular-{name}": ["singular", "--input", str(GOLDEN / f"{name}.poly")]
        for name in ("y0-squared", "line-times-squared-conic", "inhomogeneous-cusp")
    }
)
CASES.update(
    {
        f"charpoly-{name}": ["charpoly", "--input", str(GOLDEN / f"{name}.pencil")]
        for name in (*CHARPOLY_INPUTS, "amatrix")
    }
)
CASES.update(
    {f"{cmd}-fermat6": [cmd, "--preset", "fermat6"] for cmd in ("dual", "singular", "verify")}
)

PLOTS = {
    f"dual-curve-{name}": ["--input", str(GOLDEN / f"{name}.pencil"), "--panel", "dual-curve"]
    for name in INPUTS
}
PLOTS.update(
    {
        f"{panel}-fermat6": ["--preset", "fermat6", "--panel", panel]
        for panel in ("supports", "primal-curve", "dual-curve", "kippenhahn")
    }
)
PINS = GOLDEN / "plot-sha256.json"


def transcript(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(autouse=True)
def no_config_file(tmp_path, monkeypatch):
    monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "absent.cfg"))


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_input_file_is_the_pencil(name):
    assert (GOLDEN / f"{name}.pencil").read_text() == format_pencil_text(WRITTEN[name]())


def dual_text(name) -> str:
    return f"{dual_curve(pencil_det(INPUTS[name]()))}\n"


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_dual_file_is_the_dual(name):
    assert (GOLDEN / f"{name}-dual.poly").read_text() == dual_text(name)


@pytest.mark.parametrize("case", sorted(CASES))
def test_transcript_unchanged(case):
    expected = json.loads((GOLDEN / f"{case}.json").read_text())
    assert transcript(CASES[case]) == expected


def plot_sha256(case, out_dir) -> str:
    assert transcript(["plot", *PLOTS[case], "--out-dir", str(out_dir)])["exit"] == 0
    (svg,) = Path(out_dir).glob("*.svg")
    return hashlib.sha256(svg.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(PLOTS))
def test_plot_svg_unchanged(case, tmp_path):
    assert plot_sha256(case, tmp_path) == json.loads(PINS.read_text())[case]


if __name__ == "__main__":
    os.environ[CONFIG_ENV] = str(GOLDEN / "absent.cfg")
    for name, make in WRITTEN.items():
        (GOLDEN / f"{name}.pencil").write_text(format_pencil_text(make()))
    for name in INPUTS:
        (GOLDEN / f"{name}-dual.poly").write_text(dual_text(name))
    for case, argv in CASES.items():
        text = json.dumps(transcript(argv), indent=1) + "\n"
        (GOLDEN / f"{case}.json").write_text(text)
        print(GOLDEN / f"{case}.json")
    with tempfile.TemporaryDirectory() as tmp:
        pins = {case: plot_sha256(case, Path(tmp) / case) for case in sorted(PLOTS)}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(PINS)
