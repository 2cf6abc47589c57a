"""Smoke tests: the narrative demos in demos/ run to completion."""

import runpy
from pathlib import Path

from kippenhahn import VerifyConfig

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", [name])
    runpy.run_path(str(DEMOS / name), run_name="__main__")


def test_pipeline_cubic(tmp_path, monkeypatch, capsys):
    run_demo("pipeline_cubic.py", tmp_path, monkeypatch)
    assert "overall: PASS" in capsys.readouterr().out


def test_range_gallery(tmp_path, monkeypatch, capsys):
    run_demo("range_gallery.py", tmp_path, monkeypatch)
    distances = [
        float(line.rsplit("=", 1)[1])
        for line in capsys.readouterr().out.splitlines()
        if "Hausdorff(hull, boundary)" in line
    ]
    # the demo samples m = 480 directions; hold it to the verifier's tolerance
    assert len(distances) == 3
    assert max(distances) <= VerifyConfig(resolution=480).hull_tolerance()
    written = sorted(p.name for p in (tmp_path / "gallery_out").iterdir())
    assert written == [f"random_n{n}.{ext}" for n in (2, 3, 4) for ext in ("csv", "svg")]


def test_counterexample_sextic(tmp_path, monkeypatch, capsys):
    run_demo("counterexample_sextic.py", tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert out.count("isolated=True") == 4
    contacts = [
        [complex(part.split("=")[1]) for part in line.split(",")]
        for line in out.splitlines()
        if "contact near" in line
    ]
    assert len(contacts) == 2
    first, second = contacts
    assert all(abs(a.conjugate() - b) < 1e-9 and a.imag for a, b in zip(first, second))
