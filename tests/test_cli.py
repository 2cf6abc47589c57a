import xml.etree.ElementTree as ET

import pytest

from kippenhahn.cli import main
from kippenhahn.mpoly import parse_poly
from kippenhahn import svgfig

EQ3_PENCIL = """\
n 3
K
0 -1 0
-1 0 1
0 1 0
L
-1/4 -1/2 1
-1/2 -1/4 -1/2
1 -1/2 -1/4
"""

PARABOLA_PENCIL = """\
n 2
K
0 1
1 0
L
1 0
0 0
"""

# two conics crossing in the nodes (+-sqrt2, +-1): the table prints the
# irrational coordinate as its isolating interval refined to 1e-12
TWO_CONICS = "y1^4 - y2^4 - 4*y0^2*y1^2 + 2*y0^2*y2^2 + 3*y0^4"
TWO_CONICS_TABLE = (
    "chart                                     y1                                 y2 isolated  mult>=\n"
    "affine      [-1.41421356237, -1.41421356237]                                 -1 no        2\n"
    "affine      [-1.41421356237, -1.41421356237]                                  1 no        2\n"
    "affine        [1.41421356237, 1.41421356237]                                 -1 no        2\n"
    "affine        [1.41421356237, 1.41421356237]                                  1 no        2\n"
)

# A = diag(1, 1, i, 0): p = x0 (x0 + x1)^2 (x0 + x2) is not squarefree
SQUARED_PENCIL = "n 4\nA\n1 0 0 0\n0 1 0 0\n0 0 i 0\n0 0 0 0\n"
NOT_SQUAREFREE = "dual_curve expects a squarefree polynomial"

APPENDIX_P = "x0^3 - 3/4*x2*x0^2 - 2*x1^2*x0 - 21/16*x2^2*x0 + 55/64*x2^3 - 3/2*x1^2*x2"


@pytest.fixture
def eq3_file(tmp_path):
    p = tmp_path / "eq3.pencil"
    p.write_text(EQ3_PENCIL)
    return p


@pytest.fixture
def parabola_file(tmp_path):
    p = tmp_path / "parabola.pencil"
    p.write_text(PARABOLA_PENCIL)
    return p


class TestCharpoly:
    def test_eq3_golden(self, eq3_file, capsys):
        assert main(["charpoly", "--input", str(eq3_file)]) == 0
        out = capsys.readouterr().out.strip()
        assert parse_poly(out, ("x0", "x1", "x2")) == parse_poly(
            APPENDIX_P, ("x0", "x1", "x2")
        )

    def test_parabola(self, parabola_file, capsys):
        assert main(["charpoly", "--input", str(parabola_file)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "x0^2 - x1^2 + x0*x2"

    def test_identity_pencil(self, tmp_path, capsys):
        f = tmp_path / "id.pencil"
        f.write_text("n 3\nK\n0 0 0\n0 0 0\n0 0 0\nL\n0 0 0\n0 0 0\n0 0 0\n")
        assert main(["charpoly", "--input", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "x0^3"

    def test_roundtrip_bit_exact(self, eq3_file, capsys):
        main(["charpoly", "--input", str(eq3_file)])
        first = capsys.readouterr().out.strip()
        reparsed = parse_poly(first, ("x0", "x1", "x2"))
        assert str(reparsed) == first

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.pencil"
        f.write_text("n 2\nK\n0 1\n1 zz\nL\n0 0\n0 0\n")
        assert main(["charpoly", "--input", str(f)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err

    def test_missing_file_exit_2(self, capsys):
        assert main(["charpoly", "--input", "/nonexistent/x.pencil"]) == 2

    @pytest.mark.parametrize(
        "cmd", [["charpoly"], ["verify"], ["plot", "--panel", "supports", "--out-dir", "figures"]]
    )
    def test_size_below_1_exit_2(self, tmp_path, monkeypatch, capsys, cmd):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.pencil").write_text("# no rows\nn 0\nK\nL\n")
        assert main([*cmd, "--input", "empty.pencil"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 2: matrix size 0 is below 1\n"
        assert not (tmp_path / "figures").exists()

    @pytest.mark.parametrize("cmd", ["charpoly", "verify"])
    @pytest.mark.parametrize("entry", ["1/0", "1/0*i"])
    def test_zero_denominator_exit_2(self, tmp_path, capsys, cmd, entry):
        f = tmp_path / "zero.pencil"
        f.write_text(f"n 2\nK\n0 1\n1 0\nL\n1 0\n0 {entry}\n")
        assert main([cmd, "--input", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"parse error: line 7, column 2: bad matrix entry '{entry}': "
            "zero denominator in '1/0'\n"
        )


class TestDual:
    def test_conic_file(self, tmp_path, capsys):
        f = tmp_path / "conic.poly"
        f.write_text("x0^2 - x1^2 - x2^2\n")
        assert main(["dual", "--input", str(f)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "y0^2 - y1^2 - y2^2"

    def test_matrix_input(self, parabola_file, capsys):
        assert main(["dual", "--input", str(parabola_file)]) == 0
        out = capsys.readouterr().out.strip()
        # dual of the parabola x0^2 + x0 x2 - x1^2
        q = parse_poly(out, ("y0", "y1", "y2"))
        grad = [
            parse_poly(APPENDIX_P, ("x0", "x1", "x2")),
        ]
        assert q.homogeneous_degree() == 2

    def test_resource_cap_exit_3(self, eq3_file, capsys):
        assert main(["dual", "--input", str(eq3_file), "--max-terms", "5"]) == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x0^2*x1^2 - x1^4", "dual_curve expects a squarefree polynomial"),
            ("x0 + x1", "dual_curve expects a homogeneous polynomial of degree >= 2"),
        ],
    )
    def test_invalid_curve_exit_2(self, tmp_path, capsys, text, message):
        f = tmp_path / "invalid.poly"
        f.write_text(text + "\n")
        assert main(["dual", "--input", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid curve: {message}\n"

    def test_zero_denominator_exit_2(self, tmp_path, capsys):
        f = tmp_path / "zero.poly"
        f.write_text("3/0*x0^2 - x1^2 - x2^2\n")
        assert main(["dual", "--input", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "zero denominator in '3/0'" in captured.err

    def test_non_principal_exit_4(self, tmp_path, capsys):
        f = tmp_path / "lines.poly"
        f.write_text("x0^2 - x1^2\n")
        assert main(["dual", "--input", str(f)]) == 4


class TestSingular:
    def test_nodal_cubic(self, tmp_path, capsys):
        f = tmp_path / "nodal.poly"
        f.write_text("y0*y2^2 - y1^3 - y0*y1^2\n")
        assert main(["singular", "--input", str(f)]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.startswith("affine")]
        assert len(rows) == 1

    def test_algebraic_coordinates_table(self, tmp_path, capsys):
        f = tmp_path / "conics.poly"
        f.write_text(TWO_CONICS + "\n")
        assert main(["singular", "--input", str(f)]) == 0
        captured = capsys.readouterr()
        assert captured.out == TWO_CONICS_TABLE
        assert captured.err == ""

    def test_lines_meeting_at_infinity(self, tmp_path, capsys):
        # det(x0 + x1 K) with K = diag(1, 2, 3), L = 0: three real lines
        # through (0 : 0 : 1)
        f = tmp_path / "diag.pencil"
        f.write_text("n 3\nK\n1 0 0\n0 2 0\n0 0 3\nL\n0 0 0\n0 0 0\n0 0 0\n")
        assert main(["singular", "--input", str(f)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split() == ["infinity", "0", "1", "-", "2"]

    def test_not_squarefree_exit_2(self, tmp_path, capsys):
        f = tmp_path / "double.poly"
        f.write_text("y0^2*y1^2 - y1^4\n")
        assert main(["singular", "--input", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid curve: polynomial must be squarefree\n"

    def test_inhomogeneous_exit_2(self, tmp_path, capsys):
        f = tmp_path / "cusp.poly"
        f.write_text("x1^2 + x2^3\n")
        assert main(["singular", "--input", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid curve: polynomial must be homogeneous\n"

    def test_smooth_conic_empty(self, tmp_path, capsys):
        f = tmp_path / "conic.poly"
        f.write_text("y0^2 - y1^2 - y2^2\n")
        assert main(["singular", "--input", str(f)]) == 0
        out = capsys.readouterr().out
        assert not [l for l in out.splitlines() if l.startswith("affine")]

    def test_line_at_infinity(self, tmp_path, capsys):
        # the chart polynomial of y0 is constant: a line has no singular points
        f = tmp_path / "line.poly"
        f.write_text("y0\n")
        assert main(["singular", "--input", str(f)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == []
        assert captured.err == "(no real singular points)\n"


class TestVerify:
    def test_degenerate_point_range(self, tmp_path, capsys):
        f = tmp_path / "n1.pencil"
        f.write_text("n 1\nK\n2\nL\n3\n")
        assert main(["verify", "--input", str(f)]) == 0
        captured = capsys.readouterr()
        assert "DEGENERATE" in captured.out
        assert "warning" in captured.err
        # no curve was checked, so the report claims no squarefreeness either
        assert (
            "UNCHECKED  dual_irreducibility          irreducibility of the dual "
            "polynomial is not certified; no dual polynomial was computed\n"
        ) in captured.out

    def test_commuting_pencil_degenerate(self, tmp_path, capsys):
        f = tmp_path / "seg.pencil"
        f.write_text("n 2\nK\n1 0\n0 -1\nL\n2 0\n0 -2\n")
        assert main(["verify", "--input", str(f)]) == 0
        assert "DEGENERATE" in capsys.readouterr().out

    def test_curve_not_squarefree_fails_dual_row(self, tmp_path, capsys):
        f = tmp_path / "squared.pencil"
        f.write_text(SQUARED_PENCIL)
        assert main(["verify", "--input", str(f), "--resolution", "24"]) == 1
        captured = capsys.readouterr()
        # status of each check, by name; witness lines are indented
        rows = dict(l.split()[1::-1] for l in captured.out.splitlines()[1:] if l[0] != " ")
        assert f"FAIL       dual_curve                   {NOT_SQUAREFREE}\n" in captured.out
        assert f"           witness: {NOT_SQUAREFREE}\n" in captured.out
        # the rest of the report still runs
        assert rows["lemma_ws"] == rows["observation2_lines"] == "PASS"
        assert rows["hull_hausdorff"] == "PASS"
        # and does not claim the squarefreeness the dual row just refuted
        assert (
            "UNCHECKED  dual_irreducibility          irreducibility of the dual "
            "polynomial is not certified; no dual polynomial was computed\n"
        ) in captured.out
        assert captured.err == ""


SHOW_CONFIG_DEFAULTS = (
    "configuration:\n"
    "  resolution = 720\n"
    "  max_terms = 10000\n"
    "  max_bits = 1000000\n"
    "  lemma_samples = 200\n"
    "  obs2_lines = 100\n"
    "  seed = 20230114\n"
    "  out_dir = .\n"
)


class TestShowConfig:
    def test_defaults(self, capsys):
        # every VerifyConfig field that verify runs with, then the CLI-only
        # output directory
        assert main(["--show-config"]) == 0
        assert capsys.readouterr().out == SHOW_CONFIG_DEFAULTS

    def test_config_file_and_flag_precedence(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "kippenhahn.cfg"
        cfg.write_text("resolution = 100\nmax-bits = 5000\n")
        monkeypatch.setenv("KIPPENHAHN_CONFIG", str(cfg))
        assert main(["--show-config"]) == 0
        out = capsys.readouterr().out
        assert "resolution = 100" in out and "max_bits = 5000" in out
        # flags beat the file
        assert main(["dual", "--input", "/nonexistent", "--resolution", "50"]) == 2

    @pytest.mark.parametrize(
        "text, words",
        [
            ("resolution = 100\nresolutoin = 50\n", ["line 2", "'resolutoin'"]),
            ("# comment\n\nresolution = abc\n", ["line 3", "'resolution'", "'abc'"]),
            ("tol-geom = 1e-7\n", ["line 1", "unknown config key", "'tol-geom'"]),
        ],
        ids=["unknown-key", "bad-int", "removed-key"],
    )
    def test_config_file_errors(self, tmp_path, capsys, monkeypatch, text, words):
        cfg = tmp_path / "kippenhahn.cfg"
        cfg.write_text(text)
        monkeypatch.setenv("KIPPENHAHN_CONFIG", str(cfg))
        assert main(["--show-config"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        for w in words:
            assert w in captured.err

    def test_config_key_error_names_no_column(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "kippenhahn.cfg"
        cfg.write_text("resolution = 100\nresolutoin = 50\n")
        monkeypatch.setenv("KIPPENHAHN_CONFIG", str(cfg))
        assert main(["--show-config"]) == 2
        assert capsys.readouterr().err == (
            f"parse error: line 2: unknown config key 'resolutoin' in {cfg}\n"
        )

    def test_removed_tolerance_flag(self, capsys):
        # the geometric tolerance is the constant GEOM_TOL; no flag sets it
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--preset", "fermat6", "--tol-geom", "1e-7"])
        assert exc.value.code == 2
        assert "--tol-geom" in capsys.readouterr().err

    def test_invalid_resolution(self, tmp_path, capsys):
        f = tmp_path / "conic.poly"
        f.write_text("x0^2 - x1^2 - x2^2\n")
        assert main(["dual", "--input", str(f), "--resolution", "2"]) == 2


class TestPlot:
    def test_panels_and_determinism(self, parabola_file, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for panel in ("supports", "primal-curve", "dual-curve", "kippenhahn"):
            for out in (out1, out2):
                code = main(
                    [
                        "plot",
                        "--input",
                        str(parabola_file),
                        "--panel",
                        panel,
                        "--out-dir",
                        str(out),
                        "--resolution",
                        "48",
                    ]
                )
                assert code == 0
            a = (out1 / f"parabola_{panel}.svg").read_bytes()
            b = (out2 / f"parabola_{panel}.svg").read_bytes()
            assert a == b
            ET.fromstring(a.decode())  # well-formed XML
        csv1 = (out1 / "parabola_kippenhahn.csv").read_bytes()
        csv2 = (out2 / "parabola_kippenhahn.csv").read_bytes()
        assert csv1 == csv2

    @pytest.mark.parametrize(
        "preset, panel, markers, tangents",
        [
            # the three cusps of the eq3 dual, marked whether isolated or not
            (None, "dual-curve", 3, 0),
            # no pencil: the four isolated Fermat points and their polars
            ("fermat6", "kippenhahn", 4, 4),
        ],
    )
    def test_singular_point_markers(self, eq3_file, tmp_path, preset, panel, markers, tangents):
        source = ["--preset", preset] if preset else ["--input", str(eq3_file)]
        svgs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["plot", *source, "--panel", panel, "--out-dir", str(out)]) == 0
            (path,) = out.glob("*.svg")
            svgs.append(path.read_bytes())
        assert svgs[0] == svgs[1]
        root = ET.fromstring(svgs[0].decode())  # well-formed XML
        shapes = [e.attrib for e in root]
        assert sum(a.get("stroke") == "red" for a in shapes) == markers
        assert sum(a.get("stroke") == "#2b6cb0" for a in shapes) == tangents

    @pytest.mark.parametrize("panel", ["dual-curve", "kippenhahn"])
    def test_curve_not_squarefree_exit_2(self, tmp_path, capsys, panel):
        f = tmp_path / "squared.pencil"
        f.write_text(SQUARED_PENCIL)
        out_dir = tmp_path / "figures"
        args = ["plot", "--input", str(f), "--panel", panel, "--out-dir", str(out_dir)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid curve: {NOT_SQUAREFREE}\n"
        assert not out_dir.exists()

    def test_unknown_preset_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "figures"
        args = ["plot", "--preset", "nosuch", "--panel", "supports", "--out-dir", str(out_dir)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: unknown preset 'nosuch'\n"
        assert not out_dir.exists()

    def test_empty_cloud_valid_svg(self):
        svg = svgfig.render_kippenhahn([], caption="empty")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_no_negative_zero(self):
        # rounding noise just outside the frame must not print as "-0.000"
        canvas = svgfig.SvgCanvas((-1, 1, -1, 1))
        canvas.dot((-1 - 1e-12, 1 + 1e-12))
        assert 'cx="0.000" cy="0.000"' in canvas.parts[-1]
        assert svgfig._fmt(-0.0) == "0.000"
        assert svgfig._fmt(-0.0004) == "0.000"
        assert svgfig._fmt(-0.0006) == "-0.001"

    def test_marching_squares_circle(self):
        p = parse_poly("x0^2 - x1^2 - x2^2", ("x0", "x1", "x2"))
        xs, ys, Z = svgfig.poly_grid(p, (-2, 2, -2, 2), 64)
        segs = svgfig.marching_squares(xs, ys, Z)
        assert segs
        for (x1, y1), (x2, y2) in segs:
            for x, y in ((x1, y1), (x2, y2)):
                assert abs(math_hypot(x, y) - 1.0) < 0.1


def math_hypot(x, y):
    return (x * x + y * y) ** 0.5
