import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import viviani
from viviani import parse_document, viviani_defect, viviani_values
from viviani.cli import run_cli

FIXTURES = Path(__file__).parent.parent / "fixtures"
PENTAGON = str(FIXTURES / "pentagon.json")
CUBE = str(FIXTURES / "cube.json")
CORNERS = str(FIXTURES / "square_corners.json")
TRAPEZOID = str(FIXTURES / "trapezoid.json")


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_pentagon_is_viviani(self, capsys):
        code, out, _ = run(capsys, "check", PENTAGON)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("defect=")
        assert float(lines[0].split("=", 1)[1]) <= 1e-12
        assert lines[1].startswith("gradient=")
        assert lines[2] == "viviani=true"

    def test_trapezoid_is_not(self, capsys):
        code, out, _ = run(capsys, "check", TRAPEZOID)
        assert code == 1
        assert "viviani=false" in out

    def test_tol_is_respected(self, capsys):
        code, _, _ = run(capsys, "check", TRAPEZOID, "--tol", "10")
        assert code == 0

    def test_nan_tol_is_refused(self, capsys):
        code, out, err = run(capsys, "check", PENTAGON, "--tol", "nan")
        assert code == viviani.cli.EXIT_PRECONDITION
        assert out == ""
        assert "error:" in err

    def test_points_doc_rejected(self, capsys):
        code, _, err = run(capsys, "check", CORNERS)
        assert code == 3
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no_such_file.json")
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 2,,}')
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_integer_beyond_float_range(self, capsys, tmp_path):
        bad = tmp_path / "huge.json"
        bad.write_text('{"dimension": 1, "points": [[1' + "0" * 400 + ']]}')
        code, _, err = run(capsys, "median", str(bad))
        assert code == 2
        assert "points[0][0]: number beyond the float range" in err


class TestValue:
    def test_cube_value(self, capsys):
        code, out, _ = run(capsys, "value", CUBE, "--point", "0.5,0.5,0.5")
        assert code == 0
        assert float(out.split("=", 1)[1]) == pytest.approx(3.0, abs=1e-12)

    def test_dimension_mismatch(self, capsys):
        code, _, _ = run(capsys, "value", CUBE, "--point", "0.5,0.5")
        assert code == 3


class TestMedian:
    def test_square_corners(self, capsys):
        code, out, _ = run(capsys, "median", CORNERS)
        assert code == 0
        payload = json.loads(out)
        assert payload["point"] == pytest.approx([0.0, 0.0], abs=1e-9)
        assert payload["objective"] == pytest.approx(4 * math.sqrt(2), abs=1e-9)
        assert payload["status"] == "interior_optimum"
        assert payload["residual"] <= 4e-8

    def test_needs_points(self, capsys):
        code, _, _ = run(capsys, "median", CUBE)
        assert code == 3

    def test_objective_beyond_float_range_is_null(self, capsys, tmp_path):
        # The distance sum overflows; strict JSON has no Infinity to print.
        doc = tmp_path / "far.json"
        doc.write_text('{"dimension": 2, "points": '
                       '[[-1e308, 0], [1e308, 0], [0, 1e308], [3e307, -5e307]]}')
        code, out, _ = run(capsys, "median", str(doc))
        assert code == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(out, parse_constant=refuse)
        assert payload["objective"] is None
        assert payload["status"] == "interior_optimum"
        assert all(math.isfinite(x) for x in payload["point"])

    @pytest.mark.parametrize("argv", [
        ["--tol", "-1"], ["--tol", "nan"], ["--max-iter", "0"], ["--max-iter", "-2"],
    ], ids=["tol=-1", "tol=nan", "max-iter=0", "max-iter=-2"])
    def test_bad_solver_arguments(self, capsys, argv):
        # No uncertified status is printed: the solve is refused.
        code, out, err = run(capsys, "median", CORNERS, *argv)
        assert code == viviani.cli.EXIT_PRECONDITION
        assert out == ""
        assert "error:" in err


class TestDualize:
    def test_solved_median(self, capsys):
        code, out, _ = run(capsys, "dualize", CORNERS)
        assert code == 0
        doc = parse_document(out)
        S = doc.to_hyperplane_set()
        assert len(S) == 4
        assert viviani_defect(S) <= 4e-6
        rng = np.random.default_rng(0)
        vals = viviani_values(rng.uniform(-2, 2, size=(10, 2)), S)
        assert np.ptp(vals) <= 1e-8
        assert vals[0] == pytest.approx(4 * math.sqrt(2), abs=1e-8)

    def test_at_certified_point(self, capsys):
        code, out, _ = run(capsys, "dualize", CORNERS, "--at", "0,0")
        assert code == 0
        parse_document(out)

    def test_at_non_fermat_point(self, capsys):
        code, _, err = run(capsys, "dualize", CORNERS, "--at", "0.5,0")
        assert code == 3
        assert "error:" in err


class TestProject:
    def test_triangle_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "equiangular", "--sides", "1,1,1")
        assert code == 0
        tri = tmp_path / "triangle.json"
        tri.write_text(out)
        capsys.readouterr()
        code, out, err = run(capsys, "project", str(tri), "--point", "0.5,0.3")
        assert code == 0
        doc = parse_document(out)
        assert doc.kind == "points"
        assert doc.points.shape == (3, 2)
        assert float(doc.metadata["recovery_error"]) <= 1e-6
        assert "recovery_error=" in err

    def test_mixed_signs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "equiangular", "--sides", "1,1,1")
        tri = tmp_path / "triangle.json"
        tri.write_text(out)
        capsys.readouterr()
        code, _, _ = run(capsys, "project", str(tri), "--point", "5,5")
        assert code == 3


class TestGenerate:
    def test_platonic(self, capsys):
        code, out, _ = run(capsys, "generate", "platonic", "cube")
        assert code == 0
        doc = parse_document(out)
        assert len(doc.planes) == 6

    def test_family_member(self, capsys):
        code, out, _ = run(capsys, "generate", "example5", "--t", "1.0")
        assert code == 0
        doc = parse_document(out)
        assert viviani_defect(doc.to_hyperplane_set()) <= 1e-12

    def test_family_domain(self, capsys):
        code, _, _ = run(capsys, "generate", "example5", "--t", "4.0")
        assert code == 3

    def test_equiangular_closure_violation(self, capsys):
        code, _, _ = run(capsys, "generate", "equiangular", "--sides", "1,1,2")
        assert code == 3


class TestSample:
    def test_cube_constant(self, capsys):
        code, out, _ = run(capsys, "sample", CUBE, "--count", "100", "--seed", "7")
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert fields["n"] == "100"
        assert float(fields["min"]) == pytest.approx(3.0, abs=1e-12)
        assert float(fields["max"]) == pytest.approx(3.0, abs=1e-12)
        assert float(fields["spread"]) <= 1e-9

    def test_non_viviani_spread_scales_with_defect(self, capsys, tmp_path):
        doc = tmp_path / "plane.json"
        doc.write_text('{"dimension": 2, "planes": [{"normal": [1.0, 0.0], "offset": 0.0}]}\n')
        code, out, _ = run(capsys, "sample", str(doc), "--count", "100", "--seed", "3",
                           "--box=-1,1")
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        # defect 1, box extent 2: the spread must reach at least half of that
        assert float(fields["spread"]) >= 0.5 * 1.0 * 2.0

    def test_spread_law_for_tilted_defect(self, capsys, tmp_path):
        # two planes at 90 degrees: defect sqrt(2) along the diagonal
        doc = tmp_path / "two.json"
        doc.write_text(
            '{"dimension": 2, "planes": ['
            '{"normal": [1.0, 0.0], "offset": 0.5},'
            '{"normal": [0.0, 1.0], "offset": -0.25}]}\n'
        )
        code, out, _ = run(capsys, "sample", str(doc), "--count", "200", "--seed", "5",
                           "--box=0,3")
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert float(fields["spread"]) >= 0.5 * math.sqrt(2.0) * 3.0

    @pytest.mark.parametrize("box", ["-1e308,1e308", "-inf,1", "0,inf"])
    def test_non_finite_box_is_a_usage_error(self, capsys, box):
        with pytest.raises(SystemExit) as exc:
            run_cli(["sample", CUBE, "--count", "5", "--seed", "1", f"--box={box}"])
        assert exc.value.code == viviani.cli.EXIT_BAD_INPUT
        assert "finite" in capsys.readouterr().err

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "sample", CUBE, "--count", "50", "--seed", "11")
        _, second, _ = run(capsys, "sample", CUBE, "--count", "50", "--seed", "11")
        assert first == second


class TestPlot:
    def test_polygon_svg(self, capsys, tmp_path):
        out_path = tmp_path / "pentagon.svg"
        code, _, _ = run(capsys, "plot", PENTAGON, "--out", str(out_path))
        assert code == 0
        data = out_path.read_bytes()
        assert data.startswith(b"<?xml")
        assert b"<svg" in data and b"<polygon" in data
        again = tmp_path / "pentagon2.svg"
        run(capsys, "plot", PENTAGON, "--out", str(again))
        assert again.read_bytes() == data

    def test_planes_svg(self, capsys, tmp_path):
        doc = tmp_path / "planes.json"
        doc.write_text(
            '{"dimension": 2, "planes": ['
            '{"normal": [1.0, 0.0], "offset": 1.0},'
            '{"normal": [0.0, 1.0], "offset": 1.0},'
            '{"normal": [-1.0, 0.0], "offset": 1.0},'
            '{"normal": [0.0, -1.0], "offset": 1.0}]}\n'
        )
        out_path = tmp_path / "planes.svg"
        code, _, _ = run(capsys, "plot", str(doc), "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.count("<line") >= 8  # 4 plane lines + 4 normal arrows

    def test_points_svg(self, capsys, tmp_path):
        out_path = tmp_path / "pts.svg"
        code, _, _ = run(capsys, "plot", CORNERS, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().count("<circle") == 4

    def test_3d_rejected(self, capsys, tmp_path):
        code, _, _ = run(capsys, "plot", CUBE, "--out", str(tmp_path / "x.svg"))
        assert code == 3


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("check", PENTAGON),
        ("value", CUBE, "--point", "0.25,0.5,0.75"),
        ("median", CORNERS),
        ("dualize", CORNERS),
        ("generate", "platonic", "icosahedron"),
        ("generate", "example5", "--t", "2.0"),
        ("sample", CUBE, "--count", "100", "--seed", "7"),
    ])
    def test_stdout_identical_across_runs(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


def test_module_entry_point():
    # the child imports the package under test, not whatever is installed
    src = str(Path(viviani.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "viviani", "check", PENTAGON],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "viviani=true" in proc.stdout
