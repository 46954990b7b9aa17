import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import foldtrace
from foldtrace.cli import main
from foldtrace.output import read_points_csv


def run(argv):
    return main(argv)


def test_console_entry_point_subprocess(tmp_path):
    # Minimal environment, plus the directory holding the foldtrace package
    # this process imported, so the child runs the same code whether the
    # package comes from an install or from the source tree.
    package_root = Path(foldtrace.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "foldtrace.cli", "trace", "--problem", "circle",
         "--start", "1,0", "--dir", "-y", "--step", "0.05",
         "--csv", str(tmp_path / "c.csv"), "--svg", str(tmp_path / "c.svg")],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "FOLDTRACE_LOG": "info", "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "termination: closed" in proc.stdout
    assert (tmp_path / "c.csv").exists()


class TestTraceCommand:
    def test_circle_defaults(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        svg = tmp_path / "c.svg"
        code = run(["trace", "--problem", "circle", "--start", "1,0", "--dir", "-y",
                    "--step", "0.05", "--csv", str(csv), "--svg", str(svg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination: closed" in out
        assert "turning-point events: 4" in out
        points, flags = read_points_csv(open(csv))
        assert flags.count("turning_point") == 4
        assert 70 <= len(points) <= 95
        ET.parse(svg)  # well-formed XML

    def test_astroid_closes(self, tmp_path, capsys):
        code = run(["trace", "--problem", "astroid", "--step", "0.01", "--scan-n", "8",
                    "--csv", str(tmp_path / "a.csv"), "--svg", str(tmp_path / "a.svg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination: closed" in out

    def test_expression_leaves_domain(self, tmp_path, capsys):
        code = run(["trace", "--problem", "expression", "--expr", "y - x",
                    "--start", "0,0", "--dir", "+x", "--box", "0,1,0,1",
                    "--csv", str(tmp_path / "l.csv"), "--svg", str(tmp_path / "l.svg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination: left domain" in out

    def test_non_real_formula_has_no_traceback(self, tmp_path, capsys):
        # x^0.5 is complex for x < 0; the field reports that as undefined,
        # so the trace stalls there instead of crashing in the slice solver
        csv = tmp_path / "r.csv"
        code = run(["trace", "--problem", "expression", "--expr", "x^0.5-y",
                    "--start", "1,1", "--dir", "-x", "--box=-1,2,-1,2",
                    "--csv", str(csv), "--svg", str(tmp_path / "r.svg")])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "Traceback" not in captured.err
        assert csv.exists()

    def test_missing_expr_is_config_error(self, tmp_path, capsys):
        code = run(["trace", "--problem", "expression", "--start", "0,0", "--dir", "+x",
                    "--csv", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["trace", "--problem", "circle", "--dir", "northwest"],
        ["trace", "--problem", "circle", "--start", "1;0"],
        ["trace", "--problem", "circle", "--step", "-0.1"],
        ["trace", "--problem", "circle", "--box", "0,1,0"],
        ["trace"],
        ["bogus-command"],
    ])
    def test_config_errors_exit_1(self, argv, capsys, tmp_path):
        code = run(argv + (["--csv", str(tmp_path / "t.csv"), "--svg", str(tmp_path / "t.svg")]
                           if argv[0] == "trace" and len(argv) > 1 else []))
        capsys.readouterr()
        assert code == 1


class TestVerifyCommand:
    def test_validated_region_passes(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        code = run(["verify", "--r-factors", "1", "--k-values", "5", "--n-values", "8",
                    "--csv", str(csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert "failed: 0" in out
        assert csv.exists()

    def test_n3_fails_only_in_strict_mode(self, tmp_path, capsys):
        argv = ["verify", "--r-factors", "1", "--k-values", "5", "--n-values", "3",
                "--csv", str(tmp_path / "s.csv")]
        assert run(argv) == 0  # n=3 sits outside the validated region
        capsys.readouterr()
        assert run(argv + ["--strict"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_empty_grid_exits_1(self, tmp_path, capsys):
        code = run(["verify", "--r-factors", "", "--csv", str(tmp_path / "s.csv")])
        capsys.readouterr()
        assert code == 1

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        code = run(["trace", "--problem", "circle", "--step", "0.2",
                    "--csv", str(tmp_path / "no" / "such" / "dir" / "t.csv"),
                    "--svg", str(tmp_path / "t.svg")])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err


class TestLubricationCommand:
    def test_odd_grid_rejected(self, capsys):
        code = run(["lubrication", "--m", "127"])
        assert code == 1
        assert "even" in capsys.readouterr().err

    def test_large_epsilon_smoke(self, tmp_path, capsys):
        # outside the fold regime: just has to run and emit artifacts
        csv = tmp_path / "b.csv"
        states = tmp_path / "st.csv"
        svg = tmp_path / "b.svg"
        code = run(["lubrication", "--epsilon", "0.1", "--m", "32",
                    "--step-q", "0.002", "--step-m", "0.05", "--max-points", "40",
                    "--min-mass", "3.0", "--csv", str(csv),
                    "--states-csv", str(states), "--svg", str(svg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "points:" in out
        assert csv.exists() and states.exists() and svg.exists()
        header = open(states).readline().strip().split(",")
        assert header[:4] == ["Q", "M", "epsilon", "m"]
        assert len(header) == 4 + 32
