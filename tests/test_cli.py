import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import foldtrace
from foldtrace.cli import main
from foldtrace.geometry import Box, Point2
from foldtrace.output import read_points_csv


def run(argv):
    return main(argv)


def test_console_entry_point_subprocess(tmp_path):
    # Minimal environment, plus the directory holding the foldtrace package
    # this process imported, so the child runs the same code whether the
    # package comes from an install or from the source tree.
    package_root = Path(foldtrace.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "foldtrace", "trace", "--problem", "circle",
         "--start", "1,0", "--dir", "-y", "--step", "0.05",
         "--csv", str(tmp_path / "c.csv"), "--svg", str(tmp_path / "c.svg")],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "FOLDTRACE_LOG": "info", "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "termination: closed" in proc.stdout
    assert (tmp_path / "c.csv").exists()


def test_package_runs_as_a_module():
    package_root = Path(foldtrace.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "foldtrace", "--help"],
                          capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0, proc.stderr
    assert "lubrication" in proc.stdout


def test_module_exits_1_on_bad_arguments():
    package_root = Path(foldtrace.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "foldtrace", "trace", "--bogus"],
                          capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)})
    assert proc.returncode == 1  # a configuration error, not argparse's 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


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
        with open(csv) as fh:
            points, flags = read_points_csv(fh)
        assert flags.count("turning_point") == 4
        assert 70 <= len(points) <= 95
        ET.parse(svg)  # well-formed XML

    def test_astroid_closes(self, tmp_path, capsys):
        code = run(["trace", "--problem", "astroid", "--step", "0.01", "--scan-n", "8",
                    "--csv", str(tmp_path / "a.csv"), "--svg", str(tmp_path / "a.svg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination: closed" in out

    def test_matches_the_library_with_its_default_scan_radius(self, tmp_path, capsys):
        # without --scan-r the CLI scans at the library default, the larger step
        from foldtrace.fields import circle_field
        from foldtrace.geometry import MINUS_Y, Point2
        from foldtrace.output import write_points_csv
        from foldtrace.tracer import TraceConfig, trace

        csv = tmp_path / "cli.csv"
        code = run(["trace", "--problem", "circle", "--step", "0.01", "--step-y", "0.05",
                    "--csv", str(csv), "--svg", str(tmp_path / "c.svg")])
        capsys.readouterr()
        assert code == 0
        path = trace(circle_field(), Point2(1.0, 0.0), MINUS_Y, TraceConfig(step=0.01, step_y=0.05))
        library = tmp_path / "library.csv"
        with library.open("w", newline="") as fh:
            write_points_csv(path, fh)
        assert len(path) == 237
        assert csv.read_bytes() == library.read_bytes()

    def test_omitted_flags_take_the_library_defaults(self, tmp_path, capsys, monkeypatch):
        import foldtrace.cli as cli
        from foldtrace.tracer import TraceConfig

        received = {}

        def stub(**kwargs):
            received.update(kwargs)
            return TraceConfig(**kwargs)

        monkeypatch.setattr(cli, "TraceConfig", stub)
        code = run(["trace", "--problem", "circle", "--scan-n", "4",
                    "--csv", str(tmp_path / "c.csv"), "--svg", str(tmp_path / "c.svg")])
        capsys.readouterr()
        assert code == 0
        assert received == {"step": 0.05, "mesh_count": 4}

    def test_first_point_stall_exits_2_with_partial_csv(self, tmp_path, capsys):
        # the zero of x^2 + (y-1)^2 is isolated, so the first slice solve loses
        # it at every bracket width, before any history exists to choose an exit from
        csv = tmp_path / "a.csv"
        code = run(["trace", "--problem", "expression", "--expr", "x^2 + (y-1)^2",
                    "--start", "0,1", "--dir", "+x", "--step", "0.002",
                    "--csv", str(csv), "--svg", str(tmp_path / "a.svg")])
        captured = capsys.readouterr()
        assert code == 2
        assert "termination:" not in captured.out
        assert "Traceback" not in captured.err
        with csv.open() as fh:
            points, flags = read_points_csv(fh)
        assert len(points) == 1 and flags == ["turning_point"]

    def test_unresolved_scan_exits_2_with_partial_csv(self, tmp_path, capsys):
        # below the circle's rounding floor the slice solve at y=0.35 stalls
        # mid-arc, and the scan sees a sign change that its refinement cannot
        # resolve; that is no proven curve end
        csv = tmp_path / "c.csv"
        code = run(["trace", "--problem", "circle", "--start", "0.6,0.8", "--dir", "-y",
                    "--step", "0.09", "--tol", "1e-17",
                    "--csv", str(csv), "--svg", str(tmp_path / "c.svg")])
        captured = capsys.readouterr()
        assert code == 2
        assert "termination:" not in captured.out
        assert "Traceback" not in captured.err
        with csv.open() as fh:
            points, flags = read_points_csv(fh)
        assert len(points) == 5 and flags[-1] == "turning_point"

    def test_scan_radius_below_the_coordinates_resolution_exits_2(self, tmp_path, capsys,
                                                                   caplog):
        # at (709, 8.2e307) a unit scan radius rounds away in y
        csv = tmp_path / "x.csv"
        code = run(["trace", "--problem", "expression", "--expr", "exp(x)-y", "--start", "0,1",
                    "--dir", "+x", "--step", "1", "--max-points", "100000",
                    "--csv", str(csv), "--svg", str(tmp_path / "x.svg")])
        assert code == 2
        assert "termination:" not in capsys.readouterr().out
        assert "below the coordinates' resolution" in caplog.text
        with csv.open() as fh:
            points, flags = read_points_csv(fh)
        assert len(points) == 710 and flags[-1] == "turning_point"

    def test_march_step_below_the_coordinates_resolution_exits_2(self, tmp_path, capsys,
                                                                  caplog):
        # 1e16 + 0.5 == 1e16: the first step cannot leave the start
        csv = tmp_path / "y.csv"
        code = run(["trace", "--problem", "expression", "--expr", "y", "--start", "1e16,0",
                    "--dir", "+x", "--step", "0.5",
                    "--csv", str(csv), "--svg", str(tmp_path / "y.svg")])
        assert code == 2
        assert "termination:" not in capsys.readouterr().out
        assert "below the coordinates' resolution" in caplog.text
        with csv.open() as fh:
            points, flags = read_points_csv(fh)
        assert points == [Point2(1e16, 0.0)] and flags == ["ordinary"]

    def test_retraced_exits_2_with_outputs(self, tmp_path, capsys):
        # the superellipse reverses at flat folds, which a parabola misplaces,
        # and walks back over itself until its state repeats: reported,
        # written, and not a success
        csv, svg = tmp_path / "e.csv", tmp_path / "e.svg"
        code = run(["trace", "--problem", "expression", "--expr", "x^4/16+y^4-1",
                    "--start", "2,0", "--dir", "-y", "--step", "0.07",
                    "--csv", str(csv), "--svg", str(svg)])
        out = capsys.readouterr().out
        assert code == 2
        assert "termination: retraced" in out
        with csv.open() as fh:
            points, _flags = read_points_csv(fh)
        assert len(points) == 93
        ET.parse(svg)

    def test_expression_leaves_domain(self, tmp_path, capsys):
        code = run(["trace", "--problem", "expression", "--expr", "y - x",
                    "--start", "0,0", "--dir", "+x", "--box", "0,1,0,1",
                    "--csv", str(tmp_path / "l.csv"), "--svg", str(tmp_path / "l.svg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination: left domain" in out

    def test_restart_outside_the_domain_is_not_kept(self, tmp_path, capsys):
        # the scan at the circle's east fold exits above the box's top edge;
        # the turning point is the last point written, the exit is not
        box = Box(-2.0, 2.0, -2.0, -0.01)
        csv = tmp_path / "r.csv"
        code = run(["trace", "--problem", "circle", "--start", "0,-1", "--dir", "+x",
                    "--step", "0.03", "--scan-r", "0.3", "--box=-2,2,-2,-0.01",
                    "--csv", str(csv), "--svg", str(tmp_path / "r.svg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination: left domain" in out
        assert "turning-point events: 0" in out
        with csv.open() as fh:
            points, flags = read_points_csv(fh)
        assert len(points) == 34
        assert all(box.contains(p) for p in points)
        assert flags[-1] == "turning_point" and "restart" not in flags

    def test_first_step_out_of_the_domain_exits_2(self, tmp_path, capsys, caplog):
        csv = tmp_path / "l.csv"
        code = run(["trace", "--problem", "expression", "--expr", "y - x",
                    "--start", "1,1", "--dir", "+x", "--box", "0,1,0,1",
                    "--csv", str(csv), "--svg", str(tmp_path / "l.svg")])
        assert code == 2
        assert "termination" not in capsys.readouterr().out
        assert "first step" in caplog.text and "leaves the domain" in caplog.text
        with csv.open() as fh:
            points, _flags = read_points_csv(fh)
        assert len(points) == 1

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


# the message names the bad setting, not a check it failed further on
_NAMED_IN_THE_MESSAGE = {
    # a start outside the domain would trace nothing and report `left domain`
    ("lubrication", "--seed-mass", "0.2"): "--seed-mass 0.2 lies below min_mass 0.3",
    # checked before the domain box, which would report "box bounds out of order"
    ("lubrication", "--min-mass", "100"): "--seed-mass 6.28319 lies below min_mass 100",
    ("trace", "--problem", "circle", "--box", "2,3,2,3"): "outside the domain",
    ("verify", "--k-values", "4.6"): "4.6 is not an integer",
    ("verify", "--n-values", "7.5"): "7.5 is not an integer",
    # a library check names the flag that was typed, not the setting it sets
    ("verify", "--delta", "-1"): "--delta must be positive and finite",
    ("verify", "--delta", "nan"): "--delta must be positive and finite",
    ("verify", "--delta", "5e-324", "--r-factors", "1e300", "--k-values", "5", "--n-values",
     "8"): "--delta is too small",
    ("verify", "--r-factors", "-1"): "--r-factors must be positive and finite",
    ("verify", "--k-values", "0"): "--k-values must be >= 1",
    ("verify", "--n-values", "0"): "--n-values must be >= 1",
    ("trace", "--problem", "circle", "--scan-n", "0"): "--scan-n must be >= 1",
    ("trace", "--problem", "circle", "--tol", "-1"): "--tol must be positive and finite",
    ("trace", "--problem", "circle", "--max-points", "1"): "--max-points must be >= 2",
    ("trace", "--problem", "circle", "--scan-r", "nan"): "--scan-r must be positive and finite",
    ("lubrication", "--step-q", "nan"): "--step-q must be positive and finite",
    ("lubrication", "--scan-n", "0"): "--scan-n must be >= 1",
    ("lubrication", "--tol", "-1"): "--tol must be positive and finite",
    ("lubrication", "--max-points", "1"): "--max-points must be >= 2",
    ("lubrication", "--step-m", "-1"): "--step-m must be positive and finite",
    ("lubrication", "--scan-r", "0"): "--scan-r must be positive and finite",
    ("lubrication", "--scan-k", "0"): "--scan-k must be >= 1",
    ("lubrication", "--m", "7"): "--m must be even",
    ("lubrication", "--epsilon", "nan"): "--epsilon must be positive and finite",
    ("lubrication", "--epsilon", "0"): "--epsilon must be positive and finite",
    ("lubrication", "--seed-mass", "nan"): "--seed-mass must be positive and finite",
    ("lubrication", "--seed-mass", "0"): "--seed-mass must be positive and finite",
    ("lubrication", "--seed-mass", "-1"): "--seed-mass must be positive and finite",
    ("lubrication", "--min-mass", "nan"): "--min-mass must be finite",
}


@pytest.mark.parametrize("argv", [
    ["trace", "--problem", "expression", "--expr", "x +", "--start", "0,0", "--dir", "+x"],
    ["trace", "--problem", "circle", "--scan-n", "0"],
    ["trace", "--problem", "circle", "--tol", "-1"],
    ["trace", "--problem", "circle", "--max-points", "1"],
    ["verify", "--k-values", "abc"],
    ["verify", "--n-values", "nan"],
    ["verify", "--k-values", "4.6"],
    ["verify", "--n-values", "7.5"],
    ["verify", "--delta", "-1"],
    ["verify", "--delta", "nan"],
    ["verify", "--r-factors", "-1"],
    ["verify", "--r-factors", "nan"],
    ["verify", "--k-values", "0"],
    ["verify", "--n-values", "0"],
    ["trace", "--problem", "circle", "--scan-r", "nan"],
    ["lubrication", "--step-q", "nan"],
    ["lubrication", "--dir", "z"],
    ["lubrication", "--scan-n", "0"],
    ["lubrication", "--tol", "-1"],
    ["lubrication", "--step-q", "-1"],
    ["lubrication", "--max-points", "1"],
    ["lubrication", "--step-m", "-1"],
    ["lubrication", "--scan-r", "0"],
    ["lubrication", "--scan-k", "0"],
    ["lubrication", "--min-mass", "100"],
    ["lubrication", "--m", "7"],
    ["lubrication", "--epsilon", "nan"],
    ["lubrication", "--epsilon", "0"],
    ["lubrication", "--seed-mass", "nan"],
    ["lubrication", "--seed-mass", "0"],
    ["lubrication", "--seed-mass", "0.2"],
    ["trace", "--problem", "circle", "--box", "2,3,2,3"],
    ["lubrication", "--seed-mass", "-1"],
    ["lubrication", "--min-mass", "nan"],
    ["verify", "--delta", "5e-324", "--r-factors", "1e300", "--k-values", "5", "--n-values", "8"],
])
def test_bad_input_is_reported_without_traceback(argv, capsys, tmp_path):
    outputs = {"trace": ["--svg", str(tmp_path / "t.svg")],
               "lubrication": ["--states-csv", str(tmp_path / "s.csv"),
                               "--svg", str(tmp_path / "t.svg")]}
    code = run(argv + ["--csv", str(tmp_path / "t.csv")] + outputs.get(argv[0], []))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert _NAMED_IN_THE_MESSAGE.get(tuple(argv), "") in err


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

    def test_validated_failure_exits_1_without_strict(self, tmp_path, capsys, monkeypatch):
        import foldtrace.astroid as astroid_mod

        failed = astroid_mod.SweepResult(1.0, 5, 8, max_pe=0.5, navigated_all_cusps=True)
        monkeypatch.setattr(astroid_mod, "run_sweep", lambda *args: [failed])
        code = run(["verify", "--csv", str(tmp_path / "s.csv")])
        out = capsys.readouterr().out
        assert code == 1
        assert "r=1 k=5 n=8 [validated]: max|PE|=5.000e-01% cusps=all -> FAILED" in out
        assert "combinations: 1, failed: 1" in out

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


def _field():
    from foldtrace.lubrication import BifurcationField, SpectralGrid
    return BifurcationField(1e-3, SpectralGrid.build(8))


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
        assert "film solves: bordered " in out and ", factorizations " in out
        assert csv.exists() and states.exists() and svg.exists()
        with open(states) as fh:
            header = fh.readline().strip().split(",")
        assert header[:4] == ["Q", "M", "epsilon", "m"]
        assert len(header) == 4 + 32

    def test_seed_on_the_mass_floor_leaving_it_exits_2(self, tmp_path, capsys, caplog):
        # the first step from the seed at the default mass lands below it
        csv = tmp_path / "b.csv"
        code = run(["lubrication", "--min-mass", repr(6.283185307179586), "--csv", str(csv),
                    "--svg", str(tmp_path / "b.svg")])
        assert code == 2
        assert "film solves" not in capsys.readouterr().out
        assert "first step" in caplog.text and "leaves the domain" in caplog.text
        with csv.open() as fh:
            points, _flags = read_points_csv(fh)
        assert len(points) == 1

    def test_omitted_flags_take_the_library_defaults(self, tmp_path, capsys, monkeypatch):
        import foldtrace.cli as cli
        from foldtrace.geometry import Point2
        from foldtrace.lubrication import LubricationState
        from foldtrace.tracer import SolutionPath

        received = {}

        def stub(**kwargs):
            received.update(kwargs)
            path = SolutionPath()
            path.append(Point2(0.5, 6.0))
            return path, [LubricationState(h=[1.0] * 8, Q=0.5, M=6.0, epsilon=1e-3)], _field()

        monkeypatch.setattr(cli, "trace_bifurcation", stub)
        code = run(["lubrication", "--step-q", "1e-4", "--dir", "-y", "--scan-r", "0.2",
                    "--csv", str(tmp_path / "b.csv"), "--states-csv", str(tmp_path / "st.csv"),
                    "--svg", str(tmp_path / "b.svg")])
        capsys.readouterr()
        assert code == 0
        assert received == {"step_q": 1e-4, "initial": "-y", "scan_radius": 0.2}

    def test_retraced_exits_2_with_outputs(self, tmp_path, capsys, monkeypatch):
        import foldtrace.cli as cli
        from foldtrace.geometry import Point2
        from foldtrace.lubrication import LubricationState
        from foldtrace.tracer import SolutionPath, Termination

        path = SolutionPath()
        for x in (0.5, 0.6, 0.5 + 1e-3):
            path.append(Point2(x, 6.0))
        path.termination = Termination.RETRACED
        states = [LubricationState(h=[1.0] * 8, Q=p.x, M=p.y, epsilon=1e-3) for p in path]
        monkeypatch.setattr(cli, "trace_bifurcation", lambda **_kw: (path, states, _field()))
        outputs = [tmp_path / name for name in ("b.csv", "st.csv", "b.svg")]
        code = run(["lubrication", "--csv", str(outputs[0]), "--states-csv", str(outputs[1]),
                    "--svg", str(outputs[2])])
        assert code == 2
        assert "termination: retraced" in capsys.readouterr().out
        assert all(o.exists() for o in outputs)
