import csv
import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import foldtrace.cli
from foldtrace.astroid import SweepResult
from foldtrace.fields import circle_field
from foldtrace.geometry import MINUS_Y, Point2
from foldtrace.lubrication import LubricationState
from foldtrace.output import (
    read_points_csv,
    write_points_csv,
    write_states_csv,
    write_sweep_csv,
    write_trace_svg,
)
from foldtrace.tracer import SolutionPath, TraceConfig, trace

SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def circle_path():
    return trace(circle_field(), Point2(1.0, 0.0), MINUS_Y, TraceConfig(step=0.05))


class TestPointsCsv:
    def test_round_trip_exact(self, circle_path):
        buf = io.StringIO()
        write_points_csv(circle_path, buf)
        buf.seek(0)
        points, flags = read_points_csv(buf)
        assert points == circle_path.points  # bit-exact floats via 17 digits
        assert flags == circle_path.flags

    def test_awkward_values_round_trip(self):
        path = SolutionPath()
        path.append(Point2(1.0 / 3.0, -2.2250738585072014e-308))
        path.append(Point2(math.pi, 0.1 + 0.2))
        buf = io.StringIO()
        write_points_csv(path, buf)
        buf.seek(0)
        points, _ = read_points_csv(buf)
        assert points == path.points

    def test_header_and_flags(self, circle_path):
        buf = io.StringIO()
        write_points_csv(circle_path, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "index,x,y,flag"
        flags = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert flags == {"ordinary", "turning_point", "restart"}

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_points_csv(io.StringIO("a,b,c\n"))

    @pytest.mark.parametrize("text, message", [
        ("", "header: None"),
        ("index,x,y,flag\n0,1,0,ordinary\n1,0.5\n", r"line 3 \['1', '0.5'\]"),
        ("index,x,y,flag\n0,1,0,bogus\n", r"line 2 .*'bogus'\]: .*known flag"),
        ("index,x,y,flag\n0,1,nan,ordinary\n", r"line 2 .*'nan'.*finite"),
        ("index,x,y,flag\nabc,1.0,2.0,ordinary\n7,3,4,restart\n",
         r"line 2 \['abc'.*expected index 0"),
        ("index,x,y,flag\n0,1.0,2.0,ordinary\n7,3,4,restart\n", r"line 3 \['7'.*expected index 1"),
    ], ids=["empty stream", "short row", "unknown flag", "non-finite coordinate",
            "index not a number", "index out of place"])
    def test_malformed_input_names_the_row(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_points_csv(io.StringIO(text))


class TestSweepCsv:
    def test_columns(self):
        buf = io.StringIO()
        write_sweep_csv([SweepResult(1.0, 5, 8, 1.25e-8, True),
                         SweepResult(1.0, 5, 3, 7.0e-9, False)], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "r_factor,k,n,max_pe_percent,navigated_all_cusps"
        assert lines[1].endswith("true")
        assert lines[2].endswith("false")


class TestStatesCsv:
    def test_layout(self):
        state = LubricationState(h=np.linspace(0.5, 1.5, 8), Q=0.6, M=6.2, epsilon=1e-3)
        buf = io.StringIO()
        write_states_csv([state], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "Q,M,epsilon,m," + ",".join(f"h_{i}" for i in range(8))
        row = lines[1].split(",")
        assert float(row[0]) == 0.6 and int(row[3]) == 8
        assert [float(v) for v in row[4:]] == list(state.h)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            write_states_csv([], io.StringIO())

    def test_mixed_sizes_rejected_before_any_write(self):
        states = [LubricationState(h=np.ones(m), Q=0.6, M=6.2, epsilon=1e-3) for m in (8, 16)]
        buf = io.StringIO()
        with pytest.raises(ValueError, match="inconsistent"):
            write_states_csv(states, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("m", [8, 128])
    def test_bytes_match_csv_writer_reference(self, m):
        rng = np.random.default_rng(m)
        states = []
        for i in range(len(AWKWARD)):
            h = np.roll(np.resize(AWKWARD, m), i) * rng.choice([1.0, 3.0, 7.0], size=m)
            states.append(LubricationState(h=h, Q=AWKWARD[i], M=AWKWARD[-1 - i], epsilon=1e-3))
        buf = io.StringIO()
        write_states_csv(states, buf)
        assert buf.getvalue() == _reference_states_csv(states)

    def test_cli_file_matches_reference(self, tmp_path, monkeypatch):
        written = []
        real = foldtrace.cli.write_states_csv

        def recording(states, stream):
            written.append(list(states))
            real(states, stream)

        monkeypatch.setattr(foldtrace.cli, "write_states_csv", recording)
        states_csv = tmp_path / "s.csv"
        code = foldtrace.cli.main(["lubrication", "--m", "32", "--max-points", "40",
                                   "--csv", str(tmp_path / "b.csv"),
                                   "--states-csv", str(states_csv),
                                   "--svg", str(tmp_path / "b.svg")])
        assert code == 0 and len(written) == 1
        with open(states_csv, newline="") as fh:
            assert fh.read() == _reference_states_csv(written[0])


# positive, finite values that stress 17-digit text: a subnormal, extreme
# exponents, inexact fractions and an integer past 2**53
AWKWARD = [5e-324, 1e-300, 1e300, 0.1, 1.0 / 3.0, 2.0**53 + 2]


def _reference_states_csv(states):
    """The states CSV as csv.writer writes it, one format(v, ".17g") per value."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    m = states[0].h.size
    writer.writerow(["Q", "M", "epsilon", "m"] + [f"h_{i}" for i in range(m)])
    for s in states:
        writer.writerow([format(v, ".17g") for v in (s.Q, s.M, s.epsilon)] + [m]
                        + [format(v, ".17g") for v in s.h])
    return buf.getvalue()


class TestSvg:
    def test_well_formed_with_expected_elements(self, circle_path):
        buf = io.StringIO()
        write_trace_svg(circle_path, buf, label="circle")
        root = ET.fromstring(buf.getvalue())
        assert root.tag == f"{SVG}svg"
        polylines = root.findall(f"{SVG}polyline")
        markers = root.findall(f"{SVG}circle")
        # one polyline per restart-delimited segment, one marker per event
        segments = 1 + sum(1 for f in circle_path.flags if f == "restart")
        assert len(polylines) == segments
        assert len(markers) == len(circle_path.events)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            write_trace_svg(SolutionPath(), io.StringIO())
