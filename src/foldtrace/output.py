"""CSV and SVG emitters for traced paths, sweeps, and film states.

All numeric text uses 17 significant digits so emitted CSV files
round-trip to the exact in-memory doubles and diff cleanly.
"""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from typing import IO, Iterable, List, Sequence, Tuple, Union

from .astroid import SweepResult
from .geometry import Point2
from .lubrication import LubricationState
from .tracer import FLAG_RESTART, FLAG_TURNING, SolutionPath


def _fmt(v: float) -> str:
    return format(v, ".17g")


def write_points_csv(path: SolutionPath, stream: IO[str]) -> None:
    writer = csv.writer(stream)
    writer.writerow(["index", "x", "y", "flag"])
    for i, (p, flag) in enumerate(zip(path.points, path.flags)):
        writer.writerow([i, _fmt(p.x), _fmt(p.y), flag])


def read_points_csv(stream: IO[str]) -> Tuple[List[Point2], List[str]]:
    reader = csv.reader(stream)
    header = next(reader)
    if header != ["index", "x", "y", "flag"]:
        raise ValueError(f"unexpected points CSV header: {header}")
    points: List[Point2] = []
    flags: List[str] = []
    for row in reader:
        if not row:
            continue
        points.append(Point2(float(row[1]), float(row[2])))
        flags.append(row[3])
    return points, flags


def write_sweep_csv(results: Iterable[SweepResult], stream: IO[str]) -> None:
    writer = csv.writer(stream)
    writer.writerow(["r_factor", "k", "n", "max_pe_percent", "navigated_all_cusps"])
    for r in results:
        writer.writerow([_fmt(r.r_factor), r.k, r.n, _fmt(r.max_pe),
                         "true" if r.navigated_all_cusps else "false"])


def write_states_csv(states: Sequence[LubricationState], stream: IO[str]) -> None:
    if not states:
        raise ValueError("no states to write")
    m = states[0].h.size
    if any(s.h.size != m for s in states):
        raise ValueError("states have inconsistent grid sizes")
    csv.writer(stream).writerow(["Q", "M", "epsilon", "m"] + [f"h_{i}" for i in range(m)])
    # one template per call: "%.17g" gives _fmt's characters, "\r\n" is csv's line end
    row = ",".join(["%.17g"] * 3 + [str(m)] + ["%.17g"] * m) + "\r\n"
    for s in states:
        stream.write(row % (s.Q, s.M, s.epsilon, *s.h.tolist()))


def _segments(path: SolutionPath) -> List[List[Point2]]:
    """Split the path at restart points; each restart opens a new polyline."""
    segments: List[List[Point2]] = []
    current: List[Point2] = []
    for p, flag in zip(path.points, path.flags):
        if flag == FLAG_RESTART and current:
            segments.append(current)
            current = []
        current.append(p)
    if current:
        segments.append(current)
    return segments


def write_trace_svg(
    path: SolutionPath,
    stream: IO[str],
    label: Union[str, None] = None,
) -> None:
    """Polyline plot, 640 px square, of the traced curve with turning points marked."""
    if not path.points:
        raise ValueError("empty path")
    xs = [p.x for p in path.points]
    ys = [p.y for p in path.points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-12)
    pad = 0.06 * span
    size = 640

    def to_px(p: Point2) -> Tuple[float, float]:
        sx = (p.x - x_lo + pad) / (span + 2 * pad) * size
        sy = (1.0 - (p.y - y_lo + pad) / (span + 2 * pad)) * size
        return sx, sy

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(size),
        "height": str(size),
        "viewBox": f"0 0 {size} {size}",
    })
    if label:
        title = ET.SubElement(svg, "title")
        title.text = label
    ET.SubElement(svg, "rect", {"x": "0", "y": "0", "width": str(size),
                                "height": str(size), "fill": "white"})
    for segment in _segments(path):
        pts = " ".join(f"{sx:.2f},{sy:.2f}" for sx, sy in map(to_px, segment))
        ET.SubElement(svg, "polyline", {
            "points": pts,
            "fill": "none",
            "stroke": "#1f4e8c",
            "stroke-width": "1.5",
        })
    for p, flag in zip(path.points, path.flags):
        if flag == FLAG_TURNING:
            sx, sy = to_px(p)
            ET.SubElement(svg, "circle", {
                "cx": f"{sx:.2f}", "cy": f"{sy:.2f}", "r": "4",
                "fill": "none", "stroke": "#c23b22", "stroke-width": "1.5",
            })
    stream.write(ET.tostring(svg, encoding="unicode"))
    stream.write("\n")
