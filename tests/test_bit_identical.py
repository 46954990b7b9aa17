"""One SHA-256 digest over the bits of the paths the tracer's changes must keep.

A change that is meant to keep every output bit-identical keeps this digest.
A change that moves a path on purpose updates `DIGEST` and says which paths
moved and why. The digest covers each path's points (as `float.hex`), flags,
events (index, kind, reason) and termination. The last two paths close
through the flat-fold search. It leaves out numpy-computed
percent errors and the thin film, whose last bits depend on the CPU's SIMD
code and on LAPACK; tests elsewhere pin their counters.
"""

import hashlib

from foldtrace.astroid import trace_astroid
from foldtrace.expressions import expression_field
from foldtrace.fields import circle_field
from foldtrace.geometry import MINUS_Y, PLUS_Y, Point2
from foldtrace.tracer import TraceConfig, polish_transverse, trace

DIGEST = "9f18331d3a6d2b1626e240ba74a8c264263f49f011a8c6dc034d13ff5b4a1a9f"


def _paths():
    memo = {}  # shared by the 27 sweep traces, as run_sweep shares it
    for r in (0.0001, 1.0, 100.0):
        for k in (1, 5, 10):
            for n in (4, 8, 10):
                yield f"sweep r={r:g} k={k} n={n}", trace_astroid(0.01, r, k, n, memo=memo)
    for delta in (0.02, 0.01, 0.005, 0.004, 0.003):
        yield f"astroid {delta:g}", trace_astroid(delta)
    start = Point2(1.0, 0.0)
    yield "circle 0.05", trace(circle_field(), start, MINUS_Y, TraceConfig(step=0.05))
    yield "circle 0.01/0.05", trace(circle_field(), start, MINUS_Y,
                                    TraceConfig(step=0.01, step_y=0.05))
    yield "ellipse", trace(expression_field("x^2/4 + y^2 - 1"), Point2(2.0, 0.0), MINUS_Y,
                           TraceConfig(step=0.02))
    for label, formula, guess, direction, step in [
            ("reversed superellipse", "x^4/16 + y^4 - 1", Point2(2.0, 0.0), MINUS_Y, 0.07),
            ("limacon", "(x^2+y^2-x)^2 - 4*(x^2+y^2)", Point2(3.0, 0.2), PLUS_Y, 0.05)]:
        field = expression_field(formula)
        start = polish_transverse(field, guess, direction)
        yield label, trace(field, start, direction, TraceConfig(step=step))


def _digest():
    h, summary = hashlib.sha256(), []
    for label, path in _paths():
        h.update(f"{label}\n".encode())
        for p, flag in zip(path.points, path.flags):
            h.update(f"{p.x.hex()} {p.y.hex()} {flag}\n".encode())
        for e in path.events:
            h.update(f"event {e.index} {e.kind.name} {e.reason}\n".encode())
        h.update(f"{path.termination.value}\n".encode())
        summary.append(f"{label}: {len(path.points)} points, {len(path.events)} events, "
                       f"{path.termination.value}")
    return h.hexdigest(), summary


def test_the_pinned_paths_keep_every_bit():
    digest, summary = _digest()
    assert digest == DIGEST, "\n".join(summary)
