"""Outside-in span tracing of foldtrace's layers.

Each traced function is replaced, at the module or class attribute its
caller looks up, by a wrapper that records one span: (name, start, end,
parent, status, note). `status` is the name of the exception the call
raised, or None; `note` is whatever the target's note hook extracted from
the arguments and result (candidate counts, matrix size, bytes written).
Spans live in memory for one pass; `summarize` derives self times and
per-layer counts from them, and `write_spans` dumps them as CSV.

A target that no longer exists is reported as missing and reads as zero
calls, so the traced run survives the removal of, for example,
`BifurcationField.resolve`.
"""

from __future__ import annotations

import csv
import importlib
import logging
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

# Layer names used for field evaluations; both count as `field.*`.
FIELD = "field"
LUB_FIELD = "lubrication.field"
_FIELDS = (FIELD, LUB_FIELD)


def _scan_note(args, result, exc):
    if result is None:
        return None
    return len(result.candidates), len(result.skipped_mesh_indices)


def _iterations_note(args, result, exc):
    source = result if result is not None else exc
    return getattr(source, "iterations", 0) or 0


def _lu_note(args, result, exc):
    return args[0].shape[0]


def _bytes_note(args, result, exc):
    return args[1].tell()


def _trace_note(args, result, exc):
    if result is None:
        return None
    return len(result.points), len(result.events), result.termination.name.lower()


# (owner, attribute, span name, note hook). The owner is the module or
# class through which the caller looks the function up at call time.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("foldtrace.tracer", "trace", "tracer.trace", _trace_note),
    ("foldtrace.astroid", "trace", "tracer.trace", _trace_note),
    ("foldtrace.tracer", "solve_scalar", "rootfind.solve_scalar", None),
    ("foldtrace.tracer", "scan_boundary", "turnpoint.scan_boundary", _scan_note),
    ("foldtrace.tracer", "select_exit_point", "turnpoint.select_exit_point", None),
    ("foldtrace.astroid", "max_abs_percent_error", "astroid.max_abs_percent_error", None),
    ("foldtrace.astroid", "percent_error", "astroid.percent_error", None),
    ("foldtrace.lubrication:BifurcationField", "__call__", LUB_FIELD, None),
    ("foldtrace.lubrication:BifurcationField", "resolve", "lubrication.resolve", None),
    ("foldtrace.lubrication:BifurcationField", "seed", "lubrication.seed", None),
    ("foldtrace.lubrication", "solve_at_M", "lubrication.solve_at_M", _iterations_note),
    ("foldtrace.lubrication", "solve_at_Q", "lubrication.solve_at_Q", _iterations_note),
    ("foldtrace.lubrication", "solve_vector", "rootfind.solve_vector", None),
    ("foldtrace.rootfind", "dense_solve", "rootfind.dense_solve", _lu_note),
    ("foldtrace.output", "write_points_csv", "output.write_points_csv", _bytes_note),
    ("foldtrace.output", "write_states_csv", "output.write_states_csv", _bytes_note),
    ("foldtrace.expressions", "parse_expression", "expressions.parse_expression", None),
)

# The astroid field is built inside trace_astroid, so its factory is
# wrapped and each field it returns is traced.
FIELD_FACTORIES = (("foldtrace.astroid", "astroid_field"),)

STALL_REASONS = ("field_undefined", "bisection_exhausted", "left_bracket",
                 "nonfinite", "max_iter", "other")
TERMINATIONS = ("closed", "terminated", "left_domain", "max_points", "error")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".flops_computed"):
        return "flop"
    if name.endswith(".us_per_eval"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def stall_category(reason: str) -> str:
    """Map a `Stalled.reason` string to a fixed category name."""
    if reason.startswith("field undefined"):
        return "field_undefined"
    for needle, category in (("bisection exhausted", "bisection_exhausted"),
                             ("left the bracket", "left_bracket"),
                             ("not finite", "nonfinite"),
                             ("non-finite", "nonfinite"),
                             ("no root after", "max_iter")):
        if needle in reason:
            return category
    return "other"


class _StallLog(logging.Handler):
    """Collects the stall reasons the tracer logs at info level."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.reasons: List[str] = []

    def emit(self, record):
        if isinstance(record.msg, str) and record.msg.startswith("stall (") and record.args:
            self.reasons.append(str(record.args[0]))


def _resolve_owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


class Tracer:
    """Installs span-recording wrappers and collects one pass of spans."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []
        self._stall_log = _StallLog()
        self._tracer_logger = logging.getLogger("foldtrace.tracer")
        self._saved_level = logging.NOTSET
        self.missing: List[str] = []

    def wrap(self, fn: Callable, name: str, note: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, type(exc).__name__,
                              note(args, None, exc) if note else None)
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, None, note(args, result, None) if note else None)
            return result

        return traced

    def wrap_field(self, field: Callable) -> Callable:
        return self.wrap(field, FIELD)

    def install(self) -> None:
        """Patch every target that exists; record the ones that do not."""
        self.missing = []
        for owner_spec, attr, name, note in TARGETS:
            owner = _resolve_owner(owner_spec)
            # vars(), not getattr(): a class would otherwise hand back an
            # inherited attribute such as type.__call__.
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{owner_spec}.{attr}")
                continue
            self._patch(owner, attr, original, self.wrap(original, name, note))
        for owner_spec, attr in FIELD_FACTORIES:
            owner = _resolve_owner(owner_spec)
            factory = vars(owner).get(attr) if owner is not None else None
            if factory is None:
                self.missing.append(f"{owner_spec}.{attr}")
                continue

            def traced_factory(*args, _factory=factory, **kwargs):
                return self.wrap_field(_factory(*args, **kwargs))

            self._patch(owner, attr, factory, traced_factory)
        self._saved_level = self._tracer_logger.level
        self._tracer_logger.setLevel(logging.INFO)
        self._tracer_logger.addHandler(self._stall_log)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._tracer_logger.removeHandler(self._stall_log)
        self._tracer_logger.setLevel(self._saved_level)

    def reset(self) -> None:
        """Start a new pass: drop the spans and stall records kept so far."""
        self.spans.clear()
        del self._stack[1:]
        self._stall_log.reasons.clear()

    @property
    def stall_reasons(self) -> List[str]:
        return list(self._stall_log.reasons)


def write_spans(spans, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "name", "start_s", "end_s", "parent", "status"])
        for i, (name, t0, t1, parent, status, _note) in enumerate(spans):
            writer.writerow([i, name, repr(t0), repr(t1), parent, status or ""])


def _quantile(values: List[int], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[int(round(q * 100)) - 1]


def summarize(spans, stall_reasons) -> Tuple[Dict[str, float], Dict[str, float], List[dict]]:
    """Per-layer counts and times of one pass, plus one record per trace.

    Counts repeat exactly for identical inputs; times do not. A layer's
    self time is its spans' duration minus the time covered by their
    direct children.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, t0, t1, parent, _status, _note in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    calls: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    total_s: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    notes: Dict[str, list] = {}
    # Nearest enclosing slice solve or scan, and nearest enclosing trace,
    # of every span; parents precede children, so one forward pass works.
    solver_owner = [-1] * n
    trace_owner = [-1] * n
    evals_of: Dict[int, int] = {}
    for i, (name, t0, t1, parent, status, note) in enumerate(spans):
        duration = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
        if status is not None:
            failed[name] = failed.get(name, 0) + 1
        notes.setdefault(name, []).append((status, note))
        if name in ("rootfind.solve_scalar", "turnpoint.scan_boundary"):
            solver_owner[i] = i
        elif parent >= 0:
            solver_owner[i] = solver_owner[parent]
        trace_owner[i] = i if name == "tracer.trace" else (trace_owner[parent] if parent >= 0 else -1)
        if name in _FIELDS:
            for owner in (solver_owner[i], trace_owner[i]):
                if owner >= 0:
                    evals_of[owner] = evals_of.get(owner, 0) + 1

    solve_evals = [evals_of.get(i, 0) for i, s in enumerate(spans) if s[0] == "rootfind.solve_scalar"]
    failed_solve_evals = sum(evals_of.get(i, 0) for i, s in enumerate(spans)
                             if s[0] == "rootfind.solve_scalar" and s[4] is not None)
    scan_evals = sum(evals_of.get(i, 0) for i, s in enumerate(spans)
                     if s[0] == "turnpoint.scan_boundary")
    scan_notes = [note for _status, note in notes.get("turnpoint.scan_boundary", []) if note]
    field_evals = sum(calls.get(f, 0) for f in _FIELDS)
    field_s = sum(total_s.get(f, 0.0) for f in _FIELDS)

    traces = []
    for i, s in enumerate(spans):
        if s[0] == "tracer.trace":
            points, events, termination = s[5] if s[5] else (0, 0, "error")
            traces.append({"points": points, "events": events, "termination": termination,
                           "evals": evals_of.get(i, 0)})

    counts: Dict[str, float] = {
        "rootfind.solve_scalar.calls": calls.get("rootfind.solve_scalar", 0),
        "rootfind.solve_scalar.failed": failed.get("rootfind.solve_scalar", 0),
        "rootfind.solve_scalar.evals": sum(solve_evals),
        "rootfind.solve_scalar.evals_p50": _quantile(solve_evals, 0.5),
        "rootfind.solve_scalar.evals_p90": _quantile(solve_evals, 0.9),
        "rootfind.solve_scalar.evals_in_failed": failed_solve_evals,
        "tracer.points": sum(t["points"] for t in traces),
        "tracer.events": sum(t["events"] for t in traces),
        "turnpoint.scan_boundary.calls": calls.get("turnpoint.scan_boundary", 0),
        "turnpoint.scan_boundary.evals": scan_evals,
        "turnpoint.scan_boundary.candidates": sum(c for c, _ in scan_notes),
        "turnpoint.scan_boundary.skipped": sum(k for _, k in scan_notes),
        "turnpoint.select_exit_point.terminated": sum(
            1 for status, _ in notes.get("turnpoint.select_exit_point", [])
            if status == "CurveTerminated"),
        "field.evals": field_evals,
        "field.errors": sum(failed.get(f, 0) for f in _FIELDS),
        "lubrication.solve_at_M.calls": calls.get("lubrication.solve_at_M", 0),
        "lubrication.solve_at_M.failed": failed.get("lubrication.solve_at_M", 0),
        "lubrication.solve_at_Q.calls": calls.get("lubrication.solve_at_Q", 0),
        "lubrication.solve_at_Q.failed": failed.get("lubrication.solve_at_Q", 0),
        "lubrication.newton_iters": sum(
            note for name in ("lubrication.solve_at_M", "lubrication.solve_at_Q")
            for _status, note in notes.get(name, [])),
        "lubrication.resolve.calls": calls.get("lubrication.resolve", 0),
        "rootfind.solve_vector.calls": calls.get("rootfind.solve_vector", 0),
        "rootfind.dense_solve.calls": calls.get("rootfind.dense_solve", 0),
        "rootfind.dense_solve.failed": failed.get("rootfind.dense_solve", 0),
        "rootfind.dense_solve.flops_computed": sum(
            2.0 * size ** 3 / 3.0 for _status, size in notes.get("rootfind.dense_solve", [])),
        "astroid.percent_error.calls": calls.get("astroid.percent_error", 0),
        "output.write_points_csv.bytes": sum(
            b for _s, b in notes.get("output.write_points_csv", [])),
        "output.write_states_csv.bytes": sum(
            b for _s, b in notes.get("output.write_states_csv", [])),
    }
    for category in STALL_REASONS:
        counts[f"tracer.stall_reason.{category}"] = 0
    for reason in stall_reasons:
        counts[f"tracer.stall_reason.{stall_category(reason)}"] += 1
    for kind in TERMINATIONS:
        counts[f"tracer.termination.{kind}"] = sum(1 for t in traces if t["termination"] == kind)

    times: Dict[str, float] = {
        "rootfind.solve_scalar.self_s": self_s.get("rootfind.solve_scalar", 0.0),
        "tracer.trace.self_s": self_s.get("tracer.trace", 0.0),
        "turnpoint.scan_boundary.self_s": self_s.get("turnpoint.scan_boundary", 0.0),
        "field.us_per_eval": 1e6 * field_s / field_evals if field_evals else 0.0,
        "lubrication.field.self_s": self_s.get(LUB_FIELD, 0.0),
        "lubrication.resolve.s": total_s.get("lubrication.resolve", 0.0),
        "lubrication.seed.s": total_s.get("lubrication.seed", 0.0),
        "rootfind.solve_vector.self_s": self_s.get("rootfind.solve_vector", 0.0),
        "rootfind.dense_solve.s": total_s.get("rootfind.dense_solve", 0.0),
        "astroid.max_abs_percent_error.s": total_s.get("astroid.max_abs_percent_error", 0.0),
        "output.write_points_csv.s": total_s.get("output.write_points_csv", 0.0),
        "output.write_states_csv.s": total_s.get("output.write_states_csv", 0.0),
        "expressions.parse_expression.s": total_s.get("expressions.parse_expression", 0.0),
    }
    return counts, times, traces
