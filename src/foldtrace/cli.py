"""Command-line front end: trace curves, verify on the astroid, draw the
thin-film bifurcation diagram.

Exit codes: 0 success, 1 configuration error, 2 trace failure (a partial
points CSV is still written) or a path that retraced itself (written in
full). FOLDTRACE_LOG in {error, info, debug} controls stderr diagnostics.

`lubrication` passes `trace_bifurcation` only the setting flags given, so
each omitted one takes that function's keyword default, and its checks,
all run before the seed solve, are the only ones: a bad setting exits 1.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import math
import os
import sys
from typing import Any, Callable, List, Optional, Sequence

from . import astroid as astroid_mod
from .errors import ExpressionError, FoldtraceError, TraceError
from .expressions import expression_field
from .fields import circle_field
from .geometry import Box, Point2, StepDirection
from .lubrication import trace_bifurcation
from .output import write_points_csv, write_states_csv, write_sweep_csv, write_trace_svg
from .tracer import SolutionPath, Termination, TraceConfig, polish_transverse, trace
from .turnpoint import ScanConfig

log = logging.getLogger("foldtrace")

_PROBLEMS = ("circle", "astroid", "expression")
_DEFAULT_SEED = {
    "circle": (Point2(1.0, 0.0), "-y", 0.05),
    "astroid": (Point2(0.0, 1.0), "+x", 0.01),
}


class _CliError(Exception):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _CliError(message)


def _setup_logging() -> None:
    level_name = os.environ.get("FOLDTRACE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown FOLDTRACE_LOG={level_name!r}, using 'error'", file=sys.stderr)
        level_name = "error"
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_point(text: str) -> Point2:
    parts = text.split(",")
    if len(parts) != 2:
        raise _CliError(f"expected X,Y but got {text!r}")
    try:
        return Point2(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise _CliError(f"bad point {text!r}: {exc}") from exc


def _parse_box(text: str) -> Box:
    parts = text.split(",")
    if len(parts) != 4:
        raise _CliError(f"expected XMIN,XMAX,YMIN,YMAX but got {text!r}")
    try:
        return Box(*(float(v) for v in parts))
    except ValueError as exc:
        raise _CliError(f"bad box {text!r}: {exc}") from exc


def _parse_numbers(text: str, convert: Callable[[float], Any] = float) -> List[Any]:
    items = [p for p in text.split(",") if p.strip()]
    if not items:
        raise _CliError(f"empty list {text!r}")
    try:
        return [convert(float(p)) for p in items]
    except ValueError as exc:
        raise _CliError(f"bad number list {text!r}: {exc}") from exc


def _integral(value: float) -> int:
    if not value.is_integer():  # nan and inf are not integers either
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _parse_direction(text: str) -> StepDirection:
    try:
        return StepDirection.parse(text)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _print_summary(path: SolutionPath) -> None:
    reason = path.termination.value if path.termination else "unknown"
    print(f"points: {len(path)}")
    print(f"turning-point events: {len(path.events)}")
    print(f"termination: {reason}")


def _write_outputs(path: SolutionPath, csv_path: Optional[str], svg_path: Optional[str],
                   label: str) -> None:
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            write_points_csv(path, fh)
        print(f"points csv: {csv_path}")
    if svg_path:
        with open(svg_path, "w") as fh:
            write_trace_svg(path, fh, label=label)
        print(f"svg: {svg_path}")


def cmd_trace(args) -> int:
    if args.problem == "expression":
        if not args.expr:
            raise _CliError("--expr is required for --problem expression")
        if args.start is None or args.dir is None:
            raise _CliError("--start and --dir are required for --problem expression")
        try:
            field = expression_field(args.expr)
        except ExpressionError as exc:
            raise _CliError(f"bad --expr: {exc}") from exc
        start, direction = _parse_point(args.start), args.dir
        step = args.step if args.step is not None else 0.01
    else:
        if args.expr:
            raise _CliError("--expr only applies to --problem expression")
        field = circle_field() if args.problem == "circle" else astroid_mod.astroid_field()
        default_start, default_dir, default_step = _DEFAULT_SEED[args.problem]
        start = _parse_point(args.start) if args.start else default_start
        direction = args.dir or default_dir
        step = args.step if args.step is not None else default_step

    direction = _parse_direction(direction)
    if not 0.0 < step < math.inf:
        raise _CliError("--step must be positive and finite")

    try:
        scan = ScanConfig(
            radius=args.scan_r if args.scan_r is not None else step,
            mesh_count=args.scan_n,
            reference_lag=args.scan_k,
            residual_tol=args.tol,
        )
        cfg = TraceConfig(
            step=step,
            step_y=args.step_y,
            scan=scan,
            max_points=args.max_points,
            domain=_parse_box(args.box) if args.box else None,
            slice_bracket=args.bracket,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc

    try:
        start = polish_transverse(field, start, direction, tol=args.tol)
    except FoldtraceError as exc:
        raise _CliError(f"cannot place the start point on the curve: {exc}") from exc

    try:
        path = trace(field, start, direction, cfg)
    except TraceError as exc:
        log.error("trace failed: %s", exc)
        if exc.path is not None and len(exc.path):
            _write_outputs(exc.path, args.csv, args.svg, f"{args.problem} (partial)")
        return 2
    except ValueError as exc:
        raise _CliError(str(exc)) from exc

    _print_summary(path)
    _write_outputs(path, args.csv, args.svg, args.problem)
    return 2 if path.termination is Termination.RETRACED else 0


_VALID_R = (1e-4, 100.0)
_VALID_K = (1, 10)
_VALID_N = (4, 10)


def cmd_verify(args) -> int:
    if not 0.0 < args.delta < math.inf:
        raise _CliError("--delta must be positive and finite")
    r_factors = _parse_numbers(args.r_factors)
    k_values = _parse_numbers(args.k_values, _integral)
    n_values = _parse_numbers(args.n_values, _integral)
    try:
        for r, k, n in itertools.product(r_factors, k_values, n_values):
            ScanConfig(radius=r * args.delta, mesh_count=n, reference_lag=k)
    except ValueError as exc:
        raise _CliError(f"bad verify setting: {exc}") from exc
    results = astroid_mod.run_sweep(r_factors, k_values, n_values, args.delta)

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            write_sweep_csv(results, fh)
        print(f"sweep csv: {args.csv}")

    failures = 0
    validated_failures = 0
    for r in results:
        ok = r.navigated_all_cusps and math.isfinite(r.max_pe) and r.max_pe < 0.1
        in_validated = (_VALID_R[0] <= r.r_factor <= _VALID_R[1]
                        and _VALID_K[0] <= r.k <= _VALID_K[1]
                        and _VALID_N[0] <= r.n <= _VALID_N[1])
        status = "ok" if ok else "FAILED"
        region = "validated" if in_validated else "exploratory"
        print(f"r={r.r_factor:g} k={r.k} n={r.n} [{region}]: max|PE|={r.max_pe:.3e}% "
              f"cusps={'all' if r.navigated_all_cusps else 'MISSED'} -> {status}")
        if not ok:
            failures += 1
            if in_validated:
                validated_failures += 1

    print(f"combinations: {len(results)}, failed: {failures}")
    if validated_failures:
        return 1
    if failures and args.strict:
        return 1
    return 0


def cmd_lubrication(args) -> int:
    # the subparser suppresses defaults, so only the flags given reach the library
    settings = {k: v for k, v in vars(args).items()
                if k not in ("command", "func", "csv", "states_csv", "svg")}
    try:
        path, states, _field = trace_bifurcation(**settings)
    except TraceError as exc:
        log.error("bifurcation trace failed: %s", exc)
        if exc.path is not None and len(exc.path):
            _write_outputs(exc.path, args.csv, args.svg, "lubrication (partial)")
        return 2
    except ValueError as exc:
        raise _CliError(f"bad lubrication setting: {exc}") from exc
    except FoldtraceError as exc:
        raise _CliError(f"lubrication setup failed: {exc}") from exc

    _print_summary(path)
    _write_outputs(path, args.csv, args.svg, f"(Q, M) diagram, eps={states[0].epsilon:g}")
    if args.states_csv:
        with open(args.states_csv, "w", newline="") as fh:
            write_states_csv(states, fh)
        print(f"states csv: {args.states_csv}")
    return 2 if path.termination is Termination.RETRACED else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="foldtrace",
                     description="Trace implicit curves through turning points and cusps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="trace a single curve to CSV and SVG")
    p_trace.add_argument("--problem", choices=_PROBLEMS, required=True)
    p_trace.add_argument("--expr", help="formula in x and y (with --problem expression)")
    p_trace.add_argument("--start", help="seed point X,Y")
    p_trace.add_argument("--dir", help="initial direction: +x, -x, +y or -y")
    p_trace.add_argument("--step", type=float, help="x step size (default per problem)")
    p_trace.add_argument("--step-y", type=float, help="y step size (defaults to --step)")
    p_trace.add_argument("--scan-r", type=float, help="boundary-scan radius (default: step)")
    p_trace.add_argument("--scan-n", type=int, default=8, help="boundary-scan mesh points")
    p_trace.add_argument("--scan-k", type=int, default=5, help="reference-point lag")
    p_trace.add_argument("--tol", type=float, default=1e-10, help="on-curve residual tolerance")
    p_trace.add_argument("--max-points", type=int, default=20000)
    p_trace.add_argument("--box", help="tracing domain XMIN,XMAX,YMIN,YMAX")
    p_trace.add_argument("--bracket", type=float, help="transverse search half-width")
    p_trace.add_argument("--csv", default="trace.csv", help="points CSV path")
    p_trace.add_argument("--svg", default="trace.svg", help="SVG plot path")
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser("verify", help="astroid accuracy sweep over (r, k, n)")
    p_verify.add_argument("--delta", type=float, default=0.01, help="step size")
    p_verify.add_argument("--r-factors", default="0.0001,1,100",
                          help="scan radii as multiples of delta")
    p_verify.add_argument("--k-values", default="1,5,10", help="reference lags")
    p_verify.add_argument("--n-values", default="4,8,10", help="mesh sizes")
    p_verify.add_argument("--csv", default="sweep.csv", help="sweep results CSV path")
    p_verify.add_argument("--strict", action="store_true",
                          help="fail on any combination, not just those in the "
                               "validated parameter region")
    p_verify.set_defaults(func=cmd_verify)

    p_lub = sub.add_parser("lubrication", help="trace the thin-film (Q, M) diagram",
                           argument_default=argparse.SUPPRESS)
    p_lub.add_argument("--epsilon", type=float, help="surface-tension parameter")
    p_lub.add_argument("--m", type=int, help="periodic grid size (even)")
    p_lub.add_argument("--seed-mass", type=float,
                       help="mass at which the first state is converged")
    p_lub.add_argument("--dir", dest="initial", metavar="DIR",
                       help="initial direction (+x drives flux)")
    p_lub.add_argument("--step-q", type=float, help="flux step")
    p_lub.add_argument("--step-m", type=float, help="mass step")
    p_lub.add_argument("--scan-r", dest="scan_radius", metavar="SCAN_R", type=float,
                       help="boundary-scan radius")
    p_lub.add_argument("--scan-n", type=int, help="boundary-scan mesh points")
    p_lub.add_argument("--scan-k", type=int, help="reference-point lag")
    p_lub.add_argument("--tol", dest="residual_tol", metavar="TOL", type=float,
                       help="on-curve residual tolerance")
    p_lub.add_argument("--max-points", type=int)
    p_lub.add_argument("--min-mass", type=float, help="stop the trace below this mass")
    p_lub.add_argument("--csv", default="bifurcation.csv", help="curve points CSV path")
    p_lub.add_argument("--states-csv", default="states.csv", help="per-point film states CSV")
    p_lub.add_argument("--svg", default="bifurcation.svg", help="SVG plot path")
    p_lub.set_defaults(func=cmd_lubrication)

    return parser


def _join_direction_values(argv: List[str]) -> List[str]:
    # Let `--dir -y` work even though "-y" looks like an option flag.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--dir" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--dir={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_direction_values(argv))
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
