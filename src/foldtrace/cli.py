"""Command-line front end: trace curves, verify on the astroid, draw the
thin-film bifurcation diagram.

Exit codes: 0 success, 1 configuration error, 2 trace failure (a partial
points CSV is still written) or a path that retraced itself (written in
full). FOLDTRACE_LOG in {error, info, debug} controls stderr diagnostics.

Each command has one front door that owns its defaults and checks, and
the CLI passes it only the setting flags given, so an omitted one takes
the library default and a bad one exits 1: `trace` builds `TraceConfig`
(only the per-problem default step is the CLI's own), `verify` calls
`run_sweep`, which checks every (r, k, n) combination before its first
trace, and `lubrication` calls `trace_bifurcation`, whose checks all run
before the seed solve.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from . import astroid as astroid_mod
from .errors import ExpressionError, FoldtraceError, TraceError
from .expressions import expression_field
from .fields import circle_field
from .geometry import Box, Point2, StepDirection
from .lubrication import trace_bifurcation
from .output import write_points_csv, write_states_csv, write_sweep_csv, write_trace_svg
from .tracer import SolutionPath, Termination, TraceConfig, polish_transverse, trace

log = logging.getLogger("foldtrace")

_DEFAULT_SEED = {  # start, direction and step of each problem
    "circle": (Point2(1.0, 0.0), "-y", 0.05),
    "astroid": (Point2(0.0, 1.0), "+x", 0.01),
    "expression": (None, None, 0.01),
}
# `trace` flags that are not TraceConfig settings
_TRACE_INPUTS = ("command", "func", "problem", "expr", "start", "dir", "csv", "svg")
# the flag that sets each setting a library error message names, per command
_TRACE_FLAGS = dict(step="--step", step_y="--step-y", radius="--scan-r", mesh_count="--scan-n",
                    reference_lag="--scan-k", residual_tol="--tol", max_points="--max-points",
                    direction="--dir")
_VERIFY_FLAGS = dict(step="--delta", radius="--r-factors", reference_lag="--k-values",
                     mesh_count="--n-values")
_LUBRICATION_FLAGS = dict(_TRACE_FLAGS, step="--step-q", step_y="--step-m", epsilon="--epsilon",
                          m="--m", seed_mass="--seed-mass", min_mass="--min-mass")


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


def _numbers(flag: str, text: str, count: int = 0, convert: Callable[[float], Any] = float,
             build: Callable[..., Any] = lambda *values: list(values)) -> Any:
    """`build` of the comma-separated numbers `text` given to `flag`, each through
    `convert`: `count` of them, or at least one if `count` is 0. An argparse type
    with the flag bound; it raises _CliError, which argparse passes on to `main`,
    so a bad value exits 1 with a message that names the flag."""
    items = [p for p in text.split(",") if p.strip()]
    try:
        if not items or count and len(items) != count:
            raise ValueError(f"expected {count or 'one or more'} comma-separated numbers")
        return build(*(convert(float(p)) for p in items))
    except ValueError as exc:
        raise _CliError(f"bad {flag} {text!r}: {exc}") from exc


def _integral(value: float) -> int:
    if not value.is_integer():  # nan and inf are not integers either
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _flag_named(exc: ValueError, flags: Dict[str, str]) -> str:
    """A library error's message, naming the flag in place of each setting it names."""
    return " ".join(flags.get(word, word) for word in str(exc).split(" "))


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


def _finish(args, outcome: Union[SolutionPath, TraceError], what: str, label: str,
            notes: Sequence[str] = ()) -> int:
    """Exit code of a trace that ended in `outcome`: its path, or the TraceError
    that ended it. The error is logged as `what` failing and its partial path
    written, labelled `label`: 2. A path prints its summary and `notes` and is
    written, labelled `label`: 2 if it retraced, else 0."""
    if isinstance(outcome, TraceError):
        log.error("%s failed: %s", what, outcome)
        if outcome.path is not None and len(outcome.path):
            _write_outputs(outcome.path, args.csv, args.svg, label)
        return 2
    reason = outcome.termination.value if outcome.termination else "unknown"
    print(f"points: {len(outcome)}\nturning-point events: {len(outcome.events)}\n"
          f"termination: {reason}", *notes, sep="\n")
    _write_outputs(outcome, args.csv, args.svg, label)
    return 2 if outcome.termination is Termination.RETRACED else 0


def cmd_trace(args) -> int:
    start, direction, step = _DEFAULT_SEED[args.problem]
    start, direction = args.start or start, args.dir or direction
    if args.problem == "expression":
        if not args.expr or start is None or direction is None:
            raise _CliError("--expr, --start and --dir are required for --problem expression")
        try:
            field = expression_field(args.expr)
        except ExpressionError as exc:
            raise _CliError(f"bad --expr: {exc}") from exc
    elif args.expr:
        raise _CliError("--expr only applies to --problem expression")
    else:
        field = circle_field() if args.problem == "circle" else astroid_mod.astroid_field()

    # the subparser suppresses defaults, so only the settings given reach TraceConfig
    settings = {k: v for k, v in vars(args).items() if k not in _TRACE_INPUTS}
    settings.setdefault("step", step)
    try:
        direction = StepDirection.parse(direction)
        cfg = TraceConfig(**settings)
    except ValueError as exc:
        raise _CliError(f"bad trace setting: {_flag_named(exc, _TRACE_FLAGS)}") from exc

    try:
        start = polish_transverse(field, start, direction, tol=cfg.residual_tol)
    except FoldtraceError as exc:
        raise _CliError(f"cannot place the start point on the curve: {exc}") from exc

    try:
        path = trace(field, start, direction, cfg)
    except TraceError as exc:
        return _finish(args, exc, "trace", f"{args.problem} (partial)")
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    return _finish(args, path, "trace", args.problem)


_VALID_R = (1e-4, 100.0)
_VALID_K = (1, 10)
_VALID_N = (4, 10)


def cmd_verify(args) -> int:
    try:
        results = astroid_mod.run_sweep(args.r_factors, args.k_values, args.n_values, args.delta)
    except ValueError as exc:
        raise _CliError(f"bad verify setting: {_flag_named(exc, _VERIFY_FLAGS)}") from exc

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
        path, states, field = trace_bifurcation(**settings)
    except TraceError as exc:
        return _finish(args, exc, "bifurcation trace", "lubrication (partial)")
    except ValueError as exc:
        raise _CliError(f"bad lubrication setting: {_flag_named(exc, _LUBRICATION_FLAGS)}") from exc
    except FoldtraceError as exc:
        raise _CliError(f"lubrication setup failed: {exc}") from exc

    code = _finish(args, path, "bifurcation trace", f"(Q, M) diagram, eps={states[0].epsilon:g}",
                   ["film solves: " + ", ".join(f"{k} {v}" for k, v in field.counts.items())])
    if args.states_csv:
        with open(args.states_csv, "w", newline="") as fh:
            write_states_csv(states, fh)
        print(f"states csv: {args.states_csv}")
    return code


def build_parser() -> _Parser:
    parser = _Parser(prog="foldtrace",
                     description="Trace implicit curves through turning points and cusps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="trace a single curve to CSV and SVG",
                             argument_default=argparse.SUPPRESS)
    p_trace.add_argument("--problem", choices=_DEFAULT_SEED, required=True)
    p_trace.add_argument("--expr", default=None,
                         help="formula in x and y (with --problem expression)")
    p_trace.add_argument("--start", default=None, help="seed point X,Y",
                         type=partial(_numbers, "--start", count=2, build=Point2))
    p_trace.add_argument("--dir", default=None, help="initial direction: +x, -x, +y or -y")
    p_trace.add_argument("--step", type=float, help="x step size (default per problem)")
    p_trace.add_argument("--step-y", type=float, help="y step size (defaults to --step)")
    p_trace.add_argument("--scan-r", dest="radius", metavar="SCAN_R", type=float,
                         help="boundary-scan radius (default: the larger step)")
    p_trace.add_argument("--scan-n", dest="mesh_count", metavar="SCAN_N", type=int,
                         help="boundary-scan mesh points")
    p_trace.add_argument("--scan-k", dest="reference_lag", metavar="SCAN_K", type=int,
                         help="reference-point lag")
    p_trace.add_argument("--tol", dest="residual_tol", metavar="TOL", type=float,
                         help="on-curve residual tolerance")
    p_trace.add_argument("--max-points", type=int)
    p_trace.add_argument("--box", dest="domain", metavar="BOX",
                         type=partial(_numbers, "--box", count=4, build=Box),
                         help="tracing domain XMIN,XMAX,YMIN,YMAX")
    p_trace.add_argument("--csv", default="trace.csv", help="points CSV path")
    p_trace.add_argument("--svg", default="trace.svg", help="SVG plot path")
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser("verify", help="astroid accuracy sweep over (r, k, n)")
    p_verify.add_argument("--delta", type=float, default=0.01, help="step size")
    p_verify.add_argument("--r-factors", default="0.0001,1,100",
                          type=partial(_numbers, "--r-factors"),
                          help="scan radii as multiples of delta")
    p_verify.add_argument("--k-values", default="1,5,10", help="reference lags",
                          type=partial(_numbers, "--k-values", convert=_integral))
    p_verify.add_argument("--n-values", default="4,8,10", help="mesh sizes",
                          type=partial(_numbers, "--n-values", convert=_integral))
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
