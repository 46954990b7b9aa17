"""foldtrace benchmark: one workload, one process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload astroid-verify --seed 0 --seconds 25 --trace 0

Runs astroid-verify, lubrication-default or curve-zoo single-threaded for
about --seconds of timed passes, checks every operation's output, and
prints one JSON object as the last line of stdout: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The lines before it
carry the machine facts, the tail percentile and sample count, the
unscaled wall-time goodput, per-pass counts, failures and the cross-check
against ROADMAP.md's baseline. A full record goes to perfbench/out/. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("astroid-verify", "lubrication-default", "curve-zoo")

# One BLAS thread: the box has two shared cores, and at m=128 a second
# thread changes nothing but the noise. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_PROBES = 5
TAIL_BEYOND = 10  # passes that must lie beyond the tail percentile

# Counts published in ROADMAP.md's baseline: compared and reported, never adjusted.
ROADMAP_BASELINE = {
    "astroid-verify": {"astroid_delta_0.01.points": 403, "astroid_delta_0.01.evals": 8960},
    "lubrication-default": {"tracer.points": 280, "lubrication.solve_at_M.calls": 1656,
                            "rootfind.dense_solve.calls": 2802},
}
# The sweep combination that equals trace_astroid(0.01) at its defaults.
ASTROID_DEFAULT_OP = "r=1,k=5,n=8"


def _import_benchmark():
    if not (ROOT / "src" / "foldtrace" / "__init__.py").is_file():
        raise SystemExit(f"error: no foldtrace sources under {ROOT / 'src'}")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import probe
    import tracing
    import workloads
    return probe, tracing, workloads


def setup_probe(name: str, seed: int) -> None:
    """Time import plus input building in this fresh process."""
    t0 = time.perf_counter()
    workloads = _import_benchmark()[2]
    workloads.build(name, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def tail_of(samples: list) -> tuple:
    """Slow-tail goodput: the lowest percentile with TAIL_BEYOND passes below it.

    With fewer than 2 * TAIL_BEYOND + 1 passes that percentile would lie
    above the median, so the median is used; the percentile used is
    returned beside the value.
    """
    ordered = sorted(samples)
    rank = min(TAIL_BEYOND, (len(ordered) - 1) // 2)
    percentile = 100.0 * rank / (len(ordered) - 1) if len(ordered) > 1 else 50.0
    return ordered[rank], percentile


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """One pass: wall seconds, per-operation outcomes, and, when traced, layers."""

    seconds: float
    outcomes: list
    counts: Optional[dict] = None
    times: Optional[dict] = None
    traces: Optional[list] = None

    @property
    def verified(self) -> int:
        return sum(o.verified_points for o in self.outcomes)

    @property
    def goodput(self) -> float:
        return self.verified / self.seconds


def run_pass(workload, tracer=None, tracing=None) -> Pass:
    if tracer is None:
        t0 = time.perf_counter()
        raw = workload.run_pass()
        return Pass(time.perf_counter() - t0, workload.check(raw))
    tracer.reset()
    tracer.install()
    try:
        t0 = time.perf_counter()
        raw = workload.run_pass(tracer.wrap_field)
        seconds = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    counts, times, traces = tracing.summarize(tracer.spans, tracer.stall_reasons)
    return Pass(seconds, workload.check(raw), counts, times, traces)


def cross_check(name: str, first: Pass, labels: list) -> dict:
    """Compare first-pass counts with ROADMAP.md's baseline."""
    measured = dict(first.counts)
    index = labels.index(ASTROID_DEFAULT_OP) if name == "astroid-verify" else len(first.traces)
    if index < len(first.traces):  # a sweep that aborted traces fewer
        measured["astroid_delta_0.01.points"] = first.traces[index]["points"]
        measured["astroid_delta_0.01.evals"] = first.traces[index]["evals"]
    return {key: {"roadmap": expected, "measured": measured.get(key),
                  "match": measured.get(key) == expected}
            for key, expected in ROADMAP_BASELINE.get(name, {}).items()}


def run(args) -> int:
    probe, tracing, workloads = _import_benchmark()
    setup_samples = measure_setup(args.workload, args.seed)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()  # to time expression parsing inside the input build
    try:
        workload = workloads.build(args.workload, args.seed)
    finally:
        tracer.uninstall()
    build_times = tracing.summarize(tracer.spans, [])[1]
    labels = workload.labels()
    facts = dict(machine_facts(), seed=args.seed, workload=args.workload, why=workload.why)
    print("facts " + json.dumps(facts), flush=True)

    # An untimed warm-up pass, then bare passes timed for --seconds
    # (alternating with traced ones under --trace 1), then traced passes
    # for the counters. Peak memory is read before any span is kept.
    bare, traced, probes = [], [], []
    run_pass(workload)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        bare.append(run_pass(workload))
        probes.append(probe.probe())
        if args.trace:
            traced.append(run_pass(workload, tracer, tracing))
    rss_mb = peak_rss_mb()
    while len(traced) < 2:
        traced.append(run_pass(workload, tracer, tracing))

    # Same inputs, same work: every counter and verdict must repeat exactly.
    first = traced[0]
    nondeterministic = sorted({key for p in traced[1:] for key, value in p.counts.items()
                               if value != first.counts[key]})
    verdicts = [(o.points, o.ok) for o in first.outcomes]
    if any([(o.points, o.ok) for o in p.outcomes] != verdicts for p in traced + bare):
        nondeterministic.append("outcomes")

    everything = traced + bare
    attempted = sum(len(p.outcomes) for p in everything)
    failed = sum(not o.ok for p in everything for o in p.outcomes)
    failures = {label: o.reason for label, o in zip(labels, first.outcomes) if not o.ok}
    goodput = [p.goodput for p in bare]

    # astroid-verify and lubrication-default pass the paper's acceptance
    # rules (criteria 2 and 9) in full, so a failure there is a regression.
    # curve-zoo keeps its known failures; they are counted in `failed`.
    must_pass = args.workload != "curve-zoo"
    correct = not nondeterministic and first.verified > 0 and not (must_pass and failures)

    if args.trace:
        metrics = {key: {"value": float(value), "unit": tracing.unit(key)}
                   for key, value in first.counts.items()}
        for key in first.times:
            metrics[key] = {"value": statistics.median(p.times[key] for p in traced),
                            "unit": tracing.unit(key)}
        metrics["expressions.parse_expression.s"]["value"] = \
            build_times["expressions.parse_expression.s"]
        traced_pps = statistics.median(p.goodput for p in traced)
        untraced_pps = statistics.median(goodput)
        metrics["trace.points_per_s_traced"] = {"value": traced_pps, "unit": "1/s"}
        metrics["trace.points_per_s_untraced"] = {"value": untraced_pps, "unit": "1/s"}
        metrics["trace.overhead"] = {"value": 1.0 - traced_pps / untraced_pps, "unit": "ratio"}
    else:
        # Goodput at the probe's reference speed; see probe.py.
        part = workload.SPEED_PROBE
        speed = statistics.median(p[part] for p in probes) / probe.REFERENCE_S[part]
        tail, tail_percentile = tail_of(goodput)
        metrics = {
            "points_per_s": {"value": statistics.median(goodput) * speed, "unit": "1/s"},
            "points_per_s_tail": {"value": tail * speed, "unit": "1/s"},
            "evals_per_point": {"value": first.counts["field.evals"] / max(first.verified, 1),
                                "unit": "evals/point"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print("tail " + json.dumps({"percentile": tail_percentile, "passes": len(goodput)}))
        print("wall " + json.dumps({"points_per_s": statistics.median(goodput),
                                    "points_per_s_tail": tail, "speed": speed}))

    per_pass = {"ops": len(labels), "ops_failed": len(failures),
                "verified_points": first.verified, "field_evals": first.counts["field.evals"]}
    crosscheck = cross_check(args.workload, first, labels)
    print("pass " + json.dumps(per_pass))
    print("crosscheck " + json.dumps(crosscheck))
    for tag, value in (("failures", failures), ("nondeterministic", nondeterministic),
                       ("missing", tracer.missing)):
        if value:
            print(f"{tag} " + json.dumps(value))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracing.write_spans(tracer.spans, OUT / f"{args.workload}-spans.csv")
    record = {"facts": facts, "seconds": args.seconds, "per_pass": per_pass,
              "bare_pass_seconds": [p.seconds for p in bare],
              "traced_pass_seconds": [p.seconds for p in traced], "probe_seconds": probes,
              "setup_samples": setup_samples, "crosscheck": crosscheck, "failures": failures,
              "nondeterministic": nondeterministic, "missing": tracer.missing,
              "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
