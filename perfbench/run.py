#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload median_small2d --seed 1 --seconds 25 --trace 0

Runs from the root of a source tree and imports ``viviani`` from its
``src``.  After an untimed set-up of its own, the run measures for
``--seconds``: whole rounds of operations, one caller in a closed loop,
with ``SETUPS`` set-ups spread evenly between the rounds.  Each set-up runs
in a fresh interpreter (``--setup-only``) and times importing the library,
building the first round's inputs and warming up on a fixed set of
operations; ``setup_s`` is their median.  ``ops_per_s`` is the median over
rounds of checked operations per second of operation time.  ``--trace 0``
prints the end-to-end metrics and writes ``BENCH_<workload>.json``;
``--trace 1`` records spans around every library call, prints the per-layer
metrics and writes ``BENCH_<workload>.trace.json``.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import tracing

# One BLAS thread: the benchmark measures one caller, and free BLAS threads
# on a small machine make the timings wander.  Must precede importing numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run, each in a fresh interpreter, spread over the timed loop.
SETUPS = 7
MIN_TAIL_BEYOND = 10


def _load_workloads():
    """Import the workloads against this tree's ``src``, refusing any other
    copy of the package."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import viviani
    except ImportError as exc:
        raise SystemExit(f"error: cannot import viviani from {src}: {exc}")
    if src not in Path(viviani.__file__).resolve().parents:
        raise SystemExit(f"error: viviani was imported from {viviani.__file__}, not {src}")
    import workloads
    return workloads


def tail(sorted_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    n = len(sorted_ms)
    i = max(n - MIN_TAIL_BEYOND - 1, 0)
    return sorted_ms[i], 100.0 * (i + 1) / n


class Runner:
    """Runs operations, times them, and counts attempts and failures."""

    def __init__(self, tracer):
        self.T = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.faults: dict[str, int] = {}
        self.ok_ms: list[float] = []
        self.round_ok = 0
        self.round_busy_s = 0.0
        self.round_rates: list[float] = []

    def run_op(self, op, round_index: int, record: bool):
        # A failed operation is counted, never fatal: catch everything it raises.
        self.T.begin_op(round_index)
        t0 = time.perf_counter()
        try:
            check, error = op.run(self.T), None
        except Exception as exc:
            check, error = None, exc
        dt = time.perf_counter() - t0
        self.T.end_op()
        if error is None:
            try:
                check()
            except Exception as exc:
                error = exc
        ok = error is None
        why = "" if ok else f"{type(error).__name__}: {error}"
        if not record:
            if not ok and op.fault is None:
                self.unexpected.append(why)
            return
        self.attempted += 1
        self.round_busy_s += dt
        if ok:
            self.ok_ms.append(dt * 1e3)
            self.round_ok += 1
            return
        self.failed += 1
        if op.fault is None:
            self.unexpected.append(why)
        else:
            self.faults[op.fault] = self.faults.get(op.fault, 0) + 1

    def end_round(self):
        """Checked operations per second of operation time in this round."""
        self.round_rates.append(self.round_ok / self.round_busy_s)
        self.round_ok, self.round_busy_s = 0, 0.0


def setup(workload, runner):
    """Prepare and build the run's first round, then warm up on work that
    does not depend on the seed's draws."""
    workload.prepare()
    workload.make_round(0)
    for op in workload.warm_ops():
        runner.run_op(op, 0, record=False)


def setup_only(name: str, seed: int) -> int:
    """One set-up in this fresh interpreter, timed from before the library
    is imported; prints the seconds it took and whether warming up passed."""
    t0 = time.perf_counter()
    warnings.simplefilter("ignore", RuntimeWarning)
    workloads = _load_workloads()
    w = workloads.WORKLOADS[name](seed, str(ROOT))
    runner = Runner(tracing.NullTracer())
    try:
        setup(w, runner)
    finally:
        w.close()
    seconds = time.perf_counter() - t0
    print(json.dumps({"setup_s": seconds, "unexpected": runner.unexpected[:5]}))
    return 0


def timed_setup(name: str, seed: int) -> tuple[float, list[str]]:
    """Run :func:`setup_only` in a child interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        return math.nan, [f"set-up exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["unexpected"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args.workload, args.seed)

    workloads = _load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.seed, str(ROOT))
    T = tracing.Tracer() if args.trace else tracing.NullTracer()
    runner = Runner(tracing.NullTracer())
    # overflow and underflow warnings from the rescaled inputs are expected
    warnings.simplefilter("ignore", RuntimeWarning)
    setups: list[float] = []

    def one_setup():
        spent, unexpected = timed_setup(args.workload, args.seed)
        setups.append(spent)
        runner.unexpected.extend(unexpected)

    try:
        setup(w, runner)
        runner.T = T
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < args.seconds:
            # set-up j starts once j / SETUPS of the run has passed
            elapsed = time.perf_counter() - start
            if len(setups) < SETUPS and len(setups) * args.seconds <= SETUPS * elapsed:
                one_setup()
            for op in w.make_round(r):
                runner.run_op(op, r, record=True)
            runner.end_round()
            r += 1
        while len(setups) < SETUPS:
            one_setup()
        wall = time.perf_counter() - start
        extra = {}
        if args.trace:
            try:
                extra = w.after(T)
            except Exception as exc:
                runner.unexpected.append(f"{type(exc).__name__}: {exc}")
    finally:
        w.close()

    ok = sorted(runner.ok_ms)
    tail_ms, tail_pct = tail(ok) if ok else (0.0, 0.0)
    e2e = {
        "ops_per_s": (statistics.median(runner.round_rates), "1/s"),
        "op_ms_p50": (statistics.median(ok) if ok else 0.0, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (w.peak_rss_mb(), "MB"),
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": r,
        "wall_s": wall, "tail_percentile": tail_pct, "samples": len(ok),
        "setup_runs_s": setups, "known_faults": runner.faults,
        "unexpected_failures": runner.unexpected[:20],
    }
    if args.trace:
        metrics = layer_metrics(T, extra)
        summary["layer_shares"] = T.layer_shares()
        T.dump(ROOT / f"BENCH_{args.workload}.trace.json",
               {**summary, "metrics": {k: v for k, (v, _) in metrics.items()}})
    else:
        metrics = e2e
        with open(ROOT / f"BENCH_{args.workload}.json", "w") as fh:
            json.dump({**summary, "metrics": {k: v for k, (v, _) in metrics.items()}},
                      fh, indent=1)

    report(summary, e2e if not args.trace else metrics, runner)
    print(json.dumps({
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(T, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counts of a traced run.  Counts
    cover round 0 only, so they repeat exactly for a seed; times are medians
    per call over the whole run.  A layer the workload does not use reads 0."""
    its_all = T.all_counts("fermat.iterations")
    its0 = T.round_counts("fermat.iterations")
    solve_ms = T.total_ms("fermat.geometric_median")
    draws_ms = T.total_ms("sampling.sample_points")
    ops = sorted(T.durations_ms("op"))
    m = {
        "fermat.solve_ms": (T.median_ms("fermat.geometric_median"), "ms"),
        "fermat.iterations_total": (sum(its0), "count"),
        "fermat.iterations_p50": (statistics.median(its0) if its0 else 0, "count"),
        "fermat.ms_per_iteration": (solve_ms / sum(its_all) if sum(its_all) else 0.0, "ms"),
        "fermat.interior_results": (sum(T.round_counts("fermat.interior_optimum")), "count"),
        "fermat.anchor_results": (sum(T.round_counts("fermat.anchor_optimum")), "count"),
        "fermat.collinear_results": (sum(T.round_counts("fermat.non_unique_collinear")), "count"),
        "sampling.sample_points_ms": (T.median_ms("sampling.sample_points"), "ms"),
        "sampling.draws": (sum(T.round_counts("sampling.draws")), "count"),
        "sampling.draws_per_s": (sum(T.all_counts("sampling.draws")) / (draws_ms / 1e3)
                                 if draws_ms else 0.0, "1/s"),
        "geometry.viviani_values_ms": (T.median_ms("geometry.viviani_values"), "ms"),
        "geometry.is_viviani_ms": (T.median_ms("geometry.is_viviani"), "ms"),
        "polytope.generate_ms": (T.median_ms("polytope.generate"), "ms"),
        "duality.viviani_to_fermat_ms": (T.median_ms("duality.viviani_to_fermat"), "ms"),
        "duality.fermat_to_viviani_ms": (T.median_ms("duality.fermat_to_viviani"), "ms"),
        "document.parse_ms": (T.median_ms("document.parse"), "ms"),
        "document.serialize_ms": (T.median_ms("document.serialize"), "ms"),
        "document.bytes": (sum(T.round_counts("document.bytes")), "bytes"),
        "cli.interpreter_ms": (T.median_ms("cli.interpreter"), "ms"),
        "cli.import_numpy_ms": (extra.get("cli.import_numpy_ms", 0.0), "ms"),
        "cli.import_viviani_ms": (extra.get("cli.import_viviani_ms", 0.0), "ms"),
        "cli.command_ms": (T.median_ms("cli.run_cli"), "ms"),
        "svgplot.render_ms": (T.median_ms("svgplot.render_svg"), "ms"),
        "gridsearch.grid_median_ms": (T.median_ms("gridsearch.grid_median"), "ms"),
        "gridsearch.cells": (extra.get("gridsearch.cells", 0), "count"),
        "trace.op_ms_p50": (statistics.median(ops) if ops else 0.0, "ms"),
    }
    return m


def report(summary: dict, metrics: dict, runner):
    """Human-readable lines before the JSON result."""
    print(f"# {summary['workload']} seed={summary['seed']} rounds={summary['rounds']} "
          f"wall={summary['wall_s']:.2f}s attempted={runner.attempted} failed={runner.failed}")
    for fault, n in runner.faults.items():
        print(f"#   known fault x{n}: {fault}")
    for why in runner.unexpected[:5]:
        print(f"#   UNEXPECTED FAILURE: {why}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{summary['tail_percentile']:.2f} of {summary['samples']} samples)"
        print(f"#   {name:28s} {value:14.6g} {unit}{note}")
    for layer, share in summary.get("layer_shares", {}).items():
        print(f"#   share {layer:22s} {100 * share:8.2f} %")


if __name__ == "__main__":
    sys.exit(main())
