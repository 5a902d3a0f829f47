#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and judge the spread.

    python3 perfbench/steady.py                      # every workload
    python3 perfbench/steady.py --workload cli_cold  # one workload

Each run is ``perfbench/run.py`` in a fresh process, with the run length of
``BENCHMARK.json`` and its own seed: set j, run i uses seed
``FIRST_SEED + j * RUNS + i``.  There are ``SETS`` sets of ``RUNS`` runs per
workload.  For every end-to-end metric it prints the median and quartiles
(``statistics.quantiles(values, n=4)``) of each set, the spread
``(q3 - q1) / median`` against the metric's bound, and the change of the
median from the first set to the second in the metric's worse direction
against the same bound.  The share of failed operations must be identical
in every run.  Results go to ``BENCH_steady.json``; the exit code is 0 only
if every check holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS, SETS, FIRST_SEED = 10, 2, 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results: dict[str, list[list[dict]]] = {w: [] for w in names}
    for j in range(SETS):
        for w in names:
            runs = []
            for i in range(RUNS):
                seed = FIRST_SEED + j * RUNS + i
                out = run_once(w, seed, seconds)
                runs.append(out)
                print(f"set {j + 1} {w} seed {seed}: correct={out['correct']} "
                      f"attempted={out['attempted']} failed={out['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()),
                      flush=True)
            results[w].append(runs)

    steady = True
    report = {}
    print()
    print(f"{'workload':18s} {'metric':12s} {'set':>3s} {'q1':>11s} {'median':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in names:
        report[w] = {}
        shares = {Fraction(r["failed"], r["attempted"]) for runs in results[w] for r in runs}
        correct = all(r["correct"] for runs in results[w] for r in runs)
        for name, spec in metrics.items():
            rows = []
            for j, runs in enumerate(results[w]):
                q1, med, q3 = summarize([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                fits = spread <= spec["bound"]
                steady &= fits
                verdict = "ok" if fits else "TOO WIDE"
                if fits and spread > spec["bound"] / 3:
                    verdict = "ok (above a third of the bound)"
                print(f"{w:18s} {name:12s} {j + 1:3d} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {spec['bound']:6.2f}  {verdict}")
                rows.append({"q1": q1, "median": med, "q3": q3, "spread": spread})
            m1, m2 = rows[0]["median"], rows[1]["median"]
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            fits = worse <= spec["bound"]
            steady &= fits
            print(f"{w:18s} {name:12s} 1->2 median moved "
                  f"{100 * worse:+.1f}% in the worse direction (bound "
                  f"{100 * spec['bound']:.0f}%)  {'ok' if fits else 'TOO FAR'}")
            rows.append({"worse_shift": worse})
            report[w][name] = rows
        same_share = len(shares) == 1
        steady &= same_share and correct
        print(f"{w:18s} failed share {sorted(str(s) for s in shares)} "
              f"{'identical' if same_share else 'DIFFERS'}; correct={correct}")
        report[w]["failed_share"] = sorted(str(s) for s in shares)
    (ROOT / "BENCH_steady.json").write_text(json.dumps(
        {"runs": RUNS, "sets": SETS, "seconds": seconds,
         "first_seed": FIRST_SEED, "steady": steady, "workloads": report,
         "raw": results}, indent=1))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
