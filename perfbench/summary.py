#!/usr/bin/env python3
"""Run every benchmark workload several times and print medians and quartiles.

Usage, from the root of a checkout:

    python3 perfbench/summary.py [--runs 5] [--seconds 25] [--seed 42] [--trace]
                                 [--workloads NAME ...]

Runs go one after another, one workload at a time, each in its own
``run.py`` process with the seed ``seed + i``; nothing runs in parallel.
Each run also checks the stored golden digest of its workload (a run of a
seeded workload at another seed makes one untimed call at the golden's seed).
Every workload gets its own process because ``peak_rss_mb`` is the peak of
the workload's process.  For each metric the table gives the median, the
first and third quartiles (``statistics.quantiles(n=4)``), the spread
(third minus first quartile, as a share of the median) and the sample
count.  ``failed_share`` is each run's failed operations over attempted
ones.  The raw host figures a run prints appear as ``host:*`` rows.  The
exit code is 1 when any run fails a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def workload_names() -> list[str]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None
    for line in lines:  # the raw host figures, for comparison
        if line.startswith("host "):
            for name, value in json.loads(line[5:]).items():
                result["metrics"][f"host:{name}"] = {"value": value, "unit": ""}
    return proc.returncode, result


def describe(values: list[float]) -> tuple[float, float, float, float]:
    med = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trace", action="store_true", help="report per-layer metrics")
    args = ap.parse_args(argv)

    ok = True
    for name in args.workloads or workload_names():
        results = []
        for i in range(args.runs):
            code, result = run_once(name, args.seed + i, args.seconds, args.trace)
            ok &= code == 0 and result is not None and result["correct"]
            if result is not None:
                results.append(result)
        for r in results:
            r["metrics"]["failed_share"] = {"value": r["failed"] / r["attempted"], "unit": "1"}
        print(f"\n{name}: {len(results)} of {args.runs} runs gave a result, "
              f"{sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)} "
              "operations failed")
        print(f"  {'metric':<24} {'unit':<12} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'n':>3}")
        for metric in results[0]["metrics"] if results else ():
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, spread = describe(values)
            unit = results[0]["metrics"][metric]["unit"]
            print(f"  {metric:<24} {unit:<12} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.3f} {len(values):>3}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
