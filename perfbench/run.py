#!/usr/bin/env python3
"""Run one qdilab benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_6x6_weak --seed 42 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes every span to ``.perfbench/spans-<workload>.csv.gz``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a line before it gives the digest
of the deterministic result.  A seeded workload's golden digest is stored
for one seed; a run at another seed checks it with one untimed call at that
seed.  The exit code is 1 when any check fails and 2
when the qdilab sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdilab" / "__init__.py").is_file():
        print(f"perfbench: no qdilab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import measure, measure_traced
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        out = measure_traced(workload, args.seed, args.seconds,
                             spans_path=REPO / ".perfbench" / f"spans-{workload.name}.csv.gz")
    else:
        out = measure(workload, args.seed, args.seconds)

    golden = workload.golden_for(args.seed)
    if golden is not None:
        status = "match" if out.digest == golden else "MISMATCH"
    elif workload.golden is not None:
        status = f"stored for seed {DEFAULT_SEED}, checked by an untimed call at that seed"
    else:
        status = "none stored"
    print(f"digest {workload.name} seed={args.seed} {out.digest} (golden: {status})")
    if args.trace:
        print("counts " + json.dumps(out.counts, sort_keys=True))
    else:
        print("host " + json.dumps(out.host, sort_keys=True))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
