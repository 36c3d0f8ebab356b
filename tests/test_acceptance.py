"""End-to-end acceptance checks.

Each test is one top-level requirement and prints a single verdict line
(visible under ``pytest -s`` or in the captured output of a failing run).
"""

import itertools
import json
import subprocess
import sys
import time

import pytest

from qdilab.analysis import (BenchDesign, Indication, benchmark,
                             classify_indication, exhaustive_verify,
                             measure_latencies, orphan_scan)
from qdilab.components import (COMPONENTS, dims_full_adder,
                               ripple_carry_adder, strong_and2,
                               weak_full_adder)
from qdilab.encoding import Protocol
from qdilab.multiplier import MultiplierSpec, array_multiplier, product_oracle
from qdilab.netlist import dual_of, stats, structurally_equal

PROTOCOLS = (Protocol.RTZ, Protocol.RTO)
VARIANTS = ("dims_fa", "weak_fa")


def report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_exhaustive_4x4_correctness():
    """Every 4x4 multiplier configuration computes all 256 products."""
    t0 = time.time()
    failures = []
    for protocol, variant in itertools.product(PROTOCOLS, VARIANTS):
        netlist = array_multiplier(MultiplierSpec(4, protocol, variant))
        res = exhaustive_verify(netlist, protocol, product_oracle(4))
        if not res.ok or res.total != 256:
            failures.append((protocol.value, variant, len(res.failures)))
    elapsed = time.time() - t0
    report(not failures and elapsed < 60,
           f"criterion 1: exhaustive 4x4 product check, 4 configs x 256 "
           f"vectors in {elapsed:.1f}s (failures: {failures})")


def test_criterion_2_structural_scaling():
    """Generated netlists hit the closed-form block and gate budgets."""
    fa_c2 = {"dims_fa": 12, "weak_fa": 14}
    fa_merge = {"dims_fa": 12, "weak_fa": 9}
    bad = []
    for n, variant in itertools.product((2, 3, 4, 5), VARIANTS):
        netlist = array_multiplier(MultiplierSpec(n, Protocol.RTZ, variant))
        meta = netlist.metadata
        counts = stats(netlist).counts
        expect = {
            "and_blocks": n * n,
            "fa_blocks": n * (n - 1),
            "const_carries": n,
            "C2": 4 * n * n + fa_c2[variant] * n * (n - 1),
            "OR2": 2 * n * n + fa_merge[variant] * n * (n - 1),
        }
        got = {k: meta[k] for k in ("and_blocks", "fa_blocks", "const_carries")}
        got |= {k: counts[k] for k in ("C2", "OR2")}
        if got != expect:
            bad.append((n, variant, got, expect))
    report(not bad, f"criterion 2: block/gate budgets for n in 2..5 ({bad})")


def test_criterion_3_indication_classes():
    """The classifier reproduces the known indication class of each design."""
    expected = []
    for protocol in PROTOCOLS:
        expected += [
            (strong_and2(protocol), protocol, Indication.STRONG),
            (dims_full_adder(protocol), protocol, Indication.STRONG),
            (weak_full_adder(protocol), protocol, Indication.WEAK),
        ]
    expected.append((ripple_carry_adder(Protocol.RTZ, 2, "dims_fa"),
                     Protocol.RTZ, Indication.WEAK))
    for protocol, variant in itertools.product(PROTOCOLS, VARIANTS):
        expected.append((array_multiplier(MultiplierSpec(4, protocol, variant)),
                         protocol, Indication.WEAK))
    wrong = []
    for netlist, protocol, want in expected:
        verdict = classify_indication(netlist, protocol)
        if verdict.verdict is not want:
            wrong.append((netlist.name, verdict.verdict.value, want.value))
    report(not wrong,
           f"criterion 3: indication verdicts for {len(expected)} designs ({wrong})")


def test_criterion_4_symmetric_phase_latencies():
    """Forward and return latencies agree, and the cycle is their sum."""
    designs = []
    for protocol in PROTOCOLS:
        designs += [(builder(protocol), protocol)
                    for builder in COMPONENTS.values()]
        for variant in VARIANTS:
            designs.append((array_multiplier(MultiplierSpec(4, protocol, variant)),
                            protocol))
    asym = []
    for netlist, protocol in designs:
        m = measure_latencies(netlist, protocol, sample_limit=64, seed=7)
        if m.forward_latency != m.reverse_latency \
                or m.cycle_time != m.forward_latency + m.reverse_latency:
            asym.append((netlist.name, m))
    report(not asym,
           f"criterion 4: forward == return latency on {len(designs)} designs ({asym})")


def test_criterion_5_orphan_freedom_under_random_delays():
    """No unacknowledged transition in 1000 random-delay trials per config."""
    t0 = time.time()
    dirty = []
    for protocol, variant in itertools.product(PROTOCOLS, VARIANTS):
        netlist = array_multiplier(MultiplierSpec(4, protocol, variant))
        res = orphan_scan(netlist, protocol, product_oracle(4), trials=1000,
                          seed=42, transactions=8, delay_low=1, delay_high=16)
        if not res.ok:
            dirty.append((netlist.name, len(res.violations)))
    elapsed = time.time() - t0
    report(not dirty,
           f"criterion 5: 4 configs x 1000 trials x 8 transactions under "
           f"delays in [1,16], {elapsed:.0f}s ({dirty})")


def test_criterion_6_protocol_duality():
    """Swapping monotone gate kinds and reset levels maps each RTZ design
    onto its RTO twin, at identical gate cost."""
    mismatched = []
    for variant, n in itertools.product(VARIANTS, (2, 4)):
        rtz = array_multiplier(MultiplierSpec(n, Protocol.RTZ, variant))
        rto = array_multiplier(MultiplierSpec(n, Protocol.RTO, variant))
        if not (structurally_equal(dual_of(rtz), rto)
                and structurally_equal(dual_of(rto), rtz)
                and stats(rtz).total_gates == stats(rto).total_gates):
            mismatched.append(rtz.name)
    for name, builder in COMPONENTS.items():
        if not structurally_equal(dual_of(builder(Protocol.RTZ)),
                                  builder(Protocol.RTO)):
            mismatched.append(name)
    report(not mismatched, f"criterion 6: RTZ/RTO duality ({mismatched})")


def test_criterion_7_benchmark_orders_designs():
    """The weak-carry multiplier beats the fully strong one on cycle time at
    4x4, and each protocol group is normalized to a unit maximum."""
    designs = [
        BenchDesign(f"mult4x4_{fa}",
                    lambda p, fa=fa: array_multiplier(MultiplierSpec(4, p, fa)),
                    product_oracle(4))
        for fa in VARIANTS
    ]
    rows = benchmark(designs, PROTOCOLS)
    by_key = {(r.design, r.protocol): r for r in rows}
    ok = len(rows) == 4
    details = []
    for protocol in ("rtz", "rto"):
        weak = by_key.get(("mult4x4_weak_fa", protocol))
        dims = by_key.get(("mult4x4_dims_fa", protocol))
        group_max = max(r.pctp_norm for r in rows if r.protocol == protocol)
        ok = ok and weak is not None and dims is not None \
            and weak.cycle_units < dims.cycle_units and group_max == 1.0
        if weak and dims:
            details.append(f"{protocol}: weak {weak.cycle_units} < "
                           f"dims {dims.cycle_units}, max pctp {group_max}")
    report(ok, f"criterion 7: benchmark ranking at 4x4 ({'; '.join(details)})")


def test_criterion_8_deterministic_reports(tmp_path):
    """Re-running the CLI with one configuration reproduces identical bytes."""
    jobs = [
        ("classify", "--component", "weak_fa", "--delay", "random", "--seed", "3"),
        ("fuzz", "--n", "2", "--trials", "20", "--transactions", "3"),
        ("bench", "--n", "2"),
    ]
    stable = True
    for i, job in enumerate(jobs):
        out = tmp_path / f"r{i}.json" if job[0] != "bench" \
            else tmp_path / f"r{i}.csv"
        argv = [sys.executable, "-m", "qdilab.cli", *job, "--out", str(out)]
        first = subprocess.run(argv, capture_output=True, text=True)
        blob = out.read_bytes()
        second = subprocess.run(argv, capture_output=True, text=True)
        stable = stable and first.returncode == second.returncode == 0 \
            and out.read_bytes() == blob and first.stdout == second.stdout
    report(stable, f"criterion 8: byte-identical CLI reports over {len(jobs)} jobs")
