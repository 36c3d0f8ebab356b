"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

Small instances of each workload keep these fast; the registered workloads
are checked for their input-derived counts, the seeded ones against their
stored goldens, and the cheapest of them end to end through the command line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

from qdilab import handshake  # noqa: E402

import spans  # noqa: E402
from measure import measure, measure_traced  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, ClassifyIndication,  # noqa: E402
                       ExhaustiveVerify, OrphanFuzz, ScaleSweep, digest)

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
SMALL = [ExhaustiveVerify(2), OrphanFuzz(2, trials=5), ClassifyIndication(1),
         ScaleSweep(widths=(2, 3), exhaustive_cycles={"mult2x2_dims_fa_rtz": 22})]
SEED = 7


def test_registered_workloads_match_the_spec():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", [w for w in WORKLOADS.values() if w.seeded],
                         ids=lambda w: w.name)
def test_seeded_workloads_match_their_stored_golden(workload):
    result = workload.run(workload.setup(), DEFAULT_SEED)
    assert workload.failures(result) == 0
    assert digest(workload.summary(result)) == workload.golden


def test_registered_phase_counts_follow_from_the_inputs():
    # 2 phases per transaction: 4096 vectors; 200 trials x 8 transactions;
    # 2^5 codewords x 5! arrival orders; 2 variants x (16 + 64 + 5 x 66) vectors
    phases = {name: w.phases() for name, w in WORKLOADS.items()}
    assert phases == {"verify_6x6_weak": 8192, "fuzz_4x4_weak": 3200,
                      "classify_rca2_weak_rto": 7680, "scale_sweep": 1640}


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_phase_counts_match_the_phases_run(workload):
    out = measure_traced(workload, SEED, seconds=0)
    assert out.correct
    assert out.counts["handshake.phase_calls"] == workload.phases()


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_and_untraced_digests_are_equal(workload):
    plain = measure(workload, SEED, seconds=0)
    traced = measure_traced(workload, SEED, seconds=0)
    assert plain.correct and traced.correct
    assert plain.digest == traced.digest
    assert measure_traced(workload, SEED, seconds=0).counts == traced.counts


def test_wrappers_are_restored_after_a_traced_run():
    def snapshot():
        return [vars(owner)[attr] for owner, attr, _ in spans.BOUNDARIES] + [handshake.decode]

    before = snapshot()
    measure_traced(SMALL[0], SEED, seconds=0)
    assert snapshot() == before
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert snapshot() != before
            raise RuntimeError("boom")
    assert snapshot() == before


def test_self_times_exclude_children():
    tracer = spans.Tracer()
    with tracer.installed(), tracer.run_span():
        SMALL[0].run(SMALL[0].setup(), SEED)
    selfs = tracer.self_times()[0]
    total = tracer.end[0] - tracer.start[0]
    assert all(t >= 0 for t in selfs.values())
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-9)


def test_a_wrong_oracle_reports_failures():
    workload = SMALL[0]
    wrong = lambda vec: {f"P{k}": 0 for k in range(4)}  # noqa: E731
    for run in (measure, measure_traced):
        out = run(workload, SEED, seconds=0, oracle=wrong)
        assert not out.correct
        assert 0 < out.failed <= out.attempted


def test_a_golden_mismatch_fails_every_operation():
    workload = ExhaustiveVerify(2, golden="0" * 16)
    out = measure(workload, SEED, seconds=0)
    assert out.failed == out.attempted == workload.operations()


@pytest.mark.parametrize("run", [measure, measure_traced])
def test_a_seeded_golden_is_checked_at_any_seed(run):
    # one untimed call at the golden's seed, then the timed calls at SEED
    workload = OrphanFuzz(2, trials=5, golden="0" * 16)
    assert SEED != DEFAULT_SEED
    out = run(workload, SEED, seconds=0)
    assert out.failed == workload.operations() < out.attempted


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_line_prints_the_declared_metrics(trace, section):
    proc = _run_cli(REPO, "--workload", "classify_rca2_weak_rto", "--seed", "3",
                    "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3840 * (1 + int(trace))
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "1":
        assert result["metrics"]["sim.events"]["value"] == 138_240


def test_command_line_fails_without_the_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "classify_rca2_weak_rto", "--seconds", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
