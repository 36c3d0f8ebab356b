"""Command-line behaviour: exit codes, config layering, deterministic output."""

import json
import subprocess
import sys

import pytest

from qdilab.cli import CliConfig, load_config_file, main
from qdilab.components import emit_strong_and2
from qdilab.encoding import Protocol
from qdilab.multiplier import MultiplierSpec, array_multiplier
from qdilab.netlist import GateKind, NetlistBuilder, from_json, to_json


def run_inproc(*argv):
    return main(list(argv))


def run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "qdilab.cli", *argv],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# exit codes

def test_build_and_verify_succeed(tmp_path):
    out = tmp_path / "m.json"
    assert run_inproc("build", "--n", "2", "--out", str(out)) == 0
    assert from_json(out.read_text()).metadata["n"] == 2
    assert run_inproc("verify", "--n", "2") == 0


def test_usage_errors_exit_2():
    for argv in (["build", "--n", "1"],
                 ["verify", "--component", "nosuch"],
                 ["bench", "--n", "2", "--delay", "pergate"],
                 ["fuzz", "--n", "2", "--trials", "0"]):
        with pytest.raises(SystemExit) as exc:
            run_inproc(*argv)
        assert exc.value.code == 2


def test_classify_weak_exits_zero_and_reports(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run_inproc("classify", "--component", "weak_fa",
                      "--out", str(out)) == 0
    assert "weak" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "weak"
    assert doc["witness"]["kind"] == "early-output"
    assert doc["config"]["protocol"] == "rtz"


def test_classify_non_indicating_netlist_exits_one(tmp_path):
    b = NetlistBuilder("leak")
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    b.add_output_port("Z", x.rail1, x.rail0)
    b.add_output_port("S", b.add_gate(GateKind.C2, (y.rail1, y.rail0)), y.rail0)
    path = tmp_path / "leak.json"
    path.write_text(to_json(b.build()))
    assert run_inproc("classify", "--netlist", str(path)) == 1


def test_malformed_netlist_and_delay_table_exit_2(tmp_path):
    doc = json.loads(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTZ))))
    del doc["gates"][0]["inputs"]
    bad_netlist = tmp_path / "bad.json"
    bad_netlist.write_text(json.dumps(doc))
    bad_kind = tmp_path / "kinds.json"
    bad_kind.write_text(json.dumps({"AND": 3}))
    bad_gate = tmp_path / "gates.json"
    bad_gate.write_text(json.dumps({"100000": 3}))
    for argv in (["verify", "--netlist", str(bad_netlist)],
                 ["verify", "--n", "2", "--delay", "perkind", "--delay-table", str(bad_kind)],
                 ["verify", "--n", "2", "--delay", "pergate", "--delay-table", str(bad_gate)]):
        with pytest.raises(SystemExit) as exc:
            run_inproc(*argv)
        assert exc.value.code == 2


def test_verify_detects_sabotaged_netlist(tmp_path):
    netlist = array_multiplier(MultiplierSpec(2, Protocol.RTZ))
    doc = json.loads(to_json(netlist))
    for port in doc["ports"]:
        if port["name"] == "P0":  # swap the rails: P0 now reads inverted
            port["rail1"], port["rail0"] = port["rail0"], port["rail1"]
    path = tmp_path / "sabotaged.json"
    path.write_text(json.dumps(doc))
    assert run_inproc("verify", "--netlist", str(path)) == 1


def test_fuzz_flags_unacknowledged_branch(tmp_path):
    b = NetlistBuilder("and2_orphan", {"component": "strong_and2"})
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    z1, z0 = emit_strong_and2(b, Protocol.RTZ, x.rails, y.rails)
    b.add_gate(GateKind.OR2, (x.rail1, y.rail1))  # dead-end branch
    b.add_output_port("Z", z1, z0)
    path = tmp_path / "orphan.json"
    path.write_text(to_json(b.build()))
    report = tmp_path / "fuzz.json"
    assert run_inproc("fuzz", "--netlist", str(path), "--trials", "40",
                      "--out", str(report)) == 1
    doc = json.loads(report.read_text())
    assert not doc["ok"]
    assert any(v["kind"] == "post-completion" for v in doc["violations"])


def test_fuzz_clean_multiplier(tmp_path):
    out = tmp_path / "f.json"
    assert run_inproc("fuzz", "--n", "2", "--trials", "25",
                      "--transactions", "4", "--out", str(out)) == 0
    assert json.loads(out.read_text())["ok"] is True


# ---------------------------------------------------------------------------
# config file layering

def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol = rto\nn = 3\nseed = 9  # trailing comment\n")
    values = load_config_file(str(cfg))
    assert values == {"protocol": "rto", "n": 3, "seed": 9}
    out_a = tmp_path / "a.json"
    assert run_inproc("classify", "--component", "weak_fa", "--config",
                      str(cfg), "--out", str(out_a)) == 0
    assert json.loads(out_a.read_text())["protocol"] == "rto"
    out_b = tmp_path / "b.json"
    assert run_inproc("classify", "--component", "weak_fa", "--config",
                      str(cfg), "--protocol", "rtz", "--out", str(out_b)) == 0
    assert json.loads(out_b.read_text())["protocol"] == "rtz"


def test_config_file_rejects_junk(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad))
    bad.write_text("mystery = 4\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad))
    with pytest.raises(SystemExit) as exc:
        run_inproc("build", "--config", str(bad))
    assert exc.value.code == 2


def test_config_echo_covers_every_field(tmp_path):
    out = tmp_path / "r.json"
    assert run_inproc("verify", "--n", "2", "--out", str(out)) == 0
    echoed = json.loads(out.read_text())["config"]
    assert set(echoed) == {f for f in CliConfig.__dataclass_fields__}


# ---------------------------------------------------------------------------
# artifacts

def test_export_stdout_and_files(tmp_path, capsys):
    assert run_inproc("export", "--component", "dims_fa") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "dims_fa_rtz"
    out, dot = tmp_path / "m.json", tmp_path / "m.dot"
    assert run_inproc("export", "--n", "2", "--out", str(out),
                      "--dot", str(dot)) == 0
    assert from_json(out.read_text()).metadata["n"] == 2
    assert dot.read_text().startswith("digraph")


def test_trace_csv(tmp_path):
    trace = tmp_path / "t.csv"
    assert run_inproc("verify", "--component", "strong_and2",
                      "--trace", str(trace)) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "time,net,value"
    assert sum(1 for line in lines if line.startswith("# vector")) == 4
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert all(len(r) == 3 and all(c.lstrip("-").isdigit() for c in r)
               for r in rows)


def test_bench_writes_csv_and_json(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_inproc("bench", "--n", "2", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("design,protocol,")
    assert len(lines) == 5
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert len(doc["rows"]) == 4
    assert doc["config"]["n"] == 2


# ---------------------------------------------------------------------------
# cross-process determinism

def test_reports_are_byte_identical_across_processes(tmp_path):
    args = ("classify", "--component", "weak_fa", "--out")
    out = tmp_path / "r.json"
    first = run_subprocess(*args, str(out))
    assert first.returncode == 0
    payload = out.read_bytes()
    stdout = first.stdout
    second = run_subprocess(*args, str(out))
    assert second.returncode == 0
    assert out.read_bytes() == payload
    assert second.stdout == stdout
