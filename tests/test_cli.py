"""Command-line behaviour: exit codes, config layering, deterministic output."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilab.analysis import exhaustive_verify, worst_case
from qdilab.cli import (CHOICES, MODEL_READS, READS, CliConfig, load_config_file, main,
                        run_reads)
from qdilab.components import emit_strong_and2, strong_and2
from qdilab.encoding import Protocol
from qdilab.multiplier import MultiplierSpec, array_multiplier, product_oracle
from qdilab.netlist import GateKind, NetlistBuilder, from_json, to_json
from qdilab.sim import RandomUniformDelay, TableDelay

from test_netlist import _mutate, long_integer_documents


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


def test_usage_errors_exit_2(capsys):
    """Errors argparse finds, errors found after parsing and errors a
    command raises all end in one ``qdilab <command>: error:`` line."""
    for argv in (["build", "--n", "1"],
                 ["verify", "--n", "x"],
                 ["verify", "--component", "nosuch"],
                 ["bench", "--n", "2", "--delay", "pergate"],
                 ["fuzz", "--n", "2", "--trials", "0"],
                 ["scale", "--n", "1"]):
        with pytest.raises(SystemExit) as exc:
            run_inproc(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.splitlines()[-1].startswith(f"qdilab {argv[0]}: error: "), argv


def test_a_multiplier_too_wide_to_enumerate_is_refused_before_it_is_built(
        monkeypatch, capsys):
    """verify, classify and bench exit 2 on a 9x9 multiplier (2^18 codewords)
    without generating it."""
    def refuse(spec):
        pytest.fail(f"generated a {spec.n}x{spec.n} multiplier")
    monkeypatch.setattr("qdilab.cli.array_multiplier", refuse)
    for command, purpose in (("verify", "exhaustive verification"),
                             ("classify", "classification"),
                             ("bench", "exhaustive verification")):
        with pytest.raises(SystemExit) as exc:
            run_inproc(command, "--n", "9")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"qdilab {command}: error: 18 inputs is too wide for {purpose}\n")


def test_a_multiplier_wider_than_64_is_refused_before_it_is_built(
        monkeypatch, capsys, tmp_path):
    """build, export, fuzz and scale exit 2 on --n 65 without generating a
    multiplier (about 120,000 gates) or writing anything."""
    def refuse(spec):
        pytest.fail(f"generated a {spec.n}x{spec.n} multiplier")
    monkeypatch.setattr("qdilab.cli.array_multiplier", refuse)
    out = tmp_path / "out.json"
    for command in ("build", "export", "fuzz", "scale"):
        with pytest.raises(SystemExit) as exc:
            run_inproc(command, "--n", "65", "--out", str(out))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"qdilab {command}: error: --n must be <= 64, got 65\n")
        assert not out.exists()


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


def test_malformed_netlist_and_delay_table_exit_2(tmp_path, capsys, monkeypatch):
    doc = json.loads(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTZ))))
    del doc["gates"][0]["inputs"]
    bad_netlist = tmp_path / "bad.json"
    bad_netlist.write_text(json.dumps(doc))
    bad_kind = tmp_path / "kinds.json"
    bad_kind.write_text(json.dumps({"AND": 3}))
    bad_gate = tmp_path / "gates.json"
    bad_gate.write_text(json.dumps({"100000": 3}))
    kind_as_gate = tmp_path / "kind_as_gate.json"  # a kind name in a pergate table
    kind_as_gate.write_text(json.dumps({"AND2": 3}))
    unused_zero = [tmp_path / f"zero{i}.json" for i in range(2)]  # strong_and2 has no AND2
    for path, table in zip(unused_zero, ({"AND2": 0}, {"*": 0, "C2": 1, "OR2": 1, "INV": 1})):
        path.write_text(json.dumps(table))
    bad_value = tmp_path / "value.json"
    bad_value.write_text(json.dumps({"AND2": [1]}))
    list_weights = tmp_path / "list.json"
    list_weights.write_text(json.dumps([1.0, 2.0]))
    null_weights = tmp_path / "null.json"
    null_weights.write_text(json.dumps({"C2": None}))
    fraction_delays = tmp_path / "fraction.json"
    fraction_delays.write_text(json.dumps({"AND2": 2.7, "C2": 1}))
    bool_delays = tmp_path / "bool.json"
    bool_delays.write_text(json.dumps({"C2": True}))
    float_delays = [tmp_path / f"float{i}.json" for i in range(2)]  # whole, but not integers
    for path, value in zip(float_delays, (1e300, 2.0)):
        path.write_text(json.dumps({"C2": value}))
    nan_weights = tmp_path / "nan.json"
    nan_weights.write_text(json.dumps({"AND2": float("nan")}))
    negative_weights = tmp_path / "negative.json"
    negative_weights.write_text(json.dumps({"C2": -3}))
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("component = nosuch\n")
    good_delays = tmp_path / "delays.json"  # read by perkind, ignored by the rest
    good_delays.write_text(json.dumps({"AND2": 2}))
    low_config = tmp_path / "low.cfg"
    low_config.write_text("delay_low = 5\n")
    and2 = tmp_path / "and.json"  # an RTZ netlist cannot reset under RTO
    assert run_inproc("export", "--component", "strong_and2", "--out", str(and2)) == 0
    mult2 = json.loads(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTZ))))
    bad_meta = []  # oracle metadata of the wrong JSON type or width, or metadata no object
    pairs = [list(item) for item in mult2["meta"].items()]  # dict() would read it as the meta
    nested = json.loads("[" * 400 + "]" * 400)  # loadable, and echoed only in part
    for i, (base, meta) in enumerate([*((mult2, {"n": n})
                                        for n in ([2], {"a": 1}, "2", 2.0, True, -1, nested)),
                                      (mult2, pairs), (mult2, None), (mult2, nested),
                                      *((json.loads(and2.read_text()), {"component": c})
                                        for c in ([1], nested))]):
        bad_meta.append(tmp_path / f"meta{i}.json")
        bad_meta[-1].write_text(json.dumps({**base, "meta": meta}))
    const_out = tmp_path / "const_out.json"  # a constant on the output port Z
    and2_doc = json.loads(and2.read_text())
    const_out.write_text(json.dumps({**and2_doc, "ports": [
        {**p, "const_value": 0} if p["name"] == "Z" else p for p in and2_doc["ports"]]}))
    mult2_path = tmp_path / "m2.json"
    mult2_path.write_text(json.dumps(mult2))
    deep = tmp_path / "deep.json"  # nested past any recursion limit: a usage error
    deep.write_text("[" * 100_000 + "]" * 100_000)
    latin = tmp_path / "latin.json"  # JSON text is UTF-8
    latin.write_bytes(b'{"\xff": 1}')
    deep_meta = tmp_path / "deep_meta.json"
    deep_meta.write_text(json.dumps({**mult2, "meta": 0}).replace(
        '"meta": 0', '"meta": ' + deep.read_text()))
    # an integer json cannot read, then long ones echoed in short, named
    # from the working directory so that each refusal line is its own length
    monkeypatch.chdir(tmp_path)
    long_ints = []
    for i, text in enumerate(long_integer_documents()):
        long_ints.append(f"long{i}.json")
        (tmp_path / long_ints[-1]).write_text(text)
    numeric_names = []  # a netlist or port name that is a number, not a string
    for i, doc in enumerate(({**mult2, "name": 5},
                             {**mult2, "ports": [{**mult2["ports"][0], "name": 7},
                                                 *mult2["ports"][1:]]})):
        numeric_names.append(tmp_path / f"name{i}.json")
        numeric_names[-1].write_text(json.dumps(doc))
    for argv in (["verify", "--netlist", str(bad_netlist)],
                 ["verify", "--n", "2", "--delay", "perkind", "--delay-table", str(bad_kind)],
                 ["verify", "--n", "2", "--delay", "pergate", "--delay-table", str(bad_gate)],
                 ["verify", "--n", "2", "--delay", "pergate", "--delay-table", str(kind_as_gate)],
                 *(["classify", "--component", "strong_and2", "--delay", "perkind",
                    "--delay-table", str(p)] for p in unused_zero),
                 ["verify", "--n", "2", "--delay", "perkind", "--delay-table", str(bad_value)],
                 ["build", "--n", "2", "--weights", str(list_weights)],
                 ["build", "--n", "2", "--weights", str(null_weights)],
                 ["verify", "--n", "2", "--delay", "perkind", "--delay-table", str(fraction_delays)],
                 ["verify", "--n", "2", "--delay", "perkind", "--delay-table", str(bool_delays)],
                 *(["verify", "--n", "2", "--delay", "perkind", "--delay-table", str(p)]
                   for p in float_delays),
                 ["bench", "--n", "2", "--weights", str(nan_weights)],
                 ["build", "--n", "2", "--weights", str(negative_weights)],
                 *(["verify", "--netlist", str(p)] for p in numeric_names),
                 ["classify", "--config", str(bad_config)],
                 ["fuzz", "--n", "2", "--transactions", "0"],
                 ["verify", "--netlist", str(and2), "--protocol", "rto"],
                 ["classify", "--netlist", str(and2), "--protocol", "rto"],
                 ["fuzz", "--netlist", str(and2), "--protocol", "rto", "--trials", "3"],
                 *([cmd, "--netlist", str(const_out)] for cmd in ("verify", "classify", "fuzz")),
                 ["bench", "--n", "2", "--weights", str(bad_kind)],
                 ["classify", "--n", "9"],
                 *(["verify", "--netlist", str(p)] for p in bad_meta[:-2]),
                 *(["fuzz", "--netlist", str(p), "--trials", "3"] for p in bad_meta[-2:]),
                 ["fuzz", "--netlist", str(bad_meta[5]), "--trials", "3"],  # meta.n of -1
                 *(["verify", "--netlist", name] for name in long_ints),
                 # options the command does not read
                 *([cmd, "--n", "2", "--trace", str(tmp_path / "t.csv")]
                   for cmd in ("classify", "fuzz", "scale", "bench")),
                 ["verify", "--n", "2", "--dot", str(tmp_path / "m.dot")],
                 ["fuzz", "--n", "2", "--delay", "pergate"],
                 ["verify", "--n", "2", "--weights", str(nan_weights)],
                 ["classify", "--component", "weak_fa", "--weights", str(nan_weights),
                  "--delay-table", str(bad_kind)],
                 *([cmd, "--n", "2", "--delay-table", str(bad_kind)]
                   for cmd in ("build", "export", "fuzz")),
                 *([cmd, "--netlist", str(and2)] for cmd in ("bench", "scale")),
                 # delay options the chosen delay model does not read
                 *(["verify", "--n", "2", *delay, "--delay-table", str(good_delays)]
                   for delay in ([], ["--delay", "random"])),
                 ["verify", "--n", "2", "--delay-low", "5"],
                 ["verify", "--n", "2", "--config", str(low_config)],
                 ["scale", "--n", "2", "--delay-high", "9"],
                 *([cmd, "--component", "strong_and2"] for cmd in ("bench", "scale")),
                 ["build", "--n", "2", "--delay", "pergate"],
                 ["build", "--n", "2", "--seed", "5"],
                 ["build", "--n", "2", "--trials", "3"],
                 ["export", "--n", "2", "--transactions", "3"],
                 ["fuzz", "--n", "2", "--trials", "1", "--delay", "unit"],
                 ["bench", "--n", "2", "--protocol", "rto"],
                 *([cmd, "--n", "2", "--fa", "dims_fa"] for cmd in ("bench", "scale")),
                 # options that pick another circuit than the one given
                 ["verify", "--netlist", str(mult2_path), "--n", "3", "--fa", "dims_fa"],
                 ["classify", "--component", "strong_and2", "--n", "5", "--fa", "dims_fa"],
                 ["verify", "--netlist", str(mult2_path), "--component", "weak_fa"],
                 *(["verify", "--netlist", str(p)] for p in (deep, deep_meta)),
                 ["verify", "--n", "2", "--delay", "perkind", "--delay-table", str(deep)],
                 ["bench", "--n", "2", "--weights", str(deep)],
                 ["verify", "--netlist", str(latin)],
                 ["verify", "--n", "2", "--delay", "perkind", "--delay-table", str(latin)]):
        with pytest.raises(SystemExit) as exc:
            run_inproc(*argv)
        assert exc.value.code == 2
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "m.dot").exists()
    err = capsys.readouterr().err
    assert "pergate delay table key 'AND2' is not a gate id" in err
    assert err.count(f"error: {const_out}: output port Z carries a constant\n") == 3
    assert sum(f"error: {p}: meta must be an object, got " in err for p in bad_meta) == 3
    # a saved meta.n of -1, under verify and fuzz
    assert err.count(f"error: {bad_meta[5]}: meta.n: width must be >= 1, got -1\n") == 2
    assert err.count(f"error: {long_ints[0]}: not valid JSON: an integer has more than "
                     "4300 digits\n") == 1
    long_lines = [line for line in err.splitlines()
                  if any(f"error: {name}: " in line for name in long_ints)]
    assert len(long_lines) == len(long_ints) and all(len(line) < 200 for line in long_lines)
    assert err.count(f"error: {deep_meta}: not valid JSON: maximum recursion depth exceeded") == 1
    assert err.count(f"error: {deep}: not valid JSON: maximum recursion depth exceeded") == 3
    assert err.count(f"error: {latin}: not valid JSON: 'utf-8' codec can't decode") == 2
    # meta.n, meta and meta.component nested 400 deep each end in one short line
    shown = [line for line in err.splitlines() if line.endswith("got [[[[[[[...]]]]]]]")]
    assert len(shown) == 3 and all(len(line) < 200 for line in shown)


def _verify_report(tmp_path, *argv):
    """The JSON report of a 2x2 ``verify`` run with ``argv``."""
    out = tmp_path / "verify.json"
    assert run_inproc("verify", "--n", "2", *argv, "--out", str(out)) == 0
    return json.loads(out.read_text())


def _library_cycle(delays):
    mult = array_multiplier(MultiplierSpec(2, Protocol.RTZ))
    report = exhaustive_verify(mult, Protocol.RTZ, product_oracle(2), delays)
    return worst_case(report.metrics).cycle_time


def test_a_delay_table_is_judged_by_the_library(tmp_path):
    """The CLI hands a delay table to ``TableDelay`` as read: a JSON integer
    too large for a float is still an int of at least 1, and runs."""
    table = tmp_path / "huge.json"
    table.write_text(json.dumps({"C2": 10**400}))
    report = _verify_report(tmp_path, "--delay", "perkind", "--delay-table", str(table))
    assert report["passed"] == 16
    assert report["max_cycle_time"] == _library_cycle(TableDelay({"C2": 10**400})) > 10**400


def test_a_pergate_key_is_the_decimal_form_of_a_gate_id(tmp_path, capsys):
    """Only a gate id's own decimal digits name it: no sign, padding,
    underscore, leading zero or non-ASCII digit, so two keys cannot name
    one gate."""
    table = tmp_path / "pergate.json"
    for keys in (["1_0"], [" 3 "], ["+3"], ["03"], ["\u0663"], ["-1"], ["3", "03"]):
        table.write_text(json.dumps({key: 5 for key in keys}))
        with pytest.raises(SystemExit) as exc:
            run_inproc("verify", "--n", "2", "--delay", "pergate", "--delay-table", str(table))
        assert exc.value.code == 2
        assert f"pergate delay table key {keys[-1]!r} is not a gate id" in capsys.readouterr().err
    table.write_text(json.dumps({"3": 5, "10": 7, "0": 2}))
    report = _verify_report(tmp_path, "--delay", "pergate", "--delay-table", str(table))
    assert report["max_cycle_time"] == _library_cycle(TableDelay({3: 5, 10: 7, 0: 2}))
    assert report["max_cycle_time"] != _verify_report(tmp_path)["max_cycle_time"]


def test_verify_with_random_delays_draws_them_from_the_seed(tmp_path):
    report = _verify_report(tmp_path, "--delay", "random", "--seed", "3")
    assert report["passed"] == 16
    assert report["max_cycle_time"] == _library_cycle(RandomUniformDelay(1, 16, 3))
    assert report["max_cycle_time"] != _verify_report(tmp_path)["max_cycle_time"]


def test_a_netlist_without_an_oracle_exits_2(tmp_path, capsys):
    """Neither ``n`` nor a known ``component`` in its metadata: verify and
    fuzz have nothing to judge the outputs by."""
    doc = json.loads(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTZ))))
    for i, meta in enumerate(({}, {"component": "nosuch"})):
        path = tmp_path / f"anon{i}.json"
        path.write_text(json.dumps({**doc, "meta": meta}))
        for command in ("verify", "fuzz"):
            with pytest.raises(SystemExit) as exc:
                run_inproc(command, "--netlist", str(path))
            assert exc.value.code == 2
            assert "no reference oracle for netlist 'mult2x2_weak_fa_rtz'" \
                in capsys.readouterr().err


def test_a_negative_seed_exits_2(tmp_path, capsys):
    """A negative seed would draw what its positive twin draws; every
    command that draws from it refuses it before writing anything."""
    out = tmp_path / "r.json"
    for argv, message in ((["fuzz", "--n", "2", "--trials", "1"], "seed must be >= 0, got -5"),
                          (["scale", "--n", "2"], "seed must be >= 0, got -5"),
                          (["verify", "--n", "2", "--delay", "random"],
                           "delay seed must be >= 0, got -5")):
        with pytest.raises(SystemExit) as exc:
            run_inproc(*argv, "--seed", "-5", "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.endswith(f"qdilab {argv[0]}: error: {message}\n")
        assert not out.exists()


def test_an_ignored_option_names_the_commands_that_read_it(tmp_path, capsys):
    """One error line names the commands (or delay models) that read the
    option, and nothing is written, whether it came as a flag or a config
    line."""
    saved = tmp_path / "m.json"
    saved.write_text(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTZ))))
    seeded = tmp_path / "seed.cfg"
    seeded.write_text("seed = 7\n")
    out = tmp_path / "r.json"
    seed_ignored = ("--seed is read only by scale, fuzz and by --delay random; "
                    "{} --delay unit would ignore it")
    for argv, message in ((["bench", "--component", "strong_and2"],
                           "--component is read only by build, export, verify, classify, "
                           "fuzz; bench would ignore it"),
                          (["fuzz", "--trace", "t.csv"],
                           "--trace is read only by verify; fuzz would ignore it"),
                          (["build", "--delay-table", "d.json"],
                           "--delay-table is read only by verify, bench, scale, classify; "
                           "build would ignore it"),
                          (["fuzz", "--delay", "random"],
                           "--delay is read only by verify, bench, scale, classify; "
                           "fuzz would ignore it"),
                          (["verify", "--delay-low", "5"],
                           "--delay-low is read only by fuzz and by --delay random; "
                           "verify --delay unit would ignore it"),
                          (["classify", "--component", "weak_fa", "--n", "3"],
                           "--n picks the circuit too; classify --component would ignore it"),
                          (["verify", "--n", "2", "--seed", "-5"], seed_ignored.format("verify")),
                          (["bench", "--n", "2", "--seed", "9"], seed_ignored.format("bench")),
                          (["classify", "--component", "weak_fa", "--seed", "9"],
                           seed_ignored.format("classify")),
                          (["classify", "--component", "weak_fa", "--config", str(seeded)],
                           seed_ignored.format("classify")),
                          (["verify", "--n", "2", "--delay", "perkind", "--seed", "9"],
                           "--seed is read only by scale, fuzz and by --delay random; "
                           "verify --delay perkind would ignore it"),
                          (["build", "--n", "2", "--seed", "9"],
                           "--seed is read only by verify, bench, scale, classify, fuzz; "
                           "build would ignore it"),
                          *(([cmd, "--netlist", str(saved), "--protocol", protocol],
                             f"--protocol picks the circuit too; {cmd} --netlist would ignore it")
                            for cmd in ("build", "export") for protocol in ("rtz", "rto"))):
        with pytest.raises(SystemExit) as exc:
            run_inproc(*argv, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.endswith(f"qdilab {argv[0]}: error: {message}\n"), argv
        assert not out.exists()


def test_an_option_read_at_any_delay_or_beside_a_saved_netlist_runs(tmp_path):
    """``scale`` and ``fuzz`` read --seed at every delay, a --delay reader
    reads it under --delay random, and a simulating command reads --protocol
    beside a saved netlist, as the protocol to run it under."""
    saved = tmp_path / "m.json"
    saved.write_text(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTZ))))
    for argv in (["scale", "--n", "2", "--seed", "5"],
                 ["fuzz", "--n", "2", "--trials", "1", "--seed", "5"],
                 ["verify", "--n", "2", "--delay", "random", "--seed", "5"],
                 ["verify", "--netlist", str(saved), "--protocol", "rtz"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_inproc(*argv) == 0, argv


def _sabotaged_doc():
    doc = json.loads(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTZ))))
    for port in doc["ports"]:
        if port["name"] == "P0":  # swap the rails: P0 now reads inverted
            port["rail1"], port["rail0"] = port["rail0"], port["rail1"]
    return doc


def _orphan_and2():
    b = NetlistBuilder("and2_orphan", {"component": "strong_and2"})
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    z1, z0 = emit_strong_and2(b, Protocol.RTZ, x.rails, y.rails)
    b.add_gate(GateKind.OR2, (x.rail1, y.rail1))  # dead-end branch
    b.add_output_port("Z", z1, z0)
    return b.build()


def test_port_names_must_match_the_oracle(tmp_path):
    """A saved multiplier whose ports the product oracle cannot read, or
    whose outputs it does not give, exits 2 instead of raising."""
    doc = json.loads(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTZ))))
    for old, new, message in (("A1", "A0", "port name 'A0' is used twice"),
                              ("A1", "Q1", "has no input 'A1' for its oracle"),
                              ("P0", "R0", "its oracle gives")):
        renamed = json.loads(json.dumps(doc))
        for port in renamed["ports"]:
            if port["name"] == old:
                port["name"] = new
        path = tmp_path / f"{new}.json"
        path.write_text(json.dumps(renamed))
        for command in ("verify", "fuzz"):
            err = io.StringIO()
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
                run_inproc(command, "--netlist", str(path),
                           *(["--trials", "1"] if command == "fuzz" else []))
            assert exc.value.code == 2
            assert message in err.getvalue()


def test_verify_detects_sabotaged_netlist(tmp_path):
    path = tmp_path / "sabotaged.json"
    path.write_text(json.dumps(_sabotaged_doc()))
    assert run_inproc("verify", "--netlist", str(path)) == 1


def test_fuzz_flags_unacknowledged_branch(tmp_path):
    path = tmp_path / "orphan.json"
    path.write_text(to_json(_orphan_and2()))
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
    cfg.write_text("protocol = rto\nseed = 9  # trailing comment\n")
    values = load_config_file(str(cfg))
    assert values == {"protocol": "rto", "seed": 9}
    # a '#' starts a comment only at the start of a line or after whitespace
    hashed = tmp_path / "hashed.cfg"
    out = tmp_path / "r#1.json"
    hashed.write_text(f"# a comment\nn = 2\nout = {out}\n\t# another\n")
    assert load_config_file(str(hashed)) == {"n": 2, "out": str(out)}
    assert run_inproc("verify", "--config", str(hashed)) == 0
    assert json.loads(out.read_text())["config"]["out"] == str(out)
    assert not (tmp_path / "r").exists()
    out_a = tmp_path / "a.json"
    # classify reads the seed under random delays only
    assert run_inproc("classify", "--component", "weak_fa", "--delay", "random", "--config",
                      str(cfg), "--out", str(out_a)) == 0
    assert json.loads(out_a.read_text())["protocol"] == "rto"
    out_b = tmp_path / "b.json"
    assert run_inproc("classify", "--component", "weak_fa", "--delay", "random", "--config",
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
    bad.write_text("# operand width\nn = four\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:2: n must be an integer, "
                                         "got 'four'$"):
        load_config_file(str(bad))
    bad.write_text("n = 3\nn = 2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:2: key 'n' is given twice$"):
        load_config_file(str(bad))


def test_config_echo_covers_every_field(tmp_path):
    out = tmp_path / "r.json"
    assert run_inproc("verify", "--n", "2", "--out", str(out)) == 0
    echoed = json.loads(out.read_text())["config"]
    assert set(echoed) == {f for f in CliConfig.__dataclass_fields__}


# ---------------------------------------------------------------------------
# artifacts

def test_build_prints_block_counts_only_from_complete_metadata(tmp_path, capsys):
    """A saved multiplier whose metadata lost one block count builds, and
    its summary leaves the block line out."""
    doc = json.loads(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTZ))))
    del doc["meta"]["const_carries"]
    saved = tmp_path / "m.json"
    saved.write_text(json.dumps(doc))
    assert run_inproc("build", "--netlist", str(saved)) == 0
    assert "blocks:" not in capsys.readouterr().out
    assert run_inproc("build", "--n", "2") == 0
    assert "  blocks: 4 AND, 2 FA, 2 constant carries\n" in capsys.readouterr().out


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


def test_a_verify_that_exits_2_leaves_an_existing_trace_alone(tmp_path):
    """Usage errors found before the first vector write no trace: a delay
    table the model needs, and an RTZ netlist that cannot reset under RTO."""
    trace = tmp_path / "t.csv"
    saved = tmp_path / "and.json"
    assert run_inproc("export", "--component", "strong_and2", "--out", str(saved)) == 0
    trace.write_text("time,net,value\n0,1,1\n")
    for argv in (["--n", "2", "--delay", "perkind"],
                 ["--netlist", str(saved), "--protocol", "rto"]):
        with pytest.raises(SystemExit) as exc:
            run_inproc("verify", *argv, "--trace", str(trace))
        assert exc.value.code == 2
        assert trace.read_text() == "time,net,value\n0,1,1\n"


def test_every_file_a_run_writes_is_judged_before_it_runs(tmp_path, capsys):
    """A run exits 2, printing and writing nothing, when a file it would
    write is a directory (bench's JSON beside its CSV included) or when two
    of its outputs are one file, by name or through a link; a saved
    netlist read and rewritten in place still runs."""
    (tmp_path / "r.json").mkdir()
    (tmp_path / "link").symlink_to(tmp_path)
    saved = tmp_path / "m.json"
    assert run_inproc("build", "--n", "2", "--out", str(saved)) == 0
    capsys.readouterr()
    same, linked, a = (str(tmp_path / name) for name in ("same.txt", "link/same.txt", "a.json"))
    for argv, message in (
            (["bench", "--out", str(tmp_path / "r.csv")],
             f"output {str(tmp_path / 'r.json')!r} is not a file in an existing directory"),
            (["verify", "--out", same, "--trace", same], f"two outputs name one file, {same!r}"),
            (["verify", "--out", same, "--trace", linked],
             f"two outputs name one file, {linked!r}"),
            (["build", "--out", a, "--dot", a], f"two outputs name one file, {a!r}")):
        before = {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(SystemExit) as exc:
            run_inproc(*argv, "--n", "2")
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"qdilab {argv[0]}: error: {message}\n"), argv
        assert {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()} == before
    text = saved.read_text()
    assert run_inproc("export", "--netlist", str(saved), "--out", str(saved)) == 0
    assert saved.read_text() == text


def test_a_saved_netlist_runs_under_the_protocol_it_was_built_for(tmp_path, capsys):
    """A saved RTO multiplier runs with ``--protocol rto``; without it each
    simulating command exits 2 with one error line naming the design."""
    saved = tmp_path / "m_rto.json"
    assert run_inproc("build", "--n", "2", "--protocol", "rto", "--out", str(saved)) == 0
    assert run_inproc("verify", "--netlist", str(saved), "--protocol", "rto") == 0
    capsys.readouterr()
    for argv in (["verify"], ["classify"], ["fuzz", "--trials", "3"]):
        with pytest.raises(SystemExit) as exc:
            run_inproc(*argv, "--netlist", str(saved))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.endswith(f"qdilab {argv[0]}: error: design 'mult2x2_weak_fa_rto' is not "
                            "built for rtz: input ports ['A0', 'A1', 'B0', 'B1', 'CC0', 'CC1'] do not rest "
                            "at its spacer level 0\n")


def test_bench_writes_csv_and_json(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_inproc("bench", "--n", "2", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("design,protocol,")
    assert len(lines) == 5
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert len(doc["rows"]) == 4
    assert doc["config"]["n"] == 2


def test_scale_prints_the_latency_table(tmp_path, capsys):
    """Widths 2..4 under RTO; the 4x4 rows come from a seeded sample (at seed
    42 the weak adder's cycle reads 58, at seed 7 it reads 54)."""
    out = tmp_path / "scale.json"
    assert run_inproc("scale", "--n", "4", "--protocol", "rto", "--seed", "7",
                      "--out", str(out)) == 0
    assert capsys.readouterr().out == (
        "design                  gates  fwd  rev  cycle\n"
        "mult2x2_dims_fa_rto        72   11   11     22\n"
        "mult2x2_weak_fa_rto        70   11   11     22\n"
        "mult3x3_dims_fa_rto       198   21   21     42\n"
        "mult3x3_weak_fa_rto       192   20   20     40\n"
        "mult4x4_dims_fa_rto       384   31   31     62\n"
        "mult4x4_weak_fa_rto       372   27   27     54\n")
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 7
    assert [(r["design"], r["gates"], r["cycle_time"]) for r in doc["rows"]][-1] == (
        "mult4x4_weak_fa_rto", 372, 54)


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


# ---------------------------------------------------------------------------
# pinned outputs: SHA-256 digests of every report file, stdout and exit code,
# recorded before the experiment scripts were folded into the CLI, so a
# refactor of the front end that moves one byte shows here.  The temporary
# directory is replaced by a fixed placeholder first, because reports echo
# their output paths.

PIN_INPUTS = {
    "kinds.json": {"*": 2, "C2": 3, "OR2": 1},
    "ids.json": {"*": 1, "0": 4, "5": 3, "17": 2},
    "weights.json": {"AND2": 1.0, "C2": 2.5, "INV": 0.5, "OR2": 1.25},
}

PIN_RUNS = {
    "verify_trace": ["verify", "--n", "3", "--trace", "{d}/t.csv", "--out", "{d}/r.json"],
    "verify_perkind": ["verify", "--n", "3", "--fa", "dims_fa", "--delay", "perkind",
                       "--delay-table", "{i}/kinds.json", "--out", "{d}/r.json"],
    "verify_pergate": ["verify", "--n", "3", "--protocol", "rto", "--delay", "pergate",
                       "--delay-table", "{i}/ids.json", "--out", "{d}/r.json"],
    "bench": ["bench", "--n", "3", "--weights", "{i}/weights.json", "--out", "{d}/b.csv"],
    "classify_weak_rto": ["classify", "--component", "weak_fa", "--protocol", "rto",
                          "--out", "{d}/r.json"],
    "classify_dims": ["classify", "--component", "dims_fa", "--out", "{d}/r.json"],
    "fuzz": ["fuzz", "--n", "2", "--trials", "30", "--out", "{d}/r.json"],
    "build": ["build", "--n", "3", "--weights", "{i}/weights.json",
              "--out", "{d}/m.json", "--dot", "{d}/m.dot"],
    "export_stdout": ["export", "--component", "rca2_weak"],
    "export_files": ["export", "--n", "2", "--out", "{d}/m.json", "--dot", "{d}/m.dot"],
    "verify_sabotaged": ["verify", "--netlist", "{i}/sabotaged.json", "--out", "{d}/r.json"],
    "fuzz_orphan": ["fuzz", "--netlist", "{i}/orphan.json", "--trials", "40",
                    "--out", "{d}/r.json"],
}

PINNED_OUTPUTS = {
    "bench": {"exit": 0, "stdout": "9c2aa4b9bb3f456c", "b.csv": "681e694394ef8393", "b.json": "9e9280a081e6e36e"},
    "build": {"exit": 0, "stdout": "b3259b1155c452e5", "m.dot": "9242268d35ca626f", "m.json": "e44433ffab685a13"},
    "classify_dims": {"exit": 0, "stdout": "b01b6fd0ef923d6d", "r.json": "16ce2a7c0d22158e"},
    "classify_weak_rto": {"exit": 0, "stdout": "b262ef73e631d279", "r.json": "5ce0f28f89d1b76a"},
    "export_files": {"exit": 0, "stdout": "139f9ede363bde12", "m.dot": "6da7904679036465", "m.json": "23ae3d24cda6075b"},
    "export_stdout": {"exit": 0, "stdout": "bba9325d1f3870f2"},
    "fuzz": {"exit": 0, "stdout": "2ccccb19ee64589d", "r.json": "562f2a58f91c15ab"},
    "fuzz_orphan": {"exit": 1, "stdout": "b4e3836d9bf1df21", "r.json": "1b061772f21f0af4"},
    "verify_pergate": {"exit": 0, "stdout": "8b58e0a58f75a0e0", "r.json": "b666c3d0e30617f4"},
    "verify_perkind": {"exit": 0, "stdout": "5336f6c1974da06d", "r.json": "2fceccc64bef445f"},
    "verify_sabotaged": {"exit": 1, "stdout": "9f64be2c04148098", "r.json": "caafdae3538bc7b3"},
    "verify_trace": {"exit": 0, "stdout": "88b8cc84179b6e6e", "r.json": "664e8b5ec1feeaff", "t.csv": "d70dba46d5db3306"},
}


def _pinned_run(tmp_path, case):
    inputs = tmp_path / "in"
    inputs.mkdir(exist_ok=True)
    for name, table in PIN_INPUTS.items():
        (inputs / name).write_text(json.dumps(table))
    (inputs / "sabotaged.json").write_text(json.dumps(_sabotaged_doc()))
    (inputs / "orphan.json").write_text(to_json(_orphan_and2()))
    out = tmp_path / case
    out.mkdir()
    argv = [a.format(d=out, i=inputs) for a in PIN_RUNS[case]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)

    def sha(text):
        text = text.replace(str(tmp_path), "<tmp>")
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    digests = {"exit": code, "stdout": sha(stdout.getvalue())}
    for path in sorted(out.iterdir()):
        digests[path.name] = sha(path.read_text())
    return digests


@pytest.mark.parametrize("case", sorted(PIN_RUNS))
def test_pinned_cli_outputs(tmp_path, case):
    assert _pinned_run(tmp_path, case) == PINNED_OUTPUTS[case]


# ---------------------------------------------------------------------------
# the CLI never tracebacks: any drawn command line exits 0, 1 or 2, and on 2
# it names its error last and writes nothing

_SAVED = {  # saved netlists: the RTO multiplier runs without its --protocol too, the
    # sabotaged multiplier fails verify, and the orphan AND fails fuzz
    "m_rto.json": json.loads(to_json(array_multiplier(MultiplierSpec(2, Protocol.RTO)))),
    "and.json": json.loads(to_json(strong_and2(Protocol.RTZ))),
    "sabotaged.json": _sabotaged_doc(), "orphan.json": json.loads(to_json(_orphan_and2())),
}
_TABLES = {  # delay tables and weights files, well formed or not
    "star.json": {"*": 3}, "kinds.json": {"*": 2, "C2": 3}, "ids.json": {"0": 4, "3": 2},
    "zero.json": {"AND2": 0}, "bools.json": {"C2": True}, "floats.json": {"OR2": 2.5},
    "weights.json": {"C2": 2.5},
    "nan.json": {"AND2": float("nan")}, "unknown.json": {"AND": 1}, "list.json": [1, 2],
    "huge.json": {"C2": 10**400}, "negative.json": {"INV": -1},
}
_INPUTS = {"junk.txt": "{not json", **{name: json.dumps(doc) for name, doc in
                                        {**_SAVED, **_TABLES}.items()}}
_BAD_FILES = ("missing.json", "junk.txt", "list.json")
# each option's values as a user types them: (well formed, malformed); the
# sizes stay small, and a 3x3 multiplier is too wide to classify quickly
# (46,080 scenarios against 384 at 2x2)
_VALUES = {
    **{key: (choices, ("nosuch",)) for key, choices in CHOICES.items()},
    "n": (("2", "3"), ("1", "x")), "seed": (("0", "7"), ("-3", "x")),
    "trials": (("1", "3"), ("0", "x")), "transactions": (("1", "3"), ("-1",)),
    "delay_low": (("1", "3"), ("0",)), "delay_high": (("2", "16"), ("0", "x")),
    "delay_table": (("star.json",),
                    ("zero.json", "bools.json", "floats.json", "unknown.json", *_BAD_FILES)),
    "weights": (("weights.json",), ("kinds.json", "huge.json", "nan.json", *_BAD_FILES)),
    "netlist": ((*_SAVED, "mutated.json"), _BAD_FILES),
    # "" names the run's directory itself
    "out": (("out.json", "out.csv"), ("nodir/out.json", "")),
    "dot": (("m.dot",), ("nodir/m.dot", "")), "trace": (("t.csv",), ("nodir/t.csv", "")),
}
_TABLE_FOR = {"perkind": ("star.json", "kinds.json", "huge.json"),
              "pergate": ("star.json", "ids.json")}
_PATHS = {"delay_table", "weights", "netlist", "out", "dot", "trace"}
_TARGETS = ("n", "fa", "component", "netlist")
_COMMANDS = ("build", "verify", "bench", "scale", "classify", "fuzz", "export")


@st.composite
def command_lines(draw):
    """A command and its options, some of them in a config file: mostly
    options the command reads, with well-formed values, one circuit, and
    every so often a malformed value, an ignored option or a junk config
    line.  A multiplier gets its width and fuzz its counts every time, so no
    default can make a run big."""
    def rarely():
        return draw(st.integers(0, 7)) == 0

    def give(key, good=None):
        """Give ``key`` a value, as a flag or a config line."""
        good, bad = good or _VALUES[key][0], _VALUES[key][1]
        if key == "n" and command == "classify":
            good = ("2",)
        options[key] = draw(st.sampled_from(bad if rarely() else good)), draw(st.booleans())

    command = draw(st.sampled_from(_COMMANDS))
    options: dict = {}
    target = draw(st.sampled_from([key for key in ("n", "component", "netlist")
                                   if key in READS[command]]))
    give(target)
    # what the command reads beside its circuit, whatever the delay model
    reads = [key for key in _VALUES if key in run_reads(command, "unit", {target})]
    for key in reads:
        if key not in _TARGETS and draw(st.integers(0, 2)) == 0:
            give(key)
    # the delay options that --delay picks are drawn with it
    delay = options.get("delay", ("unit",))[0]
    for key in MODEL_READS.get(delay, ()) if "delay" in reads else ():
        if key not in reads and not rarely():
            give(key, _TABLE_FOR.get(delay))
    if "fa" in reads and target == "n" and draw(st.booleans()):
        give("fa")
    if command == "fuzz":
        give("trials")
        give("transactions")
    if rarely():  # an option the command ignores, or a second circuit
        give(draw(st.sampled_from(sorted(_VALUES))))
    junk = draw(st.lists(st.sampled_from(["nosuch = 1", "no equals sign", "n = x"]),
                         max_size=1)) if rarely() else []
    mutated = json.loads(json.dumps(_SAVED[draw(st.sampled_from(sorted(_SAVED)))]))
    for _ in range(draw(st.integers(0, 2))):
        _mutate(SimpleNamespace(draw=draw), mutated)
    existing = draw(st.lists(st.sampled_from(["out.json", "out.csv", "m.dot", "t.csv"])))
    return command, options, junk, mutated, existing


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_the_cli_never_tracebacks(case):
    command, options, junk, mutated, existing = case
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        for name, text in _INPUTS.items():
            (d / name).write_text(text)
        (d / "mutated.json").write_text(json.dumps(mutated))
        for name in existing:
            (d / name).write_text("kept\n")
        argv, config = [command], list(junk)
        for key, (value, in_config) in options.items():
            value = str(d / value) if key in _PATHS else value
            if in_config:
                config.append(f"{key} = {value}")
            else:
                argv += [f"--{key.replace('_', '-')}", value]
        if config:
            (d / "run.cfg").write_text("\n".join(config) + "\n")
            argv += ["--config", str(d / "run.cfg")]
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        if code == 2:
            # every usage error, argparse's own or found later, names the command
            assert re.fullmatch(rf"qdilab {command}: error: .+", err.getvalue().splitlines()[-1])
            assert {p.name: p.read_bytes() for p in d.iterdir()} == before, argv
