"""Command-line front end.

Subcommands: build | verify | bench | scale | classify | fuzz | export.
Options can also come from a flat key=value config file (--config); explicit
flags win.  Reports are deterministic: the same config and seed always
produce the same bytes, so every JSON report embeds the effective
configuration and nothing time- or host-dependent.

Exit codes: 0 success, 1 verification/property failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import reprlib
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, TypeVar, get_type_hints

from .analysis import (BenchDesign, Indication, _check_exhaustible, bench_to_csv,
                       benchmark, classify_indication, exhaustive_verify,
                       measure_latencies, orphan_scan, worst_case)
from .components import COMPONENT_ORACLES, COMPONENTS, FA_VARIANTS
from .encoding import Protocol
from .multiplier import MultiplierSpec, array_multiplier, product_oracle
from .netlist import Netlist, NetlistError, check_int, check_weights, from_json, stats, to_dot, to_json
from .sim import InitializationError, RandomUniformDelay, TableDelay, UnitDelay

# the values each string option accepts, from flags and config files alike
CHOICES = {"protocol": ("rtz", "rto"), "fa": tuple(sorted(FA_VARIANTS)),
           "delay": ("unit", "perkind", "pergate", "random"),
           "component": tuple(sorted(COMPONENTS))}
# the widest multiplier built: about 29 * n**2 gates, 117,000 to 121,000 at 64
MAX_N = 64
# what each command reads whatever else is given, --config and --out aside
_CIRCUIT = ("netlist", "component", "n", "fa", "protocol")
READS = {"build": (*_CIRCUIT, "weights", "dot"), "export": (*_CIRCUIT, "dot"),
         "verify": (*_CIRCUIT, "delay", "trace"), "bench": ("n", "delay", "weights"),
         "scale": ("n", "protocol", "delay", "seed"), "classify": (*_CIRCUIT, "delay"),
         "fuzz": (*_CIRCUIT, "seed", "trials", "transactions", "delay_low", "delay_high")}
# what each --delay model adds for a command that reads --delay
MODEL_READS = {"unit": (), "perkind": ("delay_table",), "pergate": ("delay_table",),
               "random": ("seed", "delay_low", "delay_high")}


@dataclass(frozen=True)
class CliConfig:
    protocol: str = "rtz"
    n: int = 4
    fa: str = "weak_fa"
    delay: str = "unit"
    seed: int = 42
    trials: int = 1000
    transactions: int = 8
    delay_low: int = 1
    delay_high: int = 16
    delay_table: str | None = None
    weights: str | None = None
    component: str | None = None
    netlist: str | None = None
    out: str | None = None
    dot: str | None = None
    trace: str | None = None


_INT_KEYS = {k for k, t in get_type_hints(CliConfig).items() if t is int}


def load_config_file(path: str) -> dict:
    """Flat key=value lines; a '#' at a line's start or after whitespace starts a comment."""
    values: dict = {}
    known = {f.name for f in fields(CliConfig)}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key!r} is given twice")
        if key in _INT_KEYS:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be an integer, "
                                 f"got {value!r}") from None
        values[key] = value
    return values


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("configuration")
    g.add_argument("--config", metavar="FILE", help="key=value config file")
    g.add_argument("--n", type=int, help="multiplier operand width (default 4)")
    g.add_argument("--protocol", choices=CHOICES["protocol"])
    g.add_argument("--fa", choices=CHOICES["fa"], help="full-adder variant")
    g.add_argument("--delay", choices=CHOICES["delay"])
    g.add_argument("--seed", type=int)
    g.add_argument("--trials", type=int, help="fuzz trial count (default 1000)")
    g.add_argument("--transactions", type=int, help="transactions per fuzz trial")
    g.add_argument("--delay-low", type=int, dest="delay_low")
    g.add_argument("--delay-high", type=int, dest="delay_high")
    g.add_argument("--delay-table", dest="delay_table", metavar="FILE",
                   help="JSON delay table for perkind/pergate models")
    g.add_argument("--weights", metavar="FILE", help="JSON gate-kind area weights")
    g.add_argument("--component", choices=CHOICES["component"],
                   help="classify/verify a library block instead of a multiplier")
    g.add_argument("--netlist", metavar="FILE", help="operate on a saved netlist")
    g.add_argument("--out", metavar="FILE", help="write the report/artifact here")
    g.add_argument("--dot", metavar="FILE", help="write a Graphviz rendering")
    g.add_argument("--trace", metavar="FILE", help="write a time,net,value CSV trace")

    parser = argparse.ArgumentParser(
        prog="qdilab",
        description="build, simulate, and verify dual-rail indicating circuits")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[common], help="generate a multiplier netlist")
    sub.add_parser("verify", parents=[common], help="exhaustive functional check")
    sub.add_parser("bench", parents=[common], help="relative cycle/area/PCTP table")
    sub.add_parser("scale", parents=[common], help="latency growth over widths 2..n")
    sub.add_parser("classify", parents=[common], help="strong/weak/neither indication")
    sub.add_parser("fuzz", parents=[common], help="randomized orphan scan")
    sub.add_parser("export", parents=[common], help="re-emit a netlist as JSON/DOT")
    for command_parser in sub.choices.values():
        command_parser.set_defaults(parser=command_parser)
    return parser


def run_reads(command: str, delay: str, given) -> set[str]:
    """What ``command`` under ``--delay delay`` reads beside the ``given``
    options: a saved netlist hides the other circuit picks, and the protocol of
    build and export, which only generate; a library block hides --n and --fa."""
    reads = {"out", *READS[command], *(MODEL_READS[delay] if "delay" in READS[command] else ())}
    if "netlist" in given & reads:
        reads -= {"component", "n", "fa", *(["protocol"] if command in ("build", "export") else [])}
    elif "component" in given & reads:
        reads -= {"n", "fa"}
    return reads


def _ignored(key: str, command: str, delay: str, given) -> str:
    """The usage error of a run of ``command`` given ``key``, which it does not read."""
    flag = f"--{key.replace('_', '-')}"
    if key in run_reads(command, delay, set()):  # a circuit pick hides it
        pick = "netlist" if "netlist" in given else "component"
        return f"{flag} picks the circuit too; {command} --{pick} would ignore it"
    always = [c for c, keys in READS.items() if key in keys]
    models = [m for m, keys in MODEL_READS.items() if key in keys]
    if models and "delay" in READS[command]:  # the delay model is what ignores it
        readers = " and by ".join(filter(None, (", ".join(always),
                                                f"--delay {' and '.join(models)}")))
        return f"{flag} is read only by {readers}; {command} --delay {delay} would ignore it"
    readers = [c for c, keys in READS.items() if c in always or models and "delay" in keys]
    return f"{flag} is read only by {', '.join(readers)}; {command} would ignore it"


def merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CliConfig:
    config = CliConfig()
    from_file: dict = {}
    if args.config:
        try:
            from_file = load_config_file(args.config)
            config = replace(config, **from_file)
        except (OSError, ValueError, TypeError) as e:
            parser.error(str(e))
    overrides = {f.name: getattr(args, f.name) for f in fields(CliConfig)
                 if getattr(args, f.name, None) is not None}
    config = replace(config, **overrides)
    given = from_file.keys() | overrides.keys()  # a default is not given
    for key in ("trials", "transactions"):
        check_int(getattr(config, key), f"--{key}", 1)  # main reports the ValueError
    for key, allowed in CHOICES.items():
        value = getattr(config, key)
        if value is not None and value not in allowed:
            parser.error(f"unknown {key} {value!r}")
    MultiplierSpec(config.n, Protocol(config.protocol), config.fa)  # the one judge of --n
    if config.n > MAX_N:  # refuse before generating
        parser.error(f"--n must be <= {MAX_N}, got {config.n}")
    reads = run_reads(args.command, config.delay, given)
    for key in (f.name for f in fields(CliConfig) if f.name in given - reads):
        parser.error(_ignored(key, args.command, config.delay, given))
    written = output_paths(args.command, config)
    for i, path in enumerate(written):  # before any is written
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            parser.error(f"output {path!r} is not a file in an existing directory")
        if Path(path).resolve() in [Path(p).resolve() for p in written[:i]]:
            parser.error(f"two outputs name one file, {path!r}")
    return config


def output_paths(command: str, config: CliConfig) -> list[str]:
    """The files a run of ``command`` writes: bench a CSV and a JSON named
    after --out (a directory names no file, and is left as given), any
    other command each of --out, --dot and --trace given."""
    named = [p for p in (config.out, config.dot, config.trace) if p]
    if command != "bench" or not named or Path(named[0]).is_dir():
        return named
    csv_path = Path(named[0]).with_suffix(".csv")
    return [str(csv_path), str(csv_path.with_suffix(".json"))]


def delay_model(config: CliConfig):
    if config.delay == "unit":
        return UnitDelay()
    if config.delay == "random":
        return RandomUniformDelay(config.delay_low, config.delay_high, config.seed)
    if config.delay_table is None:
        raise ValueError(f"delay model {config.delay!r} needs --delay-table")
    table = _read_json(config.delay_table, _table)
    default = table.pop("*", 1)
    key = str if config.delay == "perkind" else _gate_id  # kind names or gate ids
    return TableDelay({key(k): v for k, v in table.items()}, default)


def _gate_id(key: str) -> int:
    """A pergate delay table key as the gate id whose own decimal form it is."""
    if key.isascii() and key.isdigit() and key == str(int(key)):
        return int(key)
    raise ValueError(f"pergate delay table key {key!r} is not a gate id")


def load_weights(config: CliConfig) -> dict[str, float] | None:
    return check_weights(_read_json(config.weights, _table)) if config.weights else None


T = TypeVar("T")


def _read_json(path: str, parse: Callable[[str], T]) -> T:
    """What ``parse`` makes of the JSON file at ``path``; a refusal of the
    file, a text that is not UTF-8 included, names it."""
    try:
        return parse(Path(path).read_text())
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not valid JSON: {e}") from None
    except (NetlistError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


def _table(text: str) -> dict:
    """The JSON object ``text`` holds; the library judges its values."""
    try:
        table = json.loads(text)
    except (ValueError, RecursionError) as e:  # the latter: nested too deeply
        raise ValueError(f"not valid JSON: {e}") from None
    if not isinstance(table, dict):
        raise ValueError("expected a JSON object")
    return table


def target_netlist(config: CliConfig) -> Netlist:
    """The circuit a command operates on: a saved file, a library block, or a
    freshly generated multiplier."""
    if config.netlist:
        return _read_json(config.netlist, from_json)
    protocol = Protocol(config.protocol)
    if config.component:
        return COMPONENTS[config.component](protocol)
    return array_multiplier(MultiplierSpec(config.n, protocol, config.fa))


def _oracle_for(netlist: Netlist):
    """The reference oracle named by the netlist's metadata, checked once
    against its port names: it must read only the netlist's inputs and give
    exactly its outputs."""
    n = netlist.metadata.get("n")
    component = netlist.metadata.get("component", "")
    if not isinstance(component, str):
        raise ValueError(f"netlist {netlist.name!r} metadata needs a string component, "
                         f"got {reprlib.repr(component)}")
    oracle = product_oracle(n) if n is not None else COMPONENT_ORACLES.get(component)
    if oracle is None:
        raise ValueError(f"no reference oracle for netlist {netlist.name!r}; "
                         "verify/fuzz need one to judge outputs")
    try:
        expected = oracle({p.name: 0 for p in netlist.input_ports})
    except KeyError as e:
        raise ValueError(f"netlist {netlist.name!r} has no input {e} for its oracle") from None
    outputs = sorted(p.name for p in netlist.output_ports)
    if sorted(expected) != outputs:
        raise ValueError(f"netlist {netlist.name!r} has outputs {outputs}, its oracle "
                         f"gives {sorted(expected)}")
    return oracle


def write_report(config: CliConfig, payload: dict, path: str | Path | None = None) -> None:
    """Write ``payload`` with the echoed config as JSON to ``path``, by
    default ``--out``; without either, write nothing."""
    path = path or config.out
    if path:
        payload = {"config": asdict(config), **payload}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_artifacts(config: CliConfig, netlist: Netlist, indent: str = "") -> bool:
    """Write the netlist's JSON to ``--out`` and its DOT rendering to
    ``--dot``; return whether either was given."""
    for path, render in ((config.out, to_json), (config.dot, to_dot)):
        if path:
            Path(path).write_text(render(netlist))
            print(f"{indent}wrote {path}")
    return bool(config.out or config.dot)


class _Tracer:
    """Tees committed events into a time,net,value CSV.  The file is created
    or truncated at the first mark, which comes before the first vector's
    transaction, so a run that stops before that leaves it as it was."""

    def __init__(self, path: str):
        self._path = path
        self._fh = None

    def mark(self, label: str) -> None:
        if self._fh is None:
            self._fh = open(self._path, "w")
            self._fh.write("time,net,value\n")
        self._fh.write(f"# {label}\n")

    def __call__(self, t: int, net: int, value: int) -> None:
        self._fh.write(f"{t},{net},{value}\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


# ---------------------------------------------------------------------------
# commands

def cmd_build(config: CliConfig) -> int:
    weights, netlist = load_weights(config), target_netlist(config)  # judge weights first
    st = stats(netlist, weights)
    meta = netlist.metadata
    print(f"built {netlist.name}: {st.total_gates} gates {st.counts}")
    if {"and_blocks", "fa_blocks", "const_carries"} <= meta.keys():
        print(f"  blocks: {meta['and_blocks']} AND, {meta['fa_blocks']} FA, "
              f"{meta['const_carries']} constant carries")
    _write_artifacts(config, netlist, "  ")
    return 0


def cmd_export(config: CliConfig) -> int:
    netlist = target_netlist(config)
    if not _write_artifacts(config, netlist):
        sys.stdout.write(to_json(netlist))
    return 0


def cmd_verify(config: CliConfig) -> int:
    if not (config.netlist or config.component):  # refuse before generating
        _check_exhaustible(2 * config.n, "exhaustive verification")
    netlist = target_netlist(config)
    protocol = Protocol(config.protocol)
    oracle = _oracle_for(netlist)
    tracer = _Tracer(config.trace) if config.trace else None
    mark = (lambda v: tracer.mark(f"vector {sorted(v.items())}")) if tracer else None
    try:
        report = exhaustive_verify(netlist, protocol, oracle, delay_model(config),
                                   trace=tracer, on_vector=mark)
    finally:
        if tracer:
            tracer.close()
    print(f"verify {report.design} [{report.protocol}]: "
          f"{report.passed}/{report.total} vectors passed")
    for f in report.failures[:10]:
        got = f.error if f.got is None else f.got
        print(f"  FAIL {f.vector}: expected {f.expected}, got {got}")
    payload = {
        "design": report.design, "protocol": report.protocol,
        "total": report.total, "passed": report.passed,
        "failures": [asdict(f) for f in report.failures],
    }
    if report.metrics:
        worst = worst_case(report.metrics)
        payload.update(max_forward_latency=worst.forward_latency,
                       max_reverse_latency=worst.reverse_latency,
                       max_cycle_time=worst.cycle_time)
    write_report(config, payload)
    return 0 if report.ok else 1


def _bench_designs(n: int) -> list[BenchDesign]:
    """Both multiplier variants at operand width ``n``."""
    return [BenchDesign(f"mult{n}x{n}_{fa}",
                        lambda p, fa=fa: array_multiplier(MultiplierSpec(n, p, fa)),
                        product_oracle(n))
            for fa in CHOICES["fa"]]


def cmd_bench(config: CliConfig) -> int:
    _check_exhaustible(2 * config.n, "exhaustive verification")
    designs = _bench_designs(config.n)
    rows = benchmark(designs, (Protocol.RTZ, Protocol.RTO),
                     delay_model(config), load_weights(config))
    header = f"{'design':<22} {'proto':<5} {'cycle':>5} {'area':>8} {'tr/cycle':>9} {'pctp':>6}"
    print(header)
    for r in rows:
        print(f"{r.design:<22} {r.protocol:<5} {r.cycle_units:>5} {r.area_proxy:>8.1f} "
              f"{r.transitions_per_cycle:>9.2f} {r.pctp_norm:>6.3f}")
    if config.out:
        csv_path, json_path = output_paths("bench", config)
        Path(csv_path).write_text(bench_to_csv(rows))
        write_report(config, {"rows": [asdict(r) for r in rows]}, json_path)
        print(f"wrote {csv_path} and {json_path}")
    return 0 if len(rows) == 2 * len(designs) else 1


def cmd_scale(config: CliConfig) -> int:
    """Worst latencies and gate counts of both multiplier variants at each
    width from 2 to ``--n``, sampled by ``measure_latencies``' own rule,
    ``analysis.SAMPLE_LIMIT``."""
    protocol = Protocol(config.protocol)
    delays = delay_model(config)
    rows = []
    print(f"{'design':<22} {'gates':>6} {'fwd':>4} {'rev':>4} {'cycle':>6}")
    for n in range(2, config.n + 1):
        for design in _bench_designs(n):
            netlist = design.builder(protocol)
            m = measure_latencies(netlist, protocol, delays, seed=config.seed)
            gates = len(netlist.gates)
            print(f"{netlist.name:<22} {gates:>6} {m.forward_latency:>4} "
                  f"{m.reverse_latency:>4} {m.cycle_time:>6}")
            rows.append({"design": netlist.name, "gates": gates, **asdict(m)})
    write_report(config, {"rows": rows})
    return 0


def cmd_classify(config: CliConfig) -> int:
    if not (config.netlist or config.component):  # refuse before generating
        _check_exhaustible(2 * config.n, "classification")
    netlist = target_netlist(config)
    protocol = Protocol(config.protocol)
    verdict = classify_indication(netlist, protocol, delay_model(config))
    print(f"classify {netlist.name} [{protocol.value}]: {verdict.verdict.value} "
          f"({verdict.mode} mode, {verdict.scenarios} scenarios)")
    w = verdict.witness
    if w:
        print(f"  witness [{w.kind}] {w.phase} phase, codeword {w.codeword}, "
              f"order {'>'.join(w.order)}: {w.detail}")
    write_report(config, {
        "design": netlist.name, "protocol": protocol.value,
        "verdict": verdict.verdict.value, "mode": verdict.mode,
        "scenarios": verdict.scenarios, "witness": asdict(w) if w else None,
    })
    return 0 if verdict.verdict is not Indication.NEITHER else 1


def cmd_fuzz(config: CliConfig) -> int:
    netlist = target_netlist(config)
    protocol = Protocol(config.protocol)
    oracle = _oracle_for(netlist)
    report = orphan_scan(netlist, protocol, oracle,
                         trials=config.trials, seed=config.seed,
                         transactions=config.transactions,
                         delay_low=config.delay_low, delay_high=config.delay_high)
    print(f"fuzz {report.design} [{report.protocol}]: {report.trials} trials x "
          f"{report.transactions} transactions, delays [{report.delay_low},"
          f"{report.delay_high}], seed {report.seed}: "
          f"{'clean' if report.ok else f'{len(report.violations)} violations'}")
    for v in report.violations[:10]:
        print(f"  VIOLATION trial {v.trial} tx {v.transaction} [{v.kind}]: {v.detail}")
    write_report(config, {**asdict(report), "ok": report.ok})
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    parser = args.parser  # the command's own, so every usage error names the command
    commands = {"build": cmd_build, "verify": cmd_verify, "bench": cmd_bench,
                "scale": cmd_scale, "classify": cmd_classify, "fuzz": cmd_fuzz,
                "export": cmd_export}
    try:
        return commands[args.command](merge_config(args, parser))
    except (NetlistError, InitializationError, ValueError, OSError) as e:
        parser.error(str(e))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
