"""The README's python session runs as written and prints what it says, its
library tour names only what exists, and its option tables agree with the CLI."""

import dataclasses
import importlib
import re
from pathlib import Path

import qdilab
from qdilab.cli import MODEL_READS, READS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_session_prints_the_product(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "{'P0': 1, 'P1': 1," in capsys.readouterr().out
    outputs = namespace["result"].outputs
    assert sum(bit << int(name[1:]) for name, bit in outputs.items()) == 13 * 11 == 143


def test_library_tour_names_only_what_exists():
    """Every identifier a library-tour row names in backticks (the part
    before any ``(``) resolves in that row's module or in ``qdilab``."""
    rows = re.findall(r"^\| `(qdilab\.\w+)` \|(.*)\|$", README.read_text(), re.M)
    assert rows
    for module_name, text in rows:
        module = importlib.import_module(module_name)
        for span in re.findall(r"`([^`]*)`", text):
            name = span.split("(")[0]
            if not re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", name):
                continue  # not an identifier: `emit_*`, `(kind, inputs, output)`
            head, *attrs = name.split(".")
            owner = getattr(module, head, None) or getattr(qdilab, head, None)
            assert owner is not None, f"{module_name} row names {name!r}"
            for attr in attrs:  # a dataclass field is no class attribute
                fields = [f.name for f in dataclasses.fields(owner)] \
                    if dataclasses.is_dataclass(owner) else []
                assert hasattr(owner, attr) or attr in fields, \
                    f"{module_name} row names {name!r}"
                owner = getattr(owner, attr, None)


def test_option_tables_name_the_commands_that_read_each_option():
    """The two ``| option | read by |`` tables give each option exactly the
    commands whose ``cli.READS`` hold it, unless every command does, and the
    delay models whose ``cli.MODEL_READS`` hold it; text in parentheses is a
    note, not a reader."""
    tables = re.findall(r"^\| option \| read by \|\n\|[- |]+\|\n((?:\|.*\|\n)+)",
                        README.read_text(), re.M)
    assert len(tables) == 2
    commands, models = ({key: {name for name, keys in table.items() if key in keys}
                         for keys in table.values() for key in keys}
                        for table in (READS, MODEL_READS))
    commands = {key: names for key, names in commands.items() if names != READS.keys()}
    for table, readers in zip(tables, (commands, models)):
        documented = {}
        for options, read_by in re.findall(r"^\| (.*) \| (.*) \|$", table, re.M):
            read_by = re.sub(r"\([^)]*\)", "", read_by)
            for option in re.findall(r"`--([\w-]+)`", options):
                # a model reader reads as `--delay perkind`: the model is the last word
                documented[option.replace("-", "_")] = {
                    span.split()[-1] for span in re.findall(r"`([^`]+)`", read_by)}
        assert documented == {key: set(commands) for key, commands in readers.items()}
