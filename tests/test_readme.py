"""The README's python session runs as written and prints what it says."""

import re
from pathlib import Path

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
