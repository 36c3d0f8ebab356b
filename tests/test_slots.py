"""Every slot of the simulation state is read by one of its own methods.

``SimState`` is rebuilt on every reset, so a slot that only ``__init__``
fills is work done for nothing on each of them.
"""

import ast
from pathlib import Path

import qdilab

SOURCE = Path(qdilab.__file__).parent


def unread_slots(path: Path, class_name: str) -> list[str]:
    """The names in ``class_name.__slots__`` that no method of the class
    other than ``__init__`` reads as ``self.<name>``; an augmented
    assignment counts as a read."""
    tree = ast.parse(path.read_text(), str(path))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name]
    slots, read = [], set()
    for node in cls.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__slots__"]:
            slots = list(ast.literal_eval(node.value))
        elif isinstance(node, ast.FunctionDef) and node.name != "__init__":
            updated = {n.target for n in ast.walk(node) if isinstance(n, ast.AugAssign)}
            read |= {n.attr for n in ast.walk(node)
                     if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                     and n.value.id == "self"
                     and (isinstance(n.ctx, ast.Load) or n in updated)}
    assert slots, f"{class_name} declares no __slots__"
    return [name for name in slots if name not in read]


def test_every_sim_state_slot_is_read_after_construction():
    assert unread_slots(SOURCE / "sim.py", "SimState") == []
