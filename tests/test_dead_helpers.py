"""Every private module-level function or class of the package is used
somewhere in the package, so a helper cannot outlive its last caller.
A use is a name or an attribute that reads it outside its own
definition; importing it is not a use, since `test_unused_imports`
already requires every imported name to be used."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmhs"


def _reads(node) -> Counter:
    """The names and attribute names read anywhere under `node`."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_private_helper_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    dead = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert not dead, dead
