"""Every module-level function or class of the package is used, so a
helper cannot outlive its last caller.  A private one is used somewhere
in the package; a public one is used in the package, exported by
`qmhs.__all__` or named by the benchmark harness.  A use is a name or an
attribute that reads it outside its own definition; importing it is not
a use, since `test_unused_imports` already requires every imported name
to be used."""

import ast
from collections import Counter
from pathlib import Path

import qmhs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmhs"

# Public names kept with no caller: `brute_force` is the chain DP's
# direct-enumeration oracle, which the tests compare every DP against.
KEPT = {"brute_force"}


def _reads(node) -> Counter:
    """The names and attribute names read anywhere under `node`."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _trees(folder: Path) -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(folder.glob("*.py"))}


def test_every_private_helper_has_a_caller():
    trees = _trees(SRC)
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


def test_every_public_definition_has_a_reader():
    """The harness names some spans by string (the tracer wraps
    `poly_xgcd` by name), so its string constants count as uses."""
    trees = _trees(SRC)
    bench = _trees(ROOT / "perfbench")
    assert trees and bench
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    named = set(qmhs.__all__) | KEPT
    for tree in bench.values():
        named |= set(_reads(tree))
        named |= {sub.value for sub in ast.walk(tree)
                  if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
    unread = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in named
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert not unread, unread
