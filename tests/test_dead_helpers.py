"""Every module-level function or class of the package is used, so a
helper cannot outlive its last caller.  A private one is used somewhere
in the package; a public one is used in the package, exported by
`qmhs.__all__` or named by the benchmark harness; a method is used in the
package or named by the harness.  A use is a name or an attribute that
reads it outside its own definition; importing it is not a use, since
`test_unused_imports` already requires every imported name to be used."""

import ast
from collections import Counter
from pathlib import Path

import qmhs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmhs"

# Names kept with no caller: `brute_force` is the chain DP's
# direct-enumeration oracle, which the tests compare every DP against, and
# `Index.admissible` is kept by ROADMAP item 11.
KEPT = {"brute_force", "Index.admissible"}


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


def _bench_names() -> set:
    """The names the harness reads, and its string constants: it names
    some spans by string (the tracer wraps `poly_xgcd` by name)."""
    bench = _trees(ROOT / "perfbench")
    assert bench
    named = set()
    for tree in bench.values():
        named |= set(_reads(tree))
        named |= {sub.value for sub in ast.walk(tree)
                  if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
    return named


def test_every_public_definition_has_a_reader():
    trees = _trees(SRC)
    assert trees
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    named = set(qmhs.__all__) | KEPT | _bench_names()
    unread = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in named
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert not unread, unread


def test_every_method_has_a_reader():
    """Every method or property a package class defines, dunders aside,
    is read in the package outside its own definition or named by the
    harness.  The rule goes by name, as the guards above do: a method
    passes when an attribute of its name is read anywhere in the package,
    even on another class, so two classes' methods of one name pass
    together."""
    trees = _trees(SRC)
    assert trees
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    named = _bench_names()
    unread = [
        f"{name}:{node.lineno}: {cls.name}.{node.name}"
        for name, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named and f"{cls.name}.{node.name}" not in KEPT
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert not unread, unread
