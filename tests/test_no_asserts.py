"""No package module checks an internal invariant with `assert` or by
raising `AssertionError`.  `assert` vanishes under `python -O`, and the
command line maps neither to an exit code, so either would end in a
traceback; an invariant that can fail raises `ValueError`, which the
command line maps to exit 2."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmhs"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_src_modules_neither_assert_nor_raise_assertion_error():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert not found, found
