"""The package imports only the standard library and its own modules, so
it runs on a bare Python; numpy, sympy, mpmath and the like may serve the
tests as oracles but never the package.  Importing it loads only the
standard library it uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmhs"


def test_src_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside


def test_import_loads_no_introspection_modules():
    # a fresh interpreter, so modules `site` preloads do not count; the
    # package and its CLI must not pull in `dataclasses` or, through it,
    # the source-introspection modules
    probe = ("import sys; before = set(sys.modules); import qmhs, qmhs.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "qmhs.cli" in out
    loaded = {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(out)
    assert not loaded, sorted(loaded)
