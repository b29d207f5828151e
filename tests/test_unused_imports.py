"""Every name a package module imports is used in that module, so an
import cannot outlive the code that needed it.  A deliberate re-export
is marked `# noqa: F401` on its import line; `__init__.py`, which exists
to re-export, is not scanned."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmhs"


def test_src_modules_use_every_name_they_import():
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert sources
    unused = []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused
