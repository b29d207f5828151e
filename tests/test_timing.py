"""Report-row timing has one path: `suites._timed` laps every row of an
instance, and no other module reads a clock."""

import ast
import itertools
import time
from pathlib import Path

import pytest

from qmhs import report, suites
from qmhs.ohno_zagier import verify_lemma_3_2, verify_prop_3_3

SRC = Path(suites.__file__).resolve().parent


@pytest.mark.parametrize("parallelism", (1, 2))
@pytest.mark.parametrize("suite", suites.SUITES[:-1])
def test_every_row_gets_one_lap(monkeypatch, suite, parallelism):
    # a clock that advances 1 us per read: a row that got exactly one lap
    # reads 1, a row timed twice or not at all reads something else.  Pool
    # workers see the patched clock because the pool forks them.
    ticks = itertools.count(0, 1000)
    monkeypatch.setattr(time, "perf_counter_ns", lambda: next(ticks))
    rows = suites.run_suite(suite, n_max=4, cap=3, parallelism=parallelism)
    assert rows
    assert [r.micros for r in rows] == [1] * len(rows)


def test_library_checks_return_lists_computed_in_the_call():
    assert type(verify_prop_3_3(3, 3)) is list
    assert type(verify_lemma_3_2(3, 3)) is list


def _reads_clock(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "time" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            return True
        if isinstance(node, ast.Attribute) and node.attr.startswith("perf_counter"):
            return True
    return False


def test_only_suites_reads_a_clock():
    assert not hasattr(report, "Stopwatch")
    sources = sorted(SRC.glob("*.py"))
    assert all("Stopwatch" not in p.read_text(encoding="utf-8") for p in sources)
    readers = [p.name for p in sources if _reads_clock(p)]
    assert readers == ["suites.py"]
