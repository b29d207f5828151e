"""The package's value types: the frozen records `IndexProfile`,
`XiClosed`, `ConvergenceRow` and `ConvergenceStudy`, and the mutable
`VerificationReport`.  Their reprs, immutability, hashing and pickling
are part of what callers read."""

import itertools
import pickle
import time
from fractions import Fraction

import pytest

from qmhs import suites
from qmhs.mhs import Index, IndexProfile
from qmhs.report import FAIL, VerificationReport, compare
from qmhs.xi import ConvergenceRow, ConvergenceStudy, XiClosed, convergence_study


def _frozen_values():
    study = convergence_study(Index((2,)), [64, 128])
    return [IndexProfile(4, 2, 1), XiClosed(Fraction(1, 2), 1), study.rows[0], study]


def test_reprs_name_the_fields():
    assert repr(IndexProfile(4, 2, 1)) == "IndexProfile(weight=4, depth=2, height=1)"
    assert repr(XiClosed(Fraction(1, 2), 1)) == "XiClosed(coeff=Fraction(1, 2), power=1)"
    assert str(XiClosed(Fraction(1, 2), 1)) == "1/2*(-2*pi*i)^1"
    assert repr(ConvergenceRow(64, 1j, 0.5)) == "ConvergenceRow(n=64, value=1j, error=0.5)"
    assert repr(ConvergenceStudy(Index((2,)), 1.0, (), 0.0)) == (
        "ConvergenceStudy(index=Index(2,), target=1.0, rows=(), rate=0.0)")
    assert repr(VerificationReport("s", {"n": 2}, FAIL, "1", "2", 7)) == (
        "VerificationReport(suite='s', params={'n': 2}, status='fail', "
        "lhs='1', rhs='2', micros=7)")


@pytest.mark.parametrize("value", _frozen_values(), ids=lambda v: type(v).__name__)
def test_frozen_types_refuse_assignment(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("value", _frozen_values(), ids=lambda v: type(v).__name__)
def test_equal_values_hash_equal(value):
    copy = type(value)(*value)
    assert copy == value and copy is not value
    assert hash(copy) == hash(value)
    assert pickle.loads(pickle.dumps(value)) == value


def test_report_equality_pickling_and_defaults():
    row = VerificationReport(suite="s")
    assert (row.params, row.status, row.lhs, row.rhs, row.micros) == ({}, "pass", "", "", 0)
    assert row.params is not VerificationReport(suite="s").params
    row = compare("s", {"n": 3}, 1, 2)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(row, protocol))
        assert back == row and back.as_dict() == row.as_dict()
    assert row != compare("s", {"n": 3}, 1, 1)
    assert row != tuple(row.as_dict().values())
    with pytest.raises(TypeError):
        hash(row)


def test_timed_fills_micros(monkeypatch):
    ticks = itertools.count(0, 3000)
    monkeypatch.setattr(time, "perf_counter_ns", lambda: next(ticks))
    made = [VerificationReport(suite=f"s{i}") for i in range(3)]
    rows = suites._timed(lambda k: made[:k], (3,))
    assert rows == made
    assert [r.micros for r in rows] == [3, 3, 3]
