"""`VerificationReport.as_dict` builds the row's dict directly: the same
keys, order and values as `dataclasses.asdict`, with `params` its own copy."""

import dataclasses
import json

import pytest

from qmhs import suites
from qmhs.closedforms import conjecture_check


def _rows(suite):
    if suite == "conjecture":
        return [conjecture_check(family, n, a, b)
                for family in (1, 2) for n in (4, 5) for a in (0, 1) for b in (0, 1)]
    return suites.run_suite(suite, n_max=4, cap=3)


@pytest.mark.parametrize("suite", suites.SUITES[:-1] + ("conjecture",))
def test_as_dict_equals_dataclasses_asdict(suite):
    rows = _rows(suite)
    assert rows
    for row in rows:
        got, expected = row.as_dict(), dataclasses.asdict(row)
        assert got == expected
        assert list(got) == list(expected)
        assert json.dumps(got) == json.dumps(expected)


def test_as_dict_params_are_a_copy():
    row = suites.run_suite("thm12", n_max=2, cap=2)[0]
    before = dataclasses.asdict(row)
    d = row.as_dict()
    d["params"]["n"] = -1
    d["params"]["extra"] = "x"
    assert dataclasses.asdict(row) == before
