"""`VerificationReport.as_dict` gives the row's fields as a dict: the keys
in field order, the values the row's attributes, with `params` its own
copy."""

import json

import pytest

from qmhs import suites
from qmhs.closedforms import conjecture_check

FIELDS = ("suite", "params", "status", "lhs", "rhs", "micros")


def _rows(suite):
    if suite == "conjecture":
        return [conjecture_check(family, n, a, b)
                for family in (1, 2) for n in (4, 5) for a in (0, 1) for b in (0, 1)]
    return suites.run_suite(suite, n_max=4, cap=3)


@pytest.mark.parametrize("suite", suites.SUITES[:-1] + ("conjecture",))
def test_as_dict_equals_dataclasses_asdict(suite):
    # named for the contract `dataclasses.asdict` gave while the report
    # was a dataclass; the expected dict is now built from the attributes
    rows = _rows(suite)
    assert rows
    for row in rows:
        got = row.as_dict()
        expected = {name: getattr(row, name) for name in FIELDS}
        assert list(got) == list(FIELDS)
        assert got == expected
        assert json.dumps(got) == json.dumps(expected)


def test_as_dict_params_are_a_copy():
    row = suites.run_suite("thm12", n_max=2, cap=2)[0]
    before = json.dumps(row.as_dict())
    params = dict(row.params)
    d = row.as_dict()
    assert d["params"] is not row.params
    d["params"]["n"] = -1
    d["params"]["extra"] = "x"
    assert row.params == params
    assert json.dumps(row.as_dict()) == before
