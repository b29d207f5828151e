"""Structured pass/fail records shared by the verification suites and CLI."""

from __future__ import annotations

from operator import attrgetter

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report-only"

_FIELDS = ("suite", "params", "status", "lhs", "rhs", "micros")
_values = attrgetter(*_FIELDS)


class VerificationReport:
    """One verified identity instance.

    Both sides are rendered exactly (rational or cyclotomic string form,
    decimal for complex).  report-only entries never influence exit codes.
    `micros` is the one field set after construction (`suites._timed`).
    """

    __slots__ = _FIELDS

    def __init__(self, suite: str, params: dict | None = None, status: str = PASS,
                 lhs: str = "", rhs: str = "", micros: int = 0):
        self.suite = suite
        self.params = {} if params is None else params
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.micros = micros

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, _FIELDS, _values(self)))
        return f"VerificationReport({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __reduce__(self):
        return VerificationReport, _values(self)

    def as_dict(self) -> dict:
        """The fields in order; only `params` is copied."""
        return dict(zip(_FIELDS, _values(self)), params=dict(self.params))


def compare(suite: str, params: dict, lhs, rhs, render=str) -> VerificationReport:
    """Report equality of two exactly comparable values."""
    status = PASS if lhs == rhs else FAIL
    return VerificationReport(
        suite=suite, params=params, status=status, lhs=render(lhs), rhs=render(rhs)
    )
