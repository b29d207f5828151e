"""Structured pass/fail records shared by the verification suites and CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report-only"


@dataclass
class VerificationReport:
    """One verified identity instance.

    Both sides are rendered exactly (rational or cyclotomic string form,
    decimal for complex).  report-only entries never influence exit codes.
    """

    suite: str
    params: dict = field(default_factory=dict)
    status: str = PASS
    lhs: str = ""
    rhs: str = ""
    micros: int = 0

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    def as_dict(self) -> dict:
        """The fields in order, as `dataclasses.asdict`; only `params` is copied."""
        return {**vars(self), "params": dict(self.params)}


def compare(suite: str, params: dict, lhs, rhs, render=str) -> VerificationReport:
    """Report equality of two exactly comparable values."""
    status = PASS if lhs == rhs else FAIL
    return VerificationReport(
        suite=suite, params=params, status=status, lhs=render(lhs), rhs=render(rhs)
    )
