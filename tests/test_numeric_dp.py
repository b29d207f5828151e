"""Differential and edge checks of the double-precision chain DP.

The DP runs level by level over whole weight rows with compensated
running sums.  Its oracle here is the former m-major DP: one Neumaier
accumulator per level, updated for each m in turn (levels ascending for
strict chains, descending for non-strict ones), with the association
c = (c + (s - t)) + v it used.
"""

import math

import pytest

from qmhs.mhs import Index, NumericBackend, _evaluate, z, z_star
from qmhs.xi import z_numeric

ORACLE_INDICES = ((3,), (1, 2), (2, 1, 3), (1, 3, 1, 2))


class _KahanAccumulator:
    __slots__ = ("sr", "cr", "si", "ci")

    def __init__(self):
        self.sr = self.cr = self.si = self.ci = 0.0

    def add(self, x: complex):
        for attr_s, attr_c, v in (("sr", "cr", x.real), ("si", "ci", x.imag)):
            s = getattr(self, attr_s)
            t = s + v
            if abs(s) >= abs(v):
                setattr(self, attr_c, getattr(self, attr_c) + (s - t) + v)
            else:
                setattr(self, attr_c, getattr(self, attr_c) + (v - t) + s)
            setattr(self, attr_s, t)

    @property
    def value(self) -> complex:
        return complex(self.sr + self.cr, self.si + self.ci)


def m_major_dp(parts, n, star):
    backend = NumericBackend(n)
    rows = {k: [None] + backend.weight_row(k) for k in set(parts)}
    r = len(parts)
    acc = [_KahanAccumulator() for _ in range(r)]
    js = range(r - 1, -1, -1) if star else range(r)
    for m in range(1, n):
        for j in js:
            upper = 1 + 0j if j == r - 1 else acc[j + 1].value
            acc[j].add(rows[parts[j]][m] * upper)
    return acc[0].value


@pytest.mark.parametrize("n", (2**8, 2**12, 2**15))
@pytest.mark.parametrize("star", (False, True))
def test_level_major_dp_matches_m_major_oracle(n, star):
    evaluate = z_star if star else z
    for parts in ORACLE_INDICES:
        ref = m_major_dp(parts, n, star)
        got = evaluate(Index(parts), n, NumericBackend(n))
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1), (parts, got, ref)


@pytest.mark.parametrize("n", (2**10, 2**15))
def test_depth_one_sum_is_correctly_rounded_against_fsum(n):
    backend = NumericBackend(n)
    for k in range(1, 5):
        row = backend.weight_row(k)
        got = z_numeric(Index((k,)), n)
        for part, value in ((lambda c: c.real, got.real), (lambda c: c.imag, got.imag)):
            exact = math.fsum(part(w) for w in row)
            assert abs(value - exact) <= 2 * math.ulp(1.0) * abs(exact) + 1e-20, (k, value, exact)


def _backend_with_rows(n, rows):
    backend = NumericBackend(n)
    backend.weight_row = lambda k: list(rows[k])
    return backend


def test_overflow_at_last_product_of_strict_inner_level():
    # level (2) multiplies its last weight by the sum of level (3) below
    # n - 1; that product reaches only the level's total, never the
    # exclusive running sums that level (1) reads
    n = 8
    rows = {1: [1 + 0j] * (n - 1), 2: [1 + 0j] * (n - 2) + [1e308 + 0j],
            3: [10 + 0j] * (n - 1)}
    with pytest.raises(OverflowError):
        _evaluate(Index((1, 2, 3)), n, _backend_with_rows(n, rows), star=False)
    rows[2][-1] = 1 + 0j
    assert math.isfinite(abs(_evaluate(Index((1, 2, 3)), n,
                                       _backend_with_rows(n, rows), star=False)))


def test_overflow_at_outermost_level():
    n = 8
    rows = {1: [1 + 0j] * 3 + [1e308 + 0j] + [1 + 0j] * (n - 5), 2: [10 + 0j] * (n - 1)}
    with pytest.raises(OverflowError):
        _evaluate(Index((1, 2)), n, _backend_with_rows(n, rows), star=False)
