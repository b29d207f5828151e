"""Differential and edge checks of the double-precision chain DP.

The DP runs level by level over weight rows streamed from the shared
backend of each level, with compensated running sums taken in place by
C-level loops over blocks of the row.
Its oracles here are the former m-major DP: one Neumaier accumulator per
level, updated for each m in turn (levels ascending for strict chains,
descending for non-strict ones), with the association
c = (c + (s - t)) + v it used; and the former per-call backend, which
built its tables in every evaluation, returned every weight row and
every running sum as a new list, and must agree to the last bit.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmhs.cyclotomic import _BLOCK, compensated_sums
from qmhs.mhs import (
    Index,
    NumericBackend,
    _evaluate,
    enumerate_indices,
    numeric_backend,
    z,
    z_star,
)
from qmhs.xi import z_numeric

ORACLE_INDICES = ((3,), (1, 2), (2, 1, 3), (1, 3, 1, 2))
LARGE_N_INDICES = ORACLE_INDICES + (
    (2,), (1, 1), (4,), (2, 2), (3, 2, 1), (1, 1, 1, 1), (2, 3)
)


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
    rows = {k: [None] + list(backend.weight_row(k)) for k in set(parts)}
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
        row = list(backend.weight_row(k))
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


class _FormerNumericBackend:
    """The backend as it was before the tables were shared: built per
    evaluation, with each row and each list of running sums a new list."""

    def __init__(self, n: int):
        self.n = n
        qpow = [
            complex(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
            for j in range(n)
        ]
        self._qpow = qpow
        one_minus_q = 1 - qpow[1 % n]
        inv = [None]
        for m in range(1, n):
            qm = (1 - qpow[m]) / one_minus_q
            inv.append(1 / qm)
        self._inv_qint = inv

    def weight_row(self, k: int) -> list:
        n, qpow, inv = self.n, self._qpow, self._inv_qint
        return [qpow[((k - 1) * m) % n] * inv[m] ** k for m in range(1, n)]

    @staticmethod
    def running_sums(values, inclusive: bool):
        sr = cr = si = ci = 0.0
        sums = [0j]
        for v in values:
            x = v.real
            t = sr + x
            if abs(sr) >= abs(x):
                cr += (sr - t) + x
            else:
                cr += (x - t) + sr
            sr = t
            x = v.imag
            t = si + x
            if abs(si) >= abs(x):
                ci += (si - t) + x
            else:
                ci += (x - t) + si
            si = t
            sums.append(complex(sr + cr, si + ci))
        return (sums[1:] if inclusive else sums[:-1]), sums[-1]


def former_evaluate(parts, n, star, backend=None):
    backend = backend or _FormerNumericBackend(n)
    terms = backend.weight_row(parts[-1])
    for k in reversed(parts[:-1]):
        terms, _ = backend.running_sums(terms, star)
        for i, w in enumerate(backend.weight_row(k)):
            terms[i] = w * terms[i]
    return backend.running_sums(terms, star)[1]


def _hex(c: complex) -> tuple:
    return c.real.hex(), c.imag.hex()


@pytest.mark.parametrize("n", range(2, 14))
def test_shared_backend_is_bit_identical_to_former_backend_small_n(n):
    indices = [ix for w in range(1, 6) for r in range(1, w + 1)
               for ix in enumerate_indices(w, r)]
    for ix in indices:
        for star, evaluate in ((False, z), (True, z_star)):
            got = evaluate(ix, n, numeric_backend(n))
            assert _hex(got) == _hex(former_evaluate(ix.parts, n, star)), (ix, star)


@pytest.mark.parametrize("n", (2**8, 2**12, 2**15))
def test_shared_backend_is_bit_identical_to_former_backend_large_n(n):
    former = _FormerNumericBackend(n)
    for parts in LARGE_N_INDICES:
        for star, evaluate in ((False, z), (True, z_star)):
            ref = former_evaluate(parts, n, star, former)
            assert _hex(evaluate(Index(parts), n, numeric_backend(n))) == _hex(ref), (parts, star)
            if not star:
                assert _hex(z_numeric(Index(parts), n)) == _hex(ref), parts


def test_shared_backend_tables_equal_former_tables():
    n = 2**12
    former, shared = _FormerNumericBackend(n), numeric_backend(n)
    assert [_hex(q) for q in shared._qpow] == [_hex(q) for q in former._qpow]
    assert ([_hex(x) for x in shared._inv_qint[1:]]
            == [_hex(x) for x in former._inv_qint[1:]])


def test_z_numeric_builds_the_tables_once_per_level(monkeypatch):
    builds = []
    init = NumericBackend.__init__

    def counting_init(self, n):
        builds.append(n)
        init(self, n)

    numeric_backend.cache_clear()
    monkeypatch.setattr(NumericBackend, "__init__", counting_init)
    n = 2**10
    values = [z_numeric(Index(parts), n) for parts in ((2,), (1, 2), (2, 1, 3))]
    assert builds == [n]
    z_numeric(Index((2,)), 2 * n)
    assert builds == [n, 2 * n]
    assert values == [z_numeric(Index(parts), n) for parts in ((2,), (1, 2), (2, 1, 3))]
    assert builds == [n, 2 * n]
    numeric_backend.cache_clear()


@pytest.mark.parametrize("inclusive", (False, True))
def test_compensated_sums_in_place(inclusive):
    values = [1e16 + 1j, 1.0 - 1e16j, -1e16 + 0.5j, 3.0 + 1e16j]
    former_sums, former_total = _FormerNumericBackend.running_sums(list(values), inclusive)
    total = compensated_sums(values, inclusive)
    assert _hex(total) == _hex(former_total) and total == 4.0 + 1.5j
    assert [_hex(v) for v in values] == [_hex(v) for v in former_sums]
    assert values[0] == (1e16 + 1j if inclusive else 0j)
    assert compensated_sums([], inclusive) == 0j


# Lengths around the block boundaries of the running-sum loops.
BLOCK_LENGTHS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)
_HARD_VALUES = (1e16 + 1j, 1.0 - 1e16j, -1e16 + 0.5j, complex(-0.0, 1.0),
                complex(5e-324, -0.0), -1.0 + 1e16j, complex(-0.0, -0.0),
                complex(2.2250738585072014e-308, -5e-324), 3.0 - 1.0j,
                complex(1e16, -2.5e-310))


def _assert_sums_match_former(values, inclusive):
    former_sums, former_total = _FormerNumericBackend.running_sums(list(values), inclusive)
    values = list(values)
    total = compensated_sums(values, inclusive)
    assert _hex(total) == _hex(former_total)
    assert [_hex(v) for v in values] == [_hex(v) for v in former_sums]


@pytest.mark.parametrize("length", BLOCK_LENGTHS)
@pytest.mark.parametrize("inclusive", (False, True))
def test_blocked_sums_are_bit_identical_to_scalar_neumaier(length, inclusive):
    # cancellation of +-1e16 against 1.0, signed zeros and subnormals,
    # in an order that does not repeat with the block length
    values = [_HARD_VALUES[(7 * i) % len(_HARD_VALUES)] * (1 + (i % 3))
              for i in range(length)]
    _assert_sums_match_former(values, inclusive)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                                allow_infinity=False), min_size=1, max_size=48),
    st.integers(0, 3 * _BLOCK + 7),
    st.booleans(),
)
def test_blocked_sums_match_scalar_neumaier_property(pattern, length, inclusive):
    values = [pattern[(5 * i) % len(pattern)] for i in range(length)]
    _assert_sums_match_former(values, inclusive)


def test_blocked_sums_apply_weights_after_summing():
    values = [_HARD_VALUES[i % len(_HARD_VALUES)] for i in range(2 * _BLOCK + 3)]
    weights = [complex(1 + i % 5, -(i % 3)) for i in range(len(values))]
    for inclusive in (False, True):
        former_sums, former_total = _FormerNumericBackend.running_sums(values, inclusive)
        got = list(values)
        total = compensated_sums(got, inclusive, iter(weights))
        assert _hex(total) == _hex(former_total)
        assert [_hex(v) for v in got] == [_hex(w * s) for w, s in zip(weights, former_sums)]


@pytest.mark.parametrize("length", BLOCK_LENGTHS)
def test_total_only_sums_write_nothing_and_keep_every_bit(length):
    values = [_HARD_VALUES[(3 * i) % len(_HARD_VALUES)] * (1 + (i % 5))
              for i in range(length)]
    expected = compensated_sums(list(values), True)
    got = list(values)
    assert _hex(compensated_sums(got, None)) == _hex(expected)
    assert [_hex(v) for v in got] == [_hex(v) for v in values]
    if length:
        got[-1] = complex(math.inf, 0.0)
        with pytest.raises(OverflowError):
            NumericBackend(4).running_sums(got, None)


@pytest.mark.parametrize("bad", (complex(math.inf, 0.0), complex(0.0, math.nan)))
@pytest.mark.parametrize("inclusive", (False, True))
def test_non_finite_value_in_second_block_overflows(bad, inclusive):
    values = [1.0 + 1.0j] * (2 * _BLOCK + 3)
    values[_BLOCK + 5] = bad
    with pytest.raises(OverflowError):
        NumericBackend(4).running_sums(values, inclusive)


@pytest.mark.parametrize("n", [*range(1, 14), 2**10])
def test_weight_rows_are_bit_identical_to_indexed_products(n):
    backend = NumericBackend(n)
    qpow, inv = backend._qpow, backend._inv_qint
    for k in range(1, 8):
        former = [qpow[((k - 1) * m) % n] * inv[m] ** k for m in range(1, n)]
        assert [_hex(w) for w in backend.weight_row(k)] == [_hex(w) for w in former], k


def test_row_one_is_bit_identical_to_indexed_products():
    """Row one reads the inverse q-integers without the factor q^0 and the
    power 1, which leave these values bit for bit as they are, and never
    hands out the table, which the running sums would write over."""
    for n in [*range(1, 301), 2**15]:
        backend = NumericBackend(n)
        qpow, inv = backend._qpow, backend._inv_qint
        former = [qpow[0] * inv[m] ** 1 for m in range(1, n)]
        row = backend.weight_row(1)
        assert row is not inv
        assert [_hex(w) for w in row] == [_hex(w) for w in former], n


def _z_numeric_peak_beyond_one_row(n: int) -> int:
    index = Index((2, 1, 3))
    z_numeric(index, n)  # builds and caches the backend of level n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z_numeric(index, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one row of terms: a pointer and a complex object per m
    return peak - base - 40 * n


def test_numeric_dp_holds_no_temporary_that_grows_with_n():
    # one more list of n pointers would add 131 KB at n = 2^14
    small, large = (_z_numeric_peak_beyond_one_row(n) for n in (2**10, 2**14))
    assert abs(large - small) <= 32 * 1024, (small, large)
