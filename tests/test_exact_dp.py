"""Differential checks of the exact chain DP.

The DP runs in Z[x]/(x^n - 1) on Kronecker-packed integers and reduces
modulo the cyclotomic polynomial once per evaluation (`mhs.PackedChain`).
Its oracles here are the former field DP, kept below, which takes one
CycloElem add and one multiply per step, level by level, and
`brute_force`, which enumerates the chains.  The polylogarithms, the
outermost terms of the same DP, are checked against the former m-major
recursion in `test_ohno_zagier.py`.

The rows the DP reads are lifted straight from the seed powers
(1 - zeta^g)^(-k) as twisted Galois conjugates, in integer vector
operations and with no field element; the element rows are built on
demand, for callers that read elements, from the same conjugates.  The
oracle of both is the former construction, by field products from the
closed-form inverses of 1 - zeta^m, and the former lift of the element
rows over their common denominator.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmhs import mhs
from qmhs.cyclotomic import CycloElem, _common_denominator, _digits
from qmhs.mhs import (
    ExactBackend,
    Index,
    Lift,
    _evaluate,
    brute_force,
    enumerate_indices,
    exact_backend,
    z,
    z_star,
    zbar,
)
from helpers import inv_one_minus_zeta_pow

INDICES = [ix for w in range(1, 6) for r in range(1, w + 1) for ix in enumerate_indices(w, r)]
LEVELS = [*range(1, 17), 20, 41, 49]


def field_terms(parts, backend, star, row):
    """The former level loop in the field: the innermost row, then for
    each level outwards the running sums of the terms below, exclusive
    (strict) or inclusive (star), each times the level's weight."""
    terms = list(row(parts[-1]))
    for k in reversed(parts[:-1]):
        total = backend.zero
        for i, (v, w) in enumerate(zip(terms, row(k))):
            new = total + v
            terms[i] = w * (new if star else total)
            total = new
    return terms


def field_dp(parts, backend, star):
    return sum(field_terms(parts, backend, star, backend.weight_row), backend.zero)


@pytest.mark.parametrize("n", LEVELS)
def test_packed_dp_matches_field_dp(n):
    backend = exact_backend(n)
    for ix in INDICES:
        assert z(ix, n) == field_dp(ix.parts, backend, False), ix
        assert z_star(ix, n) == field_dp(ix.parts, backend, True), ix


@pytest.mark.parametrize("n", LEVELS)
def test_packed_dp_matches_brute_force(n):
    # past n = 16 the chains of depth 3 and more are too many to list
    for ix in INDICES:
        if n > 16 and ix.depth > 2:
            continue
        assert z(ix, n) == brute_force(ix, n), ix
        assert z_star(ix, n) == brute_force(ix, n, star=True), ix


@pytest.mark.parametrize("n", (1, 2, 5))
@pytest.mark.parametrize("star", (False, True))
def test_brute_force_of_the_empty_index_is_one(n, star):
    """Depth 0 has one chain, the empty one, whose term is the empty product."""
    assert brute_force(Index(()), n, star) == exact_backend(n).one


def test_rows_are_lifted_once_and_packed_at_one_width():
    backend = ExactBackend(9)
    lifted = backend.lift(2)
    assert backend.lift(2) is lifted
    assert backend.lift(2, polylog=True) is not lifted
    narrow = backend.packed_row(2, False, 2)
    assert backend.packed_row(2, False, 2) is narrow
    wide = backend.packed_row(2, False, 3)
    assert wide is not narrow and backend.packed_row(2, False, 3) is wide


ORACLE_LEVELS = [*range(1, 21), 41, 49, 97]


def field_rows(backend, k):
    """The former route: the polylogarithm row (1 - zeta^m)^(-k) as field
    powers of the closed-form inverse, and the weight row
    zeta^((k-1)m) ((1 - zeta)^k (1 - zeta^m)^(-k)), two products more an
    entry."""
    field = backend.field
    polylog = [inv_one_minus_zeta_pow(field, m) ** k for m in range(1, backend.n)]
    scale = (backend.one - field.zeta) ** k
    return [field.zeta_pow((k - 1) * m) * (scale * x) for m, x in enumerate(polylog, 1)], polylog


@pytest.mark.parametrize("n", ORACLE_LEVELS)
def test_rows_match_field_products(n):
    """n = 1 has empty rows, n = 2 degree one, k >= n occurs from n = 9
    down, and the n that are not prime powers reduce by long division."""
    backend = ExactBackend(n)
    for k in range(1, 10):
        weights, polylog = field_rows(backend, k)
        assert list(backend.weight_row(k)) == weights, k
        assert backend.polylog_row(k) == polylog, k


@pytest.mark.parametrize("n,k", [(2, 3), (9, 3), (12, 4), (41, 2)])
def test_a_weight_row_takes_no_field_product(monkeypatch, n, k):
    """A fresh backend builds a chain-weight row without a CycloElem
    product and without the polylogarithm row of its k."""
    backend = ExactBackend(n)

    def refuse(*args):
        raise AssertionError("not expected while a weight row is built")

    monkeypatch.setattr(CycloElem, "__mul__", refuse)
    monkeypatch.setattr(ExactBackend, "polylog_row", refuse)
    row = list(backend.weight_row(k))
    monkeypatch.undo()
    assert row == field_rows(backend, k)[0]


def former_lift(row):
    """The former lift: an element row over its common denominator, each
    numerator's largest coefficient size and sum of sizes, and the digits."""
    den, vecs = _common_denominator(row)
    heights = [max(map(abs, v)) for v in vecs]
    return Lift(den, *_digits(vecs, max(heights, default=0)), heights,
                [sum(map(abs, v)) for v in vecs])


LIFT_LEVELS = [*range(1, 61), 64, 97, 128, 193]


@pytest.mark.parametrize("n", LIFT_LEVELS)
def test_lift_from_the_seed_powers_matches_the_former_lift(n):
    """Primes, prime powers (2^7 among them) and every n up to 60 that
    reduces by long division, with k >= n from n = 9 down."""
    backend = ExactBackend(n)
    for k in range(1, 10):
        weights, polylog = field_rows(backend, k)
        assert backend.lift(k) == former_lift(weights), k
        assert backend.lift(k, polylog=True) == former_lift(polylog), k


# the calls of the exact-high-degree benchmark workload at each level
HIGH_DEGREE_CALLS = [("z", (1, 2, 3)), ("z", (2,)), ("z_star", (2,)), ("zbar", (2, 2)),
                     ("z_star", (3, 1, 2)), ("zbar", (2, 1, 1, 3))]


@pytest.mark.parametrize("n", (41, 49))
def test_the_chain_dp_builds_no_element_row(monkeypatch, n):
    """z, z_star and zbar on a fresh backend read every row lifted from
    the seed powers, and build no row of field elements."""
    backend = ExactBackend(n)
    monkeypatch.setattr(mhs, "exact_backend", lambda level: backend)
    mhs._zbar_cached.cache_clear()

    def refuse(*args):
        raise AssertionError("no element row is expected in the chain DP")

    monkeypatch.setattr(ExactBackend, "_conjugates", refuse)
    calls = {"z": z, "z_star": z_star, "zbar": zbar}
    got = [calls[fn](Index(parts), n) for fn, parts in HIGH_DEGREE_CALLS]
    monkeypatch.undo()
    mhs._zbar_cached.cache_clear()
    oracle = ExactBackend(n)
    for (fn, parts), value in zip(HIGH_DEGREE_CALLS, got):
        want = field_dp(parts, oracle, fn == "z_star")
        if fn == "zbar":
            want = want * oracle._seed_power(sum(parts), 1)
        assert value == want, (fn, parts)


class _GivenRows(ExactBackend):
    """An exact backend whose weight rows are given."""

    def __init__(self, n, rows):
        super().__init__(n)
        self.rows = rows

    def weight_row(self, k):
        return iter(self.rows[k])

    def _row_vectors(self, k, polylog):
        return _common_denominator(self.rows[k])


def _extreme_row(field, n, value):
    return [CycloElem(field, [value] + [0] * (field.degree - 1)) for _ in range(1, n)]


@pytest.mark.parametrize("width", range(1, 11))
@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("past", (0, 1))
def test_a_coefficient_at_a_digit_boundary(width, sign, past):
    """At n = 2 a value is its one coefficient, and the bound of (1, 2)
    is the product of its rows' entries.  X / 2 - 1 is the largest
    coefficient a digit of `width` bytes holds, and X / 2 needs one byte
    more."""
    value = sign * ((1 << (8 * width - 1)) - 1 + past)
    field = exact_backend(2).field
    backend = _GivenRows(2, {1: _extreme_row(field, 2, value), 2: _extreme_row(field, 2, 1)})
    want = field.from_rational(value)
    assert _evaluate(Index((1,)), 2, backend, False) == want
    assert _evaluate(Index((1, 2)), 2, backend, True) == want
    assert backend.packed_row(1, False, width + past) == [value]


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 41]),
    parts=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    bits=st.integers(1, 72),
    aligned=st.booleans(),
    star=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_dp_matches_field_dp_on_wide_rows(n, parts, bits, aligned, star, seed):
    """Rows of coefficients up to 2^bits.  Aligned rows have every
    coefficient of one size and sign, so that the terms come close to
    their bounds, and the bounds land on every bit of a digit as `bits`
    runs; other rows draw every coefficient and denominator."""
    rng = random.Random(seed)
    field = exact_backend(n).field
    rows = {}
    for k in set(parts):
        if aligned:
            value = rng.choice((1, -1)) * ((1 << bits) - rng.randrange(2))
            rows[k] = [CycloElem(field, [value] * field.degree) for _ in range(1, n)]
            continue
        rows[k] = [
            CycloElem(field, [Fraction(rng.randrange(-(1 << bits), 1 << bits), rng.randint(1, 6))
                              for _ in range(field.degree - 1)] + [rng.choice((1, -1)) << bits])
            for _ in range(1, n)
        ]
    backend = _GivenRows(n, rows)
    parts = tuple(parts)
    assert _evaluate(Index(parts), n, backend, star) == field_dp(parts, backend, star)
