from fractions import Fraction

import pytest

from qmhs.cyclotomic import get_field
from qmhs.mhs import (
    Index,
    IndexProfile,
    brute_force,
    enumerate_indices,
    enumerate_profile,
    exact_backend,
    numeric_backend,
    profile_sum,
    z,
    z_star,
    zbar,
    zbar_star,
)
from helpers import inv_one_minus_zeta_pow


def test_index_basics():
    ix = Index((2, 1, 3))
    assert ix.weight == 6 and ix.depth == 3 and ix.height == 2
    assert Index.parse("2,1,3") == ix
    assert Index.repeat(2, 3) == Index((2, 2, 2))
    assert Index(()).depth == 0
    assert not Index((1,)).admissible and Index((2, 1)).admissible
    with pytest.raises(ValueError):
        Index((0, 1))


def test_enumerate_examples():
    assert [ix.parts for ix in enumerate_indices(3, 2)] == [(2, 1), (1, 2)]
    assert [ix.parts for ix in enumerate_indices(2, 1, height=1)] == [(2,)]
    assert len(enumerate_indices(4, 2)) == 3


def test_enumerate_counts_and_order():
    from math import comb

    for k in range(1, 8):
        for r in range(1, k + 1):
            out = enumerate_indices(k, r)
            assert len(out) == comb(k - 1, r - 1)
            assert all(ix.weight == k and ix.depth == r for ix in out)
            firsts = [ix.parts[0] for ix in out]
            assert firsts == sorted(firsts, reverse=True)
            assert len(set(ix.parts for ix in out)) == len(out)


def test_enumerate_admissible_and_profile():
    adm = [ix for ix in enumerate_indices(4, 2) if ix.admissible]
    assert [ix.parts for ix in adm] == [(3, 1), (2, 2)]
    prof = IndexProfile(4, 2, 1)
    assert {ix.parts for ix in enumerate_profile(prof)} == {(3, 1), (1, 3)}
    assert enumerate_profile(IndexProfile(3, 1, 0)) == []


def test_z_examples():
    f4 = get_field(4)
    assert z(Index((2,)), 4) == f4.zeta * f4.from_rational(Fraction(5, 2))
    f3 = get_field(3)
    assert z(Index((1, 1)), 3) == -f3.zeta
    assert z(Index((1,)), 2) == get_field(2).one
    assert not z(Index((1, 1, 1)), 3)
    assert z(Index(()), 5) == get_field(5).one


def test_z_star_examples():
    f3 = get_field(3)
    assert z_star(Index((1, 1)), 3) == f3.from_rational(-2) * f3.zeta
    assert z_star(Index((2,)), 4) == z(Index((2,)), 4)
    for k in range(1, 9):
        for n in range(1, 13):
            assert z_star(Index((k,)), n) == z(Index((k,)), n)


def test_empty_chain_degeneracies():
    # strict chains need depth < n; the non-strict single-part sum never
    # dies for n >= 2 because the chain m = 1 exists
    for n in range(1, 6):
        for r in range(n, n + 3):
            assert not z(Index((1,) * r), n)
    for n in range(2, 8):
        assert z_star(Index((1,)), n)


def test_zbar_examples():
    assert zbar(Index((1, 1)), 3).rational_part() == Fraction(1, 3)
    assert zbar(Index((2,)), 4).rational_part() == Fraction(-5, 4)
    assert zbar(Index((3,)), 2).rational_part() == Fraction(1, 8)
    assert not zbar(Index((2, 1)), 1)


def test_constant_index_values_are_rational():
    for k in range(1, 5):
        for r in range(1, 6):
            for n in range(1, 13):
                assert zbar(Index.repeat(k, r), n).is_rational(), (k, r, n)


def test_profile_sum_examples():
    assert profile_sum(IndexProfile(1, 1, 0), 3) == 1
    assert profile_sum(IndexProfile(2, 2, 0), 3) == Fraction(1, 3)
    assert profile_sum(IndexProfile(2, 1, 1), 2) == Fraction(-1, 4)


def test_profile_sum_rationality_contract():
    for n in (2, 3, 4, 5, 6):
        for k in range(1, 6):
            for r in range(1, k + 1):
                for s in range(0, r + 1):
                    if k < r + s:
                        continue
                    value = profile_sum(IndexProfile(k, r, s), n)
                    assert isinstance(value, Fraction)
                    value_star = profile_sum(IndexProfile(k, r, s), n, star=True)
                    assert isinstance(value_star, Fraction)


def test_dp_matches_brute_force_oracle():
    for w in range(1, 6):
        for r in range(1, w + 1):
            for ix in enumerate_indices(w, r):
                for n in range(1, 9):
                    assert z(ix, n) == brute_force(ix, n), (ix, n)
                    assert z_star(ix, n) == brute_force(ix, n, star=True), (ix, n)


def test_numeric_backend_matches_exact():
    for w in range(1, 5):
        for r in range(1, w + 1):
            for ix in enumerate_indices(w, r):
                for n in (2, 3, 5, 8, 13):
                    exact = z(ix, n).complex_value()
                    approx = z(ix, n, numeric_backend(n))
                    assert abs(exact - approx) < 1e-12, (ix, n)


def test_backend_weight_caching():
    backend = exact_backend(6)
    w1 = backend.weight(2, 3)
    assert backend.weight(2, 3) is w1


def test_zbar_scale_is_built_once_per_weight(monkeypatch):
    """The scale (1 - zeta)^(-w) of weight w <= 8 is the seed power s_1^w:
    equal to the w-th power of (1 - zeta)^(-1), built with no field
    product, kept on the backend, and the factor zbar puts on z."""
    import qmhs.mhs as mhs
    from qmhs.cyclotomic import CycloElem

    weights = range(1, 9)
    for n in (2, 7, 9, 12, 41, 49):
        field = get_field(n)
        targets = [inv_one_minus_zeta_pow(field, 1) ** w for w in weights]
        mhs._zbar_cached.cache_clear()
        mhs.exact_backend.cache_clear()
        backend = exact_backend(n)
        products = []
        for name in ("__mul__", "__pow__"):
            original = getattr(CycloElem, name)

            def counting(a, b, original=original, name=name):
                products.append(name)
                return original(a, b)

            monkeypatch.setattr(CycloElem, name, counting)
        scales = [backend.zbar_scale(w) for w in weights]
        monkeypatch.undo()
        assert products == [], n
        assert scales == targets, n
        for w, scale in zip(weights, scales):
            for index in (Index((w,)), Index.repeat(1, w)):
                assert zbar(index, n) == z(index, n) * scale, (n, index)
        assert all(backend.zbar_scale(w) is scale for w, scale in zip(weights, scales)), n
    mhs._zbar_cached.cache_clear()
    mhs.exact_backend.cache_clear()
