from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
import sympy

from qmhs.closedforms import (
    Poly2,
    conjecture_check,
    depth_one_bar,
    exterior_F,
    kkk_closed,
    kkk_general,
)
from qmhs.mhs import Index, zbar


def test_depth_one_bar_examples():
    assert depth_one_bar(2, 3) == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]
    assert depth_one_bar(3, 4)[3] == Fraction(-1, 9)


def test_depth_one_bar_table_polynomials():
    for n in range(1, 21):
        k1, k2, k3, k4 = depth_one_bar(n, 4)
        assert k1 == Fraction(n - 1, 2)
        assert k2 == Fraction(-(n * n - 1), 12)
        assert k3 == Fraction(n * n - 1, 24)
        assert k4 == Fraction((n * n - 1) * (n * n - 19), 720)


def test_depth_one_bar_matches_direct_sums():
    for n in range(1, 21):
        table = depth_one_bar(n, 12)
        for k in range(1, 13):
            assert zbar(Index((k,)), n).rational_part() == table[k - 1], (n, k)


def test_kkk_closed_examples():
    assert kkk_closed(1, 2, 3) == Fraction(1, 3)
    assert kkk_closed(2, 1, 3) == Fraction(-2, 3)
    assert kkk_closed(3, 1, 2) == Fraction(1, 8)
    with pytest.raises(ValueError):
        kkk_closed(4, 1, 2)


def test_kkk_closed_matches_direct_sums():
    for k in (1, 2, 3):
        for n in range(1, 11):
            for r in range(1, 5):
                got = zbar(Index.repeat(k, r), n).rational_part()
                assert got == kkk_closed(k, r, n), (k, r, n)


def test_exterior_displays():
    assert exterior_F(2, 1) == Poly2({(0, 0): 1, (0, 1): -2, (0, 2): 1, (1, 1): 1})
    assert exterior_F(3, 1) == Poly2({(0, 0): 1, (0, 1): -3, (0, 2): 3, (0, 3): -1, (1, 1): -1})
    assert exterior_F(3, 2) == Poly2({(0, 0): 1, (0, 1): -3, (0, 2): 3, (0, 3): -1, (1, 2): 1})
    assert exterior_F(4, 0) == Poly2({(0, 0): 1, (0, 1): -1})


def test_exterior_at_x_zero():
    # with the deformation switched off all roots collapse to 1, so the
    # polynomial degenerates to (1 - Y)^C(k, l)
    for k in range(1, 6):
        for l in range(1, k + 1):
            f = exterior_F(k, l)
            at0 = {dy: c for (dx, dy), c in f.coeffs.items() if dx == 0}
            m = comb(k, l)
            expect = {j: Fraction((-1) ** j * comb(m, j)) for j in range(m + 1)}
            expect = {j: c for j, c in expect.items() if c}
            assert at0 == expect, (k, l)


def test_exterior_top_coefficient_in_x():
    # F_{1,1} = 1 - (1+X)Y: the naive product over one root
    assert exterior_F(1, 1) == Poly2({(0, 0): 1, (0, 1): -1, (1, 1): -1})


def test_kkk_general_matches_closed_forms():
    for k in (1, 2, 3):
        table = kkk_general(k, 12, 5)
        for n in range(1, 13):
            for r in range(1, 6):
                assert table[(n, r)] == kkk_closed(k, r, n), (k, n, r)


def test_kkk_general_examples():
    t2 = kkk_general(2, 3, 2)
    assert t2[(3, 1)] == Fraction(-2, 3)
    assert t2[(3, 2)] == Fraction(1, 9)
    t4 = kkk_general(4, 3, 1)
    assert t4[(3, 1)] == Fraction(-1, 9)


def test_kkk_general_matches_direct_sums():
    for k in (4, 5, 6, 8):
        table = kkk_general(k, 8, 3)
        for n in range(1, 9):
            for r in range(1, 4):
                got = zbar(Index.repeat(k, r), n).rational_part()
                assert got == table[(n, r)], (k, n, r)


def test_kkk_general_depth_one_matches_generating_series():
    # r = 1 is the depth-one value, which depth_one_bar reads off a series
    # that shares nothing with the root system
    for k in (7, 12, 20):
        table = kkk_general(k, 6, 1)
        for n in range(1, 7):
            assert table[(n, 1)] == depth_one_bar(n, k)[k - 1], (k, n)


def test_kkk_general_rejects_bad_ranges():
    for args in ((0, 3, 2), (3, -1, 2), (3, 3, -1)):
        with pytest.raises(ValueError):
            kkk_general(*args)
    assert kkk_general(3, 0, 3) == {}
    # r = 0 is the empty index, whose value is 1
    assert kkk_general(3, 2, 0) == {(1, 0): 1, (2, 0): 1}


X, Y = sympy.symbols("X Y")


def _sympy_exterior(k: int, l: int) -> Poly2:
    """det(I - Y * Lambda^l) in sympy, with Lambda^l the l-th compound of
    the companion matrix of (1-Y)^k + Y^(k-1) X made monic in Y."""
    monic = sympy.Poly((1 - Y) ** k + Y ** (k - 1) * X, Y).monic().all_coeffs()[::-1]
    comp = sympy.zeros(k, k)
    for i in range(k):
        if i:
            comp[i, i - 1] = 1
        comp[i, k - 1] = -monic[i]
    subsets = list(combinations(range(k), l))
    compound = sympy.Matrix(
        len(subsets), len(subsets),
        lambda a, b: comp.extract(list(subsets[a]), list(subsets[b])).det(),
    )
    det = (sympy.eye(len(subsets)) - Y * compound).det(method="berkowitz")
    return Poly2(sympy.Poly(sympy.expand(det), X, Y).as_dict())


def test_exterior_matches_sympy_compound_determinant():
    for k in range(1, 5):
        for l in range(0, k + 1):
            assert exterior_F(k, l) == _sympy_exterior(k, l), (k, l)


def test_conjecture_family1_examples():
    rep = conjecture_check(1, 4, 0, 0)
    assert rep.status == "report-only"
    assert rep.params["equal"] is True
    assert rep.lhs == "5*z" and rep.rhs == "5*z"
    assert conjecture_check(1, 3, 0, 0).params["equal"] is True


def test_conjecture_family1_holds_widely():
    for n in range(2, 10):
        for total in range(0, 4):
            for a in range(0, total + 1):
                b = total - a
                if a + b + 1 >= n:
                    continue
                assert conjecture_check(1, n, a, b).params["equal"] is True, (n, a, b)


def test_conjecture_family2_reports_disagreement():
    # the second family, as displayed, disagrees at a = b = 0 (and, as the
    # reports show, everywhere in this range the two sides differ by sign);
    # the checker only records this, it never asserts
    rep = conjecture_check(2, 2, 0, 0)
    assert rep.status == "report-only"
    assert rep.params["equal"] is False
    assert rep.lhs == "2" and rep.rhs == "-2"


def test_conjecture_rejects_bad_input():
    with pytest.raises(ValueError):
        conjecture_check(3, 4, 0, 0)
    with pytest.raises(ValueError):
        conjecture_check(1, 3, 1, 1)  # depth does not fit below n
