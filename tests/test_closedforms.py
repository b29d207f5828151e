import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from qmhs.closedforms import (
    Poly2,
    _companion,
    _series_log,
    bareiss_det,
    conjecture_check,
    depth_one_bar,
    exterior_F,
    kkk_closed,
    kkk_general,
)
from qmhs.exactnum import Poly
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
    for k in (4, 5):
        table = kkk_general(k, 8, 3)
        for n in range(1, 9):
            for r in range(1, 4):
                got = zbar(Index.repeat(k, r), n).rational_part()
                assert got == table[(n, r)], (k, n, r)


def test_series_log_turns_products_into_sums():
    rng = random.Random(61)
    xmax, ymax = 3, 5

    def random_series():
        f = {(0, 0): Fraction(1)}
        for _ in range(6):
            e = (rng.randint(0, xmax), rng.randint(1, ymax))
            f[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Poly2(f)

    for _ in range(10):
        f, g = random_series(), random_series()
        # _series_log truncates its input at X^xmax and Y^ymax
        lhs = _series_log(f * g, xmax, ymax)
        rhs = [a + b for a, b in zip(_series_log(f, xmax, ymax), _series_log(g, xmax, ymax))]
        assert lhs == rhs
    # log (1 - Y) = -sum Y^d / d
    assert _series_log(Poly2({(0, 0): 1, (0, 1): -1}), 0, 4) == [Poly()] + [
        Poly([Fraction(-1, d)]) for d in range(1, 5)
    ]


def test_series_log_rejects_y0_row_other_than_one():
    with pytest.raises(ValueError):
        _series_log(Poly2({(0, 0): 1, (1, 0): 1}), 3, 3)
    with pytest.raises(ValueError):
        _series_log(Poly2({(0, 0): 2, (0, 1): 1}), 3, 3)


def test_poly2_arithmetic_and_exact_division():
    rng = random.Random(53)
    for _ in range(30):
        f = Poly2({(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
                   for _ in range(rng.randint(1, 5))})
        g = Poly2({(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-5, 5))
                   for _ in range(rng.randint(1, 4))})
        if not f or not g:
            continue
        assert (f * g).div_exact(g) == f
    with pytest.raises(ValueError):
        Poly2({(1, 0): 1, (0, 0): 1}).div_exact(Poly2({(0, 1): 1}))


def _cofactor_det(sub):
    """Cofactor expansion along the first row, over Poly or Poly2 entries:
    the former minor routine of `exterior_F`, kept as the oracle."""
    size = len(sub)
    if size == 1:
        return sub[0][0]
    acc = type(sub[0][0])()
    for j in range(size):
        if not sub[0][j]:
            continue
        rest = [row[:j] + row[j + 1 :] for row in sub[1:]]
        term = sub[0][j] * _cofactor_det(rest)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(59)

    for size in (2, 3, 4):
        for _ in range(10):
            m = [
                [
                    Poly2({(rng.randint(0, 1), rng.randint(0, 1)): Fraction(rng.randint(-3, 3))})
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            assert bareiss_det(m) == _cofactor_det(m)
    # singular matrix
    row = [Poly2.const(1), Poly2.const(2)]
    assert not bareiss_det([row, row])


def test_bareiss_matches_cofactor_on_companion_minors():
    for k in range(1, 7):
        comp = _companion(k)
        for l in range(1, k + 1):
            for rows in combinations(range(k), l):
                for cols in combinations(range(k), l):
                    sub = [[comp[i][j] for j in cols] for i in rows]
                    assert bareiss_det(sub) == _cofactor_det(sub), (k, rows, cols)


def test_bareiss_singular_returns_zero_of_entry_type():
    # column 0 vanishes, so elimination stops at the first pivot
    assert bareiss_det([[Poly(), Poly([1])], [Poly(), Poly([2])]]) == Poly()
    zero, one = Poly2(), Poly2.const(1)
    assert bareiss_det([[zero, one], [zero, one + one]]) == Poly2()


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
