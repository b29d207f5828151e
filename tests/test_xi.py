import math
from fractions import Fraction

import pytest

from qmhs.exactnum import bernoulli
from qmhs.mhs import Index, enumerate_indices, z, z_star, exact_backend, numeric_backend
from qmhs.suites import _XI_TARGETS, _xi_numeric_instance
from qmhs.xi import (
    XiClosed,
    closed_form_target,
    convergence_study,
    tilde_u,
    tilde_u_star,
    xi_closed_depth1,
    xi_kkk,
    xi_sum_formula,
    z_numeric,
)


def test_depth_one_closed_forms():
    assert xi_closed_depth1(1) == XiClosed(Fraction(1, 2), 1)
    assert xi_closed_depth1(1).complex_value() == complex(0, -math.pi)
    assert abs(xi_closed_depth1(2).complex_value() - math.pi**2 / 3) < 1e-12
    assert xi_closed_depth1(3).coeff == 0


def test_constant_index_closed_forms():
    assert xi_kkk(1, 1).complex_value() == complex(0, -math.pi)
    assert abs(xi_kkk(2, 2).complex_value() - 2 * math.pi**4 / 45) < 1e-10
    assert xi_kkk(3, 1).coeff == 0
    assert abs(xi_kkk(3, 2).complex_value() - (-math.pi**6 / 945)) < 1e-9
    with pytest.raises(ValueError):
        xi_kkk(4, 1)


def test_all_ones_closed_form_consistency():
    # the weight-r depth-r profile contains only the all-ones index, so the
    # aggregated sum formula must reproduce the constant-index value; this
    # pins the factorial in the denominator of the all-ones family
    for r in range(1, 9):
        assert xi_sum_formula(r, r).coeff == xi_kkk(1, r).coeff, r
        assert xi_kkk(1, r).coeff == Fraction(1, math.factorial(r + 1))


def test_all_ones_limit_numerically():
    # z_n((1,1)) at q = exp(2*pi*i/n) approaches (-2*pi*i)^2/3! = -2*pi^2/3
    v = z_numeric(Index((1, 1)), 2**12)
    assert abs(v - (-2 * math.pi**2 / 3)) < 2e-2
    assert abs(v - (-4 * math.pi**2 / 3)) > 6  # not the (r+1)-denominator value


def test_sum_formula_reduces_to_depth_one():
    for k in range(1, 11):
        assert xi_sum_formula(k, 1).coeff == xi_closed_depth1(k).coeff


def test_sum_formula_is_depth_one_limits_weighted_by_inverse_factorials():
    """C(k+1, j) / (k+1)! = 1 / (j! (k+1-j)!), so the limit sum over
    weight k and depth r is sum_(j<=r) xi(k+1-j) / j!, term by term."""
    for k in range(1, 31):
        for r in range(1, k + 1):
            via_depth1 = sum(
                (xi_closed_depth1(k + 1 - j).coeff / math.factorial(j) for j in range(1, r + 1)),
                Fraction(0),
            )
            assert xi_sum_formula(k, r) == XiClosed(via_depth1, k), (k, r)


def test_xi_numeric_targets_are_the_closed_forms():
    """The xi-numeric rows display their closed-form limits, the zero
    limit of (3) as 0.000000, not -0.000000."""
    rows = [row for index, bound in _XI_TARGETS for row in _xi_numeric_instance(index, bound)]
    assert [row.rhs for row in rows] == ["3.289868", "-6.579736", "0.000000"]


def test_kernel_low_coefficients():
    kernel = tilde_u(8)
    assert kernel.coefficient(0, 0, 0) == 1
    assert kernel.coefficient(0, 1, 0) == Fraction(1, 2)
    assert kernel.coefficient(0, 0, 1) == Fraction(-1, 12)
    assert kernel.coefficient(0, 2, 0) == Fraction(1, 6)
    assert kernel.coefficient(1, 0, 1) == 0


def test_kernel_depth_one_profiles():
    kernel = tilde_u(8)
    for k in range(1, 9):
        e = (0, 1, 0) if k == 1 else (k - 2, 0, 1)
        assert kernel.coefficient(*e) == -bernoulli(k) / math.factorial(k), k


def test_kernel_two_profiles():
    kernel = tilde_u(8)
    for r in range(1, 4):
        assert kernel.coefficient(0, 0, r) == xi_kkk(2, r).coeff, r


def test_kernel_three_squared_profile_value():
    # the weight-6 depth-2 height-2 profile contains (4,2), (3,3) and (2,4),
    # not just the constant index; the frozen value -1/15120 was computed
    # independently from the even-series expansion and confirmed against
    # the scaled finite-level kernel and against numeric sums at large n
    kernel = tilde_u(8)
    assert kernel.coefficient(2, 0, 2) == Fraction(-1, 15120)
    # numeric confirmation: (-2 pi i)^(-6) * sum of the three limits
    total = sum(z_numeric(Index(p), 2**11) for p in ((4, 2), (3, 3), (2, 4)))
    normalized = total / (-2j * math.pi) ** 6
    assert abs(normalized - (-1 / 15120)) < 2e-6


def test_kernel_row_sums_match_sum_formula():
    kernel = tilde_u(8)
    for k in range(1, 9):
        for r in range(1, k + 1):
            got = sum(
                (
                    kernel.coefficient(k - r - s, r - s, s)
                    for s in range(0, min(r, k - r) + 1)
                ),
                Fraction(0),
            )
            assert got == xi_sum_formula(k, r).coeff, (k, r)


def test_star_kernel_depth_one_equals_plain():
    kernel = tilde_u(8)
    star = tilde_u_star(8)
    for k in range(1, 9):
        e = (0, 1, 0) if k == 1 else (k - 2, 0, 1)
        assert star.coefficient(*e) == kernel.coefficient(*e), k


def test_z_numeric_examples():
    assert abs(z_numeric(Index((2,)), 4) - 2.5j) < 1e-12
    assert abs(z_numeric(Index((1,)), 2) - 1.0) < 1e-15
    f3 = exact_backend(3).field
    expect = (-f3.zeta).complex_value()
    assert abs(z_numeric(Index((1, 1)), 3) - expect) < 1e-14


def test_numeric_agrees_with_exact_rendering():
    indices = [
        ix
        for w in range(1, 5)
        for r in range(1, w + 1)
        for ix in enumerate_indices(w, r)
    ]
    for n in range(2, 51):
        nb = numeric_backend(n)
        for ix in indices:
            exact = z(ix, n).complex_value()
            assert abs(exact - z(ix, n, nb)) < 1e-10, (ix, n)


def test_convergence_study_monotone():
    schedule = [2**e for e in range(8, 13)]
    study = convergence_study(Index((2,)), schedule)
    errs = study.errors()
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert study.rate == pytest.approx(-1.0, abs=0.1)
    study3 = convergence_study(Index((3,)), schedule)
    assert study3.target == 0
    assert all(a > b for a, b in zip(study3.errors(), study3.errors()[1:]))


def test_closed_form_target_selection():
    assert closed_form_target(Index((5,))).coeff == -bernoulli(5) / math.factorial(5)
    assert closed_form_target(Index((2, 2))).coeff == xi_kkk(2, 2).coeff
    with pytest.raises(ValueError):
        closed_form_target(Index((4, 2)))
    with pytest.raises(ValueError):
        closed_form_target(Index((4, 4)))
