import random
from fractions import Fraction
from math import factorial

import pytest

from qmhs.cyclotomic import get_field
from qmhs.multiseries import (
    RATIONALS,
    MultiSeries,
    monomial_weight,
    ms_divide_xy_minus_z,
    ms_substitute,
)
from helpers import cosh_half_sqrt, exp_half_y, power, truncate, x_over_sinh_half_x


def _vars(cap):
    return (
        MultiSeries.variable("x", cap),
        MultiSeries.variable("y", cap),
        MultiSeries.variable("z", cap),
        MultiSeries.constant(1, cap),
    )


def _random_series(rng, cap, unit=False):
    coeffs = {}
    for _ in range(rng.randint(1, 10)):
        ex, ey, ez = rng.randint(0, cap), rng.randint(0, cap), rng.randint(0, cap // 2)
        if monomial_weight((ex, ey, ez)) > cap:
            continue
        coeffs[(ex, ey, ez)] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    if unit:
        coeffs[(0, 0, 0)] = Fraction(rng.randint(1, 5))
    return MultiSeries(RATIONALS, cap, coeffs)


def test_truncation_basics():
    x, y, z, one = _vars(2)
    assert (one + x) * (one - x) == one - x * x
    assert not power(MultiSeries.variable("x", 2), 2) * MultiSeries.variable("x", 2)
    xyz = MultiSeries.variable("x", 4) * MultiSeries.variable("y", 4) * MultiSeries.variable("z", 4)
    assert xyz.coefficient(1, 1, 1) == 1
    assert monomial_weight((1, 1, 1)) == 4


def test_cap_mismatch_rejected():
    with pytest.raises(ValueError):
        MultiSeries.variable("x", 3) + MultiSeries.variable("x", 4)


def test_ring_axioms_randomized():
    rng = random.Random(31)
    for _ in range(40):
        a, b, c = (_random_series(rng, 8) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_truncate_commutes_with_multiplication():
    rng = random.Random(37)
    for _ in range(30):
        a, b = _random_series(rng, 8), _random_series(rng, 8)
        assert truncate(a * b, 5) == truncate(a, 5) * truncate(b, 5)


def test_invert():
    one = MultiSeries.constant(1, 5)
    y = MultiSeries.variable("y", 5)
    geo = (one - y).invert()
    assert all(geo.coefficient(0, m, 0) == 1 for m in range(6))
    assert one.invert() == one
    rng = random.Random(41)
    for _ in range(25):
        a = _random_series(rng, 6, unit=True)
        assert a * a.invert() == MultiSeries.constant(1, 6)
    with pytest.raises(ZeroDivisionError):
        MultiSeries.variable("x", 4).invert()


def test_substitute_geometric():
    cap = 5
    x = MultiSeries.variable("x", cap)
    one = MultiSeries.constant(1, cap)
    u_img = x * (one + x).invert()
    f = MultiSeries.variable("u", cap)
    got = ms_substitute(f, u_img, MultiSeries.variable("y", cap), MultiSeries.variable("z", cap))
    for m in range(1, cap + 1):
        assert got.coefficient(m, 0, 0) == (-1) ** (m + 1)
    const = MultiSeries.constant(1, cap)
    assert ms_substitute(const, u_img, u_img, MultiSeries.variable("z", cap)) == const


def test_substitute_respects_multiplication():
    rng = random.Random(43)
    cap = 6
    x = MultiSeries.variable("x", cap)
    y = MultiSeries.variable("y", cap)
    z = MultiSeries.variable("z", cap)
    one = MultiSeries.constant(1, cap)
    images = (x * (one + x).invert(), y - z * (one + x).invert(), z * power((one + x).invert(), 2))
    for _ in range(15):
        f, g = _random_series(rng, cap), _random_series(rng, cap)
        lhs = ms_substitute(f * g, *images)
        rhs = ms_substitute(f, *images) * ms_substitute(g, *images)
        assert lhs == rhs


def test_substitute_rejects_constant_term():
    cap = 4
    one = MultiSeries.constant(1, cap)
    x = MultiSeries.variable("x", cap)
    with pytest.raises(ValueError):
        ms_substitute(x, one + x, x, MultiSeries.variable("z", cap))


def test_substitute_rejects_low_valuation():
    cap = 4
    x = MultiSeries.variable("x", cap)
    y = MultiSeries.variable("y", cap)
    with pytest.raises(ValueError):
        # weight-2 slot fed a weight-1 series
        ms_substitute(MultiSeries.variable("w", cap), x, y, x)


@pytest.mark.parametrize("field", (RATIONALS, get_field(5)), ids=("Q", "Q(zeta_5)"))
def test_divide_xy_minus_z(field):
    cap = 8
    x, y, z = (MultiSeries.variable(name, cap, field) for name in "xyz")
    d = x * y - z
    assert ms_divide_xy_minus_z(d) == MultiSeries.constant(1, cap - 2, field)
    assert ms_divide_xy_minus_z(d * d) == truncate(d, cap - 2)
    rng = random.Random(47)
    for _ in range(25):
        q = _random_series(rng, cap - 2).map_coefficients(field.from_rational, field)
        # promote q to the full cap before multiplying
        q_full = MultiSeries(field, cap, dict(q.coeffs))
        assert ms_divide_xy_minus_z(q_full * d) == q
    with pytest.raises(ValueError):
        ms_divide_xy_minus_z(x * y)


def test_kernel_builders():
    s = x_over_sinh_half_x(6)
    assert s.coefficient(0, 0, 0) == 2
    assert s.coefficient(2, 0, 0) == Fraction(-1, 12)
    assert s.coefficient(1, 0, 0) == 0
    e = exp_half_y(6)
    assert e.coefficient(0, 0, 0) == 1
    assert e.coefficient(0, 3, 0) == Fraction(1, 48)
    assert cosh_half_sqrt(MultiSeries.zero(6)) == MultiSeries.constant(1, 6)


def test_cosh_even_identity():
    # cosh(sqrt((x-y)^2)/2) equals the direct even expansion of cosh((x-y)/2)
    cap = 8
    x = MultiSeries.variable("x", cap)
    y = MultiSeries.variable("y", cap)
    d = x - y
    lhs = cosh_half_sqrt(d * d)
    rhs = MultiSeries.zero(cap)
    for m in range(0, cap // 2 + 1):
        rhs = rhs + power(d, 2 * m).scale(Fraction(1, 4**m * factorial(2 * m)))
    assert lhs == rhs
