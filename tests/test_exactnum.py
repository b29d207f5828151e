import random
from fractions import Fraction

import pytest

from qmhs.exactnum import RATIONALS, Poly, bernoulli, binomial, poly_xgcd
from qmhs.multiseries import MultiSeries


def binom_convolution(n: int, m: int) -> int:
    """Sum of C(n-a-1, b) * C(n-b-1, a) over a, b >= 0 with a + b = m.

    Requires n > m >= 0.  The closed form of this sum is C(2n-m-1, m),
    which the tests below assert.
    """
    if not n > m >= 0:
        raise ValueError(f"binom_convolution requires n > m >= 0, got n={n}, m={m}")
    return sum(binomial(n - a - 1, m - a) * binomial(n - m + a - 1, a) for a in range(m + 1))


def test_binomial_small():
    assert binomial(5, 2) == 10
    assert binomial(3, 3) == 1
    assert binomial(4, 7) == 0
    assert binomial(0, 0) == 1
    assert binomial(7, -1) == 0


def test_binomial_negative_n():
    # polynomial extension: C(n, k) = n(n-1)...(n-k+1)/k!
    assert binomial(-1, 0) == 1
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(-3, 4) == 15


def test_bernoulli_first_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence_and_odd_vanishing():
    # defining recurrence: sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1
    for k in range(1, 31):
        total = sum(binomial(k + 1, j) * bernoulli(j) for j in range(k + 1))
        assert total == 0, k
    for k in range(3, 31, 2):
        assert bernoulli(k) == 0


def test_binom_convolution_examples():
    assert binom_convolution(3, 0) == 1
    assert binom_convolution(3, 1) == 4
    assert binom_convolution(2, 1) == 2


def test_binom_convolution_closed_form():
    for n in range(1, 41):
        for m in range(0, n):
            assert binom_convolution(n, m) == binomial(2 * n - m - 1, m)


def test_binom_convolution_rejects_bad_input():
    with pytest.raises(ValueError):
        binom_convolution(3, 3)
    with pytest.raises(ValueError):
        binom_convolution(2, -1)


def _random_poly(rng, max_deg=6):
    return Poly(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, max_deg))]
    )


def test_ratpoly_canonical_form():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([]).degree == -1
    assert not Poly([0, 0])
    assert Poly.monomial(3).degree == 3


def test_ratpoly_ring_properties():
    rng = random.Random(7)
    for _ in range(50):
        f, g, h = (_random_poly(rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert (f * g)(t) == f(t) * g(t)


def test_ratpoly_divmod_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        f = _random_poly(rng, 8)
        g = _random_poly(rng, 4)
        if not g:
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree
    with pytest.raises(ZeroDivisionError):
        Poly([1]).divmod(Poly())


def test_poly_xgcd():
    rng = random.Random(13)
    for _ in range(25):
        a, b = _random_poly(rng, 5), _random_poly(rng, 5)
        s, t, g = poly_xgcd(a, b)
        assert s * a + t * b == g


def test_series_inverse():
    # series inversion as a one-variable MultiSeries.invert, on series in x alone
    def inverse(coeffs, prec):
        s = MultiSeries(RATIONALS, prec - 1, {(d, 0, 0): c for d, c in enumerate(coeffs)})
        inv = s.invert()
        return [inv.coefficient(d, 0, 0) for d in range(prec)]

    # 1/(1 - x) = 1 + x + x^2 + ...
    inv = inverse([Fraction(1), Fraction(-1)], 6)
    assert inv == [Fraction(1)] * 6
    rng = random.Random(17)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-4, 4)) for _ in range(5)
        ]
        inv = inverse(coeffs, 7)
        # convolution with the original gives 1, 0, 0, ...
        for d in range(7):
            conv = sum(
                coeffs[a] * inv[d - a] for a in range(min(d, len(coeffs) - 1) + 1)
            )
            assert conv == (1 if d == 0 else 0)
