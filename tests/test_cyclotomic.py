import random
from fractions import Fraction
from math import gcd

import pytest

from qmhs.cyclotomic import (
    CycloElem,
    CycloField,
    cyclotomic_polynomial,
    get_field,
    parse_cyclo,
    q_integer,
    render_cyclo,
)
from qmhs.exactnum import Poly
from helpers import element, inv_one_minus_zeta_pow


def totient(n):
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == Poly([-1, 1])
    assert cyclotomic_polynomial(2) == Poly([1, 1])
    assert cyclotomic_polynomial(4) == Poly([1, 0, 1])
    assert cyclotomic_polynomial(6) == Poly([1, -1, 1])
    assert cyclotomic_polynomial(12) == Poly([1, 0, -1, 0, 1])


def test_cyclotomic_polynomial_structure():
    for n in range(1, 31):
        phi = cyclotomic_polynomial(n)
        assert phi.degree == totient(n)
        assert phi.coeffs[-1] == 1  # monic
        assert all(c.denominator == 1 for c in phi.coeffs)
        # divides x^n - 1 exactly
        xn1 = Poly.monomial(n) - Poly([1])
        q, r = xn1.divmod(phi)
        assert not r


def test_zeta_is_root():
    for n in range(1, 51):
        field = get_field(n)
        assert not element(field, cyclotomic_polynomial(n))


def test_norm_identity():
    # product of (1 - zeta^j) over 0 < j < n equals n
    for n in range(2, 51):
        field = get_field(n)
        prod = field.one
        for j in range(1, n):
            prod = prod * (field.one - field.zeta_pow(j))
        assert prod == field.from_rational(n)


def test_basic_arithmetic_examples():
    f3 = get_field(3)
    assert (f3.one + f3.zeta).inverse() == -f3.zeta
    f4 = get_field(4)
    assert f4.zeta * f4.zeta == -f4.one
    assert f4.one.inverse() == f4.one


def test_inverse_of_zero_raises():
    f5 = get_field(5)
    with pytest.raises(ZeroDivisionError):
        f5.zero.inverse()


def test_mixed_fields_raise():
    with pytest.raises(ValueError):
        get_field(3).one + get_field(4).one


def test_q_integer_examples():
    f4 = get_field(4)
    assert q_integer(1, f4) == f4.one
    assert q_integer(2, f4) == f4.one + f4.zeta
    assert q_integer(3, f4) == f4.zeta
    assert not q_integer(4, f4)


def test_q_integer_inverses():
    for n in range(2, 31):
        field = get_field(n)
        assert not q_integer(n, field)
        for m in range(1, n):
            qm = q_integer(m, field)
            assert qm * qm.inverse() == field.one


def test_is_rational():
    f3 = get_field(3)
    assert f3.from_rational(Fraction(3, 2)).is_rational()
    assert f3.from_rational(Fraction(3, 2)).rational_part() == Fraction(3, 2)
    assert not f3.zeta.is_rational()
    with pytest.raises(ValueError):
        f3.zeta.rational_part()
    # (1 - zeta)(1 - zeta^2) = 3 in Q(zeta_3)
    prod = (f3.one - f3.zeta) * (f3.one - f3.zeta_pow(2))
    assert prod.is_rational() and prod.rational_part() == 3


def _random_elem(field, rng):
    coeffs = tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(field.degree)
    )
    return CycloElem(field, coeffs)


def test_field_axioms_randomized():
    rng = random.Random(23)
    for n in (3, 4, 5, 6, 12):
        field = get_field(n)
        for _ in range(20):
            a, b, c = (_random_elem(field, rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            if a:
                assert a * a.inverse() == field.one


def test_small_n_degenerate_fields():
    f1 = get_field(1)
    assert f1.zeta == f1.one
    f2 = get_field(2)
    assert f2.zeta == -f2.one
    assert q_integer(1, f2) == f2.one


@pytest.mark.parametrize("make", (
    lambda: get_field(0), lambda: get_field(-3), lambda: CycloField(0),
), ids=("get_field(0)", "get_field(-3)", "CycloField(0)"))
def test_non_positive_level_raises(make):
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        make()


def test_render_parse_roundtrip():
    rng = random.Random(29)
    for n in (1, 2, 3, 4, 5, 8, 12):
        field = get_field(n)
        for _ in range(15):
            a = _random_elem(field, rng)
            assert parse_cyclo(render_cyclo(a), field) == a
    assert render_cyclo(get_field(4).zero) == "0"
    assert render_cyclo(-get_field(4).zeta) == "-z"


def _pow_base():
    field = get_field(11)
    return field, CycloElem(field, [Fraction(3, 2), -1, 0, 2, 0, 0, 5, 0, 0, -7])


def test_pow_multiplication_count(monkeypatch):
    # binary powering starts from the base and never squares past the
    # top bit: e = 1, 2, 3 take 0, 1, 2 products
    _, x = _pow_base()
    calls = []
    original = CycloElem.__mul__

    def counting(a, b):
        calls.append(None)
        return original(a, b)

    monkeypatch.setattr(CycloElem, "__mul__", counting)
    for e, expected in ((1, 0), (2, 1), (3, 2)):
        calls.clear()
        x ** e
        assert len(calls) == expected, e


def test_pow_equals_repeated_multiplication():
    field, x = _pow_base()
    x_inv = x.inverse()
    for e in range(-3, 10):
        expected = field.one
        for _ in range(abs(e)):
            expected = expected * (x if e > 0 else x_inv)
        assert x ** e == expected, e


def test_render_reads_coefficients_once(monkeypatch):
    field = get_field(97)
    a = q_integer(5, field) * inv_one_minus_zeta_pow(field, 3)
    expected = render_cyclo(a)
    builds = []
    coeffs = CycloElem.coeffs

    def counting(self):
        builds.append(1)
        return coeffs.fget(self)

    monkeypatch.setattr(CycloElem, "coeffs", property(counting))
    assert render_cyclo(a) == expected
    assert len(builds) == 1
