"""Differential checks of the integer cyclotomic core.

The field multiplies by Kronecker substitution over one common
denominator.  These tests compare it with a schoolbook product over
Fractions reduced through a table of zeta powers (the field's former
multiply), with sympy, and compare the closed-form inverse of
1 - zeta^m with the extended-gcd inverse.  Property tests drive the
packing and unpacking around the one Kronecker product at every width a
product may need, on fields whose products fold with x^n = 1 (n = 9, 41,
49, 97) and on fields whose products do not.
"""

import functools
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qmhs.cyclotomic import (
    CycloElem,
    _offsets,
    _pack,
    _unpack,
    cyclotomic_polynomial,
    get_field,
    q_integer,
)
from qmhs.mhs import ExactBackend

ORACLE_NS = (1, 2, 3, 12, 41, 49, 60, 97, 128)
INVERSE_NS = tuple(range(1, 60)) + (97, 128)


def _reduction_table(field):
    """zeta^j as a Fraction vector for j = 0..2*degree-2."""
    d = field.degree
    rows = [[Fraction(0)] * d for _ in range(2 * d - 1)]
    for j in range(d):
        rows[j][j] = Fraction(1)
    # phi is monic: x^d = -(phi - x^d)
    top = [-c for c in field.phi.coeffs[:d]]
    for j in range(d, 2 * d - 1):
        prev = rows[j - 1]
        shifted = [Fraction(0)] + prev[: d - 1]
        carry = prev[d - 1]
        if carry:
            shifted = [shifted[i] + carry * top[i] for i in range(d)]
        rows[j] = shifted
    return rows


def schoolbook_mul(field, a, b, table):
    """Product of two reduced Fraction vectors: every pair of terms, then
    each power above the degree replaced by its row of the table."""
    d = field.degree
    raw = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    raw[i + j] += x * y
    out = raw[:d]
    for j in range(d, 2 * d - 1):
        if raw[j]:
            out = [o + raw[j] * r for o, r in zip(out, table[j])]
    return tuple(out)


def _random_coeffs(field, rng):
    """Zero entries, negative entries, non-trivial denominators and
    numerators of very different sizes."""
    scale = rng.choice([1, 7, 2**20, 2**63, 2**130])
    den = rng.choice([1, 1, 2, 6, 360, 7**5])
    out = []
    for _ in range(field.degree):
        if rng.random() < 0.25:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.randint(-scale, scale), rng.randint(1, den)))
    return out


def _boundary_coeffs(field, rng):
    """Constant vectors of +-M with M at a power of two: their products
    reach d * M^2 exactly, at the edge of the packing width."""
    m = rng.choice([2**7 - 1, 2**7, 2**8, 2**15, 2**31 - 1, 2**32, 2**63, 2**64 - 1])
    sign = rng.choice([1, -1])
    return [Fraction(sign * m)] * field.degree


@pytest.mark.parametrize("n", ORACLE_NS)
def test_mul_matches_schoolbook_oracle(n):
    rng = random.Random(1000 + n)
    field = get_field(n)
    table = _reduction_table(field)
    samples = [
        ([Fraction(0)] * field.degree, _random_coeffs(field, rng)),
        (_boundary_coeffs(field, rng), _boundary_coeffs(field, rng)),
        (_boundary_coeffs(field, rng), _random_coeffs(field, rng)),
    ]
    samples += [(_random_coeffs(field, rng), _random_coeffs(field, rng)) for _ in range(6)]
    for a, b in samples:
        got = CycloElem(field, a) * CycloElem(field, b)
        assert got.coeffs == schoolbook_mul(field, a, b, table)
        assert got.den > 0 and gcd(got.den, *got.num) == 1


def test_pack_unpack_at_width_edges():
    for width in (1, 2, 3, 8, 9):
        half = 1 << (8 * width - 1)
        vec = [half - 1, -half, 0, -1, 1, -(half - 1), half - 1]
        assert _unpack(_pack(vec, width), width, len(vec), len(vec)) == vec
        # a product of packed vectors unpacks to the exact convolution,
        # folded with x^period = 1 when it is longer than the period
        r = isqrt(half // 2 - 8)
        a, b = [r, -3, 1], [-1, 2, -r]
        conv = [sum(a[i] * b[k - i] for i in range(3) if 0 <= k - i < 3) for k in range(5)]
        product = _pack(a, width) * _pack(b, width)
        assert _unpack(product, width, 5, 5) == conv
        assert _unpack(product, width, 5, 4) == [conv[0] + conv[4]] + conv[1:4]
        assert _unpack(product, width, 5, 3) == [conv[0] + conv[3], conv[1] + conv[4], conv[2]]


# Fields of both kinds: a product of degree 2d - 2 reaches x^n, and is
# folded with x^n = 1 before the reduction, for n = 9, 41, 49 and 97 only.
KERNEL_NS = (1, 2, 3, 9, 10, 12, 41, 49, 97, 128)
# Bytes a product may need: the machine widths, the widths between them,
# which the multiply rounds up, and widths past the widest.
PRODUCT_WIDTHS = (1, 2, 3, 4, 5, 8, 9, 12)


@functools.cache
def _table(n):
    return _reduction_table(get_field(n))


def _needed_width(degree, a, b):
    """Bytes per digit for the bound degree * max|a| * max|b| and a sign."""
    bound = degree * max(map(abs, a)) * max(map(abs, b))
    return (bound.bit_length() + 8) // 8


@st.composite
def _operands_needing_width(draw):
    """(n, width, a, b): integer vectors whose product bound needs `width`
    bytes.  max|a| * max|b| * degree sits in the upper half of the range
    of that width, each vector holds its maximum with a random sign, and
    the other entries are zero, extreme or anywhere in between."""
    n = draw(st.sampled_from(KERNEL_NS))
    d = get_field(n).degree
    width = draw(st.sampled_from(PRODUCT_WIDTHS))
    top = draw(st.integers(1 << (8 * width - 2), (1 << (8 * width - 1)) - 1))
    big = draw(st.integers(1, max(1, top // (2 * d))))
    vecs = []
    for m in (big, max(1, top // (d * big))):
        entry = st.one_of(st.sampled_from((m, -m, 0)), st.integers(-m, m))
        vec = draw(st.lists(entry, min_size=d, max_size=d))
        vec[draw(st.integers(0, d - 1))] = draw(st.sampled_from((m, -m)))
        vecs.append(vec)
    return (n, width, *vecs)


@settings(max_examples=150, deadline=None)
@given(_operands_needing_width())
def test_mul_matches_schoolbook_at_every_product_width(case):
    n, width, a, b = case
    field = get_field(n)
    assert _needed_width(field.degree, a, b) == width
    got = CycloElem(field, a) * CycloElem(field, b)
    assert got.coeffs == schoolbook_mul(field, a, b, _table(n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pack_unpack_round_trip_and_fold_at_extreme_digits(data):
    width = data.draw(st.sampled_from(PRODUCT_WIDTHS))
    top = (1 << (8 * width - 1)) - 1  # X / 2 - 1, the largest digit allowed
    digit = st.one_of(st.sampled_from((top, -top, 0, 1, -1)), st.integers(-top, top))
    vec = data.draw(st.lists(digit, min_size=1, max_size=40))
    count = len(vec)
    assert _unpack(_pack(vec, width), width, count, count) == vec
    # Folding with x^period = 1 adds entry i + period onto entry i: split
    # each folded entry i < count - period between the two positions.
    period = data.draw(st.integers(count // 2 + 1, count))
    folded, spill = vec[:period], count - period
    spread = ([f - f // 2 for f in folded[:spill]] + folded[spill:]
              + [f // 2 for f in folded[:spill]])
    assert _unpack(_pack(spread, width), width, count, period) == folded


def test_kronecker_offsets_cache_is_bounded():
    assert _offsets.cache_info().maxsize is not None


def test_cyclotomic_polynomial_matches_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 151):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(n).coeffs) == [Fraction(int(c)) for c in expected]


@pytest.mark.parametrize("n", (5, 12, 41, 60))
def test_mul_matches_sympy_remainder(n):
    x = sympy.Symbol("x")
    rng = random.Random(n)
    field = get_field(n)
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    for _ in range(3):
        a, b = _random_coeffs(field, rng), _random_coeffs(field, rng)
        pa = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(a)],
                        x, domain="QQ")
        pb = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(b)],
                        x, domain="QQ")
        rem = sympy.rem(pa * pb, phi).all_coeffs()[::-1]
        expected = [Fraction(int(c.p), int(c.q)) for c in rem]
        expected += [Fraction(0)] * (field.degree - len(expected))
        assert (CycloElem(field, a) * CycloElem(field, b)).coeffs == tuple(expected)


@pytest.mark.parametrize("n", INVERSE_NS)
def test_closed_form_inverse_matches_xgcd(n):
    field = get_field(n)
    for m in range(1, n):
        closed = field.inv_one_minus_zeta_pow(m)
        assert closed == (field.one - field.zeta_pow(m)).inverse()
    with pytest.raises(ZeroDivisionError):
        field.inv_one_minus_zeta_pow(n)


@pytest.mark.parametrize("n", INVERSE_NS)
def test_backend_inverse_q_integers(n):
    backend = ExactBackend(n)
    field = backend.field
    for m in range(1, n):
        assert backend._inv_qint[m] * q_integer(m, field) == field.one
