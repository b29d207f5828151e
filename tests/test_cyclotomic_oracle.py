"""Differential checks of the integer cyclotomic core.

The field multiplies by Kronecker substitution over one common
denominator.  These tests compare it with a schoolbook product over
Fractions reduced through a table of zeta powers (the field's former
multiply), with sympy, and with a `Poly` product reduced by
`Poly.divmod` for every kind of operand the multiply treats apart
(dense, rational, +-zeta^j, c zeta^j, zero).  The Galois conjugation is
compared with a permutation of exponents reduced by `Poly.divmod`, and
the inverse (conjugates over the norm) with the extended-gcd route of
`exactnum.poly_xgcd` and with the closed-form inverse of 1 - zeta^m.
Property tests drive the packing and unpacking around the one Kronecker
product at every width a product may need, on fields whose products
fold with x^n = 1 (n = 9, 41, 49, 97) and on fields whose products do
not.  Digits are sized for the d products a folded coefficient sums at
any n, the prime powers among them (9, 41, 49, 97, 128) included.
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
from qmhs.exactnum import Poly, poly_xgcd
from qmhs.mhs import ExactBackend
from helpers import inv_one_minus_zeta_pow

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
# Bytes a digit may take anywhere `_unpack` reads: every width up to one
# past the widest machine integer, those between machine widths read
# again at 8 bytes, and a wider one.
DIGIT_WIDTHS = (*range(1, 10), 12)


@functools.cache
def _table(n):
    return _reduction_table(get_field(n))


def _needed_width(terms, a, b):
    """Bytes per digit for the bound terms * max|a| * max|b| and a sign."""
    bound = terms * max(map(abs, a)) * max(map(abs, b))
    return (bound.bit_length() + 8) // 8


@st.composite
def _operands_needing_width(draw):
    """(n, width, a, b): integer vectors whose product bound needs `width`
    bytes.  max|a| * max|b| * terms (the products a coefficient folded
    with x^n = 1 may sum: the degree d) sits in the upper half of the
    range of that width, each vector holds its maximum with a random
    sign, and the other entries are zero, extreme or anywhere in
    between."""
    n = draw(st.sampled_from(KERNEL_NS))
    field = get_field(n)
    d = terms = field.degree
    # the widths the bound can reach: all-ones operands already need terms
    width = draw(st.sampled_from([w for w in PRODUCT_WIDTHS if terms <= 1 << (8 * w - 2)]))
    top = draw(st.integers(1 << (8 * width - 2), (1 << (8 * width - 1)) - 1))
    big = draw(st.integers(1, max(1, top // (2 * terms))))
    vecs = []
    for m in (big, max(1, top // (terms * big))):
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
    width = data.draw(st.sampled_from(DIGIT_WIDTHS))
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
    for n in (*range(1, 151), 210, 1000):
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
        closed = inv_one_minus_zeta_pow(field, m)
        assert closed == (field.one - field.zeta_pow(m)).inverse()
    with pytest.raises(ZeroDivisionError):
        inv_one_minus_zeta_pow(field, n)


@pytest.mark.parametrize("n", INVERSE_NS)
def test_backend_inverse_q_integers(n):
    backend = ExactBackend(n)
    field = backend.field
    for m in range(1, n):
        assert backend.weight(1, m) * q_integer(m, field) == field.one


def test_packed_digit_bound_counts_every_product():
    """The multiply sizes its digits by d * max|a| * max|b|: the packed
    integer ends holding the product folded with x^n = 1, so d must cover
    the products a_i b_j (i, j < d) that land on one residue modulo n,
    and x^(d-1) alone takes d of them."""
    for n in (1, 2, 3, 4, 8, 9, 12, 25, 27, 30, 49, 97):
        d = get_field(n).degree
        counts = [0] * n
        for i in range(d):
            for j in range(d):
                counts[(i + j) % n] += 1
        assert max(counts) == d, n


def _divmod_vector(field, poly):
    """A Poly's remainder by phi through `Poly.divmod`, as d Fractions."""
    _, rem = poly.divmod(field.phi)
    return list(rem.coeffs) + [Fraction(0)] * (field.degree - len(rem.coeffs))


def _divmod_elem(field, poly):
    return CycloElem(field, _divmod_vector(field, poly))


def _dense(field, rng, size):
    vec = [Fraction(rng.randint(-size, size), rng.randint(1, 9)) for _ in range(field.degree)]
    if field.degree > 1:
        vec[0], vec[-1] = Fraction(size, 7), Fraction(-1, 3)
    return vec


CONJUGATE_NS = tuple(range(1, 61)) + (64, 81, 97, 105)


@pytest.mark.parametrize("n", CONJUGATE_NS)
def test_conjugate_matches_divmod_and_composes(n):
    field = get_field(n)
    rng = random.Random(n)
    units = [u for u in range(n) if gcd(u, n) == 1]
    a = CycloElem(field, _dense(field, rng, 10**6))
    images = {}
    for u in units:
        # sum c_i x^(iu mod n), reduced without the field's own reduction
        vec = [Fraction(0)] * n
        for i, c in enumerate(a.coeffs):
            vec[i * u % n] += c
        images[u] = field.conjugates(a, [(u, 0)])[0]
        assert images[u] == _divmod_elem(field, Poly(vec)), u
        assert images[u].den == a.den
    for u in units:
        v = rng.choice(units)
        assert field.conjugates(images[v], [(u, 0)])[0] == images[u * v % n], (u, v)
    if n > 1:
        with pytest.raises(ValueError):
            field.conjugates(a, [(n, 0)])


FAST_PATH_NS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 25, 27, 30, 49, 64, 81, 97, 105)
# From 1 to 10^40: products need digits 1, 2, 4 and 8 bytes wide, and
# wider ones through the bytes fallback.
SIZES = (1, 10**2, 10**5, 10**12, 10**40)


def _operand(field, rng, kind, size):
    d = field.degree
    vec = [Fraction(0)] * d
    j = rng.randrange(d)
    if kind == "dense":
        vec = _dense(field, rng, size)
    elif kind == "rational":
        vec[0] = Fraction(rng.choice((-1, 1)) * rng.randint(1, size), rng.randint(1, 9))
    elif kind == "unit":
        vec[j] = Fraction(rng.choice((-1, 1)))
    elif kind == "monomial":
        vec[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, size), rng.randint(2, 9))
    return CycloElem(field, vec)


@pytest.mark.parametrize("n", FAST_PATH_NS)
def test_mul_fast_paths_match_divmod(n):
    field = get_field(n)
    rng = random.Random(1000 + n)
    kinds = ("dense", "rational", "unit", "monomial", "zero")
    for ka in kinds:
        for kb in kinds:
            for size in SIZES:
                a = _operand(field, rng, ka, size)
                b = _operand(field, rng, kb, rng.choice(SIZES) if ka == kb == "dense" else size)
                expected = _divmod_elem(field, Poly(a.coeffs) * Poly(b.coeffs))
                got = a * b
                assert got == expected, (ka, kb, size)
                assert got.den > 0 and gcd(got.den, *got.num) == 1


def _xgcd_inverse(a):
    s, _, g = poly_xgcd(Poly(a.coeffs), a.field.phi)
    return a.field.element(s.scale(g.coeffs[0] ** -1))


@pytest.mark.parametrize("n", range(1, 42))
def test_inverse_matches_xgcd(n):
    field = get_field(n)
    rng = random.Random(2000 + n)
    a = CycloElem(field, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(field.degree)])
    a = a or field.one
    inverse = a.inverse()
    assert inverse == _xgcd_inverse(a)
    assert a * inverse == field.one
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_inverse_at_97():
    """The xgcd route takes about 45 s on an element dense in all 96
    coefficients at n = 97, so it checks one dense in its first 8; the
    dense one is checked by its product."""
    field = get_field(97)
    rng = random.Random(97)
    low = CycloElem(field, _dense(get_field(17), rng, 9)[:8] + [Fraction(0)] * 88)
    assert low.inverse() == _xgcd_inverse(low)
    dense = CycloElem(field, _dense(field, rng, 50))
    assert dense * dense.inverse() == field.one
