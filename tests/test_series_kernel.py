"""The integer kernel behind MultiSeries products and inverses, against the
schoolbook double loops over field elements that it replaced, kept here
as oracles.  Over Q(zeta_n) the packed digit width is recorded and
checked: drawn heights put it at 1, 2, 4 and 8 bytes and above, one case
needs the wider digit only because two products meet in an output, and
one sum is nonzero as an integer but zero modulo the cyclotomic
polynomial."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmhs import cyclotomic
from qmhs.cyclotomic import CycloElem, get_field
from qmhs.multiseries import RATIONALS, MultiSeries, monomial_weight

KERNEL_NS = (1, 2, 3, 4, 9, 10, 12, 15, 41, 49)
CAP_MAX = 8
MONOMIALS = [(a, b, c) for a in range(CAP_MAX + 1) for b in range(CAP_MAX + 1)
             for c in range(CAP_MAX // 2 + 1) if a + b + 2 * c <= CAP_MAX]
# digit bytes and the bit lengths of the bound that select them
BANDS = {1: (0, 7), 2: (8, 15), 4: (16, 31), 8: (32, 63), 9: (64, 100)}


def schoolbook_mul(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    """The product as a double loop over field elements."""
    cap = a.cap
    out: dict = {}
    for (a1, b1, c1), va in a.coeffs.items():
        w1 = a1 + b1 + 2 * c1
        for (a2, b2, c2), vb in b.coeffs.items():
            if w1 + a2 + b2 + 2 * c2 > cap:
                continue
            e = (a1 + a2, b1 + b2, c1 + c2)
            prod = va * vb
            prev = out.get(e)
            out[e] = prod if prev is None else prev + prod
    return MultiSeries(a.field, cap, out)


def schoolbook_invert(s: MultiSeries) -> MultiSeries:
    """The inverse by graded back-substitution over field elements:
    B_0 = 1/c0 and B_w = -(1/c0) sum_(j=1..w) A_j B_(w-j)."""
    inv0 = s.constant_term() ** -1
    layers: dict = {}
    for e, c in s.coeffs.items():
        layers.setdefault(monomial_weight(e), {})[e] = c
    out: dict = {0: {(0, 0, 0): inv0}}
    for w in range(1, s.cap + 1):
        layer: dict = {}
        for j in range(1, w + 1):
            for (a1, b1, c1), va in layers.get(j, {}).items():
                for (a2, b2, c2), vb in out[w - j].items():
                    e = (a1 + a2, b1 + b2, c1 + c2)
                    prod = va * vb
                    prev = layer.get(e)
                    layer[e] = prod if prev is None else prev + prod
        out[w] = {e: -(inv0 * c) for e, c in layer.items() if c}
    return MultiSeries(s.field, s.cap, {e: c for layer in out.values() for e, c in layer.items()})


@contextmanager
def packed_widths():
    """The digit widths of every vector packed inside the block."""
    seen = []
    pack = cyclotomic._pack

    def recording(vec, width):
        seen.append(width)
        return pack(vec, width)

    with mock.patch.object(cyclotomic, "_pack", recording):
        yield seen


def width_for(bound: int) -> int:
    size = (bound.bit_length() + 8) // 8
    return next(w for w in (1, 2, 4, 8) if size <= w) if size <= 8 else size


def expected_width(a: MultiSeries, b: MultiSeries) -> int:
    """The width the bound d * pairs * max|a| * max|b| selects, with
    the heights taken over each operand's common denominator."""
    def height(s):
        den = math.lcm(*(c.den for c in s.coeffs.values()))
        return max(abs(x) * (den // c.den) for c in s.coeffs.values() for x in c.num)

    pairs = min(len(a.coeffs), len(b.coeffs))
    return width_for(a.field.degree * pairs * height(a) * height(b))


def kernel_product(a: MultiSeries, b: MultiSeries) -> tuple[MultiSeries, set]:
    with packed_widths() as seen:
        product = a * b
    return product, set(seen)


@st.composite
def monomial_sets(draw, cap: int, min_size: int = 2):
    monos = [e for e in MONOMIALS if monomial_weight(e) <= cap]
    return draw(st.lists(st.sampled_from(monos), min_size=min(min_size, len(monos)),
                         max_size=10, unique=True))


@st.composite
def cyclo_series_pair(draw):
    """Two series over one field of KERNEL_NS, each of at least two terms,
    with coefficients of one drawn size and small denominators.  A product
    with an operand of two terms is taken in the field, whose element
    products pack at their own widths."""
    field = get_field(draw(st.sampled_from(KERNEL_NS)))
    cap = draw(st.integers(1, CAP_MAX))
    out = []
    for _ in range(2):
        h = draw(st.sampled_from((1, 9, 300, 10**5, 10**9, 10**15, 10**25)))
        den = draw(st.integers(1, 6))
        coeffs = {}
        for e in draw(monomial_sets(cap)):
            vec = draw(st.lists(st.integers(-h, h), min_size=field.degree, max_size=field.degree))
            vec[0] = vec[0] or h
            coeffs[e] = CycloElem(field, [Fraction(v, den) for v in vec])
        out.append(MultiSeries(field, cap, coeffs))
    return out


@settings(max_examples=120, deadline=None)
@given(cyclo_series_pair())
def test_cyclotomic_product_matches_schoolbook(pair):
    a, b = pair
    product, widths = kernel_product(a, b)
    assert product == schoolbook_mul(a, b)
    if min(len(a.coeffs), len(b.coeffs)) > 2:
        assert widths == {expected_width(a, b)}


@st.composite
def banded_pair(draw):
    """Two integer-coefficient series whose bound, d * pairs * hA * hB,
    lands in a drawn width band, each with an entry of size exactly its
    height; returns the band's width and the pair."""
    field = get_field(draw(st.sampled_from(KERNEL_NS)))
    cap = draw(st.integers(2, CAP_MAX))
    monos = [draw(monomial_sets(cap, min_size=3)) for _ in range(2)]
    base = field.degree * min(map(len, monos))
    reachable = [w for w, (lo, hi) in BANDS.items() if base < 2 ** (hi + 1)]
    width = draw(st.sampled_from(reachable))
    lo, hi = BANDS[width]
    top = (2 ** (hi + 1) - 1) // base
    ha = draw(st.integers(1, max(1, math.isqrt(top))))
    hb = draw(st.integers(max(1, -(-(2 ** lo) // (base * ha))), max(1, top // ha)))
    assume(lo <= (base * ha * hb).bit_length() <= hi)
    out = []
    for h, picked in zip((ha, hb), monos):
        coeffs = {}
        for i, e in enumerate(picked):
            vec = draw(st.lists(st.integers(-h, h), min_size=field.degree, max_size=field.degree))
            vec[0] = h if i == 0 else (vec[0] or -h)
            coeffs[e] = CycloElem(field, vec)
        out.append(MultiSeries(field, cap, coeffs))
    return width, out


@settings(max_examples=150, deadline=None)
@given(banded_pair())
def test_product_takes_the_width_its_bound_selects(case):
    width, (a, b) = case
    product, widths = kernel_product(a, b)
    assert len(widths) == 1
    (taken,) = widths
    assert taken == width if width <= 8 else taken > 8
    assert taken == expected_width(a, b)
    assert product == schoolbook_mul(a, b)


@pytest.mark.parametrize("n, h, wide", [(1, 11, 2), (2, 11, 2), (9, 3, 2)])
def test_pair_count_alone_widens_the_digits(n, h, wide):
    """d * h^2 fits one byte, 3 * d * h^2 does not: the three
    products h * h that meet at x^2 need the wider digit.  At n = 1 and 2
    their sum 3 h^2 = 363 reads as 107 in one signed byte."""
    field = get_field(n)
    c = field.from_rational(h)
    assert width_for(field.degree * h * h) == 1
    s = MultiSeries(field, 4, {(0, 0, 0): c, (1, 0, 0): c, (2, 0, 0): c})
    product, widths = kernel_product(s, s)
    assert widths == {wide}
    assert product == schoolbook_mul(s, s)
    assert product.coefficient(2, 0, 0) == field.from_rational(3 * h * h)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sum_that_reduces_to_zero_is_dropped(p):
    """The x^(p-1) coefficient of A B sums zeta^ceil(i/2) zeta^floor(i/2)
    over i < p: packed, the vectors are single digits and the integer sum
    is 1 + X + ... + X^(p-1), nonzero, but 1 + zeta + ... + zeta^(p-1)
    vanishes in Q(zeta_p)."""
    field = get_field(p)
    z = field.zeta_pow
    a = MultiSeries(field, CAP_MAX, {(i, 0, 0): z((i + 1) // 2) for i in range(p)})
    b = MultiSeries(field, CAP_MAX, {(p - 1 - i, 0, 0): z(i // 2) for i in range(p)})
    unpack = cyclotomic._unpack
    totals = []

    def recording(value, *args):
        totals.append(value)
        return unpack(value, *args)

    with mock.patch.object(cyclotomic, "_unpack", recording):
        product = a * b
    assert (p - 1, 0, 0) not in product.coeffs
    assert product == schoolbook_mul(a, b)
    # every integer sum converted is nonzero, and one of them came out zero
    assert all(totals) and len(totals) == len(product.coeffs) + 1


rationals = (st.fractions(max_denominator=10**6)
             | st.integers(-(10**30), 10**30).map(Fraction))


@st.composite
def rational_series(draw, cap: int, min_size: int = 1, unit: bool = False):
    coeffs = {e: draw(rationals.filter(bool)) for e in draw(monomial_sets(cap, min_size))}
    if unit:
        coeffs[(0, 0, 0)] = draw(rationals.filter(bool))
    return MultiSeries(RATIONALS, cap, coeffs)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, CAP_MAX).flatmap(lambda cap: st.tuples(rational_series(cap),
                                                              rational_series(cap))))
def test_rational_product_matches_schoolbook(pair):
    a, b = pair
    assert a * b == schoolbook_mul(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, CAP_MAX).flatmap(lambda cap: rational_series(cap, unit=True)))
def test_rational_inverse_matches_schoolbook(s):
    assert s.invert() == schoolbook_invert(s)


@st.composite
def cyclo_unit_series(draw):
    field = get_field(draw(st.sampled_from(KERNEL_NS)))
    cap = draw(st.integers(0, CAP_MAX))
    small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    elems = st.lists(small, min_size=field.degree, max_size=field.degree).map(
        lambda cs: CycloElem(field, cs))
    monos = [e for e in MONOMIALS if 1 <= monomial_weight(e) <= cap]
    picked = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True)) if monos else []
    coeffs = {e: draw(elems) for e in picked}
    coeffs[(0, 0, 0)] = draw(elems.filter(bool))
    return MultiSeries(field, cap, coeffs)


@settings(max_examples=40, deadline=None)
@given(cyclo_unit_series())
def test_cyclotomic_inverse_matches_schoolbook(s):
    assert s.invert() == schoolbook_invert(s)


def _dense(field, cap: int, seed: int) -> MultiSeries:
    """Every monomial of weight at most the cap, with dense coefficients."""
    d = field.degree
    return MultiSeries(field, cap, {
        e: CycloElem(field, [Fraction((seed * 7 + 3 * i + 5 * k) % 19 - 9, 1 + (i + seed) % 4)
                             for k in range(d)])
        for i, e in enumerate(m for m in MONOMIALS if monomial_weight(m) <= cap)})


@pytest.mark.parametrize("n", [9, 10])
def test_dense_product_makes_no_element_multiply_or_add(n, monkeypatch):
    field = get_field(n)
    a, b = _dense(field, 6, 1), _dense(field, 6, 2)
    expected = schoolbook_mul(a, b)
    calls = []
    for name in ("__mul__", "__add__"):
        original = getattr(CycloElem, name)

        def counting(x, y, original=original, name=name):
            calls.append(name)
            return original(x, y)

        monkeypatch.setattr(CycloElem, name, counting)
    product = a * b
    monkeypatch.undo()
    assert calls == []
    assert product == expected


@pytest.mark.parametrize("n", [None, 10], ids=["Q", "Q(zeta_10)"])
def test_one_term_operand_is_a_shift_and_a_scaling(n):
    cap = 6
    if n is None:
        field = RATIONALS
        s = MultiSeries(field, cap, {e: Fraction(i + 1, 1 + i % 3) for i, e in enumerate(MONOMIALS)
                                     if monomial_weight(e) <= cap})
        scalars = [Fraction(-5, 3), Fraction(1)]
    else:
        field = get_field(n)
        s = _dense(field, cap, 3)
        scalars = [field.zeta_pow(3) * field.from_rational(4), CycloElem(field, [1, -2, 3, Fraction(1, 2)])]
    for c in scalars:
        for shift in [(0, 0, 0), (1, 0, 0), (0, 2, 1), (1, 1, 1)]:
            term = MultiSeries(field, cap, {shift: c})
            shifted = MultiSeries(field, cap, {
                (e[0] + shift[0], e[1] + shift[1], e[2] + shift[2]): v for e, v in s.coeffs.items()})
            assert term * s == shifted.scale(c) == s * term
            assert term * s == schoolbook_mul(term, s)
