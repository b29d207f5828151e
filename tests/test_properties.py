"""Property-based checks (hypothesis) of the field and the chain DP."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from qmhs.cyclotomic import CycloElem, get_field, parse_cyclo, render_cyclo
from qmhs.mhs import Index, brute_force, z, z_star

FIELD_NS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15)

rationals = st.fractions(max_denominator=50).filter(
    lambda q: abs(q.numerator) < 10**12
) | st.integers(-(2**70), 2**70).map(Fraction)


@st.composite
def elements(draw, count=1):
    """`count` elements of one randomly chosen field."""
    field = get_field(draw(st.sampled_from(FIELD_NS)))
    vec = st.lists(rationals, min_size=field.degree, max_size=field.degree)
    return [CycloElem(field, draw(vec)) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(elements(count=3))
def test_field_axioms(elems):
    a, b, c = elems
    field = a.field
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a + field.zero == a and a * field.one == a
    assert a - a == field.zero and -(-a) == a
    assert not a * field.zero
    if a:
        assert a * a.inverse() == field.one


@settings(max_examples=60, deadline=None)
@given(elements())
def test_lowest_terms_round_trip_and_hash(elems):
    (x,) = elems
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    y = CycloElem(x.field, x.coeffs)
    assert y == x and hash(y) == hash(x)
    # the same element built from unnormalized input is still equal
    doubled = (x + x) * x.field.from_rational(Fraction(1, 2))
    assert doubled == x and hash(doubled) == hash(x)


@settings(max_examples=60, deadline=None)
@given(elements())
def test_render_parse_round_trip(elems):
    (x,) = elems
    assert parse_cyclo(render_cyclo(x), x.field) == x


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(1, 12),
    st.booleans(),
)
def test_dp_equals_brute_force(parts, n, star):
    index = Index(parts)
    value = z_star(index, n) if star else z(index, n)
    assert value == brute_force(index, n, star=star)
