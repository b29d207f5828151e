"""Property-based checks (hypothesis) of the field, the chain DP, the
polynomials, Newton's identities and the truncated series."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from qmhs.closedforms import _elementary, _power_sums
from qmhs.cyclotomic import CycloElem, get_field, parse_cyclo, render_cyclo
from qmhs.exactnum import Poly
from qmhs.mhs import Index, brute_force, z, z_star
from qmhs.multiseries import RATIONALS, MultiSeries, monomial_weight, ms_substitute
from helpers import substitute_by_monomials

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
@given(elements(count=2), st.data())
def test_conjugation_is_a_ring_homomorphism(elems, data):
    a, b = elems
    field = a.field
    n = field.n
    u = data.draw(st.sampled_from([u for u in range(n) if gcd(u, n) == 1]))
    sigma = lambda x: field.conjugates(x, [(u, 0)])[0]  # noqa: E731
    assert sigma(a + b) == sigma(a) + sigma(b)
    assert sigma(a * b) == sigma(a) * sigma(b)
    assert sigma(field.one) == field.one and sigma(field.zeta) == field.zeta_pow(u)
    if a:
        assert sigma(a.inverse()) == sigma(a).inverse()


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


SERIES_CAP = 4
MONOMIALS = [
    (a, b, c)
    for a in range(SERIES_CAP + 1)
    for b in range(SERIES_CAP + 1)
    for c in range(SERIES_CAP // 2 + 1)
    if a + b + 2 * c <= SERIES_CAP
]
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def series_fields(draw):
    """The rationals or a small cyclotomic field, with a strategy for its
    elements."""
    n = draw(st.sampled_from((None, 3, 4, 5, 7)))
    if n is None:
        return RATIONALS, small_rationals
    field = get_field(n)
    vec = st.lists(small_rationals, min_size=field.degree, max_size=field.degree)
    return field, vec.map(lambda cs: CycloElem(field, cs))


@settings(max_examples=40, deadline=None)
@given(series_fields(), st.data())
def test_poly_ring_axioms_and_exact_divisions(fe, data):
    field, elems = fe
    a, b, c = (Poly(data.draw(st.lists(elems, max_size=5)), field) for _ in range(3))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a - a == Poly([], field) and -(-a) == a
    if b:
        q, r = a.divmod(b)
        assert q * b + r == a and r.degree < b.degree
        assert (a * b).div_exact(b) == a
    t = Poly.monomial(1, field=field)
    assert (t * a).div_t_exact() == a
    assert ((Poly([1], field) - t) * a).div_one_minus_t_exact() == a
    assert a.at_one() == a(field.one)


def series(draw, field, elems, cap, min_weight=0, unit=False):
    """A random series over the field: a few monomials of weight at least
    `min_weight`, and with `unit` a nonzero constant term."""
    monos = [e for e in MONOMIALS if min_weight <= monomial_weight(e) <= cap]
    picked = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True)) if monos else []
    coeffs = {e: draw(elems) for e in picked}
    if unit:
        coeffs[(0, 0, 0)] = draw(elems.filter(bool))
    return MultiSeries(field, cap, coeffs)


@settings(max_examples=40, deadline=None)
@given(series_fields(), st.integers(0, SERIES_CAP), st.data())
def test_series_times_inverse_is_one(fe, cap, data):
    field, elems = fe
    s = series(data.draw, field, elems, cap, unit=True)
    assert s * s.invert() == MultiSeries.constant(1, cap, field)


@settings(max_examples=40, deadline=None)
@given(series_fields(), st.integers(0, SERIES_CAP), st.data())
def test_substitution_is_a_ring_homomorphism(fe, cap, data):
    field, elems = fe
    f, g = (series(data.draw, field, elems, cap) for _ in range(2))
    # valid images: no constant term and valuation at least the weight of
    # the variable replaced (1 for u and v, 2 for w)
    u, v, w = (series(data.draw, field, elems, cap, min_weight=wt) for wt in (1, 1, 2))

    def sub(h):
        return ms_substitute(h, u, v, w)

    assert sub(f * g) == sub(f) * sub(g)
    assert sub(f + g) == sub(f) + sub(g)
    assert sub(MultiSeries.constant(1, cap, field)) == MultiSeries.constant(1, cap, field)


@settings(max_examples=40, deadline=None)
@given(series_fields(), st.integers(0, SERIES_CAP), st.data())
def test_grouped_substitution_matches_per_monomial_oracle(fe, cap, data):
    field, elems = fe
    f, g = (series(data.draw, field, elems, cap) for _ in range(2))
    u, v, w = (series(data.draw, field, elems, cap, min_weight=wt) for wt in (1, 1, 2))
    constant = MultiSeries.constant(1, cap, field).scale(data.draw(elems))
    # f * g has more monomials sharing an (a, b) than a drawn series
    for h in (f, f * g, MultiSeries.zero(cap, field), constant):
        assert ms_substitute(h, u, v, w) == substitute_by_monomials(h, u, v, w)


def _newton_oracle(roots: list[Poly], m_max: int, xmax: int):
    """Elementary symmetric functions (the coefficients of prod (1 + r t))
    and power sums of `roots`, expanded directly, truncated at X^xmax."""
    trunc = lambda p: Poly(p.coeffs[: xmax + 1])
    e = [Poly([1])]
    for r in roots:
        e = [trunc(a + r * b) for a, b in zip(e + [Poly()], [Poly()] + e)]
    p = []
    for m in range(m_max + 1):
        total = Poly()
        for r in roots:
            power = Poly([1])
            for _ in range(m):
                power = power * r
            total = total + power
        p.append(trunc(total))
    return e, p


def _check_newton(roots: list[Poly], xmax: int):
    """The oracle's values as series in X = x with cap xmax, the helpers'
    representation, against the four Newton round trips."""
    k = len(roots)
    e, p = ([MultiSeries(RATIONALS, xmax, {(i, 0, 0): c for i, c in enumerate(v.coeffs)})
             for v in values] for values in _newton_oracle(roots, 2 * k + 2, xmax))
    zero = MultiSeries.zero(xmax)
    assert _power_sums(e, 2 * k + 2) == p
    # e_j = 0 for j > k
    assert _elementary(p, k + 2) == e + [zero, zero]
    assert _elementary(_power_sums(e, k), k) == e
    assert _power_sums(_elementary(p, k), 2 * k + 2) == p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=6))
def test_newton_helpers_on_constant_roots(values):
    _check_newton([Poly([v]) for v in values], 0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=6),
    st.integers(0, 3),
)
def test_newton_helpers_truncate_exactly(roots, xmax):
    # roots a + b X: every truncation at X^xmax commutes with Newton's
    # identities, whose only divisions are by integers
    _check_newton([Poly([a, b]) for a, b in roots], xmax)
