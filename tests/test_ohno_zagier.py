from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmhs.cli import main as cli_main
from qmhs.cyclotomic import CycloElem, get_field
from qmhs.exactnum import Poly
from qmhs.mhs import Index, _zbar_cached, enumerate_indices, exact_backend, numeric_backend, zbar
from qmhs import mhs, ohno_zagier
from qmhs.multiseries import RATIONALS, MultiSeries, ms_substitute, render_series
from qmhs.ohno_zagier import (
    binomial_quotient,
    dq,
    f_bruteforce,
    f_series,
    flip_yz,
    phi_product,
    phi_recurrence,
    polylog,
    sum_formula_check,
    to_star,
    u_kernel,
    verify_lemma_3_2,
    verify_prop_3_3,
    verify_theorem_1_2,
)
from helpers import inv_one_minus_zeta_pow, phi_recurrence_by_inverses, transform_images, truncate


def test_u_kernel_low_coefficients():
    for n in range(1, 9):
        assert u_kernel(n, 4).constant_term() == 1
    u3 = u_kernel(3, 4)
    assert u3.coefficient(0, 1, 0) == 1  # equals the depth-one value (n-1)/2
    assert u_kernel(2, 4).coefficient(0, 0, 1) == Fraction(-1, 4)
    assert u_kernel(1, 3) == MultiSeries.constant(1, 3)


def test_f_bruteforce_small():
    f2 = f_bruteforce(2, 2)
    assert f2.coefficient(0, 0, 0) == 1
    assert f2.coefficient(0, 1, 0) == Fraction(1, 2)
    assert f2.coefficient(0, 0, 1) == Fraction(-1, 4)
    assert f2.coefficient(0, 2, 0) == 0  # no chains of depth 2 below n = 2
    assert f_bruteforce(3, 2).coefficient(0, 2, 0) == Fraction(1, 3)


def test_f_bruteforce_star_depth_one_agrees():
    plain = f_bruteforce(4, 4)
    star = f_bruteforce(4, 4, star=True)
    for k in range(1, 5):
        e = (0, 1, 0) if k == 1 else (k - 2, 0, 1)
        assert plain.coefficient(*e) == star.coefficient(*e)


def test_theorem_1_2_small_levels():
    for n in (1, 2, 3, 5, 6):
        rep = verify_theorem_1_2(n, 5)
        assert rep.status == "pass", (n, rep.lhs, rep.rhs)


def u_kernel_pairs(n, cap):
    """The kernel summed pair by pair over a + b <= n - 1, two series
    products per pair: the oracle for the grouping by p in `u_kernel`."""
    field = RATIONALS

    def binomial_row(a, slot):
        return MultiSeries(field, cap, {
            tuple(i if s == slot else 0 for s in range(3)): Fraction(comb(a, i))
            for i in range(min(a, cap) + 1)})

    xy_minus_z = MultiSeries(field, cap, {(1, 1, 0): Fraction(1), (0, 0, 1): Fraction(-1)})
    powers = [MultiSeries.constant(1, cap)]
    while 2 * len(powers) <= cap:
        powers.append(powers[-1] * xy_minus_z)
    total = MultiSeries.zero(cap)
    for a in range(n):
        for b in range(n - a):
            p = n - 1 - a - b
            if p >= len(powers):
                continue
            term = powers[p] * binomial_row(a, 0) * binomial_row(b, 1)
            coeff = Fraction(comb(n - a - 1, b) * comb(n - b - 1, a), n - a - b)
            total = total + term.scale(coeff)
    return binomial_quotient(n, cap).invert() * total


@pytest.mark.parametrize("n", range(1, 17))
def test_u_kernel_matches_pairwise_sum(n):
    for cap in range(0, 11):
        assert u_kernel(n, cap) == u_kernel_pairs(n, cap), cap


def test_theorem_1_2_star_side_is_u_kernel_star():
    for n, cap in ((1, 4), (4, 6), (9, 7)):
        rep = verify_theorem_1_2(n, cap)
        assert rep.rhs.split(" | U*=")[1] == render_series(to_star(u_kernel(n, cap)))


def test_theorem_1_2_reads_u_star_from_the_cached_f_star(monkeypatch):
    n, cap = 9, 7
    f_series.cache_clear()
    u_star = render_series(to_star(u_kernel(n, cap)))
    calls = []
    original = ohno_zagier.to_star

    def counting(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(ohno_zagier, "to_star", counting)
    for _ in range(2):
        rep = verify_theorem_1_2(n, cap)
        assert rep.status == "pass"
        assert rep.rhs.split(" | U*=")[1] == u_star
    # the one call builds the cached F*, from the cached F
    assert calls == [f_series(n, cap, False)]


def test_failing_theorem_1_2_row_renders_the_kernels_own_star(monkeypatch, capsys):
    original = ohno_zagier.u_kernel

    def perturbed(n, cap):
        u = original(n, cap)
        coeffs = dict(u.coeffs)
        coeffs[0, 1, 0] = coeffs.get((0, 1, 0), 0) + 1
        return MultiSeries(RATIONALS, cap, coeffs)

    monkeypatch.setattr(ohno_zagier, "u_kernel", perturbed)
    n, cap = 4, 5
    u = perturbed(n, cap)
    rep = verify_theorem_1_2(n, cap)
    assert rep.status == "fail"
    assert rep.rhs == f"U={render_series(u)} | U*={render_series(to_star(u))}"
    assert rep.rhs.split(" | U*=")[1] != rep.lhs.split(" | F*=")[1]
    monkeypatch.delenv("QMHS_PARALLELISM", raising=False)
    assert cli_main(["verify", "thm12", "--n-max", "3", "--cap", "3", "--parallelism", "1"]) == 1
    assert "[fail]" in capsys.readouterr().out


def test_u_kernel_star_is_inverse_of_flip():
    u = u_kernel(4, 4)
    star = to_star(u)
    assert flip_yz(u) * star == MultiSeries.constant(1, 4)


def test_sum_formula_examples():
    rep = sum_formula_check(3, 2, 2)
    assert rep.status == "pass" and rep.lhs == "1/3"
    rep = sum_formula_check(2, 1, 1)
    assert rep.status == "pass" and rep.lhs == "1/2"
    assert sum_formula_check(4, 3, 2).status == "pass"
    with pytest.raises(ValueError):
        sum_formula_check(2, 1, 2)


def test_phi_routes_agree():
    for n in range(2, 6):
        prod = phi_product(n, 4)
        rec = phi_recurrence(n, 4)
        assert prod == rec, n


def test_phi_constant_term_is_one():
    for n in (2, 3, 5):
        assert phi_product(n, 3).constant_term() == get_field(n).one


def test_phi_star_is_inverse_of_sign_flip():
    for n in (2, 3, 4):
        assert to_star(phi_product(n, 4)) == phi_product_factors(n, 4, star=True), n


def phi_product_factors(n, cap, star=False):
    """The product route built factor by factor in the field: P(q^j), or
    P*(q^j) = (1-u-q^j)(1-v-q^j) - w when starred, times the inverted
    denominator (1-q^j)(1-u-q^j), inverted again when starred.  The oracle
    for the factors `phi_product` reads from the polylogarithm rows."""
    field = get_field(n)
    one = MultiSeries.constant(1, cap, field)
    u, v, w = (MultiSeries.variable(name, cap, field) for name in "uvw")
    total = one
    for j in range(1, n):
        c = field.one - field.zeta_pow(j)
        cc = one.scale(c)
        num = (cc - u) * (cc - v) - w if star else (cc - u) * (cc + v) + w
        factor = num * (cc - u).scale(c).invert()
        total = total * (factor.invert() if star else factor)
    return total


@pytest.mark.parametrize("n", range(1, 17))
def test_phi_product_matches_factor_oracle(n):
    # n = 1 runs no factor, and at cap = 0 every factor is 1
    for cap in range(0, 9):
        for star in (False, True):
            got = to_star(phi_product(n, cap)) if star else phi_product(n, cap)
            assert got == phi_product_factors(n, cap, star), (cap, star)
            if n == 1 or cap == 0:
                assert got == MultiSeries.constant(1, cap, get_field(n)), (cap, star)


def _refuse(*args, **kwargs):
    raise AssertionError("called where the route must not call it")


def test_strict_phi_product_takes_no_inverse_and_no_quadratic(monkeypatch):
    n, cap = 10, 8
    expected = phi_product_factors(n, cap)
    monkeypatch.setattr(MultiSeries, "invert", _refuse)
    monkeypatch.setattr(ohno_zagier, "_quad_p", _refuse)
    assert phi_product(n, cap) == expected


def test_phi_recurrence_reads_no_polylog_row(monkeypatch):
    # the phi-routes row compares the product route with a route that
    # shares none of its inputs
    n, cap = 10, 8
    expected = phi_product(n, cap)
    monkeypatch.setattr(mhs.ExactBackend, "polylog_row", _refuse)
    assert phi_recurrence(n, cap) == expected


@pytest.mark.parametrize("n", range(2, 17))
def test_phi_recurrence_matches_inverse_oracle(n):
    for cap in range(0, 9):
        assert phi_recurrence(n, cap) == phi_recurrence_by_inverses(n, cap), cap


def test_phi_recurrence_takes_no_series_inverse_and_reads_no_row(monkeypatch):
    n, cap = 10, 8
    expected = phi_recurrence_by_inverses(n, cap)
    monkeypatch.setattr(MultiSeries, "invert", _refuse)
    monkeypatch.setattr(mhs.ExactBackend, "polylog_row", _refuse)
    assert phi_recurrence(n, cap) == expected


@pytest.mark.parametrize("n, divisors", [(10, 3), (12, 5), (41, 1)])
def test_phi_recurrence_inverts_once_per_divisor(monkeypatch, n, divisors):
    # s_j for j = g u is the conjugate sigma_u(s_g), one inverse per g | n, g < n
    calls = []
    inverse = CycloElem.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycloElem, "inverse", counted)
    phi_recurrence(n, 4)
    assert len(calls) == divisors


@pytest.mark.parametrize("n, cap", [(41, 6), (49, 4)])
def test_phi_routes_agree_at_high_degree(n, cap):
    # degree 40 and 42: the widest coefficients the routes pack
    rec = phi_recurrence(n, cap)
    assert rec == phi_recurrence_by_inverses(n, cap)
    assert rec == phi_product(n, cap)


def test_phi_substitution_reproduces_generating_function():
    for n in (2, 3, 4):
        reports = verify_prop_3_3(n, 4)
        assert all(r.status == "pass" for r in reports), n


def test_phi_star_substitution_reproduces_star_series():
    for n in (2, 3):
        field = get_field(n)
        star = to_star(phi_product(n, 4))
        assert star == phi_product_factors(n, 4, star=True), n
        u, v, w = transform_images(4, field)
        got = ms_substitute(star, u, v, w).to_rational()
        assert got == f_bruteforce(n, 4, star=True), n


def _composition_oracle(f):
    """Prop 3.3's change of variables by the general composition."""
    return ms_substitute(f, *transform_images(f.cap, RATIONALS))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.data())
def test_binomial_map_matches_composition_oracle(cap, data):
    monos = [(a, b, c) for c in range(cap // 2 + 1) for b in range(cap - 2 * c + 1)
             for a in range(cap - 2 * c - b + 1)]
    picked = data.draw(st.lists(st.sampled_from(monos), max_size=8, unique=True))
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    f = MultiSeries(RATIONALS, cap, {e: data.draw(coeffs) for e in picked})
    assert ohno_zagier._binomial_map(f) == _composition_oracle(f)


@pytest.mark.parametrize("n, cap", [(9, 7), (10, 8), (12, 9), (6, 16), (41, 6)])
def test_binomial_map_matches_composition_oracle_on_phi_product(n, cap):
    f = phi_product(n, cap).to_rational()
    assert ohno_zagier._binomial_map(f) == _composition_oracle(f)


def test_binomial_map_edge_cases():
    binomial_map = ohno_zagier._binomial_map
    for cap in range(0, 7):
        for f in (MultiSeries.zero(cap), MultiSeries.constant(Fraction(-3, 7), cap)):
            assert binomial_map(f) == f == _composition_oracle(f), cap
    # w = z/(1+x)^2 = sum_t (-1)^t (t + 1) x^t z
    cap = 9
    w = MultiSeries.variable("w", cap)
    assert binomial_map(w) == MultiSeries(RATIONALS, cap, {
        (t, 0, 1): Fraction((-1) ** t * (t + 1)) for t in range(cap - 1)})
    assert binomial_map(w) == _composition_oracle(w)
    # y^b: the i = 0 term has N = 0, so (1+x)^0 adds no power of x
    for b in range(cap + 1):
        f = MultiSeries(RATIONALS, cap, {(0, b, 0): Fraction(2, 3)})
        got = binomial_map(f)
        assert got == _composition_oracle(f), b
        assert got.coefficient(0, b, 0) == Fraction(2, 3)
        assert all(got.coefficient(t, b, 0) == 0 for t in range(1, cap - b + 1)), b


def test_phi_substitution_takes_no_series_operation_beyond_phi_product(monkeypatch):
    n, cap = 10, 8
    rec = phi_recurrence(n, cap)
    f_series(n, cap, False)  # the target, cached outside the count
    monkeypatch.setattr(ohno_zagier, "phi_recurrence", lambda n, cap: rec)
    calls = _count_calls(monkeypatch, MultiSeries, "__mul__", "invert")
    phi_product(n, cap)
    product_calls = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    reports = list(ohno_zagier.prop_3_3_rows(n, cap))
    assert calls == product_calls
    assert [r.status for r in reports] == ["pass", "pass"]


def test_transform_weight_two_part():
    u, v, w = transform_images(6, get_field(3))
    f = (
        MultiSeries.variable("u", 6, get_field(3))
        * MultiSeries.variable("v", 6, get_field(3))
        - MultiSeries.variable("w", 6, get_field(3))
    )
    img = ms_substitute(f, u, v, w)
    assert img.valuation() == 2
    assert img.coefficient(1, 1, 0) == get_field(3).one
    assert img.coefficient(0, 0, 1) == -get_field(3).one


def test_polylog_examples():
    f3 = get_field(3)
    l1 = polylog(Index((1,)), 3)
    assert l1.coeffs[1] == (f3.one - f3.zeta).inverse()
    assert l1.coeffs[2] == (f3.one - f3.zeta_pow(2)).inverse()
    # value at t = 1 of the weight-2 polylog recovers modified values
    l2 = polylog(Index((2,)), 2)
    assert l2.at_one().rational_part() == Fraction(1, 4)
    total = zbar(Index((1,)), 2) + zbar(Index((2,)), 2)
    assert total.rational_part() == Fraction(1, 4)


def test_polylog_degree_and_valuation():
    for n in (3, 5, 8):
        for parts in [(1,), (2,), (1, 1), (2, 1), (1, 2, 1), (3, 1)]:
            ix = Index(parts)
            plain = polylog(ix, n)
            star = polylog(ix, n, star=True)
            assert plain.degree < n and star.degree < n
            if plain:
                assert plain.valuation() >= ix.depth
            if star:
                assert star.valuation() >= 1


def test_dq_on_monomials():
    f5 = get_field(5)
    for m in range(1, 5):
        got = dq(Poly.monomial(m, field=f5))
        expect = Poly.monomial(m - 1, f5.one - f5.zeta_pow(m), f5)
        assert got == expect


def test_dq_recursions_all_small_indices():
    for n in range(2, 9):
        reports = verify_lemma_3_2(n, 4)
        bad = [r for r in reports if r.status != "pass"]
        assert not bad, (n, [r.params for r in bad])


def test_tpoly_exact_division_guards():
    f3 = get_field(3)
    with pytest.raises(ValueError):
        Poly([1], f3).div_t_exact()
    with pytest.raises(ValueError):
        Poly([f3.one, f3.one], f3).div_one_minus_t_exact()


def m_major_polylog(index, n, star=False):
    """The former polylog recursion, kept as the oracle: one accumulator
    per chain level, all updated for each m in turn (levels ascending for
    strict chains, descending for non-strict ones), with the weights
    (1 - zeta^m)^(-k) recomputed on every use."""
    field = get_field(n)
    r = index.depth
    if r == 0:
        return Poly([1], field)
    inv = [None] + [inv_one_minus_zeta_pow(field, m) for m in range(1, n)]

    def w(k, m):
        return inv[m] ** k

    parts = index.parts
    acc = [field.zero] * (r + 2)
    acc[r + 1] = field.one
    coeffs = [field.zero] * n
    for m in range(1, n):
        if star:
            for j in range(r, 1, -1):
                acc[j] = acc[j] + w(parts[j - 1], m) * acc[j + 1]
            upper = acc[2] if r >= 2 else field.one
            coeffs[m] = w(parts[0], m) * upper
        else:
            upper = acc[2] if r >= 2 else field.one
            coeffs[m] = w(parts[0], m) * upper
            for j in range(2, r + 1):
                acc[j] = acc[j] + w(parts[j - 1], m) * acc[j + 1]
    return Poly(coeffs, field)


@pytest.mark.parametrize("n", [*range(1, 17), 20, 41, 49])
def test_polylog_matches_m_major_oracle(n):
    for k in range(0, 6):
        for r in range(0, k + 1):
            for ix in enumerate_indices(k, r):
                for star in (False, True):
                    assert polylog(ix, n, star) == m_major_polylog(ix, n, star), (ix, star)


def test_polylog_builds_each_weight_row_once(monkeypatch):
    n = 7
    exact_backend.cache_clear()
    calls = []
    inverse_power = mhs._inverse_power

    def counting(order, k):
        calls.append((order, k))
        return inverse_power(order, k)

    monkeypatch.setattr(mhs, "_inverse_power", counting)
    first = polylog(Index((2, 1, 3)), n)
    # one seed power per proper divisor g of n (g = 1 at n = 7, of order
    # n / g = 7) for each of the rows k = 1, 2 and 3, whose entries are its
    # Galois conjugates
    assert sorted(calls) == [(7, 1), (7, 2), (7, 3)]
    calls.clear()
    second = polylog(Index((3, 2, 1, 3)), n, star=True)
    assert calls == []
    monkeypatch.undo()
    assert first == m_major_polylog(Index((2, 1, 3)), n)
    assert second == m_major_polylog(Index((3, 2, 1, 3)), n, star=True)


@pytest.mark.parametrize("n", range(1, 12))
def test_f_series_matches_bruteforce(n):
    for cap in range(0, 8):
        for star in (False, True):
            assert f_series(n, cap, star) == f_bruteforce(n, cap, star), (cap, star)


def f_series_layers(n, cap, star=False):
    """The weight-layer update F[w] += sum_p g_p F[w - p] over m = 1..n-1,
    with the g_p of `f_series` as field elements: from the top weight down
    it reads the old lower layers (times 1 + g_m), from the bottom up the
    new ones (solving F' = F + g_m F').  The oracle for the series product
    and for the inverse of the sign flip in `f_series`."""
    field = get_field(n)
    backend = exact_backend(n)
    layers = [{(0, 0, 0): field.one}] + [{} for _ in range(cap)]
    monos = [None, (0, 1, 0)] + [(p - 2, 0, 1) for p in range(2, cap + 1)]
    rows = [None] + [backend.polylog_row(p) for p in range(1, cap + 1)]
    order = range(1, cap + 1) if star else range(cap, 0, -1)
    for m in range(1, n):
        g = [None] + [field.zeta_pow((p - 1) * m) * rows[p][m - 1]
                      for p in range(1, cap + 1)]
        for w in order:
            layer = layers[w]
            for p in range(1, w + 1):
                (a, b, c), gp = monos[p], g[p]
                for (ea, eb, ec), v in layers[w - p].items():
                    e = (ea + a, eb + b, ec + c)
                    prev = layer.get(e)
                    layer[e] = gp * v if prev is None else prev + gp * v
    merged = {e: v for layer in layers for e, v in layer.items()}
    return MultiSeries(field, cap, merged).to_rational()


LAYER_ORACLE_SIZES = sorted(
    {(9, 7), (10, 8), (16, 10)}
    | {(n, 6) for n in range(1, 11)}  # thm12 defaults
    | {(n, 8) for n in range(1, 8)}  # the sumformula bench range
)


@pytest.mark.parametrize("star", (False, True))
@pytest.mark.parametrize("n,cap", LAYER_ORACLE_SIZES)
def test_f_series_matches_layer_oracle(n, cap, star):
    assert f_series(n, cap, star) == f_series_layers(n, cap, star)


def _count_calls(monkeypatch, cls, *names):
    """Count calls of the named methods of `cls`."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        original = getattr(cls, name)

        def counting(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cls, name, counting)
    return calls


def _count_field_ops(monkeypatch):
    """Count field multiplies and adds (`_combine` serves + and -)."""
    return _count_calls(monkeypatch, CycloElem, "__mul__", "_combine")


def _warm_f_series_inputs(n, cap):
    f_series.cache_clear()
    backend = exact_backend(n)
    for p in range(1, cap + 1):
        backend.polylog_row(p)  # rows built outside the count


def test_f_series_strict_is_one_series_product_per_level(monkeypatch):
    n, cap = 10, 8
    _warm_f_series_inputs(n, cap)
    calls = _count_field_ops(monkeypatch)
    plain = f_series(n, cap, False)
    monkeypatch.undo()
    # per level: cap products zeta^((p-1)m) * row entry; the first level's
    # series product may multiply its cap + 1 terms by the constant 1
    assert calls["__mul__"] <= (n - 1) * (cap + 1)
    assert calls["_combine"] == 0
    assert plain == f_series_layers(n, cap)


def test_f_series_star_makes_no_field_operation(monkeypatch):
    n, cap = 10, 8
    _warm_f_series_inputs(n, cap)
    plain = f_series(n, cap, False)
    calls = _count_field_ops(monkeypatch)
    star = f_series(n, cap, True)
    monkeypatch.undo()
    assert calls == {"__mul__": 0, "_combine": 0}
    assert star == to_star(plain)


def test_f_series_matches_kernels_at_16_10():
    assert f_series(16, 10, False) == u_kernel(16, 10)
    assert f_series(16, 10, True) == to_star(u_kernel(16, 10))


def test_sum_formula_lhs_matches_per_index_zbar_sum():
    for n in range(2, 9):
        for k in range(1, 9):
            for r in range(1, min(k, n - 1) + 1):
                total = get_field(n).zero
                for ix in enumerate_indices(k, r):
                    total = total + zbar(ix, n)
                rep = sum_formula_check(n, k, r)
                assert rep.lhs == str(total.rational_part()), (n, k, r)
                assert rep.status == "pass", (n, k, r)


def test_f_series_cache_is_bounded():
    assert f_series.cache_info().maxsize is not None


@pytest.mark.parametrize("star", (False, True))
def test_f_series_refuses_level_zero(star):
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        f_series(0, 3, star)


def test_f_series_call_forms_share_one_cache_entry():
    f_series.cache_clear()
    first = f_series(7, 5)
    assert f_series(7, 5, False) is first
    assert f_series(7, 5, star=False) is first
    info = f_series.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_field_caches_are_bounded():
    assert get_field.cache_info().maxsize is not None


def test_numeric_backend_cache_is_bounded():
    assert numeric_backend.cache_info().maxsize is not None


def test_zbar_cache_is_bounded():
    assert _zbar_cached.cache_info().maxsize is not None


@pytest.mark.parametrize("star", (False, True))
@pytest.mark.parametrize("n", range(1, 10))
def test_f_series_truncated_at_largest_cap_equals_fresh_build(n, star):
    top = f_series.__wrapped__(n, 8, star)
    for cap in range(0, 8):
        assert truncate(top, cap) == f_series.__wrapped__(n, cap, star), cap


def test_sumformula_suite_builds_one_series_per_level(monkeypatch, capsys):
    monkeypatch.delenv("QMHS_PARALLELISM", raising=False)
    f_series.cache_clear()
    assert cli_main(["verify", "sumformula", "--n-max", "7"]) == 0
    capsys.readouterr()
    assert f_series.cache_info().misses == len(range(2, 8))


@pytest.mark.parametrize("n", range(1, 11))
def test_phi_product_is_rational(n):
    for cap in range(1, 6):
        phi_product(n, cap).to_rational()  # raises on a non-rational coefficient


def test_lemma_3_2_evaluates_each_polylog_once(monkeypatch):
    calls = []
    original = ohno_zagier.polylog

    def counting_polylog(index, n, star=False):
        calls.append((index.parts, star))
        return original(index, n, star)

    monkeypatch.setattr(ohno_zagier, "polylog", counting_polylog)
    reports = verify_lemma_3_2(7, 5)
    assert len(calls) == len(set(calls)) == 63
    assert len(reports) == 62 and all(r.status == "pass" for r in reports)
