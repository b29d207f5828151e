"""Test oracles for the proven symmetries of the finite values (ROADMAP
item 1).  Write sigma for the automorphism zeta -> zeta^(-1) and kbar for
the index k reversed; `conjugates(b, [(n - 1, t)])` gives zeta^t sigma(b).

Reversal: m -> n - m maps the chains onto themselves with their order
reversed, [n - m] = -zeta^(-m) [m] and sigma[m] = zeta^(1 - m) [m], so
z_n(kbar) = (-1)^w zeta^w sigma(z_n(k)) at weight w, and
zbar_n(kbar) = sigma(zbar_n(k)), the same for the star values.  Beside the
exact check, the values are compared in double precision with the
complex conjugates of `brute_force` and of `complex_value()`, which share
no code with `conjugates`.

The star expansion: a block of j equal chain entries m whose parts sum to
A weighs x^(A - j) / [m]^A with x = q^m, and 1 = sum_t C(j - 1, t)
x^(j - 1 - t) (1 - x)^t with 1 - x = (1 - q)[m], so the block weighs
sum_(t < j) C(j - 1, t) (1 - q)^t w_(A - t)(m).  Summed over the ways to cut
k into blocks of equal entries, z*_n(k) is the sum over cuts and t_b < j_b
of prod_b C(j_b - 1, t_b) (1 - zeta)^(t_1 + t_2 + ...) z_n(A_1 - t_1,
A_2 - t_2, ...), and in the modified values the powers of 1 - zeta
cancel.

Duality, checked at finitely many levels and not proven here: with k^v the
Hoffman dual of k (the index of weight w whose partial sums are the
complement in {1, ..., w - 1} of those of k), z*_n(k) = -zeta^w
sigma(z*_n(k^v)) and zbar*_n(k) = (-1)^(w+1) zbar*_n(reverse(k^v)).

The harmonic product: w_a(m) = q^((a - 1)m) / [m]^a gives w_a(m) w_b(m) =
q^(-m) w_(a+b)(m), and q^(-m) - 1 = (1 - q)[m] q^(-m), so w_a(m) w_b(m) =
w_(a+b)(m) + (1 - q) w_(a+b-1)(m).  The strict sums therefore multiply by
the quasi-shuffle whose merge of letters a and b is a + b plus (1 - q)
times a + b - 1, and in the modified values the factor 1 - q cancels
against the drop in weight: zbar_n(u) zbar_n(v) = sum over x in u * v of
zbar_n(x), the merge giving (a + b) and (a + b - 1), each with coefficient 1.
"""

import cmath
from itertools import product
from math import comb

import pytest

from qmhs.cyclotomic import get_field
from qmhs.mhs import Index, brute_force, enumerate_indices, z, z_star, zbar, zbar_star

EXACT_LEVELS = [(n, 5) for n in (*range(2, 13), 16)] + [(41, 3)]
DUALITY_LEVELS = [(n, 5) for n in range(2, 13)] + [(41, 3)]
FLOAT_LEVELS = range(2, 10)


def _indices(max_weight: int):
    return [ix for w in range(1, max_weight + 1) for d in range(1, w + 1)
            for ix in enumerate_indices(w, d)]


def _reversed(index: Index) -> Index:
    return Index(index.parts[::-1])


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("n, max_weight", EXACT_LEVELS)
def test_reversal_is_the_conjugation_zeta_to_its_inverse(n, max_weight):
    field = get_field(n)
    sigma = lambda b, t=0: field.conjugates(b, [(n - 1, t)])[0]
    for index in _indices(max_weight):
        w, back = index.weight, _reversed(index)
        assert zbar(back, n) == sigma(zbar(index, n)), index
        assert zbar_star(back, n) == sigma(zbar_star(index, n)), index
        sign = field.from_rational((-1) ** w)
        assert z(back, n) == sign * sigma(z(index, n), w), index


@pytest.mark.parametrize("n", FLOAT_LEVELS)
def test_reversal_against_complex_conjugates(n):
    twist = cmath.exp(2j * cmath.pi / n)
    for index in _indices(5):
        w, back = index.weight, _reversed(index)
        value = brute_force(index, n).complex_value()
        image = (-1) ** w * twist ** w * value.conjugate()
        assert _close(brute_force(back, n).complex_value(), image), index
        for modified in (zbar, zbar_star):
            got = modified(back, n).complex_value()
            assert _close(got, modified(index, n).complex_value().conjugate()), index


def _star_expansion(index: Index, n: int, modified: bool):
    """The right side of the star expansion, from strict values only."""
    field = get_field(n)
    parts, total = index.parts, field.zero
    one_minus_zeta = field.one - field.zeta_pow(1)
    for cuts in product((False, True), repeat=len(parts) - 1):
        blocks, start = [], 0
        for i, cut in enumerate((*cuts, True), start=1):
            if cut:
                blocks.append(parts[start:i])
                start = i
        for ts in product(*(range(len(block)) for block in blocks)):
            coeff = 1
            for block, t in zip(blocks, ts):
                coeff *= comb(len(block) - 1, t)
            lowered = Index(tuple(sum(block) - t for block, t in zip(blocks, ts)))
            term = zbar(lowered, n) if modified else z(lowered, n) * one_minus_zeta ** sum(ts)
            total = total + field.from_rational(coeff) * term
    return total


@pytest.mark.parametrize("n, max_weight", EXACT_LEVELS)
def test_star_expansion_of_the_modified_values(n, max_weight):
    for index in _indices(max_weight):
        assert zbar_star(index, n) == _star_expansion(index, n, modified=True), index


@pytest.mark.parametrize("n", FLOAT_LEVELS)
def test_star_expansion_against_the_enumerated_star_chains(n):
    for index in _indices(5):
        assert brute_force(index, n, star=True) == _star_expansion(index, n, modified=False), index


def _dual(index: Index) -> Index:
    """The Hoffman dual: its partial sums are the complement of those of k."""
    w, cuts, total = index.weight, set(), 0
    for part in index.parts[:-1]:
        total += part
        cuts.add(total)
    points = [0, *(s for s in range(1, w) if s not in cuts), w]
    return Index(tuple(b - a for a, b in zip(points, points[1:])))


def test_dual_examples():
    assert _dual(Index((1, 1, 2))) == Index((3, 1))
    assert _dual(Index((2, 2))) == Index((1, 2, 1))
    assert _dual(Index((4,))) == Index((1, 1, 1, 1))
    assert all(_dual(_dual(ix)) == ix for ix in _indices(6))


@pytest.mark.parametrize("n, max_weight", DUALITY_LEVELS)
def test_star_duality(n, max_weight):
    field = get_field(n)
    for index in _indices(max_weight):
        w, dual = index.weight, _dual(index)
        image = field.conjugates(z_star(dual, n), [(n - 1, w)])[0]  # zeta^w sigma(z*)
        assert z_star(index, n) == -image, index
        sign = field.from_rational((-1) ** (w + 1))
        assert zbar_star(index, n) == sign * zbar_star(_reversed(dual), n), index


@pytest.mark.parametrize("n", FLOAT_LEVELS)
def test_star_duality_against_complex_conjugates(n):
    twist = cmath.exp(2j * cmath.pi / n)
    for index in _indices(5):
        w = index.weight
        image = -twist ** w * brute_force(_dual(index), n, star=True).complex_value().conjugate()
        assert _close(brute_force(index, n, star=True).complex_value(), image), index


def _stuffle(u: tuple, v: tuple) -> list:
    """u * v with multiplicity: the merge of letters a and b gives both
    a + b and a + b - 1."""
    if not u or not v:
        return [u + v]
    a, b = u[0], v[0]
    return ([(a, *x) for x in _stuffle(u[1:], v)] + [(b, *x) for x in _stuffle(u, v[1:])]
            + [(c, *x) for x in _stuffle(u[1:], v[1:]) for c in (a + b, a + b - 1)])


def _pairs(max_weight: int):
    indices = _indices(max_weight - 1)
    return [(u, v) for i, u in enumerate(indices) for v in indices[i:]
            if u.weight + v.weight <= max_weight]


def test_stuffle_examples():
    assert sorted(_stuffle((1,), (1,))) == [(1,), (1, 1), (1, 1), (2,)]
    assert sorted(_stuffle((2,), (1, 3))) == [(1, 2, 3), (1, 3, 2), (1, 4), (1, 5),
                                              (2, 1, 3), (2, 3), (3, 3)]


@pytest.mark.parametrize("n, max_weight", DUALITY_LEVELS)
def test_harmonic_product_of_the_modified_values(n, max_weight):
    field = get_field(n)
    for u, v in _pairs(max_weight):
        terms = (zbar(Index(x), n) for x in _stuffle(u.parts, v.parts))
        assert zbar(u, n) * zbar(v, n) == sum(terms, field.zero), (u, v)


@pytest.mark.parametrize("n", FLOAT_LEVELS)
def test_harmonic_product_against_enumerated_chains(n):
    one_minus_zeta = 1 - cmath.exp(2j * cmath.pi / n)

    def modified(parts: tuple) -> complex:
        return brute_force(Index(parts), n).complex_value() / one_minus_zeta ** sum(parts)

    for u, v in _pairs(5):
        total = sum(modified(x) for x in _stuffle(u.parts, v.parts))
        assert _close(modified(u.parts) * modified(v.parts), total), (u, v)
