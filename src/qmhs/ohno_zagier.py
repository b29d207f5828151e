"""Weight/depth/height generating functions at a root of unity and the
kernel that evaluates them in closed form.

Everything here is coefficient-exact: the strict generating function of
profile sums is a product over m and the non-strict one its `to_star`
(the brute-force assembly from the nested-sum engine is the oracle of
both), the kernel expands a binomial double sum, and the two must agree
monomial by monomial.  The product and recurrence routes for the one-variable
generating function serve as mutual oracles, and the q-difference
recursions of the truncated polylogarithms are checked as polynomial
identities.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from fractions import Fraction
from math import comb
from operator import mul

from .cyclotomic import CycloElem, CycloField, get_field
from .exactnum import Poly
from .mhs import (
    Index,
    IndexProfile,
    _outer_terms,
    enumerate_indices,
    exact_backend,
    profile_sum,
    units_by_gcd,
    zbar,
)
from .multiseries import RATIONALS, MultiSeries, ms_substitute, render_series
from .report import FAIL, PASS, VerificationReport, compare


def binomial_quotient(n: int, cap: int) -> MultiSeries:
    """g(x) = ((1+x)^n - 1) / x = sum_{j=1..n} C(n, j) x^(j-1), truncated."""
    return MultiSeries(RATIONALS, cap, {
        (j - 1, 0, 0): Fraction(comb(n, j)) for j in range(1, min(n, cap + 1) + 1)
    })


def u_kernel(n: int, cap: int) -> MultiSeries:
    """The closed-form generating series in (x, y, z) at level n.

    x/((1+x)^n - 1) times the double binomial sum over a, b >= 0 with
    a + b <= n - 1 of C(n-a-1, b) C(n-b-1, a) / (p + 1) (xy - z)^p
    (1+x)^a (1+y)^b, p = n - 1 - a - b; the prefactor 1/g(x) of
    `binomial_quotient` is expanded by exact series inversion.  The sum
    is taken by p, whose factor has weight 2p, so only p <= cap/2
    survives, and the x^i y^j coefficient of the sum at one p is the
    integer sum over a of C(n-a-1, b) C(n-b-1, a) C(a, i) C(b, j).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    pre = binomial_quotient(n, cap).invert()
    xy_minus_z = MultiSeries(RATIONALS, cap, {(1, 1, 0): Fraction(1), (0, 0, 1): Fraction(-1)})
    power = MultiSeries.constant(1, cap)
    total = MultiSeries.zero(cap)
    for p in range(min(n - 1, cap // 2) + 1):
        top = cap - 2 * p
        sums: dict = {}
        for a in range(n - p):
            b = n - 1 - p - a
            w = comb(n - a - 1, b) * comb(n - b - 1, a)
            for i in range(min(a, top) + 1):
                wi = w * comb(a, i)
                for j in range(min(b, top - i) + 1):
                    sums[i, j] = sums.get((i, j), 0) + wi * comb(b, j)
        row = {(i, j, 0): Fraction(c, p + 1) for (i, j), c in sums.items()}
        total = total + power * MultiSeries(RATIONALS, cap, row)
        power = power * xy_minus_z
    return pre * total


def flip_yz(s: MultiSeries) -> MultiSeries:
    """Substitute (x, y, z) -> (x, -y, -z) by sign-flipping coefficients."""
    return MultiSeries(s.field, s.cap,
                       {e: (-c if (e[1] + e[2]) % 2 else c) for e, c in s.coeffs.items()})


def to_star(s: MultiSeries) -> MultiSeries:
    """s at (x, -y, -z), inverted: prod (1 - g)^(-1) from s = prod (1 + g)
    when every term of every g carries one y or one z, as E(t) H(-t) = 1
    for elementary and complete symmetric functions (Macdonald, I.2)."""
    return flip_yz(s).invert()


def f_bruteforce(n: int, cap: int, star: bool = False) -> MultiSeries:
    """Generating series of profile sums, assembled directly from the
    nested sums: coefficient of x^(k-r-s) y^(r-s) z^s is the rational
    profile sum of weight k, depth r, height s."""
    coeffs: dict = {}
    for k in range(0, cap + 1):
        for r in range(0, k + 1):
            for s in range(0, r + 1):
                if k < r + s or (r == 0 and k > 0):
                    continue
                value = profile_sum(IndexProfile(k, r, s), n, star)
                if value:  # x^(k-r-s) y^(r-s) z^s has weight k <= cap
                    coeffs[(k - r - s, r - s, s)] = value
    return MultiSeries(RATIONALS, cap, coeffs)


def f_series(n: int, cap: int, star: bool = False) -> MultiSeries:
    """The series of `f_bruteforce`, built as a product over m = 1..n-1.

    A part p at chain position m contributes w^_p(m) * mono(p), where
    w^_p(m) = q^((p-1)m) (1 - q^m)^(-p) is the chain weight with the
    (1 - q)^(-p) of the modified value cancelled: the twisted
    `_row_product`.  With g_m = sum_(p<=cap) w^_p(m) mono(p), strict chains
    give F = prod_m (1 + g_m), one series product per m.  Non-strict chains
    give prod_m (1 - g_m)^(-1) = to_star(F) exactly, since each mono(p)
    carries one y or one z; it is taken over Q from the cached F, so the
    only independent check of the non-strict sums is
    `f_bruteforce(star=True)`.

    Coefficients must come out rational; `to_rational` raises otherwise.
    The cached result is shared between callers; like every MultiSeries,
    it is treated as immutable; one entry per (n, cap, star), however a
    call spells them.
    """
    return _f_series(n, cap, star)


@functools.lru_cache(maxsize=16)
def _f_series(n: int, cap: int, star: bool) -> MultiSeries:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if star:
        return to_star(_f_series(n, cap, False))
    return _row_product(n, cap, True).to_rational()


# the handles of an lru_cache function, for callers of `f_series`
f_series.cache_info, f_series.cache_clear = _f_series.cache_info, _f_series.cache_clear
f_series.__wrapped__ = _f_series.__wrapped__


def _row_product(n: int, cap: int, twisted: bool) -> MultiSeries:
    """prod_(m=1..n-1) (1 + sum_(p<=cap) c_p(m) mono(p)) over Q(zeta_n), where
    mono(1) = y, mono(p) = x^(p-2) z (weight p) and c_p(m) = (1 - q^m)^(-p) is
    entry m - 1 of the cached polylogarithm row p, times q^((p-1)m) if twisted."""
    field, row_of = get_field(n), exact_backend(n).polylog_row
    parts = [(p, (0, 1, 0) if p == 1 else (p - 2, 0, 1), row_of(p)) for p in range(1, cap + 1)]
    total = MultiSeries.constant(1, cap, field)
    for m in range(1, n):
        factor = {(0, 0, 0): field.one}
        for p, mono, row in parts:
            factor[mono] = field.zeta_pow((p - 1) * m) * row[m - 1] if twisted else row[m - 1]
        total = total * MultiSeries(field, cap, factor)
    return total


def verify_theorem_1_2(n: int, cap: int) -> VerificationReport:
    """Both generating-function identities at level n, coefficient-exactly:
    the strict series equals the kernel and the non-strict series equals
    the inverse of the sign-flipped kernel.  Both starred sides are
    `to_star` of the strict ones, so F* = U* follows from F = U."""
    f_plain = f_series(n, cap, False)
    u_plain = u_kernel(n, cap)
    f_star = f_series(n, cap, True)
    u_star = to_star(u_plain)
    ok = f_plain == u_plain and f_star == u_star
    return VerificationReport(
        suite="thm-ohno-zagier",
        params={"n": n, "cap": cap},
        status=PASS if ok else FAIL,
        lhs=f"F={render_series(f_plain)} | F*={render_series(f_star)}",
        rhs=f"U={render_series(u_plain)} | U*={render_series(u_star)}",
    )


def sum_formula_check(n: int, k: int, r: int, k_max: int = 0) -> VerificationReport:
    """Weight-depth sum formula: the sum of modified values over all
    indices of weight k and depth r equals
    sum_{j=1..r} (1/n) C(n, j) zbar(k+1-j).  The left side adds the
    profile sums of weight k and depth r read from `f_series` at cap
    max(k, k_max): weights only add, so a series of a larger cap holds
    the same weight-k coefficients, and checks at one level that pass
    the same `k_max` share one series."""
    if not (k >= r and n > r > 0):
        raise ValueError("requires k >= r and n > r > 0")
    series = f_series(n, max(k, k_max), False)
    lhs_q = sum(
        (series.coefficient(k - r - s, r - s, s) for s in range(min(r, k - r) + 1)),
        Fraction(0),
    )
    rhs_q = sum(
        (
            Fraction(comb(n, j), n) * zbar(Index((k + 1 - j,)), n).rational_part()
            for j in range(1, r + 1)
        ),
        Fraction(0),
    )
    return compare("sum-formula", {"n": n, "k": k, "r": r}, lhs_q, rhs_q)


# ---------------------------------------------------------------------------
# One-variable generating function at t = 1: product and recurrence routes.


def _quad_p(field: CycloField, x_val: CycloElem, cap: int) -> MultiSeries:
    """P(X) = (1-u-X)(1+v-X) + w = c^2 - cu + cv - uv + w at a constant X, c = 1 - X."""
    c, one = field.one - x_val, field.one
    return MultiSeries(field, cap, {(0, 0, 0): c * c, (1, 0, 0): -c, (0, 1, 0): c,
                                    (1, 1, 0): -one, (0, 0, 1): one})


def phi_product(n: int, cap: int) -> MultiSeries:
    """Product route: for j = 1..n-1 multiply P(q^j) / ((1-q^j)(1-u-q^j)).

    With c = 1 - q^j and s = 1/c the factor is (c+v)/c + w/(c(c-u)) =
    1 + s v + w sum_(i<=cap-2) s^(i+2) u^i exactly: 1/(c-u) = s/(1-su) is
    geometric in u and w u^i has weight i + 2.  That is the factor of the
    untwisted `_row_product`, s^k being (1 - zeta^j)^(-k), so no factor takes
    a field operation.  The starred product, of the inverses of
    P*(q^j) = (1-u-q^j)(1-v-q^j) - w over the same denominators, is
    `to_star` of this one: every factor term carries one v or one w."""
    return _row_product(n, cap, False)


def phi_recurrence(n: int, cap: int) -> MultiSeries:
    """Recurrence route, unrolled: c_1 = G_1, c_(j+1) = (P(q^j) c_j) G_(j+1),
    closed with P(q^(n-1)) c_(n-1), is prod_(j<n) P(q^j) times prod_(j<n) G_j
    exactly, as truncated products regroup freely; G_j = 1/((1-q^j)(1-u-q^j))
    = s_j^2 sum_(i<=cap) (s_j u)^i, s_j = (1-q^j)^(-1).  The P product stays in
    Z[zeta_n] and the G_j, series in u alone, meet it only at the end.  One
    `CycloElem` inversion per g = gcd(j, n) < n gives s_g^k, k = 2..cap+2, and
    j = g u mod n reads sigma_u(s_g^k) (`CycloField.conjugates`): no series
    inverse, no polylogarithm row."""
    if n < 2:
        raise ValueError("the recurrence route needs n >= 2")
    field = get_field(n)
    quads = functools.reduce(mul, (_quad_p(field, field.zeta_pow(j), cap) for j in range(1, n)))
    geometric = []
    for g, ms in units_by_gcd(n).items():
        s = (field.one - field.zeta_pow(g)).inverse()
        powers = [s * s]
        for _ in range(cap):
            powers.append(powers[-1] * s)
        images = [field.conjugates(p, [(u, 0) for _, u in ms]) for p in powers]
        geometric += (MultiSeries(field, cap, {(i, 0, 0): c for i, c in enumerate(col)})
                      for col in zip(*images))
    return quads * functools.reduce(mul, geometric)


def transform_images(cap: int, field) -> tuple[MultiSeries, MultiSeries, MultiSeries]:
    """The change of variables u = x/(1+x), v = y - z/(1+x),
    w = z/(1+x)^2 as series in (x, y, z)."""
    one = MultiSeries.constant(1, cap, field)
    x, y, z = (MultiSeries.variable(name, cap, field) for name in "xyz")
    inv1px = (one + x).invert()
    return x * inv1px, y - z * inv1px, z * inv1px * inv1px


def prop_3_3_rows(n: int, cap: int) -> Iterator[VerificationReport]:
    """Check that the product and recurrence routes agree and that the
    change of variables carries the product route onto the brute-force
    generating function with all-rational coefficients.

    The product route is the untwisted `_row_product` and its target
    `f_series` the twisted one, taken to Q, so the substitution checks the
    twist.  Only the product route reads the cached polylogarithm rows; the
    recurrence route's coefficients come from field operations alone
    (`_quad_p`, and for the G_j one `CycloElem` inverse per divisor of n and
    its conjugates), so `phi-routes` compares two independent routes.  The
    product route is rational: an automorphism zeta -> zeta^a with
    gcd(a, n) = 1 permutes its factors j = 1..n-1.  So the substitution runs
    over Q; `to_rational` raises on an irrational coefficient."""
    prod = phi_product(n, cap)
    rec = phi_recurrence(n, cap)
    yield compare("phi-routes", {"n": n, "cap": cap}, prod, rec, render_series)
    substituted = ms_substitute(prod.to_rational(), *transform_images(cap, RATIONALS))
    target = f_series(n, cap, False)
    yield compare(
        "phi-substitution", {"n": n, "cap": cap}, substituted, target, render_series
    )


def verify_prop_3_3(n: int, cap: int) -> list[VerificationReport]:
    """The rows of `prop_3_3_rows`, all computed in the call."""
    return list(prop_3_3_rows(n, cap))


# ---------------------------------------------------------------------------
# Truncated q-polylogarithms: polynomials in t of degree < n over Q(zeta_n).


def dq(p: Poly) -> Poly:
    """q-difference operator: (p(t) - p(q t)) / t, with q = zeta_n."""
    field = p.field
    out = [c - c * field.zeta_pow(m) for m, c in enumerate(p.coeffs)]
    return Poly(out, field).div_t_exact()


def polylog(index: Index, n: int, star: bool = False) -> Poly:
    """Truncated polylogarithm: the polynomial in t of degree < n whose
    t^(m1) coefficient sums 1 / prod (1 - q^(m_i))^(k_i) over chains
    below m1.  Strict chains by default, non-strict with star.

    The coefficients are the outermost level of the chain DP of `mhs`,
    with the weights (1 - q^m)^(-k) in place of q^((k-1)m) / [m]^k.
    """
    if index.depth == 0:
        return Poly([1], get_field(n))
    backend = exact_backend(n)
    if index.depth == 1:  # no level to run: the terms are the row itself
        return Poly([backend.zero, *backend.polylog_row(index.parts[0])], backend.field)
    ring = backend.ring(index.parts, polylog=True)
    terms = _outer_terms(index.parts, ring, star)
    return Poly([backend.zero, *ring.elements(terms)], backend.field)


def lemma_3_2_rows(n: int, weight_cap: int) -> Iterator[VerificationReport]:
    """Check the q-difference recursions for every index of weight up to
    the cap, strict and non-strict, as exact polynomial identities.  Each
    polylogarithm is evaluated once per run, however many recursions use
    it."""
    field = get_field(n)
    geom = Poly([field.one] * (n - 1), field)  # (1 - t^(n-1)) / (1 - t)
    seen: dict = {}

    def pl(index: Index, star: bool) -> Poly:
        key = (index.parts, star)
        if key not in seen:
            seen[key] = polylog(index, n, star)
        return seen[key]

    def render(p: Poly) -> str:
        return " ; ".join(str(c) for c in p.coeffs) if p else "0"

    for k in range(1, weight_cap + 1):
        for r in range(1, k + 1):
            for ix in enumerate_indices(k, r):
                for star in (False, True):
                    lhs = dq(pl(ix, star))
                    if ix.parts[0] >= 2:
                        lowered = Index((ix.parts[0] - 1,) + ix.parts[1:])
                        rhs = pl(lowered, star).div_t_exact()
                    elif star and r == 1:
                        rhs = geom
                    else:
                        # the non-strict case carries t^n, not t^(n-1): the
                        # partial sums telescope one step further because
                        # m_2 = m_1 is allowed
                        lr = pl(Index(ix.parts[1:]), star)
                        num = lr - Poly.monomial(n - 1 + star, lr.at_one(), field)
                        rhs = num.div_one_minus_t_exact()
                        if star:
                            rhs = rhs.div_t_exact()
                    yield compare("polylog-dq", {"n": n, "index": str(ix), "star": star},
                                  lhs, rhs, render)


def verify_lemma_3_2(n: int, weight_cap: int) -> list[VerificationReport]:
    """The rows of `lemma_3_2_rows`, all computed in the call."""
    return list(lemma_3_2_rows(n, weight_cap))
