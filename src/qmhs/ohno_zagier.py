"""Weight/depth/height generating functions at a root of unity and the
kernel that evaluates them in closed form.

Everything here is coefficient-exact: the strict generating function of
profile sums is a product over m and the non-strict one its `to_star`
(the brute-force assembly from the nested-sum engine is the oracle of
both), the kernel expands a binomial double sum, and the two must agree
monomial by monomial.  The one-variable generating function's product
route over Q(zeta_n) and closed-form recurrence route over Q serve as
mutual oracles, and the q-difference recursions of the truncated
polylogarithms are checked as polynomial identities.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from fractions import Fraction
from math import comb, lcm

from .cyclotomic import get_field
from .exactnum import Poly
from .mhs import (
    Index,
    IndexProfile,
    _outer_terms,
    enumerate_indices,
    exact_backend,
    profile_sum,
    zbar,
)
from .multiseries import RATIONALS, MultiSeries, render_series
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
                value = profile_sum(IndexProfile(k, r, s), n, star)
                if value:  # an empty profile (k < r + s, or r = 0 < k) sums to 0
                    coeffs[(k - r - s, r - s, s)] = value
    return MultiSeries(RATIONALS, cap, coeffs)


@functools.lru_cache(maxsize=16)
def f_series(n: int, cap: int, /) -> MultiSeries:
    """The series of `f_bruteforce`, built as a product over m = 1..n-1.

    A part p at chain position m contributes w^_p(m) * mono(p), where
    w^_p(m) = q^((p-1)m) (1 - q^m)^(-p) is the chain weight with the
    (1 - q)^(-p) of the modified value cancelled: the twisted
    `_row_product`.  With g_m = sum_(p<=cap) w^_p(m) mono(p), strict chains
    give F = prod_m (1 + g_m), one series product per m.  Non-strict chains
    give prod_m (1 - g_m)^(-1) = to_star(F) exactly, since each mono(p)
    carries one y or one z; a caller takes it over Q, so the only
    independent check of the non-strict sums is `f_bruteforce(star=True)`.

    Coefficients must come out rational; `to_rational` raises otherwise.
    The cached result is shared and, like every MultiSeries, immutable;
    positional-only arguments give one cache entry per (n, cap).
    """
    return _row_product(n, cap, True).to_rational()


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
    `to_star` of the strict ones, so F* = U* follows from F = U: a passing
    row reads U* from F*, and only a failing one takes to_star(U)."""
    f_plain = f_series(n, cap)
    u_plain = u_kernel(n, cap)
    f_star = to_star(f_plain)
    holds = f_plain == u_plain
    u_star = f_star if holds else to_star(u_plain)
    return VerificationReport(
        suite="thm-ohno-zagier",
        params={"n": n, "cap": cap},
        status=PASS if holds else FAIL,
        lhs=f"F={render_series(f_plain)} | F*={render_series(f_star)}",
        rhs=f"U={render_series(u_plain)} | U*={render_series(u_star)}",
    )


def weight_depth_sum(series: MultiSeries, k: int, r: int):
    """The coefficients of weight k and depth r of a generating series,
    added: x^(k-r-s) y^(r-s) z^s over every height s <= min(r, k - r)."""
    return sum(
        (series.coefficient(k - r - s, r - s, s) for s in range(min(r, k - r) + 1)),
        series.field.zero,
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
    lhs_q = weight_depth_sum(f_series(n, max(k, k_max)), k, r)
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


def _over_levels(n: int, cap: int, s1: MultiSeries, s2: MultiSeries) -> MultiSeries:
    """prod_(0<j<n) (zeta^j - 1 - r_1)(zeta^j - 1 - r_2) over Q, where
    r_1 + r_2 = s1 and r_1 r_2 = s2: the lemma of `phi_recurrence`."""
    a = b = MultiSeries.zero(cap)
    for i in reversed(range(min(n, cap + 1))):
        a, b = MultiSeries.constant(comb(n, i + 1), cap) - s2 * b, a + s1 * b
    return a * (a + s1 * b) + s2 * b * b


def phi_recurrence(n: int, cap: int) -> MultiSeries:
    """Recurrence route: c_1 = G_1, c_(j+1) = (P(q^j) c_j) G_(j+1), closed
    with P(q^(n-1)) c_(n-1), G_j = 1/((1-q^j)(1-u-q^j)), regroups to N/D,
    N = prod_(0<j<n) P(q^j), D = prod_(0<j<n) (1-q^j)(1-u-q^j), both over Q.

    Lemma: for r_1 + r_2 = s1, r_1 r_2 = s2 and A + B r = Phi(1 + r) =
    sum_(i<n) C(n, i+1) r^i mod r^2 - s1 r + s2, prod_(0<j<n) (q^j - 1 - r_1)
    (q^j - 1 - r_2) = A(A + s1 B) + s2 B^2.  Proof: prod_(0<j<n) (x - q^j) =
    (x^n - 1)/(x - 1) = Phi(x), so it is (A + B r_1)(A + B r_2); Horner from
    the top reduces c + r(A + B r) to (c - s2 B) + (A + s1 B) r.  At X = 1 + t,
    P(X) = (t + u)(t - v) + w (s1 = v - u, s2 = w - uv) and (1-X)(1-u-X) =
    t(t + u) (s1 = -u, s2 = 0: D = n g(-u), g the `binomial_quotient`).  Exact
    at the cap: r_1^i r_2^k + r_1^k r_2^i has weight i + k in s1, s2 (weights
    1, 2), so Horner over i <= cap drops only weights above it.  No field
    operation, no polylogarithm row: the result is lifted to Q(zeta_n) once."""
    if n < 2:
        raise ValueError("the recurrence route needs n >= 2")
    u, v, w = (MultiSeries.variable(name, cap) for name in "uvw")
    num = _over_levels(n, cap, v - u, w - u * v)
    den = _over_levels(n, cap, -u, MultiSeries.zero(cap))
    field = get_field(n)
    return (num * den.invert()).map_coefficients(field.from_rational, field)


def _binomial_map(f: MultiSeries) -> MultiSeries:
    """f(u, v, w) over Q at u = x/(1+x), v = y - z/(1+x), w = z/(1+x)^2, by
    the map of `prop_3_3_rows`; the sums share one common denominator."""
    cap, den = f.cap, lcm(*(k.denominator for k in f.coeffs.values()))
    acc: dict = {}
    for (a, b, c), k in f.coeffs.items():
        num = k.numerator * (den // k.denominator)
        for i in range(b + 1):
            big_n, coef = a + i + 2 * c, (-1) ** i * comb(b, i) * num
            for t in range(cap - a - b - 2 * c - i + 1):
                e = (a + t, b - i, c + i)
                acc[e] = acc.get(e, 0) + coef
                coef = -coef * (big_n + t) // (t + 1)  # (-1)^(t+1) C(N+t, t+1): 0 if N = 0
    return MultiSeries(RATIONALS, cap, {e: Fraction(v, den) for e, v in acc.items()})


def prop_3_3_rows(n: int, cap: int) -> Iterator[VerificationReport]:
    """Check that the product and recurrence routes agree and that the
    change of variables carries the product route onto the brute-force
    generating function with all-rational coefficients.

    The product route is the untwisted `_row_product` and its target
    `f_series` the twisted one, taken to Q, so the substitution checks the
    twist.  The two routes share no input, so `phi-routes` compares two
    independent routes: the product route is built over Q(zeta_n) from the
    cached polylogarithm rows, the recurrence route over Q from binomials
    alone (the closed form of `phi_recurrence`), with no field operation.  The
    product route is rational: an automorphism zeta -> zeta^a with
    gcd(a, n) = 1 permutes its factors j = 1..n-1.  So the substitution runs
    over Q; `to_rational` raises on an irrational coefficient.  It sends
    each monomial to its images by one binomial map (`_binomial_map`):

        u^a v^b w^c = sum_(i<=b) sum_(t>=0) C(b,i) (-1)^(i+t) C(N+t-1, t) x^(a+t) y^(b-i) z^(c+i),

    N = a + i + 2c, the t-sum being t = 0 alone when N = 0.  Proof: expand
    (y - z/(1+x))^b, then (1+x)^(-N).  The weight is (a + b + 2c) + i + t: truncation is exact."""
    prod = phi_product(n, cap)
    yield compare("phi-routes", {"n": n, "cap": cap}, prod, phi_recurrence(n, cap), render_series)
    yield compare("phi-substitution", {"n": n, "cap": cap}, _binomial_map(prod.to_rational()),
                  f_series(n, cap), render_series)


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

    @functools.cache
    def pl(parts: tuple, star: bool) -> Poly:
        return polylog(Index(parts), n, star)

    def render(p: Poly) -> str:
        return " ; ".join(str(c) for c in p.coeffs) if p else "0"

    for k in range(1, weight_cap + 1):
        for r in range(1, k + 1):
            for ix in enumerate_indices(k, r):
                for star in (False, True):
                    lhs = dq(pl(ix.parts, star))
                    if ix.parts[0] >= 2:
                        rhs = pl((ix.parts[0] - 1,) + ix.parts[1:], star).div_t_exact()
                    elif star and r == 1:
                        rhs = geom
                    else:
                        # the non-strict case carries t^n, not t^(n-1): the
                        # partial sums telescope one step further because
                        # m_2 = m_1 is allowed
                        lr = pl(ix.parts[1:], star)
                        num = lr - Poly.monomial(n - 1 + star, lr.at_one(), field)
                        rhs = num.div_one_minus_t_exact()
                        if star:
                            rhs = rhs.div_t_exact()
                    yield compare("polylog-dq", {"n": n, "index": str(ix), "star": star},
                                  lhs, rhs, render)


def verify_lemma_3_2(n: int, weight_cap: int) -> list[VerificationReport]:
    """The rows of `lemma_3_2_rows`, all computed in the call."""
    return list(lemma_3_2_rows(n, weight_cap))
