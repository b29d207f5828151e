"""Closed-form evaluations of the constant-index values zbar({k}^r, n).

Three routes are implemented: the explicit formulas for k = 1, 2, 3, the
depth-one generating series for all k, and a general-k construction that
reaches the symmetric functions of an inexplicit root system through
Newton's identities on the power sums of its k roots, series in X over Q
truncated at a degree bound, with no determinant and no bivariate
arithmetic.  A report-only checker probes the two conjectural
palindromic-insertion identities.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cyclotomic import get_field, render_cyclo
from .exactnum import ONE, binomial
from .mhs import Index, z as mhs_z
from .multiseries import MultiSeries
from .ohno_zagier import binomial_quotient
from .report import REPORT_ONLY, VerificationReport


def depth_one_bar(n: int, K: int) -> list[Fraction]:
    """(zbar(1), ..., zbar(K)) at level n, read off the generating series
    n*x / (1 - (1+x)^n) + 1 by exact series division."""
    if n < 1 or K < 1:
        raise ValueError("n and K must be positive")
    # 1 - (1+x)^n = -x * g(x) with g = sum_{j>=1} C(n,j) x^(j-1), so the
    # series equals 1 - n/g(x); the "+1" cancels the constant -n/g(0) = -1.
    inv = binomial_quotient(n, K).invert()
    return [-n * inv.coefficient(d, 0, 0) for d in range(1, K + 1)]


def kkk_closed(k: int, r: int, n: int) -> Fraction:
    """zbar({k}^r, n) for k = 1, 2, 3 by the explicit formulas."""
    if r < 1 or n < 1:
        raise ValueError("r and n must be positive")
    if k == 1:
        return Fraction(binomial(n, r + 1), n)
    if k == 2:
        return Fraction((-1) ** r * binomial(n + r, 2 * r + 1), n * (r + 1))
    if k == 3:
        return Fraction(
            binomial(n + 2 * r + 1, 3 * r + 2) + (-1) ** r * binomial(n + r, 3 * r + 2),
            n * n * (r + 1),
        )
    raise ValueError("closed forms are available for k in {1, 2, 3}")


# ---------------------------------------------------------------------------
# The general-k construction, on the power sums of the root system.


class Poly2:
    """Sparse polynomial in (X, Y) over the rationals: the immutable value
    `exterior_F` returns, keyed by exponent pairs (dx, dy)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        fractions = ((e, Fraction(c)) for e, c in (coeffs or {}).items())
        self.coeffs = {e: c for e, c in fractions if c}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        return f"Poly2({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (dx, dy) in sorted(self.coeffs, key=lambda e: (e[0] + e[1], e)):
            c = self.coeffs[(dx, dy)]
            mono = "*".join(
                n if d == 1 else f"{n}^{d}"
                for n, d in (("X", dx), ("Y", dy))
                if d
            )
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts)


def _power_sums(e: list[MultiSeries], m_max: int) -> list[MultiSeries]:
    """Power sums P_0..P_m_max of the roots whose elementary symmetric
    functions are e[0] = 1, e[1], ..., e[k], by Newton's identities

        P_m = sum_{0<i<m} (-1)^(i-1) e_i P_(m-i) + (-1)^(m-1) m e_m,

    with e_i = 0 for i > k.  The e_i are series in X = x, truncated at
    their cap after every step."""
    k = len(e) - 1
    cap = e[0].cap
    p = [MultiSeries.constant(k, cap)]
    for m in range(1, m_max + 1):
        acc = e[m].scale((-1) ** (m - 1) * m) if m <= k else MultiSeries.zero(cap)
        for i in range(1, min(k, m - 1) + 1):
            term = e[i] * p[m - i]
            acc = acc + term if i % 2 else acc - term
        p.append(acc)
    return p


def _elementary(p: list[MultiSeries], j_max: int) -> list[MultiSeries]:
    """Elementary symmetric functions e_0..e_j_max from the power sums
    p[1], ..., p[j_max] (p[0] gives only the cap), by Newton's identities

        e_j = (1/j) sum_{0<i<=j} (-1)^(i-1) e_(j-i) P_i,

    truncated at the cap after every step.  The truncations lose nothing
    below it, because the only divisions are by integers."""
    cap = p[0].cap
    e = [MultiSeries.constant(1, cap)]
    for j in range(1, j_max + 1):
        acc = MultiSeries.zero(cap)
        for i in range(1, j + 1):
            term = e[j - i] * p[i]
            acc = acc + term if i % 2 else acc - term
        e.append(acc.scale(Fraction(1, j)))
    return e


def _root_power_sums(k: int, m_max: int, xmax: int) -> list[MultiSeries]:
    """Power sums P_0..P_m_max, truncated at X^xmax, of the k roots
    alpha_i of the monic form of (1-Y)^k + Y^(k-1) X: e_1 = k + (-1)^(k-1) X,
    e_i = C(k, i) for i >= 2.  P[::d] are the power sums of the alpha_i^d."""
    e = [MultiSeries.constant(comb(k, i), xmax) for i in range(k + 1)]
    e[1] = e[1] + MultiSeries.variable("x", xmax).scale((-1) ** (k - 1))
    return _power_sums(e, m_max)


def exterior_F(k: int, l: int) -> Poly2:
    """The polynomial whose roots in Y are the inverses of all l-fold
    products of the root system of (1-Y)^k + Y^(k-1) X:

        F = prod_{|S| = l} (1 - Y alpha_S) = sum_j (-1)^j E_j(alpha_S) Y^j.

    The power sums of the alpha_S are s_d = e_l(alpha^d), so Newton's
    identities give F from the power sums of the alpha_i.  F has degree
    at most C(k, l) in X and in Y, so every step drops the powers of X
    above C(k, l).  l = 0 returns 1 - Y by convention.
    """
    if k < 1 or not 0 <= l <= k:
        raise ValueError("need k >= 1 and 0 <= l <= k")
    if l == 0:
        return Poly2({(0, 0): ONE, (0, 1): -ONE})
    size = comb(k, l)
    P = _root_power_sums(k, l * size, size)
    s = [P[0]] + [_elementary(P[::d], l)[l] for d in range(1, size + 1)]
    return Poly2({
        (dx, j): -c if j % 2 else c
        for j, ej in enumerate(_elementary(s, size))
        for (dx, _, _), c in ej.coeffs.items()
    })


def kkk_general(k: int, n_max: int, r_max: int) -> dict[tuple[int, int], Fraction]:
    """Table of zbar({k}^r, n) for 1 <= n <= n_max, 0 <= r <= r_max.

    The signed log of the exterior polynomials, sum_l (-1)^l log
    exterior_F(k, l), has the Y^n row -(1/n) prod_i (1 - alpha_i^n), where
    prod_i (1 - alpha_i^n) = sum_j (-1)^j e_j(alpha^n).  zbar({k}^r, n) is
    (-1)^k / n^k times the X^(r+1) coefficient of that product."""
    if k < 1 or n_max < 0 or r_max < 0:
        raise ValueError("need k >= 1, n_max >= 0 and r_max >= 0")
    xmax = r_max + 1
    P = _root_power_sums(k, k * n_max, xmax)
    table: dict[tuple[int, int], Fraction] = {}
    for n in range(1, n_max + 1):
        acc = MultiSeries.zero(xmax)
        for j, ej in enumerate(_elementary(P[::n], k)):
            acc = acc - ej if j % 2 else acc + ej
        # the X^0 slice must vanish: at X = 0 all roots collapse to 1
        if acc.constant_term():
            raise ValueError("internal error: log expansion has an X^0 term")
        for r in range(0, r_max + 1):
            table[(n, r)] = (-1) ** k * acc.coefficient(r + 1, 0, 0) / Fraction(n) ** k
    return table


# ---------------------------------------------------------------------------
# Report-only checker for the two conjectured symmetrized-insertion sums.


def conjecture_check(family: int, n: int, a: int, b: int) -> VerificationReport:
    """Evaluate both sides of one conjectured identity instance exactly.

    family 1: z({1}^a, 2, {1}^b) + z({1}^b, 2, {1}^a)
              vs  -(1/n) C(n+1, a+b+3) (1-zeta)^(a+b+2)
    family 2: z({2}^a, 3, {2}^b) + z({2}^b, 3, {2}^a)
              vs  -(-1)^(a+b)/((a+b+2) n) C(n+a+b+1, 2(a+b)+3) (1-zeta)^(2(a+b)+3)

    Never asserts: disagreement is recorded as data in the report.
    """
    if family not in (1, 2):
        raise ValueError("family must be 1 or 2")
    if n < 2 or a < 0 or b < 0 or a + b + 1 >= n:
        raise ValueError("need n >= 2, a, b >= 0, a + b + 1 < n")
    field = get_field(n)
    if family == 1:
        left = Index((1,) * a + (2,) + (1,) * b)
        right = Index((1,) * b + (2,) + (1,) * a)
        coeff = Fraction(-binomial(n + 1, a + b + 3), n)
        power = a + b + 2
    else:
        left = Index((2,) * a + (3,) + (2,) * b)
        right = Index((2,) * b + (3,) + (2,) * a)
        coeff = Fraction(-((-1) ** (a + b)) * binomial(n + a + b + 1, 2 * (a + b) + 3),
                         (a + b + 2) * n)
        power = 2 * (a + b) + 3
    lhs = mhs_z(left, n) + mhs_z(right, n)
    one_minus_zeta = field.one - field.zeta
    rhs = field.from_rational(coeff) * one_minus_zeta**power
    return VerificationReport(
        suite=f"conjecture-{family}",
        params={"n": n, "a": a, "b": b, "equal": lhs == rhs},
        status=REPORT_ONLY,
        lhs=render_cyclo(lhs),
        rhs=render_cyclo(rhs),
    )
