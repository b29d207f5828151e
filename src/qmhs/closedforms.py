"""Closed-form evaluations of the constant-index values zbar({k}^r, n).

Three routes are implemented: the explicit formulas for k = 1, 2, 3, the
depth-one generating series for all k, and a general-k construction that
realizes the symmetric functions of an inexplicit root system through
exterior powers of a companion matrix.  A report-only checker probes the
two conjectural palindromic-insertion identities.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cyclotomic import get_field, render_cyclo
from .exactnum import ONE, ZERO, Poly, binomial
from .mhs import Index, z as mhs_z
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
# Bivariate polynomials over Q and fraction-free determinants.


class Poly2:
    """Sparse polynomial in (X, Y) over the rationals.

    Supports the ring operations plus exact division, which is all the
    fraction-free elimination needs.  Immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[e] = c
        self.coeffs = clean

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def term(cls, c, dx: int, dy: int) -> "Poly2":
        return cls({(dx, dy): Fraction(c)})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, ZERO) + c
        return Poly2(out)

    def __neg__(self) -> "Poly2":
        return Poly2({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        out: dict = {}
        for (x1, y1), c1 in self.coeffs.items():
            for (x2, y2), c2 in other.coeffs.items():
                e = (x1 + x2, y1 + y2)
                out[e] = out.get(e, ZERO) + c1 * c2
        return Poly2(out)

    def _leading(self) -> tuple[tuple[int, int], Fraction]:
        # graded lexicographic order; any monomial order works for the
        # single-divisor exact division below
        e = max(self.coeffs, key=lambda e: (e[0] + e[1], e))
        return e, self.coeffs[e]

    def div_exact(self, divisor: "Poly2") -> "Poly2":
        """Exact quotient; raises ValueError if the division leaves a
        remainder.  Leading-term cancellation terminates whenever the
        divisor really divides self."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = self
        (de, dc) = divisor._leading()
        out: dict = {}
        while rem:
            (re, rc) = rem._leading()
            qe = (re[0] - de[0], re[1] - de[1])
            if qe[0] < 0 or qe[1] < 0:
                raise ValueError("inexact bivariate division")
            qc = rc / dc
            out[qe] = out.get(qe, ZERO) + qc
            rem = rem - Poly2.term(qc, *qe) * divisor
        return Poly2(out)

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


def bareiss_det(matrix: list[list]):
    """Determinant by fraction-free elimination (E. H. Bareiss, Math. Comp.
    22, 1968), over Poly or Poly2 entries.

    Entries must support *, -, truth testing and exact division by the
    previous pivot; intermediate entries stay polynomial.  A singular
    matrix gives the zero entry of the type it holds.
    """
    m = [row[:] for row in matrix]
    size = len(m)
    if size == 0:
        return Poly2.const(1)
    sign = 1
    prev = None
    for k in range(size - 1):
        if not m[k][k]:
            for i in range(k + 1, size):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]  # column k is zero from row k down
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else num.div_exact(prev)
            m[i][k] = None  # eliminated; never read again
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return -det if sign < 0 else det


def _companion(k: int) -> list[list[Poly]]:
    """Companion matrix over Q[X] of (1-Y)^k + Y^(k-1) X viewed as a monic
    degree-k polynomial in Y."""
    # monic coefficients p_j of Y^j for j < k, after scaling by (-1)^k
    sgn = (-1) ** k
    mat = [[Poly() for _ in range(k)] for _ in range(k)]
    for i in range(1, k):
        mat[i][i - 1] = Poly([1])
    for j in range(k):
        xcoef = sgn if j == k - 1 else 0
        mat[j][k - 1] = -Poly([sgn * (-1) ** j * comb(k, j), xcoef])
    return mat


def exterior_F(k: int, l: int) -> Poly2:
    """The polynomial whose roots in Y are the inverses of all l-fold
    products of the root system of (1-Y)^k + Y^(k-1) X.

    Built exactly as det(I - Y * Lambda^l) where Lambda^l is the l-th
    compound of the companion matrix, evaluated by fraction-free
    elimination over Q[X, Y].  l = 0 returns 1 - Y by convention.
    """
    if k < 1 or not 0 <= l <= k:
        raise ValueError("need k >= 1 and 0 <= l <= k")
    if l == 0:
        return Poly2({(0, 0): ONE, (0, 1): -ONE})
    from itertools import combinations

    comp = _companion(k)
    subsets = list(combinations(range(k), l))
    m: list[list[Poly2]] = []
    for rows in subsets:
        row = []
        for cols in subsets:
            minor = bareiss_det([[comp[i][j] for j in cols] for i in rows])
            entry = Poly2({(dx, 1): -c for dx, c in enumerate(minor.coeffs) if c})
            if rows == cols:
                entry = entry + Poly2.const(1)
            row.append(entry)
        m.append(row)
    return bareiss_det(m)


# ---------------------------------------------------------------------------
# Truncated bivariate series log.


def _series_log(f: Poly2, xmax: int, ymax: int) -> list[Poly]:
    """log f for a series f in (X, Y) whose Y^0 row is 1, truncated at
    X^xmax and Y^ymax, as its rows g_0 = 0, g_1, ..., g_ymax in Y, each a
    polynomial in X.  With g = log f, the derivative in Y gives
    f' = f * g', so row by row

        g_d = f_d - (1/d) * sum_{0<j<d} j * g_j * f_(d-j),

    truncated at X^xmax."""
    dense = [[ZERO] * (xmax + 1) for _ in range(ymax + 1)]
    for (dx, dy), c in f.coeffs.items():
        if dx <= xmax and dy <= ymax:
            dense[dy][dx] = c
    rows = [Poly(row) for row in dense]
    if rows[0] != Poly([1]):
        raise ValueError("series log requires the Y^0 row to be 1")
    g = [Poly()]
    for d in range(1, ymax + 1):
        acc = Poly()
        for j in range(1, d):
            acc = acc + (g[j] * rows[d - j]).scale(j)
        g.append(rows[d] - Poly(acc.coeffs[: xmax + 1]).scale(Fraction(1, d)))
    return g


def kkk_general(k: int, n_max: int, r_max: int) -> dict[tuple[int, int], Fraction]:
    """Table of zbar({k}^r, n) for 1 <= n <= n_max, 0 <= r <= r_max, by
    expanding the signed log of the alternating product of the exterior
    polynomials and dividing out one power of the depth variable."""
    if k < 1:
        raise ValueError("k must be positive")
    total = [Poly()] * (n_max + 1)
    for l in range(0, k + 1):
        for d, row in enumerate(_series_log(exterior_F(k, l), r_max + 1, n_max)):
            total[d] = total[d] - row if l % 2 else total[d] + row
    # the X^0 slice must vanish: at X = 0 all roots collapse to 1 and the
    # alternating product telescopes to 1
    if any(row.coeffs and row.coeffs[0] for row in total):
        raise ValueError("internal error: log expansion has an X^0 term")
    sign = (-1) ** (k - 1)
    table: dict[tuple[int, int], Fraction] = {}
    for n in range(1, n_max + 1):
        cs = total[n].coeffs
        for r in range(0, r_max + 1):
            c = cs[r + 1] * sign if r + 1 < len(cs) else ZERO
            table[(n, r)] = c / Fraction(n) ** (k - 1)
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
