"""Truncated power series in three variables with a weighted degree cap.

The variables (x, y, z) — or (u, v, w), which share the same slots —
carry weights (1, 1, 2).  A series stores only monomials of weight at
most its cap, sparsely, and every operation truncates at the cap.
Coefficients live in an abstract field with the protocol of
`exactnum.RationalField`: the rationals or a cyclotomic field.

Products and inverses sum coefficient products as integers.  The
field's `integer_form` brings each operand over one denominator to
integers: numerators over Q, Kronecker-packed vectors over Q(zeta_n)
with digits for pairs * d * max|a| * max|b|, d = deg(Phi_n): at most
pairs = min(|A|, |B|) products meet in an output, folded with x^n = 1
in the packed integer and reduced by `CycloField._reduce`.  Each output
sum is converted back once; a sum zero modulo Phi_n is dropped.  When
pairs <= 2, an operand of one or two terms in a product or an inverse
layer, the sums are taken in the field: so few products cost less than a
pack and an unpack.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from fractions import Fraction
from math import factorial
from operator import itemgetter

# RationalField is re-exported: the tracer in perfbench/spans.py reads it here
from .exactnum import RATIONALS, RationalField  # noqa: F401

WEIGHTS = (1, 1, 2)


def monomial_weight(exps: tuple[int, int, int]) -> int:
    return exps[0] + exps[1] + 2 * exps[2]


def _by_weight(coeffs: dict) -> list:
    """(weight, exponents, coefficient) per monomial, in weight order; the
    order within a weight is immaterial, as every sum is exact."""
    return sorted([(e[0] + e[1] + 2 * e[2], e, v) for e, v in coeffs.items()], key=itemgetter(0))


def _sum_products(field, left: list, right: list, spans: list) -> dict:
    """Sums of coefficient products of `left` and `right` terms by the sum
    of their exponents, left[i] meeting right[lo:hi] for (lo, hi) = spans[i].
    For one output and one left term at most one right term matches.  A
    sum taken in the field may be zero; an integer sum zero modulo Phi_n
    is dropped."""
    pairs = min(len(left), len(right))
    if pairs <= 2:
        # so few products meet in an output that a pack and an unpack cost more
        out: dict = {}
        for (_, (a, b, c), x), (lo, hi) in zip(left, spans):
            for _, (a2, b2, c2), y in right[lo:hi]:
                k = (a + a2, b + b2, c + c2)
                out[k] = out[k] + x * y if k in out else x * y
        return out
    xs, ys, back = field.integer_form([c for _, _, c in left], [c for _, _, c in right], pairs)
    exps = [e for _, e, _ in right]
    acc: dict = {}
    get = acc.get
    for (_, (a, b, c), _), x, (lo, hi) in zip(left, xs, spans):
        for (a2, b2, c2), y in zip(exps[lo:hi], ys[lo:hi]):
            k = (a + a2, b + b2, c + c2)
            acc[k] = get(k, 0) + x * y
    return {k: back(total) for k, total in acc.items() if total}


class MultiSeries:
    """Immutable sparse series; `coeffs` maps exponent triples to nonzero
    field elements, all of weight <= cap."""

    __slots__ = ("field", "cap", "coeffs")

    def __init__(self, field, cap: int, coeffs: dict | None = None):
        if cap < 0:
            raise ValueError("cap must be non-negative")
        self.field = field
        self.cap = cap
        clean = {}
        if coeffs:
            for exps, c in coeffs.items():
                if c and monomial_weight(exps) <= cap:
                    clean[exps] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, cap: int, field=RATIONALS) -> "MultiSeries":
        if isinstance(value, (int, Fraction)):
            value = field.from_rational(value)
        return cls(field, cap, {(0, 0, 0): value})

    @classmethod
    def variable(cls, name: str, cap: int, field=RATIONALS) -> "MultiSeries":
        slot = {"x": 0, "u": 0, "y": 1, "v": 1, "z": 2, "w": 2}[name]
        exps = tuple(1 if i == slot else 0 for i in range(3))
        return cls(field, cap, {exps: field.one})

    @classmethod
    def zero(cls, cap: int, field=RATIONALS) -> "MultiSeries":
        return cls(field, cap, {})

    # -- basic ring structure ------------------------------------------

    def _check(self, other: "MultiSeries") -> None:
        if self.cap != other.cap:
            raise ValueError(f"weight cap mismatch: {self.cap} vs {other.cap}")
        if self.field != other.field:
            raise ValueError("coefficient field mismatch")

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check(other)
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            prev = out.get(exps)
            out[exps] = c if prev is None else prev + c
        return MultiSeries(self.field, self.cap, out)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries(self.field, self.cap,
                           {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        self._check(other)
        field, cap = self.field, self.cap
        short, long = self.coeffs, other.coeffs
        if len(short) > len(long):
            short, long = long, short
        left, right = _by_weight(short), _by_weight(long)
        # right is in weight order: a term of weight w meets a prefix of it
        weights = [w for w, _, _ in right]
        spans = [(0, bisect_right(weights, cap - w)) for w, _, _ in left]
        return MultiSeries(field, cap, _sum_products(field, left, right, spans))

    def scale(self, c) -> "MultiSeries":
        if isinstance(c, (int, Fraction)):
            c = self.field.from_rational(c)
        return MultiSeries(self.field, self.cap,
                           {e: v * c for e, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiSeries)
            and self.cap == other.cap
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.cap, tuple(sorted(self.coeffs.keys()))))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- structure helpers ---------------------------------------------

    def coefficient(self, ex: int, ey: int, ez: int):
        return self.coeffs.get((ex, ey, ez), self.field.zero)

    def constant_term(self):
        return self.coefficient(0, 0, 0)

    def valuation(self) -> int:
        """Smallest weight of a stored monomial; cap + 1 for the zero series."""
        if not self.coeffs:
            return self.cap + 1
        return min(monomial_weight(e) for e in self.coeffs)

    def invert(self) -> "MultiSeries":
        """Multiplicative inverse up to the cap; the constant term must be
        invertible.  Graded back-substitution on homogeneous layers: with
        A_j the layer of weight j and c0 the constant term, the inverse
        has B_0 = 1/c0 and B_w = sum_(j=1..w) (-A_j/c0) B_(w-j)."""
        c0 = self.constant_term()
        if not c0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = c0 ** -1
        field, cap = self.field, self.cap
        left = _by_weight({e: -inv0 * c for e, c in self.coeffs.items() if e != (0, 0, 0)})
        right = [(0, (0, 0, 0), inv0)]
        starts = [0, 1]  # right[starts[w]:starts[w + 1]] is the layer B_w
        for w in range(1, cap + 1):
            use = [t for t in left if t[0] <= w]
            spans = [(starts[w - j], starts[w - j + 1]) for j, _, _ in use]
            sums = _sum_products(field, use, right, spans)
            right += [(w, k, c) for k, c in sums.items() if c]
            starts.append(len(right))
        return MultiSeries(field, cap, {e: c for _, e, c in right})

    def map_coefficients(self, fn, field=None) -> "MultiSeries":
        return MultiSeries(field or self.field, self.cap,
                           {e: fn(c) for e, c in self.coeffs.items()})

    def to_rational(self) -> "MultiSeries":
        """Extract Fraction coefficients from a cyclotomic-coefficient series;
        raises if any coefficient is not rational."""
        return self.map_coefficients(lambda c: c.rational_part(), RATIONALS)

    def __repr__(self) -> str:
        return f"MultiSeries(cap={self.cap}, {render_series(self)!r})"

    def __str__(self) -> str:
        return render_series(self)


def render_series(s: MultiSeries) -> str:
    if not s.coeffs:
        return "0"
    parts = []
    for e in sorted(s.coeffs, key=lambda e: (monomial_weight(e), e)):
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip("xyz", e) if k)
        c = s.coeffs[e]
        parts.append(f"{c}" if not mono else f"{c}*{mono}")
    return " + ".join(parts)


def ms_substitute(f: MultiSeries, u_expr: MultiSeries, v_expr: MultiSeries,
                  w_expr: MultiSeries) -> "MultiSeries":
    """Composition f(u_expr, v_expr, w_expr).

    Each image must have zero constant term and valuation at least the
    weight of the variable it replaces, so that truncation at the shared
    cap is exact.
    """
    images = (u_expr, v_expr, w_expr)
    u_expr._check(v_expr)
    u_expr._check(w_expr)
    cap, field = u_expr.cap, u_expr.field
    for img, wt, name in zip(images, WEIGHTS, "uvw"):
        if img.constant_term():
            raise ValueError(
                f"substitution image for {name} has a nonzero constant term"
            )
        if img and img.valuation() < wt:
            raise ValueError(
                f"substitution image for {name} has valuation below weight {wt}"
            )

    @functools.cache
    def power(slot: int, e: int) -> MultiSeries:
        return power(slot, e - 1) * images[slot] if e else MultiSeries.constant(1, cap, field)

    # f = sum_a U^a sum_b V^b (sum_c f_abc W^c): one product per (a, b) and per a
    in_w: dict = {}
    for (a, b, c), k in f.coeffs.items():
        k = field.from_rational(k) if isinstance(k, (int, Fraction)) else k
        acc = in_w.setdefault(a, {}).setdefault(b, {})
        for e, v in power(2, c).coeffs.items():
            acc[e] = acc[e] + v * k if e in acc else v * k
    zero = MultiSeries.zero(cap, field)
    return sum((power(0, a) * sum((power(1, b) * MultiSeries(field, cap, acc)
                                   for b, acc in by_b.items()), zero)
                for a, by_b in in_w.items()), zero)


def ms_divide_xy_minus_z(numerator: MultiSeries) -> MultiSeries:
    """Exact quotient of a series by (x*y - z).

    Matching coefficients in N = (x*y - z) Q gives N_abc = Q_(a-1)(b-1)c -
    Q_ab(c-1), so the terms of N on one diagonal (s, t) = (a + c, b + c),
    all of weight s + t, meet only each other: Q at height c - 1 is minus
    the sum of N's terms at heights >= c, and the sum of the whole diagonal
    is the remainder at x^s y^t (the substitution z -> x*y), which must
    vanish.  The quotient is returned with cap reduced by 2, the weight of
    the divisor, which is the precision actually determined.
    """
    cap, field = numerator.cap, numerator.field
    if cap < 2:
        raise ValueError("cap too small to divide by a weight-2 element")
    diagonals: dict = {}
    for (a, b, c), v in numerator.coeffs.items():
        diagonals.setdefault((a + c, b + c), {})[c] = v
    out: dict = {}
    for (s, t), heights in diagonals.items():
        q = field.zero
        for c in range(max(heights), 0, -1):
            if c in heights:
                q = q - heights[c]
            out[(s - c, t - c, c - 1)] = q
        if q != heights.get(0, field.zero):
            raise ValueError(
                "series is not divisible by x*y - z "
                f"(remainder has nonzero x^{s}*y^{t} term)"
            )
    return MultiSeries(field, cap - 2, out)


def exp_half_y(cap: int) -> MultiSeries:
    """exp(y/2) truncated at the cap."""
    coeffs = {(0, m, 0): Fraction(1, 2**m * factorial(m)) for m in range(cap + 1)}
    return MultiSeries(RATIONALS, cap, coeffs)


def x_over_sinh_half_x(cap: int) -> MultiSeries:
    """x / sinh(x/2) = 2 * (sum_m (x/2)^(2m) / (2m+1)!)^(-1)."""
    body = {
        (2 * m, 0, 0): Fraction(1, 4**m * factorial(2 * m + 1)) for m in range(cap // 2 + 1)
    }
    return MultiSeries(RATIONALS, cap, body).invert().scale(2)


def cosh_half_sqrt(w_expr: MultiSeries) -> MultiSeries:
    """cosh(sqrt(w)/2) = sum_m w^m / (4^m (2m)!) for a series w with zero
    constant term; no square root is ever formed."""
    if w_expr.constant_term():
        raise ValueError("cosh_half_sqrt requires a zero constant term")
    cap, field = w_expr.cap, w_expr.field
    total = wp = MultiSeries.constant(1, cap, field)
    for m in range(1, cap // w_expr.valuation() + 1):
        wp = wp * w_expr
        total = total + wp.scale(Fraction(1, 4**m * factorial(2 * m)))
    return total
