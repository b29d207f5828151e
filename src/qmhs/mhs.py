"""Finite multiple harmonic q-series at a primitive n-th root of unity.

The nested sums over strict (z) or non-strict (z_star) chains
n > m_1 > ... > m_r > 0 are evaluated by a single dynamic program over
an abstract value field: exact cyclotomic coefficients or floating
complex numbers, selected by the backend object.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycloElem, compensated_sums, get_field


class Index:
    """A finite sequence of positive integers indexing a nested sum.

    weight = sum of the parts, depth = number of parts, height = number
    of parts that are at least 2.  The empty index is allowed and stands
    for the empty product (value 1).
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"index parts must be positive integers: {parts}")
        self.parts = parts

    @classmethod
    def parse(cls, text: str) -> "Index":
        return cls(int(p) for p in text.split(",") if p.strip())

    @classmethod
    def repeat(cls, k: int, r: int) -> "Index":
        return cls((k,) * r)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def height(self) -> int:
        return sum(1 for p in self.parts if p >= 2)

    @property
    def admissible(self) -> bool:
        """First part at least 2 (the usual convergence convention)."""
        return bool(self.parts) and self.parts[0] >= 2

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Index) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Index{self.parts!r}"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class IndexProfile:
    """A (weight, depth, height) triple."""

    weight: int
    depth: int
    height: int


def enumerate_indices(weight: int, depth: int, height: int | None = None,
                      admissible: bool = False):
    """All compositions of `weight` into `depth` positive parts, optionally
    filtered by height and by admissibility (first part >= 2).

    Deterministic order: first part descending, then recursively the same.
    |I(k, r)| = C(k-1, r-1).
    """
    out: list[Index] = []

    def rec(remaining: int, slots: int, prefix: tuple):
        if slots == 0:
            if remaining == 0:
                out.append(Index(prefix))
            return
        top = remaining - (slots - 1)
        for first in range(top, 0, -1):
            rec(remaining - first, slots - 1, prefix + (first,))

    if weight >= 0 and depth >= 0:
        rec(weight, depth, ())
    if height is not None:
        out = [ix for ix in out if ix.height == height]
    if admissible:
        out = [ix for ix in out if ix.admissible]
    return out


def enumerate_profile(profile: IndexProfile, admissible: bool = False):
    return enumerate_indices(profile.weight, profile.depth, profile.height,
                             admissible)


class ExactBackend:
    """Value field Q(zeta_n) with q = zeta_n.

    The polylogarithm weights (1 - zeta^m)^(-k) and the chain weights
    q^((k-1)m) / [m]^k are cached in one row per k, filled on demand.
    A polylogarithm row takes one power per g = gcd(m, n): with u a unit
    mod n and u = m/g mod n/g, (1 - zeta^m)^(-k) = sigma_u((1 - zeta^g)^(-k)).
    A chain weight row is that row times (1 - zeta)^k, since
    [m] = (1 - zeta^m) / (1 - zeta), and times zeta^((k-1)m).  All cached
    values are immutable.
    """

    def __init__(self, n: int):
        self.n = n
        field = self.field = get_field(n)
        self.zero = field.zero
        self.one = field.one
        # (g, u) for m = 1..n-1: g = gcd(m, n), u a unit with g u = m mod n
        self._units = []
        for m in range(1, n):
            g = math.gcd(m, n)
            units = (u for u in range(m // g, n, n // g) if math.gcd(u, n) == 1)
            self._units.append((g, next(units)))
        self._seeds = {g: field.inv_one_minus_zeta_pow(g) for g, _ in self._units}
        self._rows: dict[int, list] = {}
        self._polylog_rows: dict[int, list] = {1: self._conjugates(self._seeds)}
        self._scales: dict[int, CycloElem] = {}

    def _conjugates(self, seeds: dict) -> list:
        """sigma_u(seeds[g]) for the (g, u) of m = 1..n-1."""
        conjugate = self.field.conjugate
        return [seeds[g] if u == 1 else conjugate(seeds[g], u) for g, u in self._units]

    def weight(self, k: int, m: int) -> CycloElem:
        """q^((k-1)m) / [m]^k as a field element, 0 < m < n."""
        row = self._rows.get(k)
        if row is None:
            field = self.field
            scale = (self.one - field.zeta) ** k
            row = self._rows[k] = [field.zeta_pow((k - 1) * j) * (scale * x)
                                   for j, x in enumerate(self.polylog_row(k), 1)]
        return row[m - 1]

    def weight_row(self, k: int):
        """Yields w_k(m) for m = 1..n-1."""
        return (self.weight(k, m) for m in range(1, self.n))

    def polylog_row(self, k: int) -> list:
        """(1 - zeta^m)^(-k) for m = 1..n-1; each row is built once and
        shared, so callers must not write to it."""
        row = self._polylog_rows.get(k)
        if row is None:
            seeds = {g: x ** k for g, x in self._seeds.items()}
            row = self._polylog_rows[k] = self._conjugates(seeds)
        return row

    def zbar_scale(self, w: int) -> CycloElem:
        """(1 - zeta)^(-w), the scale of a modified value of weight w, kept
        once built."""
        if w not in self._scales:
            self._scales[w] = self._seeds[1] ** w
        return self._scales[w]

    def running_sums(self, values, inclusive: bool | None, weights=None):
        """Running sums of the list `values` through each position
        (inclusive) or before it (exclusive), each times the next of
        `weights` when given, written over `values`; returns the
        unweighted total.  With `inclusive` None only the total is taken."""
        total = self.zero
        if inclusive is None:
            return sum(values, total)
        for i, v in enumerate(values):
            new = total + v
            values[i] = new if inclusive else total
            total = new
        if weights is not None:
            for i, w in enumerate(weights):
                values[i] = w * values[i]
        return total


class NumericBackend:
    """Value field C with q = exp(2*pi*i/n) in double precision.

    Powers of q are taken directly from cos/sin of the reduced phase, not
    by repeated multiplication, so there is no cumulative phase drift.
    The tables of q^j and of the inverse q-integers are built once, in
    the constructor, and never written afterwards, so one backend can be
    shared by every evaluation at level n.  Weight rows are streamed from
    them; running sums are compensated and taken in place.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = n
        self.one = 1 + 0j
        two_pi, cos, sin = 2 * math.pi, math.cos, math.sin
        qpow = [complex(cos(t), sin(t)) for t in (two_pi * j / n for j in range(n))]
        self._qpow = qpow
        # [m]^(-1) = 1 / ((1 - q^m) / (1 - q))
        one_minus_q = 1 - qpow[1 % n]
        self._inv_qint = [None] + [
            1 / ((1 - q) / one_minus_q) for q in itertools.islice(qpow, 1, None)
        ]

    def weight_row(self, k: int):
        """Yields w_k(m) = q^((k-1)m) / [m]^k for m = 1..n-1.  The phase
        q^((k-1)m mod n) is every (k-1)-th entry of k-1 copies of the
        table of q^j, stepped through without a copy."""
        n, qpow = self.n, self._qpow
        if k == 1:
            phases = itertools.repeat(qpow[0], n - 1)
        else:
            step = k - 1
            phases = itertools.islice(
                itertools.chain.from_iterable(itertools.repeat(qpow, step)),
                step, step * n, step)
        powers = map(pow, itertools.islice(self._inv_qint, 1, None), itertools.repeat(k))
        return map(operator.mul, phases, powers)

    def running_sums(self, values, inclusive: bool | None, weights=None):
        """Compensated running sums of the list `values`, each times the
        next of `weights` when given, written over it (nothing is written
        with `inclusive` None); returns the unweighted total.  A non-finite
        value anywhere poisons the total, which raises OverflowError."""
        total = compensated_sums(values, inclusive, weights)
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise OverflowError("non-finite value in numeric evaluation")
        return total


@functools.lru_cache(maxsize=64)
def exact_backend(n: int) -> ExactBackend:
    return ExactBackend(n)


@functools.lru_cache(maxsize=8)
def numeric_backend(n: int) -> NumericBackend:
    """The shared double-precision backend at level n.  An entry holds n
    powers of q and n - 1 inverse q-integers, about 80 bytes x n (10.5 MB
    at n = 2^17); eight entries hold a seven-level convergence schedule
    and one more level."""
    return NumericBackend(n)


def _outer_terms(parts: tuple, backend, star: bool, weight_row) -> list:
    """The chain DP, one level at a time, up to the outermost level.

    The innermost level r is the weight row w_(k_r)(1..n-1).  Every level
    j < r multiplies w_(k_j)(m) by the running sum of the level below,
    taken below m for strict chains (exclusive) or up to m for non-strict
    chains (inclusive).  Returns the terms w_(k_1)(m) * S_2(m) of level 1
    for m = 1..n-1 as a new list, with `weight_row(k)` giving an iterable
    over each row.  Each level is one pass of `backend.running_sums`
    that writes the weighted sums over the row below, so an evaluation
    holds one row of partial sums at a time.
    """
    terms = list(weight_row(parts[-1]))
    for k in reversed(parts[:-1]):
        backend.running_sums(terms, star, weight_row(k))
    return terms


def _evaluate(index: Index, n: int, backend, star: bool):
    """Shared chain DP: the total of the outermost level's terms.  Cost is
    O(n * depth) field operations."""
    if index.depth == 0:
        return backend.one
    if n < 1:
        raise ValueError("n must be a positive integer")
    terms = _outer_terms(index.parts, backend, star, backend.weight_row)
    return backend.running_sums(terms, None)


def z(index: Index, n: int, backend=None):
    """Nested sum over strict chains n > m_1 > ... > m_r > 0 of
    prod q^((k_i - 1) m_i) / [m_i]^(k_i).  Exact backend by default."""
    if backend is None:
        backend = exact_backend(n)
    return _evaluate(index, n, backend, star=False)


def z_star(index: Index, n: int, backend=None):
    """Same with non-strict chains n > m_1 >= ... >= m_r > 0."""
    if backend is None:
        backend = exact_backend(n)
    return _evaluate(index, n, backend, star=True)


# `qmhs verify all` at its defaults fills 480 entries, so 4096 never evicts
# on a suite; the bound keeps a long-running caller from growing forever.
@functools.lru_cache(maxsize=4096)
def _zbar_cached(parts: tuple, n: int, star: bool) -> CycloElem:
    index = Index(parts)
    backend = exact_backend(n)
    value = _evaluate(index, n, backend, star)
    if n == 1:
        # 1 - zeta_1 = 0; every nonempty sum is empty, so the modified
        # value is 0 (and 1 for the empty index), matching all closed forms.
        return value
    return value * backend.zbar_scale(index.weight)


def zbar(index: Index, n: int) -> CycloElem:
    """Modified value (1 - zeta_n)^(-weight) * z(index; zeta_n)."""
    return _zbar_cached(index.parts, n, False)


def zbar_star(index: Index, n: int) -> CycloElem:
    """Modified value of the non-strict sum."""
    return _zbar_cached(index.parts, n, True)


def profile_sum(profile: IndexProfile, n: int, star: bool = False) -> Fraction:
    """Sum of modified values over all indices with the given profile,
    returned as an exact rational.

    Rationality of the sum is part of the contract; a non-rational result
    raises ValueError since it can only come from an implementation bug.
    """
    field = get_field(n)
    acc = field.zero
    for ix in enumerate_profile(profile):
        acc = acc + _zbar_cached(ix.parts, n, star)
    return acc.rational_part()


def brute_force(index: Index, n: int, backend=None, star: bool = False):
    """Direct enumeration of all chains; the independent oracle for the DP."""
    if backend is None:
        backend = exact_backend(n)
    r = index.depth
    if r == 0:
        return backend.one
    rows = {k: [None, *backend.weight_row(k)] for k in set(index.parts)}
    chains = (
        itertools.combinations_with_replacement(range(1, n), r)
        if star
        else itertools.combinations(range(1, n), r)
    )
    terms = []
    for chain in chains:
        ms = tuple(reversed(chain))  # descending: m_1 > ... > m_r
        term = backend.one
        for k, m in zip(index.parts, ms):
            term = term * rows[k][m]
        terms.append(term)
    return backend.running_sums(terms, None)
