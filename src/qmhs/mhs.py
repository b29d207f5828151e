"""Finite multiple harmonic q-series at a primitive n-th root of unity.

The nested sums over strict (z) or non-strict (z_star) chains
n > m_1 > ... > m_r > 0 are evaluated by a single dynamic program over
an abstract value ring, selected by the backend object: floating complex
numbers, or, for exact values, Z[x]/(x^n - 1) on Kronecker-packed
integers over one denominator per evaluation, reduced modulo the
cyclotomic polynomial once, at the end (`PackedChain`).  Reduction is a
ring map onto Z[zeta_n], so the value is exactly the one the field
arithmetic of `cyclotomic` gives step by step.

The exact rows are lifted into the same ring from the seed powers with
no field element (`ExactBackend.lift`), as twisted Galois conjugates:
x -> x^u, u prime to n, is an automorphism of Z[x]/(x^n - 1) that maps
the cyclotomic polynomial to a multiple of itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .cyclotomic import (
    CycloElem, _digits, _fold, _normalized, _pack_digits, _unpack, _widen,
    compensated_sums, get_field,
)


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
        return cls(int(p) for p in text.split(",")) if text.strip() else cls(())

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


IndexProfile = namedtuple("IndexProfile", "weight depth height")
IndexProfile.__doc__ = """A (weight, depth, height) triple."""


def enumerate_indices(weight: int, depth: int, height: int | None = None):
    """All compositions of `weight` into `depth` positive parts, optionally
    filtered by height.

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
    return out


Lift = namedtuple("Lift", "den digits size heights norms")
Lift.__doc__ = """A row of weights w(m) = N_m(zeta) / den in lowest terms, m = 1..n-1,
lifted to Z[x]/(x^n - 1) from the seed powers: the N_m laid down one after
another as `digits` of `size` bytes (`cyclotomic._digits`), and per N_m
the largest size of a coefficient and the sum of their sizes."""


def _inverse_power(order: int, k: int) -> list[int]:
    """order^k (1 - y)^(-k) in Z[y]/(y^order - 1), for y a primitive
    order-th root of unity, order > 1: k divisions by 1 - y, with no
    product.  A vector v with v(1) = 0 is (1 - y) times its running sums,
    and order v - v(1) (1 + y + ... + y^(order-1)) has that sum 0 and is
    order v modulo the cyclotomic polynomial, which divides
    1 + y + ... + y^(order-1)."""
    vec = [1, *itertools.repeat(0, order - 1)]
    for _ in range(k):
        scaled = map(operator.mul, vec, itertools.repeat(order))
        vec = list(itertools.accumulate(map(operator.sub, scaled, itertools.repeat(sum(vec)))))
    return vec


def units_by_gcd(n: int) -> dict[int, list]:
    """m = 1..n-1 by g = gcd(m, n): g -> [(m, u)], u a unit with g u = m mod n,
    so that 1 - zeta^m is the conjugate sigma_u(1 - zeta^g)."""
    units: dict[int, list] = {}
    for m in range(1, n):
        g = math.gcd(m, n)
        u = next(u for u in range(m // g, n, n // g) if math.gcd(u, n) == 1)
        units.setdefault(g, []).append((m, u))
    return units


class ExactBackend:
    """Value field Q(zeta_n) with q = zeta_n.

    The polylogarithm weights (1 - zeta^m)^(-k) and the chain weights
    q^((k-1)m) / [m]^k are twisted Galois conjugates of one power s_g^k
    per g = gcd(m, n), s_g = (1 - zeta^g)^(-1).  With u a unit mod n and
    m = g u mod n, (1 - zeta^m)^(-k) = sigma_u(s_g^k), and since [m] =
    (1 - zeta^m) / (1 - zeta) the chain weight is zeta^((k-1)m) (1 - zeta)^k
    sigma_u(s_g^k).  Each entry is integer vector operations on the
    numerator of s_g^k and one reduction (`CycloField._images`).  Each
    power is built on first use and kept for both rows; s_1^w scales a
    modified value of weight w.  All cached values are immutable.

    The chain DP reads each row lifted to Z[x]/(x^n - 1) straight from the
    seed powers, with no field element, once (`lift`), and packed at the
    digit width of an evaluation, keeping the last width asked for
    (`packed_row`); `ring` gives the evaluation's `PackedChain`.  Rows of
    field elements are built on demand, one per k, for their readers.
    """

    def __init__(self, n: int):
        self.n = n
        field = self.field = get_field(n)
        self.zero = field.zero
        self.one = field.one
        self._units = units_by_gcd(n)
        # (k, g) -> s_g^k
        self._powers: dict[tuple, CycloElem] = {}
        # (twisted, k) -> the chain weight row (twisted) or polylogarithm row k
        self._rows: dict[tuple, list] = {}
        # (polylog, k) -> the row lifted, as `lift` returns it
        self._lifts: dict[tuple, tuple] = {}
        # (polylog, k) -> (width, the lifted vectors packed at that width)
        self._packed: dict[tuple, tuple] = {}

    def _seed_power(self, k: int, g: int) -> CycloElem:
        """s_g^k = (1 - zeta^g)^(-k), kept once built.  s_g^k is a
        polynomial in y = zeta^g over (n/g)^k, laid at the multiples of g
        and reduced once."""
        s = self._powers.get((k, g))
        if s is None:
            field, n = self.field, self.n
            vec = [0] * n
            vec[::g] = _inverse_power(n // g, k)
            s = self._powers[k, g] = _normalized(field, field._reduce(vec), (n // g) ** k)
        return s

    def _conjugates(self, k: int, twisted: bool) -> list:
        """sigma_u(s_g^k) for m = 1..n-1, each times zeta^((k-1)m)
        (1 - zeta)^k when `twisted`; kept once built."""
        row = self._rows.get((twisted, k))
        if row is None:
            row = [None] * (self.n - 1)
            twist, power = (k - 1, k) if twisted else (0, 0)
            for g, ms in self._units.items():
                images = self.field.conjugates(
                    self._seed_power(k, g), [(u, twist * m) for m, u in ms], power)
                for (m, _), image in zip(ms, images):
                    row[m - 1] = image
            self._rows[twisted, k] = row
        return row

    def weight(self, k: int, m: int) -> CycloElem:
        """q^((k-1)m) / [m]^k as a field element, 0 < m < n."""
        return self._conjugates(k, True)[m - 1]

    def weight_row(self, k: int):
        """Yields w_k(m) for m = 1..n-1."""
        return (self.weight(k, m) for m in range(1, self.n))

    def polylog_row(self, k: int) -> list:
        """(1 - zeta^m)^(-k) for m = 1..n-1; each row is built once and
        shared, so callers must not write to it."""
        return self._conjugates(k, False)

    def _row_vectors(self, k: int, polylog: bool) -> tuple[int, list]:
        """Row k's numerator vectors over one denominator in lowest terms,
        with no field element: the images of each s_g^k over the lcm D of
        their denominators, divided by gcd(D, every coefficient)."""
        twist, power = (0, 0) if polylog else (k - 1, k)
        classes = [(self._seed_power(k, g), ms) for g, ms in self._units.items()]
        den = math.lcm(*[seed.den for seed, _ in classes])
        vecs = [None] * (self.n - 1)
        for seed, ms in classes:
            images = self.field._images(seed.num, [(u, twist * m) for m, u in ms], power)
            for (m, _), vec in zip(ms, images):
                vecs[m - 1] = vec if seed.den == den else [c * (den // seed.den) for c in vec]
        common = math.gcd(den, *itertools.chain.from_iterable(vecs))
        if common != 1:
            vecs = [[c // common for c in vec] for vec in vecs]
        return den // common, vecs

    def lift(self, k: int, polylog: bool = False) -> "Lift":
        """Row k of the weights, or of the polylogarithm weights, lifted
        to Z[x]/(x^n - 1) from the seed powers, kept once built."""
        key = (polylog, k)
        lifted = self._lifts.get(key)
        if lifted is None:
            den, vecs = self._row_vectors(k, polylog)
            sizes = [list(map(abs, v)) for v in vecs]
            heights = list(map(max, sizes))
            lifted = self._lifts[key] = Lift(
                den, *_digits(vecs, max(heights, default=0)), heights, list(map(sum, sizes)))
        return lifted

    def packed_row(self, k: int, polylog: bool, width: int) -> list[int]:
        """The lifted row k packed at `width` bytes a digit.  One width
        is kept per row; asking for another packs the row again."""
        key = (polylog, k)
        packed = self._packed.get(key)
        if packed is None or packed[0] != width:
            lifted = self.lift(k, polylog)
            rows = _pack_digits(lifted.digits, lifted.size, self.field.degree, width)
            packed = self._packed[key] = (width, rows)
        return packed[1]

    def ring(self, parts: tuple, polylog: bool = False) -> "PackedChain":
        """The ring the chain DP over `parts` runs in."""
        return PackedChain(self, parts, polylog)


# Levels take widths of their own from this n up.  Warm z((3, 2, 1)) with
# them took 30-43% longer at n = 9, 15 and 20 and 12% longer at n = 31
# than with the total width at every level, and 7%, 12%, 27% and 38% less
# at n = 41, 49, 97 and 193.  Cold, on exact-high-degree (n = 41 and 49),
# the total width reads item_ms.p50 -6.7% but wall_s +1.1% (10 pairs).
_PER_LEVEL_N = 40


class PackedChain:
    """One exact evaluation of the chain DP, in Z[x]/(x^n - 1) on
    Kronecker-packed integers.

    Every row is lifted once by its backend: a weight w(m) = N_m(zeta)/D
    with N_m of degree below the field degree d.  The DP runs on the N_m
    as elements of Z[x]/(x^n - 1), each packed as N_m(X), X = 2^(8 *
    width).  A level takes running sums of the packed terms, multiplies
    each by a packed row entry and folds the product with X^n = 1, all as
    C-level passes (`cyclotomic._fold`).  Reduction modulo the cyclotomic
    polynomial is a ring map from Z[x]/(x^n - 1) onto Z[zeta_n], so
    reducing once, at the end, over the product of the rows'
    denominators, gives exactly the element of the field DP.

    Digit widths are fixed up front from bounds on the coefficients,
    taken from the rows alone.  A term of the innermost level is at most
    the largest coefficient of its N_m.  A running sum is at most the sum
    of the bounds of the terms it adds, and a product coefficient, folded
    or not, at most that times the sum of the sizes of the coefficients
    of N_m.  Every digit must stay below X / 2, so a level's width holds
    every bound up to it.  A product's bound is at least the coefficients
    of its row entry unless its running sum is 0.  The total is at most
    the sum of the outermost bounds.  From n = 40 up each level has its
    own width, and the terms are widened on entering a wider level and
    before they are summed; below that every level takes the width of
    the total.

    The rows are served in the order of the level loop, `_outer_terms`:
    the innermost row first, then one row for each level outwards, each
    at the width of the level it enters.
    """

    __slots__ = ("_backend", "_polylog", "_widths", "_below", "_width", "_total", "_den")

    def __init__(self, backend: ExactBackend, parts: tuple, polylog: bool):
        self._backend, self._polylog = backend, polylog
        lifts = [backend.lift(k, polylog) for k in parts]
        bounds = lifts[-1].heights
        top, tops = max(bounds, default=0), []
        for lift in reversed(lifts[:-1]):
            bounds = list(map(operator.mul, lift.norms, itertools.accumulate(bounds)))
            top = max([top, *bounds])
            tops.append(top)
        total = max(top, sum(bounds))
        if backend.n < _PER_LEVEL_N:
            tops = [total] * len(tops)
        widths = [t.bit_length() // 8 + 1 for t in tops or [total]]
        self._widths = iter([widths[0], *widths])
        self._below = self._width = 0  # the widths of the terms and the row
        self._total = total.bit_length() // 8 + 1
        self._den = math.prod(lift.den for lift in lifts)

    def weight_row(self, k: int) -> list[int]:
        """Row k packed at the width of the next level, shared: callers
        must not write to it."""
        self._below, self._width = self._width, next(self._widths)
        return self._backend.packed_row(k, self._polylog, self._width)

    def running_sums(self, values, inclusive: bool | None, weights=None):
        """Running sums of the packed `values` through each position
        (inclusive) or before it (exclusive), each times the next of
        `weights` and folded, written over `values`.  With `inclusive`
        None nothing is written, and the total is returned as a field
        element."""
        n = self._backend.n
        if inclusive is None:
            if self._width != self._total:
                values = _widen(values, n, self._width, self._total)
                self._width = self._total
            return self.elements([sum(values)])[0]
        if self._below != self._width:
            values[:] = _widen(values, n, self._below, self._width)
        sums = itertools.accumulate(values, initial=0)
        if inclusive:
            next(sums)
        count = n + self._backend.field.degree - 1
        values[:] = _fold(map(operator.mul, weights, sums), self._width, n, count)

    def elements(self, values: list) -> list[CycloElem]:
        """The field elements of packed values over the denominator."""
        field, den, n, width = self._backend.field, self._den, self._backend.n, self._width
        return [_normalized(field, field._reduce(_unpack(v, width, n, n)), den) for v in values]


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
        table of q^j, stepped through without a copy.  Row one is read
        from the table of inverse q-integers, never handed out as it."""
        inverses = itertools.islice(self._inv_qint, 1, None)
        if k == 1:
            return inverses
        step = k - 1
        phases = itertools.islice(itertools.chain.from_iterable(
            itertools.repeat(self._qpow, step)), step, step * self.n, step)
        return map(operator.mul, phases, map(pow, inverses, itertools.repeat(k)))

    def running_sums(self, values, inclusive: bool | None, weights=None):
        """Compensated running sums of the list `values`, each times the
        next of `weights` when given, written over it (nothing is written
        with `inclusive` None); returns the unweighted total.  A non-finite
        value anywhere poisons the total, which raises OverflowError."""
        total = compensated_sums(values, inclusive, weights)
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise OverflowError("non-finite value in numeric evaluation")
        return total

    def ring(self, parts: tuple) -> "NumericBackend":
        """The chain DP runs on the backend itself."""
        return self


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


def _outer_terms(parts: tuple, ring, star: bool) -> list:
    """The chain DP, one level at a time, up to the outermost level.

    The innermost level r is the weight row w_(k_r)(1..n-1).  Every level
    j < r multiplies w_(k_j)(m) by the running sum of the level below,
    taken below m for strict chains (exclusive) or up to m for non-strict
    chains (inclusive).  Returns the terms w_(k_1)(m) * S_2(m) of level 1
    for m = 1..n-1 as a new list, with `ring.weight_row(k)` giving an
    iterable over each row.  Each level is one pass of `ring.running_sums`
    that writes the weighted sums over the row below, so an evaluation holds
    one row of partial sums at a time.  `ring` is the numeric backend
    itself, or an exact evaluation's `PackedChain`.
    """
    terms = list(ring.weight_row(parts[-1]))
    for k in reversed(parts[:-1]):
        ring.running_sums(terms, star, ring.weight_row(k))
    return terms


def _evaluate(index: Index, n: int, backend, star: bool):
    """Shared chain DP: the total of the outermost level's terms.  Cost is
    O(n * depth) ring operations."""
    if backend.n != n:
        raise ValueError(f"backend is at level {backend.n}, not n = {n}")
    if index.depth == 0:
        return backend.one
    ring = backend.ring(index.parts)
    terms = _outer_terms(index.parts, ring, star)
    return ring.running_sums(terms, None)


def z(index: Index, n: int, backend=None):
    """Nested sum over strict chains n > m_1 > ... > m_r > 0 of
    prod q^((k_i - 1) m_i) / [m_i]^(k_i).  Exact backend by default; a
    backend of another level than n raises ValueError."""
    if backend is None:
        backend = exact_backend(n)
    return _evaluate(index, n, backend, star=False)


def z_star(index: Index, n: int, backend=None):
    """Same with non-strict chains n > m_1 >= ... >= m_r > 0; a backend of
    another level than n raises ValueError."""
    if backend is None:
        backend = exact_backend(n)
    return _evaluate(index, n, backend, star=True)


# `qmhs verify all` at its defaults fills 480 entries, so 4096 never evicts
# on a suite; the bound keeps a long-running caller from growing forever.
@functools.lru_cache(maxsize=4096)
def _zbar_cached(parts: tuple, n: int, star: bool) -> CycloElem:
    index = Index(parts)
    backend = exact_backend(n)
    return _evaluate(index, n, backend, star) * backend._seed_power(index.weight, 1)


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
    for ix in enumerate_indices(*profile):
        acc = acc + _zbar_cached(ix.parts, n, star)
    return acc.rational_part()


def brute_force(index: Index, n: int, star: bool = False):
    """Direct enumeration of all chains; the independent oracle for the DP."""
    backend = exact_backend(n)
    r = index.depth
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
    return sum(terms, backend.zero)
