"""Exact scalar arithmetic: rationals, the field protocol, dense univariate
polynomials over a field, binomial coefficients and Bernoulli numbers.

Every quantity in this package is either one of these or is built from
them; no floating point enters except in the dedicated numeric backend.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class RationalField:
    """The field protocol for Q, with Fraction elements: zero, one,
    from_rational and integer_form, as a cyclotomic field provides them.
    Elements support +, -, *, inversion by `** -1` and truth testing."""

    zero = ZERO
    one = ONE

    @staticmethod
    def from_rational(q):
        return q if type(q) is Fraction else Fraction(q)

    @staticmethod
    def integer_form(left: list, right: list, pairs: int):
        """Integers x_i for the elements of `left`, y_j for those of
        `right`, and the map from a sum of at most `pairs` products x_i y_j
        back to the field: over Q, numerators over each list's lcm."""
        da = math.lcm(*(q.denominator for q in left))
        db = math.lcm(*(q.denominator for q in right))
        return ([q.numerator * (da // q.denominator) for q in left],
                [q.numerator * (db // q.denominator) for q in right],
                lambda total: Fraction(total, da * db))

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


RATIONALS = RationalField()


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), extended to negative n.

    Returns 0 for k < 0 and for 0 <= n < k.  For n < 0 uses the
    polynomial extension C(n, k) = n(n-1)...(n-k+1)/k!.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


_bernoulli_cache: list[Fraction] = [ONE]
_bernoulli_lock = threading.Lock()


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number with the convention B_1 = -1/2.

    Computed by the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0
    for m >= 1, solved for B_m.  Values are cached; the cache supports
    concurrent reads and serialized extension.
    """
    if k < 0:
        raise ValueError("bernoulli is defined for k >= 0")
    if k < len(_bernoulli_cache):
        return _bernoulli_cache[k]
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= k:
            m = len(_bernoulli_cache)
            acc = sum(
                (binomial(m + 1, j) * b for j, b in enumerate(_bernoulli_cache)),
                ZERO,
            )
            _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[k]


def _poly(coeffs: list, field) -> "Poly":
    """A polynomial from a list of field elements, trailing zeros stripped."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    p = object.__new__(Poly)
    p.coeffs = tuple(coeffs)
    p.field = field
    return p


class Poly:
    """Dense univariate polynomial over a field, lowest degree first.

    Canonical form: no trailing zero coefficient.  The zero polynomial has
    an empty coefficient tuple and degree -1.  Ints and Fractions given to
    the constructor are taken into the field.  Instances are immutable.
    """

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs=(), field=RATIONALS):
        lift = field.from_rational
        cs = [lift(c) if isinstance(c, (int, Fraction)) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self.field = field

    @classmethod
    def monomial(cls, degree: int, coeff=None, field=RATIONALS) -> "Poly":
        """coeff * t^degree; coeff defaults to the field's one."""
        return cls([field.zero] * degree + [field.one if coeff is None else coeff], field)

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def valuation(self) -> int:
        """Order of vanishing at t = 0; degree + 1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return len(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, self.field)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.coeffs], self.field)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly([], self.field)
        out = [self.field.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return _poly(out, self.field)

    def scale(self, c) -> "Poly":
        if isinstance(c, (int, Fraction)):
            c = self.field.from_rational(c)
        return _poly([ci * c for ci in self.coeffs], self.field)

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division; divisor must be nonzero.  The lead
        coefficient of the divisor is inverted once."""
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        dd = divisor.degree
        if len(rem) - 1 < dd:
            return _poly([], field), self
        inv = divisor.coeffs[-1] ** -1
        quot = [field.zero] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c * inv
            quot[i - dd] = q
            for j, dc in enumerate(divisor.coeffs):
                rem[i - dd + j] -= q * dc
        return _poly(quot, field), _poly(rem, field)

    def div_t_exact(self) -> "Poly":
        """Exact quotient by t; the constant term must vanish."""
        if self.coeffs and self.coeffs[0]:
            raise ValueError("not divisible by t: nonzero constant term")
        return _poly(list(self.coeffs[1:]), self.field)

    def div_one_minus_t_exact(self) -> "Poly":
        """Exact quotient by (1 - t); the value at t = 1 must vanish."""
        # synthetic division: if p = (1 - t) q then q_i = sum_{j<=i} p_j
        acc = self.field.zero
        out = []
        for c in self.coeffs:
            acc = acc + c
            out.append(acc)
        if out and out[-1]:
            raise ValueError("not divisible by 1 - t: nonzero remainder")
        return _poly(out[:-1], self.field)

    def at_one(self):
        """The value at t = 1: the sum of the coefficients."""
        acc = self.field.zero
        for c in self.coeffs:
            acc = acc + c
        return acc

    def __call__(self, t):
        """Evaluate by Horner at a value supporting + and *."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r}, {self.field!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclidean algorithm: returns (s, t, g) with s*a + t*b = g."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = _poly([field.one], field), _poly([], field)
    t0, t1 = _poly([], field), _poly([field.one], field)
    while r1:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return s0, t0, r0
