"""Operations that only the tests use: series powers and truncation, and
the closed-form inverse of 1 - zeta^m, an oracle for the weight rows."""

import math
from fractions import Fraction

from qmhs.exactnum import Poly
from qmhs.multiseries import MultiSeries


def power(a: MultiSeries, e: int) -> MultiSeries:
    """a^e for e >= 0, by binary powering."""
    if e < 0:
        raise ValueError("negative powers: use invert() first")
    acc = MultiSeries.constant(1, a.cap, a.field)
    while e:
        if e & 1:
            acc = acc * a
        a = a * a if e > 1 else a
        e >>= 1
    return acc


def truncate(a: MultiSeries, cap: int) -> MultiSeries:
    """a with every monomial of weight above `cap` dropped."""
    if cap > a.cap:
        raise ValueError("cannot raise the cap of a truncated series")
    return MultiSeries(a.field, cap, a.coeffs)


def inv_one_minus_zeta_pow(field, m: int):
    """(1 - zeta^m)^(-1) in closed form, for n not dividing m.

    With x = zeta^m a primitive n'-th root of unity, n' = n / gcd(m, n),
    (1 - x) * sum_{j<n'} j x^j = -n', so the inverse is
    -(1/n') * sum_{j<n'} j x^j.
    """
    n = field.n
    if m % n == 0:
        raise ZeroDivisionError(f"1 - zeta^{m} vanishes at a primitive {n}-th root of unity")
    order = n // math.gcd(m, n)
    vec = [Fraction(0)] * n
    for j in range(1, order):
        vec[(m * j) % n] -= Fraction(j, order)
    return field.element(Poly(vec))
