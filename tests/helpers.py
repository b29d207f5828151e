"""Operations that only the tests use: series powers and truncation, the
image of a rational polynomial in zeta, the closed-form inverse of
1 - zeta^m, an oracle for the weight rows, the former constructions
of the Prop 3.3 recurrence route and of series substitution, oracles for
the current ones, and the images of Prop 3.3's change of variables, the
input of the oracle for its binomial map."""

import math
from fractions import Fraction

from qmhs.cyclotomic import CycloElem, get_field
from qmhs.exactnum import Poly
from qmhs.multiseries import WEIGHTS, MultiSeries


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


def element(field, poly: Poly) -> CycloElem:
    """Image of a rational polynomial in zeta, reduced modulo phi."""
    den = math.lcm(*(c.denominator for c in poly.coeffs))
    vec = [c.numerator * (den // c.denominator) for c in poly.coeffs]
    return CycloElem(field, [Fraction(c, den) for c in field._reduce(vec)])


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
    return element(field, Poly(vec))


def transform_images(cap: int, field) -> tuple[MultiSeries, MultiSeries, MultiSeries]:
    """The change of variables u = x/(1+x), v = y - z/(1+x),
    w = z/(1+x)^2 as series in (x, y, z)."""
    one = MultiSeries.constant(1, cap, field)
    x, y, z = (MultiSeries.variable(name, cap, field) for name in "xyz")
    inv1px = (one + x).invert()
    return x * inv1px, y - z * inv1px, z * inv1px * inv1px


def quad_p_by_operations(field, x_val, cap: int) -> MultiSeries:
    """P(X) = (1-u-X)(1+v-X) + w from the variables, by four series
    operations."""
    u, v, w = (MultiSeries.variable(name, cap, field) for name in "uvw")
    cc = MultiSeries.constant(1, cap, field).scale(field.one - x_val)
    return (cc - u) * (cc + v) + w


def phi_recurrence_by_inverses(n: int, cap: int) -> MultiSeries:
    """The recurrence route with every denominator inverted as a series:
    solve (1-q)(1-q-u) c_1 = 1, iterate (1-q^(j+1))(1-u-q^(j+1)) c_(j+1)
    = P(q^j) c_j, and close with P(q^(n-1)) c_(n-1)."""
    field = get_field(n)
    u = MultiSeries.variable("u", cap, field)

    def lin(j: int) -> MultiSeries:
        c = field.one - field.zeta_pow(j)
        return (MultiSeries.constant(1, cap, field).scale(c) - u).scale(c)

    c_j = lin(1).invert()
    for j in range(1, n - 1):
        c_j = quad_p_by_operations(field, field.zeta_pow(j), cap) * c_j * lin(j + 1).invert()
    return quad_p_by_operations(field, field.zeta_pow(n - 1), cap) * c_j


def substitute_by_monomials(f: MultiSeries, u_expr: MultiSeries, v_expr: MultiSeries,
                            w_expr: MultiSeries) -> MultiSeries:
    """f(u_expr, v_expr, w_expr) as the sum over f's monomials of
    coefficient * U^a V^b W^c, two series products per monomial."""
    images = (u_expr, v_expr, w_expr)
    cap, field = u_expr.cap, u_expr.field
    for img, wt in zip(images, WEIGHTS):
        assert not img.constant_term() and (not img or img.valuation() >= wt)
    one = MultiSeries.constant(1, cap, field)
    powers: list[dict[int, MultiSeries]] = [{0: one}, {0: one}, {0: one}]

    def power(slot: int, e: int) -> MultiSeries:
        if e not in powers[slot]:
            powers[slot][e] = power(slot, e - 1) * images[slot]
        return powers[slot][e]

    total = MultiSeries.zero(cap, field)
    for (a, b, c), coeff in f.coeffs.items():
        total = total + (power(0, a) * power(1, b) * power(2, c)).scale(coeff)
    return total
