"""Limits of the nested sums along q = exp(2*pi*i/n) as n grows.

For constant indices and depth one the limits have closed forms that are
rational multiples of powers of (-2*pi*i); these exact pairs are the
primary representation and floating point is only a rendering.  The
profile-level generating function of the limits is an explicit kernel
of hyperbolic series, with exact rational coefficients, built as one
plain sum: its quotient by xy - z is taken in closed form, term by term.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import factorial

from .exactnum import RATIONALS, binomial, bernoulli
from .mhs import Index, numeric_backend, z as mhs_z
from .multiseries import MultiSeries
from .ohno_zagier import to_star


class XiClosed(namedtuple("XiClosed", "coeff power")):
    """Exact value coeff * (-2*pi*i)^power."""

    __slots__ = ()

    def complex_value(self) -> complex:
        return complex(self.coeff) * (-2j * math.pi) ** self.power

    def __str__(self) -> str:
        if not self.coeff:
            return "0"
        return f"{self.coeff}*(-2*pi*i)^{self.power}"


def z_numeric(index: Index, n: int) -> complex:
    """Strict nested sum at q = exp(2*pi*i/n) in double precision, with
    per-exponent trigonometric powers and compensated accumulation, on
    the shared backend of level n."""
    if n < 2:
        raise ValueError("numeric evaluation needs n >= 2")
    return mhs_z(index, n, numeric_backend(n))


def xi_closed_depth1(k: int) -> XiClosed:
    """Limit of the depth-one sum: -B_k / k! times (-2*pi*i)^k."""
    if k < 1:
        raise ValueError("k must be positive")
    return XiClosed(-bernoulli(k) / factorial(k), k)


def xi_kkk(k: int, r: int) -> XiClosed:
    """Limit for the constant index {k}^r, k in {1, 2, 3}.

    These are the n -> infinity limits of the exact closed forms at
    level n; each binomial of top degree k*r + c contributes
    n^(k*r+c) / (k*r+c)! while (1 - q)^(k*r) contributes
    (-2*pi*i/n)^(k*r):

      {1}^r: (-2*pi*i)^r / (r+1)!
      {2}^r: (-1)^r (-2*pi*i)^(2r) / ((r+1) (2r+1)!)
      {3}^r: (1 + (-1)^r) (-2*pi*i)^(3r) / ((r+1) (3r+2)!)
    """
    if r < 1:
        raise ValueError("r must be positive")
    if k == 1:
        return XiClosed(Fraction(1, factorial(r + 1)), r)
    if k == 2:
        return XiClosed(Fraction((-1) ** r, (r + 1) * factorial(2 * r + 1)), 2 * r)
    if k == 3:
        return XiClosed(
            Fraction(1 + (-1) ** r, (r + 1) * factorial(3 * r + 2)), 3 * r
        )
    raise ValueError("closed forms are available for k in {1, 2, 3}")


def xi_sum_formula(k: int, r: int) -> XiClosed:
    """Sum of the limits over all indices of weight k and depth r:
    -(-2*pi*i)^k / (k+1)! * sum_{j=1..r} C(k+1, j) B_(k+1-j).
    """
    if not k >= r >= 1:
        raise ValueError("requires k >= r >= 1")
    total = sum(
        (binomial(k + 1, j) * bernoulli(k + 1 - j) for j in range(1, r + 1)),
        Fraction(0),
    )
    return XiClosed(-total / factorial(k + 1), k)


def tilde_u(cap: int) -> MultiSeries:
    """Kernel whose coefficient at x^(k-r-s) y^(r-s) z^s is the
    (-2*pi*i)^(-k)-normalized profile sum of the limits, up to the cap:

        exp(y/2) * x/sinh(x/2) * (cosh(sqrt(a)/2) - cosh(sqrt(b)/2)) / (xy - z)
          = exp(y/2) * x/sinh(x/2) * sum_(m=1..cap//2+1) h_(m-1) / (4^(m-1) (2m)!)

    with a = (x+y)^2 - 4z, b = (x-y)^2, h_0 = 1 and h_j = a h_(j-1) + b^j:
    no square root and no division.  Proof: cosh(sqrt(a)/2) = sum_m a^m /
    (4^m (2m)!), h_(m-1) = sum_(i<m) a^i b^(m-1-i) gives a^m - b^m =
    (a - b) h_(m-1), and a - b = 4(xy - z).  It is exact at the cap: a and
    b have weight 2, so h_(m-1) has weight at least 2(m-1).
    """
    x, y, z = (MultiSeries.variable(name, cap) for name in "xyz")
    a = (x + y) * (x + y) - z.scale(4)
    b = (x - y) * (x - y)
    h = b_power = MultiSeries.constant(1, cap)
    quotient = h.scale(Fraction(1, 2))
    for m in range(2, cap // 2 + 2):
        b_power = b_power * b
        h = a * h + b_power
        quotient = quotient + h.scale(Fraction(1, 4 ** (m - 1) * factorial(2 * m)))
    exp_half_y = {(0, m, 0): Fraction(1, 2**m * factorial(m)) for m in range(cap + 1)}
    # x / sinh(x/2) = 2 * (sum_m (x/2)^(2m) / (2m+1)!)^(-1)
    sinh_body = {(2 * m, 0, 0): Fraction(1, 4**m * factorial(2 * m + 1))
                 for m in range(cap // 2 + 1)}
    # one-variable factors one at a time: their product is dense in x and y
    return MultiSeries(RATIONALS, cap, exp_half_y) * (
        MultiSeries(RATIONALS, cap, sinh_body).invert().scale(2) * quotient)


def tilde_u_star(cap: int) -> MultiSeries:
    """Kernel of the non-strict limits: inverse of the kernel at (x, -y, -z)."""
    return to_star(tilde_u(cap))


ConvergenceRow = namedtuple("ConvergenceRow", "n value error")


class ConvergenceStudy(namedtuple("ConvergenceStudy", "index target rows rate")):
    """The rows of a convergence study; `rate` is the empirical exponent
    from a log-log fit, reported, not asserted."""

    __slots__ = ()

    def errors(self) -> list[float]:
        return [row.error for row in self.rows]


def closed_form_target(index: Index) -> XiClosed:
    """Closed-form limit for a constant index {k}^r with k <= 3, or any
    depth-one index."""
    parts = set(index.parts)
    if index.depth == 1:
        return xi_closed_depth1(index.parts[0])
    if len(parts) == 1:
        k = index.parts[0]
        if k <= 3:
            return xi_kkk(k, index.depth)
    raise ValueError(f"no closed-form limit available for index ({index})")


def convergence_study(index: Index, n_schedule) -> ConvergenceStudy:
    """Errors |z_n - limit| along a schedule of n values, plus the slope
    of log(error) against log(n)."""
    target = closed_form_target(index).complex_value()
    rows = []
    for n in n_schedule:
        value = z_numeric(index, n)
        rows.append(ConvergenceRow(n, value, abs(value - target)))
    rate = _loglog_slope([(row.n, row.error) for row in rows if row.error > 0])
    return ConvergenceStudy(index, target, tuple(rows), rate)


def _loglog_slope(points: list[tuple[int, float]]) -> float:
    if len(points) < 2:
        return float("nan")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(e) for _, e in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((u - mx) ** 2 for u in xs)
    sxy = sum((u - mx) * (v - my) for u, v in zip(xs, ys))
    return sxy / sxx if sxx else float("nan")
