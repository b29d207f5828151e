"""Exact arithmetic in the cyclotomic field Q(zeta_n).

An element is an integer coefficient vector over one positive common
denominator, reduced modulo the n-th cyclotomic polynomial and kept in
lowest terms, so representation is unique and equality is structural.
Division is total on nonzero elements because the modulus is irreducible.

The modulus is monic with integer coefficients, so a product is reduced
in integers alone.  Products are taken by Kronecker substitution: both
vectors are packed into one integer each, multiplied once, and unpacked
(D. Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 2009).  Digits are 1, 2, 4 or 8 bytes
wide when the product allows, so `array` converts a vector in one call.
The product is folded with x^n = 1 inside the packed integer, so its
digits need only hold d = deg(phi) entry products each, and is reduced
once, by `CycloField._reduce`, the one reduction modulo phi.  A product
with a rational or c*zeta^j operand is a shift and a scaling.

The Galois action zeta -> zeta^u (u prime to n) permutes coefficients
before one reduction: x -> x^u is an automorphism of Z[x]/(x^n - 1)
that maps the modulus to a multiple of itself.  Twisted by a power of
zeta and times a power of 1 - zeta, both cyclic operations on the same
vectors, it builds every entry of the backend tables of `mhs` with no
product, and it gives the inverse as the other conjugates over the norm.

The exact chain DP of `mhs` runs on the same packed integers, in
Z[x]/(x^n - 1): `_digits` and `_pack_digits` lay its rows down, `_fold`
folds a product with x^n = 1 without unpacking it, `_widen` moves
packed values to wider digits, and `_unpack`, the reader of every product,
reads its results.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
from array import array
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat

from .exactnum import ONE, Poly


@functools.lru_cache(maxsize=256)
def cyclotomic_polynomial(n: int) -> Poly:
    """n-th cyclotomic polynomial; for n > 1 the product over d | n of
    (1 - x^d)^mu(n/d), taken in integers modulo x^(n+1)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return Poly([-1, 1])
    mu: dict = {}  # on the divisors of n, by sum_(e|d) mu(e) = 0 for d > 1
    for d in range(1, n + 1):
        if n % d == 0:
            mu[d] = (d == 1) - sum(mu[e] for e in mu if d % e == 0)
    c = [1] + [0] * n
    for d in mu:
        if mu[n // d] == 1:  # times 1 - x^d: one difference at lag d
            for i in range(n, d - 1, -1):
                c[i] -= c[i - d]
        elif mu[n // d] == -1:  # over 1 - x^d: a running sum along each class mod d
            for i in range(d, n + 1):
                c[i] += c[i - d]
    return Poly(c)


# Signed machine integers by size in bytes, read and written in one call.
# Their bytes are little-endian digits only on a little-endian host.
_FORMATS = {array(c).itemsize: c for c in "bhiq"} if sys.byteorder == "little" else {}


@functools.lru_cache(maxsize=256)
def _offsets(width: int, count: int) -> int:
    """sum of (X / 2) X^i for i < count, X = 2^(8 * width)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(vec, width: int) -> int:
    """sum of vec[i] X^i, X = 2^(8 * width), for |vec[i]| < X / 2: the
    entries are laid down as two's-complement digits, flipping the top
    bit of each makes it vec[i] + X / 2, and the shift is taken off."""
    fmt = _FORMATS.get(width)
    raw = array(fmt, vec) if fmt else b"".join(
        [v.to_bytes(width, "little", signed=True) for v in vec])
    shift = _offsets(width, len(vec))
    return (int.from_bytes(raw, "little") ^ shift) - shift


def _unpack(value: int, width: int, count: int, period: int) -> list[int]:
    """The vector sum c_i x^i folded with x^period = 1, from value =
    sum c_i X^i over i < count < 2 * period, X = 2^(8 * width).

    Every c_i and every folded sum c_i + c_(i+period) must be below X / 2
    in size.  Shifted by X / 2, the coefficients are digits; folding adds
    the digits above X^period to those below and takes one shift off;
    flipping the top bit of each digit then gives c_i in two's complement.
    """
    shift = _offsets(width, count)
    value += shift
    if count > period:
        cut = period * 8 * width
        low = (1 << cut) - 1
        value = (value & low) + (value >> cut) - (shift >> cut)
        shift &= low
        count = period
    raw = (value ^ shift).to_bytes(width * count, "little")
    fmt = _FORMATS.get(width)
    if not fmt and width < 8 and 8 in _FORMATS:  # 3, 5, 6 or 7 bytes: read at 8
        raw, fmt = _relaid(raw, width, 8), _FORMATS[8]
    if fmt:
        return array(fmt, raw).tolist()
    return [int.from_bytes(raw[i : i + width], "little", signed=True)
            for i in range(0, len(raw), width)]


# A digit's top byte to the byte that extends its sign.
_SIGN_BYTES = bytes(255 if b >= 128 else 0 for b in range(256))


def _digits(vecs: list, height: int) -> tuple[bytes, int]:
    """The entries of `vecs`, at most `height` in size, laid down in order
    as two's-complement digits, 8 bytes wide where that holds them; returns
    the digits and their size in bytes."""
    flat = list(chain.from_iterable(vecs))
    if height < 1 << 63:
        return struct.pack(f"<{len(flat)}q", *flat), 8
    size = height.bit_length() // 8 + 1
    return b"".join([c.to_bytes(size, "little", signed=True) for c in flat]), size


def _relaid(raw: bytes, size: int, width: int) -> bytearray:
    """Two's-complement digits of `size` bytes laid down again at `width`
    bytes, one byte plane at a time: the low planes are cut from the
    digits, the high ones are copies of the sign byte.  Every digit must
    fit in `width` bytes."""
    out = bytearray(width * (len(raw) // size))
    signs = raw[size - 1::size].translate(_SIGN_BYTES) if width > size else b""
    for j in range(width):
        out[j::width] = raw[j::size] if j < size else signs
    return out


def _pack_digits(raw: bytes, size: int, length: int, width: int) -> list[int]:
    """`_pack(v, width)` of each run v of `length` digits of `raw`, laid
    down by `_digits` at `size` bytes, for entries below X / 2 in size."""
    out = _relaid(raw, size, width)
    step, shift = width * length, _offsets(width, length)
    return [(int.from_bytes(out[i:i + step], "little") ^ shift) - shift
            for i in range(0, len(out), step)]


def _widen(values: list, count: int, width: int, wider: int) -> list[int]:
    """Packed values of `count` digits at `width` bytes, packed again at
    `wider` bytes.  As in `_unpack`, shifted by X / 2 each digit is
    nonnegative, and flipping its top bit gives it in two's complement."""
    shift = _offsets(width, count)
    raw = b"".join([((v + shift) ^ shift).to_bytes(width * count, "little") for v in values])
    return _pack_digits(raw, width, count, wider)


def _fold(values, width: int, period: int, count: int) -> list[int]:
    """Each sum c_i X^i over i < count <= 2 * period, X = 2^(8 * width),
    folded with X^period = 1 and left packed: sum (c_i + c_(i+period)) X^i.
    As in `_unpack`, every c_i must be below X / 2 in size; shifted by
    X / 2 each is a digit, the digits above X^period are added to those
    below, and the two shifts are taken off.  Each step is one C-level
    pass over all the values."""
    shift = _offsets(width, count)
    cut = period * 8 * width
    low = (1 << cut) - 1
    shifted = list(map(operator.add, values, repeat(shift)))
    folded = map(operator.add, map(operator.and_, shifted, repeat(low)),
                 map(operator.rshift, shifted, repeat(cut)))
    return list(map(operator.sub, folded, repeat((shift & low) + (shift >> cut))))


class CycloField:
    """Context for Q(zeta_n): the modulus, its degree, and power tables.

    Immutable after construction; safe to share between threads.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = n
        self.phi = cyclotomic_polynomial(n)
        d = self.degree = self.phi.degree
        # phi = x^d + sum of p_i x^i; only the nonzero p_i (integers) matter
        self._phi_tail = tuple(
            (i, int(c)) for i, c in enumerate(self.phi.coeffs[:d]) if c
        )
        # s = n/p when n is a power of its least prime p (then phi(n) = n - s),
        # else 0.  A product is folded with x^n = 1 in the packed integer,
        # whose digits hold d products a_i b_j each, and reduced once by
        # `_reduce`, which for s > 0 takes the top block off each block below.
        p = next((q for q in range(2, n + 1) if n % q == 0), 1)
        self._block = n // p if d == n - n // p else 0
        self.zero = _elem(self, (0,) * d, 1)
        # zeta^j reduced, for exponents mod n
        zpows = []
        vec = [1] + [0] * (d - 1)
        for _ in range(n):
            zpows.append(_elem(self, tuple(vec), 1))
            vec = self._reduce([0] + vec)
        self._zeta_pows = tuple(zpows)
        self.one = zpows[0]
        self.zeta = zpows[1 % n]

    def _reduce(self, vec: list[int]) -> list[int]:
        """An integer vector in zeta of any length, reduced modulo phi:
        for n = p^e and at most n entries, by subtracting the top block
        from each block below; else in place by long division by the
        monic phi."""
        d, s = self.degree, self._block
        if s and d < len(vec) <= self.n:
            top = vec[d:] + [0] * (self.n - len(vec))
            return list(map(operator.sub, vec[:d], top * (d // s)))
        tail = self._phi_tail
        for k in range(len(vec) - 1, d - 1, -1):
            t = vec[k]
            if t:
                base = k - d
                for i, p in tail:
                    vec[base + i] -= t * p
        del vec[d:]
        vec.extend([0] * (d - len(vec)))
        return vec

    def integer_form(self, left: list, right: list, pairs: int):
        """As `exactnum.RationalField.integer_form`: each list over one
        denominator, each numerator vector packed at one width that holds a
        folded coefficient of a sum, `pairs` * d entry products."""
        da, va = _common_denominator(left)
        db, vb = _common_denominator(right)
        ha, hb = (max(map(abs, chain.from_iterable(v))) for v in (va, vb))
        width = (self.degree * pairs * ha * hb).bit_length() // 8 + 1
        if width <= 8:
            width = 1 << (width - 1).bit_length()  # as in CycloElem.__mul__
        den, count, n = da * db, 2 * self.degree - 1, self.n

        def back(total: int) -> "CycloElem":
            return _normalized(self, self._reduce(_unpack(total, width, count, n)), den)

        return [_pack(v, width) for v in va], [_pack(v, width) for v in vb], back

    def conjugates(self, a: "CycloElem", pairs, power: int = 0) -> list["CycloElem"]:
        """zeta^t (1 - zeta)^power sigma_u(a) for each (u, t) of `pairs`,
        sigma_u: zeta -> zeta^u for u prime to n, with no product.

        x -> x^u is an automorphism of Z[x]/(x^n - 1) that maps phi to a
        multiple of itself, so it acts on the numerator before one
        reduction: position p of the image takes the coefficient of
        x^((p - t) u^(-1) mod n), one slice with step u^(-1) of the
        numerator padded to length n and laid n times over.  Times 1 - x
        is a cyclic difference.  The differences, unlike sigma_u and the
        twist, may change the content, so each image is brought to
        lowest terms."""
        n = self.n
        laps = [*a.num, *repeat(0, n - len(a.num))] * n
        out = []
        for u, t in pairs:
            if math.gcd(u, n) != 1:
                raise ValueError(f"{u} is not a unit modulo {n}")
            step = pow(u, -1, n) or 1  # modulo 1 the inverse is 0
            start = -t * step % n
            vec = laps[start:start + n * step:step]
            for _ in range(power):
                vec = list(map(operator.sub, vec, vec[-1:] + vec[:-1]))
            out.append(_normalized(self, self._reduce(vec), a.den))
        return out

    def element(self, poly: Poly) -> "CycloElem":
        """Image of a rational polynomial in zeta, reduced modulo phi."""
        den = math.lcm(*(c.denominator for c in poly.coeffs))
        vec = [c.numerator * (den // c.denominator) for c in poly.coeffs]
        return _normalized(self, self._reduce(vec), den)

    def from_rational(self, q) -> "CycloElem":
        q = Fraction(q)
        return _elem(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def zeta_pow(self, j: int) -> "CycloElem":
        """zeta^j for any integer j (exponent taken mod n)."""
        return self._zeta_pows[j % self.n]

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloField) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("CycloField", self.n))

    def __repr__(self) -> str:
        return f"CycloField({self.n})"


# Elements per pass of the running-sum loops: each pass holds a few lists
# of this length, and nothing that grows with the length of the input.
# 512 and 1024 were no faster on z_numeric at n = 2^15..2^17 and raised
# the peak RSS by about 0.4 MB.
_BLOCK = 256


def compensated_sums(values: list, inclusive: bool | None, weights=None) -> complex:
    """Compensated running sums of a list of complex values, written over
    the list, and their total.  Position i gets the sum through v_i
    (inclusive) or before it (exclusive), times the i-th of `weights`
    when that iterable is given; the total is never weighted.  With
    `inclusive` None nothing is written and only the total is taken.

    Each sum is s_i + c_i, where s_i is the plain running sum and c_i
    the running sum of the exact rounding errors of s_(i-1) + v_i, taken
    in the same order (A. Neumaier, ZAMM 54, 1974).  The error comes from
    Knuth's branch-free TwoSum, d = t - s, err = (s - (t - d)) + (v - d)
    with t = s + v (TAOCP vol. 2, 4.2.2).  It is the same exact value as
    Neumaier's branch on the larger magnitude, so c_i keeps every bit:
    the two may differ only in the sign of a zero error, and c starts at
    +0.0, where adding -0.0 gives +0.0 in round-to-nearest.  Complex + and
    - act on the real and the imaginary part separately, so one complex
    pass is the two real ones.  The list is walked in blocks of _BLOCK
    by C-level loops (accumulate and map), carrying (s, c) from block to
    block.  A non-finite value makes the total non-finite.
    """
    add, sub = operator.add, operator.sub
    start = 1 if inclusive else 0
    if weights is not None:
        weights = iter(weights)
    s = c = 0j
    for lo in range(0, len(values), _BLOCK):
        block = values[lo:lo + _BLOCK]
        ts = list(accumulate(block, add, initial=s))
        ds = list(map(sub, islice(ts, 1, None), ts))
        errs = map(add, map(sub, ts, map(sub, islice(ts, 1, None), ds)),
                   map(sub, block, ds))
        cs = list(accumulate(errs, add, initial=c))
        if inclusive is not None:
            sums = islice(map(add, ts, cs), start, start + len(block))
            if weights is not None:
                sums = map(operator.mul, islice(weights, len(block)), sums)
            values[lo:lo + _BLOCK] = sums
        s, c = ts[-1], cs[-1]
    return s + c


@functools.lru_cache(maxsize=256)
def get_field(n: int) -> CycloField:
    return CycloField(n)


def _elem(field: CycloField, num: tuple, den: int) -> "CycloElem":
    """An element from a reduced vector already in lowest terms."""
    e = object.__new__(CycloElem)
    e.field = field
    e.num = num
    e.den = den
    return e


def _common_denominator(elems: list) -> tuple[int, list]:
    """The least common denominator of some elements and their numerator
    vectors over it."""
    den = math.lcm(*(a.den for a in elems))
    return den, [a.num if a.den == den else [c * (den // a.den) for c in a.num] for a in elems]


def _normalized(field: CycloField, num, den: int) -> "CycloElem":
    """An element from a reduced vector over a positive denominator,
    brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return _elem(field, tuple([c // g for c in num]), den // g)
    return _elem(field, tuple(num), den)


class CycloElem:
    """Element of Q(zeta_n): num[j] / den multiplies zeta^j.

    `num` is an integer vector of length equal to the field degree and
    `den` a positive integer with gcd(den, *num) == 1.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, coeffs):
        """From a reduced vector of rational (Fraction or int) coefficients."""
        coeffs = tuple(coeffs)
        if len(coeffs) != field.degree:
            raise ValueError(
                f"expected {field.degree} coefficients for n={field.n}, got {len(coeffs)}"
            )
        den = math.lcm(*(c.denominator for c in coeffs))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The coefficient of zeta^j as a Fraction, for j < degree."""
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.num))
        return tuple(Fraction(c, den) for c in self.num)

    def _check(self, other: "CycloElem") -> None:
        if self.field.n != other.field.n:
            raise ValueError(
                f"mixed cyclotomic fields: n={self.field.n} vs n={other.field.n}"
            )

    def _combine(self, other: "CycloElem", op) -> "CycloElem":
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            return _normalized(self.field, list(map(op, self.num, other.num)), da)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        return _normalized(
            self.field, [op(a * fa, b * fb) for a, b in zip(self.num, other.num)], den
        )

    def __add__(self, other: "CycloElem") -> "CycloElem":
        return self._combine(other, operator.add)

    def __sub__(self, other: "CycloElem") -> "CycloElem":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "CycloElem":
        return _elem(self.field, tuple(map(operator.neg, self.num)), self.den)

    def __mul__(self, other: "CycloElem") -> "CycloElem":
        self._check(other)
        field = self.field
        a, b = self.num, other.num
        d = len(a)
        if b.count(0) >= d - 1:
            return other._times(self)
        if a.count(0) >= d - 1:
            return self._times(other)
        # A product coefficient folded with x^n = 1 sums at most d products
        # a_i b_j (one j per i), so it is below d max|a| max|b|.
        bound = d * max(max(a), -min(a)) * max(max(b), -min(b))
        width = (bound.bit_length() + 8) // 8
        if width <= 8:
            width = 1 << (width - 1).bit_length()  # one array call per vector
        product = _pack(a, width) * _pack(b, width)
        vec = _unpack(product, width, 2 * d - 1, field.n)
        return _normalized(field, field._reduce(vec), self.den * other.den)

    def _times(self, other: "CycloElem") -> "CycloElem":
        """self * other for self = c zeta^j (at most one nonzero
        coefficient): other shifted by j, reduced, then scaled by c."""
        field, n = self.field, self.field.n
        flags = list(map(bool, self.num))
        if True not in flags:
            return field.zero
        j = flags.index(True)
        c, vec = self.num[j], list(other.num)
        if j:
            vec += [0] * (n - len(vec))
            vec = field._reduce(vec[n - j:] + vec[:n - j])
        if self.den == 1 and (c == 1 or c == -1):
            # zeta^j is a unit of Z[zeta]: the content does not change
            return _elem(field, tuple(vec if c == 1 else map(operator.neg, vec)), other.den)
        return _normalized(field, [c * v for v in vec], self.den * other.den)

    def inverse(self) -> "CycloElem":
        """Multiplicative inverse: the product of the conjugates
        sigma_u(self), u != 1 prime to n, over the norm, which is that
        product times self and a nonzero rational (`rational_part`
        raises otherwise)."""
        if not self:
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        field = self.field
        cof = field.one
        units = [(u, 0) for u in range(2, field.n) if math.gcd(u, field.n) == 1]
        for image in field.conjugates(self, units):
            cof = cof * image
        return cof * field.from_rational(1 / (self * cof).rational_part())

    def __truediv__(self, other: "CycloElem") -> "CycloElem":
        return self * other.inverse()

    def __pow__(self, e: int) -> "CycloElem":
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return self.field.one
        # binary powering from the lowest bit, without squaring past the top
        acc = None
        base = self
        while True:
            if e & 1:
                acc = base if acc is None else acc * base
            e >>= 1
            if not e:
                return acc
            base = base * base

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloElem)
            and self.field.n == other.field.n
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.field.n, self.num, self.den))

    def is_rational(self) -> bool:
        """True iff the coefficients of zeta^j vanish for all j >= 1."""
        return not any(self.num[1:])

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"element is not rational: {self}")
        return Fraction(self.num[0], self.den)

    def complex_value(self) -> complex:
        """Floating rendering with zeta mapped to exp(2*pi*i/n).

        Phases come from cos/sin per exponent and the terms are summed
        with Neumaier compensation; the coefficients can be large with
        heavy cancellation, so Horner in a floating zeta loses digits.
        """
        n = self.field.n
        den = self.den
        terms = [
            complex(c / den * math.cos(2 * math.pi * j / n),
                    c / den * math.sin(2 * math.pi * j / n))
            for j, c in enumerate(self.num) if c
        ]
        return compensated_sums(terms, None)

    def __repr__(self) -> str:
        return f"CycloElem(n={self.field.n}, {render_cyclo(self)!r})"

    def __str__(self) -> str:
        return render_cyclo(self)


def q_integer(m: int, field: CycloField) -> CycloElem:
    """The q-integer [m] = 1 + zeta + ... + zeta^(m-1) at q = zeta_n.

    [n] = 0; the value is invertible iff n does not divide m.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    acc = field.zero
    for j in range(m):
        acc = acc + field.zeta_pow(j)
    return acc


def render_cyclo(a: CycloElem) -> str:
    """Exact string form: a polynomial in the root, highest degree first."""
    coeffs = a.coeffs
    terms = []
    for j in range(a.field.degree - 1, -1, -1):
        c = coeffs[j]
        if not c:
            continue
        if j == 0:
            body = str(c)
        else:
            var = "z" if j == 1 else f"z^{j}"
            if c == 1:
                body = var
            elif c == -1:
                body = f"-{var}"
            else:
                body = f"{c}*{var}"
        terms.append(body)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def parse_cyclo(text: str, field: CycloField) -> CycloElem:
    """Parse the output of render_cyclo back into a field element."""
    s = text.replace(" ", "")
    if s in ("0", ""):
        return field.zero
    s = s.replace("-", "+-")
    acc = field.zero
    for term in s.split("+"):
        if not term:
            continue
        if "z" in term:
            head, _, tail = term.partition("z")
            exp = int(tail[1:]) if tail.startswith("^") else 1
            if head in ("", "+"):
                coeff = ONE
            elif head == "-":
                coeff = -ONE
            else:
                coeff = Fraction(head.rstrip("*"))
        else:
            coeff, exp = Fraction(term), 0
        acc = acc + field.zeta_pow(exp) * field.from_rational(coeff)
    return acc
