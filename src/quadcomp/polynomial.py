"""Dense univariate polynomials over a finite field.

Coefficients are stored low degree first as raw field values with trailing
zeros trimmed; the zero polynomial has degree -1.  Products over every
field go through Kronecker substitution: both coefficient vectors are
packed into big integers, multiplied once, and the convolution is read back
out of the product's fixed-width digit slots.  Over F_{p^k} the t-digits of
each coefficient are packed too, with room for the t-degrees of a product,
and each slot is reduced by the field modulus afterwards.  Modular powers
(Rabin's test, Frobenius powers) reduce by a Newton inverse of the reversed
modulus, so each reduction is two more such products.
"""

from __future__ import annotations

import array
import sys
from itertools import chain
from typing import Iterable, Sequence

from .errors import BothZero, ConstantPolynomial, DegreeTooSmall
from .finite_field import FieldElement, FiniteField, _prime_divisors

# array typecode per slot width in bytes; arrays are read as little-endian
_SLOT_CODES = {array.array(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}
# bytes per slot for digits of 0..8 bytes: the narrowest array width that fits
_NATIVE_WIDTH = tuple(min([w for w in _SLOT_CODES if w >= n] or [n]) for n in range(9))
# products of at most this many nonzero coefficient pairs go by schoolbook:
# over F_p schoolbook is faster up to about 6 pairs, and the small products
# of low-degree canonicalisation over F_{p^k} are faster by schoolbook too
_SCHOOL_MAX = 6


def _slot_width(bound: int) -> int:
    need = (bound.bit_length() + 7) // 8
    return _NATIVE_WIDTH[need] if need < len(_NATIVE_WIDTH) else need


def _pack(flat: Sequence[int], width: int) -> int:
    if width in _SLOT_CODES:
        data = array.array(_SLOT_CODES[width], flat).tobytes()
    else:
        data = b"".join(v.to_bytes(width, "little") for v in flat)
    return int.from_bytes(data, "little")


def _unpack(big: int, width: int, count: int) -> Sequence[int]:
    data = big.to_bytes(width * count, "little")
    if width in _SLOT_CODES:
        return array.array(_SLOT_CODES[width], data)
    return [int.from_bytes(data[i : i + width], "little")
            for i in range(0, len(data), width)]


def _school_mul(a: Sequence, b: Sequence, field: FiniteField) -> list:
    """Schoolbook product over the nonzero coefficient pairs only."""
    zero = field.zero_raw
    out = [zero] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y != zero]
    for i, x in enumerate(a):
        if x != zero:
            for j, y in b_terms:
                out[i + j] = field.radd(out[i + j], field.rmul(x, y))
    return out


def _mul_raw(a: Sequence, b: Sequence, field: FiniteField) -> list:
    """Product of nonempty raw coefficient vectors: schoolbook when short
    operands have at most _SCHOOL_MAX nonzero pairs, else Kronecker."""
    if len(a) <= _SCHOOL_MAX and len(b) <= _SCHOOL_MAX:
        zero = field.zero_raw
        if (len(a) - a.count(zero)) * (len(b) - b.count(zero)) <= _SCHOOL_MAX:
            return _school_mul(a, b, field)
    return _kron_mul(a, b, field)


def _kron_mul(a: Sequence, b: Sequence, field: FiniteField) -> list:
    """Product of raw coefficient vectors via one big-integer product.

    Each x-coefficient takes 2k - 1 digit slots: its k t-digits and room
    for the t-degrees of a product.  A slot holds min(len) * k * (p - 1)^2,
    so no digit carries into the next; the digits of t^k .. t^(2k-2) are
    then folded down with the field's reduction rows.
    """
    p, k = field.p, field.k
    n = len(a) + len(b) - 1
    width = _slot_width(min(len(a), len(b)) * k * (p - 1) * (p - 1))
    square = a is b
    if k > 1:
        pad = (0,) * (k - 1)
        a = list(chain.from_iterable([c + pad for c in a]))
        b = a if square else list(chain.from_iterable([c + pad for c in b]))
    big_a = _pack(a, width)
    big_b = big_a if square else _pack(b, width)
    m = 2 * k - 1
    digits = _unpack(big_a * big_b, width, n * m)
    if k == 1:
        return [c % p for c in digits]
    low = [digits[i::m] for i in range(k)]
    for j, row in enumerate(field._red):
        top = digits[k + j :: m]
        for i, r in enumerate(row):
            if r:
                low[i] = [c + r * t for c, t in zip(low[i], top)]
    return list(zip(*[[c % p for c in col] for col in low]))


def _split_csv(text: str) -> list:
    """Split on commas that are not inside [...] element literals."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


class Poly:
    """Immutable dense polynomial over a FiniteField."""

    __slots__ = ("field", "vals")

    def __init__(self, field: FiniteField, coeffs: Iterable = (), *, raw: bool = False):
        if raw:
            vals = list(coeffs)
        else:
            vals = [field.elem(c).val for c in coeffs]
        zero = field.zero_raw
        while vals and vals[-1] == zero:
            vals.pop()
        self.field = field
        self.vals = tuple(vals)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: FiniteField) -> "Poly":
        return cls(field)

    @classmethod
    def constant(cls, field: FiniteField, c) -> "Poly":
        return cls(field, [c])

    @classmethod
    def x(cls, field: FiniteField) -> "Poly":
        return cls(field, [0, 1])

    @classmethod
    def parse(cls, field: FiniteField, text: str) -> "Poly":
        coeffs = [field.parse_element(s) for s in _split_csv(text)]
        return cls(field, coeffs)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.vals) - 1

    @property
    def is_zero(self) -> bool:
        return not self.vals

    @property
    def is_monic(self) -> bool:
        return bool(self.vals) and self.vals[-1] == self.field.one_raw

    def coeff(self, i: int) -> FieldElement:
        if 0 <= i < len(self.vals):
            return FieldElement(self.field, self.vals[i])
        return self.field.zero

    def leading(self) -> FieldElement:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.vals[-1])

    def csv(self) -> str:
        if self.is_zero:
            return self.field.format_raw(self.field.zero_raw)
        return ",".join(self.field.format_raw(v) for v in self.vals)

    def __str__(self):
        return self.csv()

    def __repr__(self):
        return "Poly(%s over F_%d)" % (self.csv(), self.field.q)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.vals == other.vals

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.vals))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return other
        f, a, b = self.field, self.vals, other.vals
        out = [f.radd(x, y) for x, y in zip(a, b)]
        out.extend(a[len(b) :] or b[len(a) :])
        return Poly(f, out, raw=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return other
        f, a, b = self.field, self.vals, other.vals
        out = [f.rsub(x, y) for x, y in zip(a, b)]
        out.extend(a[len(b) :] or [f.rneg(y) for y in b[len(a) :]])
        return Poly(f, out, raw=True)

    def __rsub__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return other
        return other - self

    def __neg__(self):
        f = self.field
        return Poly(f, [f.rneg(v) for v in self.vals], raw=True)

    def _as_poly(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise ValueError("mixed field contexts")
            return other
        if isinstance(other, (int, FieldElement)):
            return Poly.constant(self.field, other)
        return NotImplemented

    def __mul__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return other
        if self.is_zero or other.is_zero:
            return Poly(self.field)
        return Poly(self.field, _mul_raw(self.vals, other.vals, self.field), raw=True)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        acc = Poly.constant(self.field, 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __divmod__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return other
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        if self.degree < other.degree:
            return Poly(f), self
        rem = list(self.vals)
        dn = other.degree
        inv_lead = f.rinv(other.vals[-1])
        quot = [f.zero_raw] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c != f.zero_raw:
                c = f.rmul(c, inv_lead)
                quot[i - dn] = c
                for j, dj in enumerate(other.vals):
                    rem[i - dn + j] = f.rsub(rem[i - dn + j], f.rmul(c, dj))
        return Poly(f, quot, raw=True), Poly(f, rem[:dn], raw=True)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    # -- evaluation and composition ------------------------------------------

    def __call__(self, point):
        f = self.field
        v = f.elem(point).val
        acc = f.zero_raw
        for c in reversed(self.vals):
            acc = f.radd(f.rmul(acc, v), c)
        return FieldElement(f, acc)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), Horner over polynomial arguments."""
        inner = self._as_poly(inner)
        f = self.field
        acc = Poly(f)
        for c in reversed(self.vals):
            acc = acc * inner + Poly(f, [c], raw=True)
        return acc

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i in range(1, len(self.vals)):
            out.append(f.rmul(f.elem(i).val, self.vals[i]))
        return Poly(f, out, raw=True)

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        f = self.field
        inv = f.rinv(self.vals[-1])
        return Poly(f, [f.rmul(v, inv) for v in self.vals], raw=True)

    def shift_argument(self, a) -> "Poly":
        """self(x + a)."""
        f = self.field
        lin = Poly(f, [f.elem(a).val, f.one_raw], raw=True)
        return self.compose(lin)


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


class _Reducer:
    """Remainders modulo a fixed polynomial by Newton inversion (Barrett).

    For a modulus of degree n, h = rev(mod)^-1 mod x^(n-1) is computed once
    by Newton iteration.  A product P of two remainders has degree at most
    2n - 2; its quotient is the slice [n-2, 2n-3) of P[n:] * rev(h), and its
    remainder is P - Q * mod: two Kronecker products in all.
    """

    def __init__(self, mod: Poly):
        f = mod.field
        self.field, self.mod, self.n = f, mod.vals, mod.degree
        rev = mod.vals[::-1]
        h = [f.rinv(rev[0])]
        while len(h) < self.n - 1:
            m = min(2 * len(h), self.n - 1)
            err = _mul_raw(rev[:m], h, f)[:m]  # rev * h = 1 + O(x^len(h))
            err[0] = f.rsub(err[0], f.one_raw)
            step = _mul_raw(h, err, f)
            h = [f.rsub(u, v) for u, v in zip(h + [f.zero_raw] * (m - len(h)), step)]
        self.h_rev = h[::-1]

    def reduce(self, P: list) -> list:
        n, f = self.n, self.field
        if len(P) <= n:
            return P
        quot = _mul_raw(P[n:], self.h_rev, f)[n - 2 : 2 * n - 3]
        return [f.rsub(u, v) for u, v in zip(P[:n], _mul_raw(quot, self.mod, f))]


def _powmod(base: Poly, e: int, mod: Poly, red: _Reducer) -> Poly:
    """base^e mod `mod` by square-and-multiply; `red` is the caller's
    _Reducer(mod), built once and reused across powers."""
    field = base.field
    acc = (Poly.constant(field, 1) % mod).vals
    sq = (base % mod).vals
    if not sq:
        return Poly(field) if e else Poly(field, acc, raw=True)
    while e:
        if e & 1:
            acc = red.reduce(_mul_raw(acc, sq, field))
        e >>= 1
        if e:
            sq = red.reduce(_mul_raw(sq, sq, field))
    return Poly(field, acc, raw=True)


def powmod_frobenius(e: int, f: Poly) -> Poly:
    """x^(q^e) mod f."""
    if f.degree < 1:
        raise ConstantPolynomial("modulus must have positive degree")
    if e < 0:
        raise ValueError("Frobenius power must be >= 0")
    field = f.field
    red = _Reducer(f)
    y = Poly.x(field) % f
    for _ in range(e):
        y = _powmod(y, field.q, f, red)
    return y


def rabin_is_irreducible(f: Poly) -> bool:
    """Rabin's irreducibility test over F_q.

    f of degree d is irreducible iff x^(q^d) = x mod f and, for every
    prime r dividing d, gcd(x^(q^(d/r)) - x, f) = 1.
    """
    if f.degree < 1:
        raise ConstantPolynomial("irreducibility needs degree >= 1")
    d = f.degree
    f = f.monic()
    if d == 1:
        return True
    field = f.field
    x = Poly.x(field)
    checkpoints = {d // r for r in _prime_divisors(d)}
    red = _Reducer(f)
    y = x % f
    for j in range(1, d + 1):
        y = _powmod(y, field.q, f, red)
        if j in checkpoints and gcd(y - x, f).degree != 0:
            return False
    return y == x % f


def resultant(f: Poly, g: Poly) -> FieldElement:
    """Res(f, g) by the Euclidean remainder recurrence."""
    field = f.field
    if f.is_zero or g.is_zero:
        return field.zero
    if f.degree == 0 and g.degree == 0:
        return field.one
    acc = field.one_raw
    a, b = f, g
    while b.degree > 0:
        r = a % b
        if r.is_zero:
            return field.zero
        acc = field.rmul(acc, field.rpow(b.vals[-1], a.degree - r.degree))
        if (a.degree * b.degree) % 2 == 1:
            acc = field.rneg(acc)
        a, b = b, r
    acc = field.rmul(acc, field.rpow(b.vals[0], a.degree))
    return FieldElement(field, acc)


def discriminant(f: Poly) -> FieldElement:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f), degree d >= 2."""
    d = f.degree
    if d < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    field = f.field
    res = resultant(f, f.derivative())
    v = res.val
    if (d * (d - 1) // 2) % 2 == 1:
        v = field.rneg(v)
    v = field.rmul(v, field.rinv(f.vals[-1]))
    return FieldElement(field, v)
