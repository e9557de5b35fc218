"""Arithmetic in finite fields of odd order q = p^k.

Prime fields store elements as residues mod p.  Extension fields use a
power basis 1, t, ..., t^(k-1) modulo the lexicographically smallest monic
irreducible polynomial of degree k over F_p, coefficient vectors compared
low degree first.  Elements carry a reference to their field context and
are immutable.

Fields of q <= _TABLE_LIMIT answer from tables built on first use, not with
the field, and kept.  An extension field multiplies by discrete-log tables:
its multiplicative group is cyclic, so with a primitive element g every
nonzero product, inverse, power and quadratic character is integer
arithmetic on exponents of g.  A prime field reads its squareness from a
list over the residues.  An extension field with q^2 inside the bound also
adds and multiplies element indices by lookups in two q x q tables
(index_tables), which the decomposition peels with.  Past the bound nothing
is tabulated: extension field products run the coordinate loops _wide and
_fold, and squareness is Euler's criterion.  Prime fields multiply ints at
every size.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidDegree, NotOddPrime

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above (psi_13): Miller-Rabin
# with these bases is exact below it and would only guess from it on
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981

# fields up to this size are tabulated, and computed beyond it: log tables
# (k > 1), the nonsquare list (k == 1) and step tables; index tables hold q^2
# entries each, so they need q^2 within it (q <= 256).  Building the log
# tables of F_{3^10} peaks at 15 MB (tracemalloc) and a step table's squaring
# there holds 9 MB, while Euler's criterion past the bound is one modular
# power (about 1 us) a query; at q = 1,000,003 a table of squares took 0.3 s
# and 34 MB before its first answer
_TABLE_LIMIT = 1 << 16

# an array pass (step_table, and the automata's chunked steps) holds at most
# about this many bytes in any one temporary array
_GATHER_BYTES = 1 << 24


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below 3.3e24 (psi_13);
    raises ValueError for larger n rather than guess."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError("primality is exact only below psi_13 = %d" % _MR_EXACT_BELOW)
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _smallest_irreducible(p: int, k: int) -> tuple:
    """The lexicographically smallest monic irreducible of degree k over
    F_p, coefficients low degree first, and the reduction rows: the
    coordinates of t^k, ..., t^(2k-2) in the power basis."""
    from .polynomial import Poly, rabin_is_irreducible  # polynomial imports this module

    prime = FiniteField(p)
    # tails (c_0, ..., c_(k-1)) in lexicographic order are the base-p digits
    # of n, c_0 most significant; x divides every tail with c_0 = 0
    for n in range(p ** (k - 1), p ** k):
        tail = [n // p ** (k - 1 - i) % p for i in range(k)]
        modulus = Poly(prime, tail + [1], raw=True)
        if rabin_is_irreducible(modulus):
            x = Poly.x(prime)
            rows = [(x ** j % modulus).vals for j in range(k, 2 * k - 1)]
            return modulus.vals, tuple(r + (0,) * (k - len(r)) for r in rows)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


class IndexTables(NamedTuple):
    """F_q arithmetic on element indices, as nested lists: add[i][j] and
    mul[i][j] are the indices of e_i + e_j and e_i * e_j, neg[i] that of
    -e_i, nonsquare[i] whether e_i is a nonsquare (zero is not), raws[i] the
    raw value e_i and index the dict from raw values back to indices."""

    add: list
    mul: list
    neg: list
    nonsquare: list
    raws: list
    index: dict


class FiniteField:
    """Arithmetic context for F_q, q = p^k with p an odd prime.

    Raw element values are ints in [0, p) when k == 1 and k-tuples of such
    ints otherwise; zero_raw and one_raw hold the raw 0 and 1.  The
    r*-methods operate on raw values; use elem() and FieldElement for the
    checked surface.
    """

    def __init__(self, p: int, k: int = 1):
        if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
            raise NotOddPrime("characteristic must be an odd prime, got %r" % (p,))
        if not isinstance(k, int) or k < 1:
            raise InvalidDegree("extension degree must be >= 1, got %r" % (k,))
        self.p = p
        self.k = k
        self.q = p ** k
        if k == 1:
            self.modulus = None
            self._red = None
            self.zero_raw = 0
            self.one_raw = 1
        else:
            self.modulus, self._red = _smallest_irreducible(p, k)
            self.zero_raw = (0,) * k
            self.one_raw = (1,) + (0,) * (k - 1)
        self._nonsquare = None
        self._nonsquare_list = None
        self._exp = None
        self._log = None
        self._index_tables = None

    # -- context identity -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.k == other.k
        )

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return "FiniteField(%d, %d)" % (self.p, self.k)

    # -- raw arithmetic ----------------------------------------------------

    def radd(self, u, v):
        if self.k == 1:
            return (u + v) % self.p
        p = self.p
        return tuple([(a + b) % p for a, b in zip(u, v)])

    def rsub(self, u, v):
        if self.k == 1:
            return (u - v) % self.p
        p = self.p
        return tuple([(a - b) % p for a, b in zip(u, v)])

    def rneg(self, u):
        if self.k == 1:
            return -u % self.p
        p = self.p
        return tuple([-a % p for a in u])

    def rmul(self, u, v):
        if self.k == 1:
            return u * v % self.p
        log = self._log or self._logs()
        if log is None:
            return self._mul(u, v)
        zero = self.zero_raw
        if u == zero or v == zero:
            return zero
        return self._exp[log[u] + log[v]]

    def rdot(self, us, vs):
        """The sum of u * v over paired raw values us and vs, reduced once."""
        if self.k == 1:
            return sum(map(mul, us, vs)) % self.p
        log = self._log or self._logs()
        if log is None:
            acc = [0] * (2 * self.k - 1)
            for u, v in zip(us, vs):
                self._wide(u, v, acc)
            return self._fold(acc)
        exp, zero, p = self._exp, self.zero_raw, self.p
        terms = [exp[log[u] + log[v]] for u, v in zip(us, vs) if u != zero and v != zero]
        if len(terms) > 1:
            return tuple([c % p for c in map(sum, zip(*terms))])
        return terms[0] if terms else zero

    def rchain(self, v, pairs):
        """The raw value v sent through (x - a)^2 - b for each raw pair
        (a, b) of `pairs` in turn, reduced once a step."""
        p = self.p
        if self.k == 1:
            for a, b in pairs:
                v = ((v - a) * (v - a) - b) % p
            return v
        log = self._log or self._logs()
        if log is None:
            pad = [0] * (self.k - 1)
            for a, b in pairs:
                s = [x - y for x, y in zip(v, a)]
                v = self._fold(self._wide(s, s, [-c for c in b] + pad))
            return v
        exp, zero = self._exp, self.zero_raw
        for a, b in pairs:
            s = tuple([(x - y) % p for x, y in zip(v, a)])
            square = exp[2 * log[s]] if s != zero else zero
            v = tuple([(x - y) % p for x, y in zip(square, b)])
        return v

    def _logs(self):
        """The discrete-log table of F_q, a dict from each nonzero raw value
        to its exponent of the primitive element g, or None past
        _TABLE_LIMIT.  Built with _exp, which holds g^0 .. g^(2q - 3) so
        that a sum of two logs indexes it with no mod, on first use and kept;
        only extension fields ask for it."""
        q, p, k = self.q, self.p, self.k
        if q > _TABLE_LIMIT:
            return None
        n, one = q - 1, self.one_raw
        exponents = [n // r for r in _prime_divisors(n)]
        # g is the first element, by index, of order n; the elements of F_p,
        # indices below p, have orders dividing p - 1 < n
        g = next(u for u in map(self.raw_from_index, range(p, q))
                 if all(self._power(u, e) != one for e in exponents))
        basis = [self.raw_from_index(p ** j) for j in range(k)]
        # the digits of g^0 .. g^(m-1), and g^m; int32 holds the k products a
        # digit sums, as p <= 256 when k > 1 inside the bound
        powers, step = np.array([one], dtype=np.int32), g
        while len(powers) < n:
            # x -> x * g^m is F_p-linear, row j the digits of t^j * g^m
            rows = np.array([self._mul(t, step) for t in basis], dtype=np.int32)
            powers = np.concatenate([powers, powers[: n - len(powers)] @ rows % p])
            step = self._mul(step, step)
        exp = list(zip(*powers.T.tolist()))
        del powers  # before the dict: 2.4 MB of the peak at q = 3^10
        self._exp = exp * 2  # before _log, which readers test first
        self._log = dict(zip(exp, range(n)))
        return self._log

    def index_tables(self) -> "IndexTables | None":
        """The arithmetic of an extension field with q^2 <= _TABLE_LIMIT on
        element indices (see IndexTables), built on first use and kept; None
        for a prime field, whose indices are its residues, and past the bound."""
        q, p = self.q, self.p
        if self._index_tables is None and self.k > 1 and q * q <= _TABLE_LIMIT:
            if self._log is None:
                self._logs()
            # power[m] and log[i] are the index of g^m and the log of e_i
            power = self._index(np.array(self._exp[: q - 1]))
            log = np.zeros(q, dtype=np.int64)
            log[power] = np.arange(q - 1)
            products = power[(log[:, None] + log) % (q - 1)]
            products[0] = products[:, 0] = 0
            # digits below p <= 13 and their sums fit int8
            digits = self._digits(np.arange(q)).astype(np.int8)
            raws = list(zip(*digits.T.tolist()))
            self._index_tables = IndexTables(
                self._index((digits[:, None] + digits) % p).tolist(), products.tolist(),
                self._index(-digits % p).tolist(), (log % 2 == 1).tolist(),
                raws, dict(zip(raws, range(q))))
        return self._index_tables

    def step_table(self, pairs) -> np.ndarray:
        """The letter maps of the raw pairs (a, b) as one int32 (L, q) table:
        entry [j, i] is the index of (v_i - a_j)^2 - b_j, v_i the element of
        index i.

        Letters with the same a share one squaring, done on digit arrays as
        _wide and _fold do it, and no temporary array passes _GATHER_BYTES.
        Only fields of q <= _TABLE_LIMIT are tabulated: there one
        squaring's unreduced slots take at most 9 MB (q = 3^10), and a letter's
        row of digits 5 MB; beyond it ValueError is raised.
        """
        q, k, p = self.q, self.k, self.p
        if q > _TABLE_LIMIT:
            raise ValueError("step tables need q <= %d, got q = %d" % (_TABLE_LIMIT, q))
        index = self.index_of_raw
        shifts, group = np.unique(np.array([index(a) for a, _ in pairs], dtype=np.int64),
                                  return_inverse=True)
        subtract = self._digits(np.array([index(b) for _, b in pairs], dtype=np.int64))
        elements = self._digits(np.arange(q))
        table = np.empty((len(pairs), q), dtype=np.int32)
        per_shift = max(1, _GATHER_BYTES // (8 * q * (2 * k - 1)))
        for lo in range(0, len(shifts), per_shift):
            squares = self._square(elements - self._digits(shifts[lo : lo + per_shift])[:, None])
            # a letter at a time, so a temporary is one row of digits: chunks
            # of letters were no faster over the maximal alphabets at q = 625
            # to 1,021 (within 10%)
            for j in np.flatnonzero((group >= lo) & (group < lo + per_shift)).tolist():
                table[j] = self._index((squares[group[j] - lo] - subtract[j]) % p)
        return table

    def nonsquare_mask(self) -> np.ndarray:
        """A read-only bool array over the element indices, True at the
        nonsquares; from step_table's squaring, so for q <= _TABLE_LIMIT,
        built on first use and kept."""
        if self._nonsquare is None:
            mask = np.ones(self.q, dtype=bool)
            mask[self.step_table([(self.zero_raw, self.zero_raw)])[0]] = False
            mask.setflags(write=False)
            self._nonsquare = mask
        return self._nonsquare

    def nonsquare_list(self) -> list:
        """nonsquare_mask as a list of bools, built on first use and kept."""
        if self._nonsquare_list is None:
            self._nonsquare_list = self.nonsquare_mask().tolist()
        return self._nonsquare_list

    def _digits(self, indices: np.ndarray) -> np.ndarray:
        """The raw values of element indices as int64 coordinates along a new
        last axis of length k, low degree first."""
        return indices[..., None] // self.p ** np.arange(self.k) % self.p

    def _index(self, digits: np.ndarray) -> np.ndarray:
        """The element indices of coordinates along the last axis."""
        return digits @ self.p ** np.arange(self.k)

    def _square(self, digits: np.ndarray) -> np.ndarray:
        """The reduced coordinates of the squares of unreduced ones, each
        below p in absolute value: _wide into 2k - 1 slots, then _fold."""
        k, p = self.k, self.p
        acc = np.zeros(digits.shape[:-1] + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            acc[..., i : i + k] += digits[..., i : i + 1] * digits
        low = acc[..., :k]
        if k > 1:
            low += acc[..., k:] % p @ np.array(self._red, dtype=np.int64)
        return low % p

    def _mul(self, u, v):
        """rmul by _wide and _fold, for extension fields without log tables."""
        return self._fold(self._wide(u, v, [0] * (2 * self.k - 1)))

    def _power(self, u, e: int):
        """u^e for e >= 0 by square and multiply in _mul."""
        acc = self.one_raw
        while e:
            if e & 1:
                acc = self._mul(acc, u)
            u = self._mul(u, u)
            e >>= 1
        return acc

    def _wide(self, u, v, acc):
        """acc plus the unreduced coordinate product of u and v, in 2k - 1
        slots for t^0 .. t^(2k-2)."""
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    acc[i + j] += a * b
        return acc

    def _fold(self, acc):
        """The raw value of 2k - 1 unreduced slots, by the reduction rows."""
        k, p = self.k, self.p
        for j in range(k, 2 * k - 1):
            c = acc[j] % p
            if c:
                for i, r in enumerate(self._red[j - k]):
                    acc[i] += c * r
        return tuple([c % p for c in acc[:k]])

    def rpow(self, u, e: int):
        if e < 0:
            return self.rpow(self.rinv(u), -e)
        if self.k == 1:
            return pow(u, e, self.p)
        log = self._log or self._logs()
        if log is None:
            return self._power(u, e)
        if u == self.zero_raw:
            return self.one_raw if e == 0 else u
        return self._exp[e * log[u] % (self.q - 1)]

    def rinv(self, u):
        if u == self.zero_raw:
            raise ZeroDivisionError("inverse of zero in %r" % (self,))
        return self.rpow(u, self.q - 2)

    def is_nonsquare_raw(self, u) -> bool:
        """Whether u is a nonsquare, zero counting as a square: by Euler's
        criterion past _TABLE_LIMIT, else by log parity or nonsquare_list."""
        if u == self.zero_raw:
            return False
        if self.q > _TABLE_LIMIT:
            return self.rpow(u, (self.q - 1) // 2) != self.one_raw
        if self.k > 1:
            return (self._log or self._logs())[u] % 2 == 1
        return (self._nonsquare_list or self.nonsquare_list())[u]

    # -- element enumeration and text form ----------------------------------

    def iter_raw(self) -> Iterator:
        if self.k == 1:
            yield from range(self.p)
            return
        for i in range(self.q):
            yield self.raw_from_index(i)

    def raw_from_index(self, i: int):
        if not 0 <= i < self.q:
            raise ValueError("element index out of range: %r" % (i,))
        if self.k == 1:
            return i
        digits = []
        for _ in range(self.k):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def index_of_raw(self, u) -> int:
        if self.k == 1:
            return u
        acc = 0
        for c in reversed(u):
            acc = acc * self.p + c
        return acc

    def elements(self) -> Iterator["FieldElement"]:
        for u in self.iter_raw():
            yield FieldElement(self, u)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_raw)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_raw)

    def elem(self, value) -> "FieldElement":
        """Coerce an int, coordinate sequence or FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to %r" % (value.field,))
            return value
        if isinstance(value, int):
            if self.k == 1:
                return FieldElement(self, value % self.p)
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        coords = [int(c) % self.p for c in value]
        if len(coords) > self.k:
            raise ValueError("too many coordinates for %r" % (self,))
        coords += [0] * (self.k - len(coords))
        if self.k == 1:
            return FieldElement(self, coords[0])
        return FieldElement(self, tuple(coords))

    def format_raw(self, u) -> str:
        if self.k == 1:
            return str(u)
        return "[" + ",".join(str(c) for c in u) + "]"

    def parse_element(self, text: str) -> "FieldElement":
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError("unterminated element literal: %r" % (text,))
            # int() refuses an empty coordinate, as Poly.parse an empty coefficient
            coords = [int(s) for s in text[1:-1].split(",")]
            if len(coords) != self.k:
                raise ValueError(
                    "expected %d coordinates, got %d in %r" % (self.k, len(coords), text)
                )
            return self.elem(coords)
        return self.elem(int(text))


class FieldElement:
    """One element of a FiniteField.  Immutable, usable as a dict key."""

    __slots__ = ("field", "val")

    def __init__(self, field: FiniteField, val):
        self.field = field
        self.val = val

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("mixed field contexts: %r vs %r" % (self.field, other.field))
            return other.val
        if isinstance(other, int):
            return self.field.elem(other).val
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.radd(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.rsub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.rsub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.rmul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.rmul(self.val, self.field.rinv(v)))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.rmul(v, self.field.rinv(self.val)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.rpow(self.val, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.rneg(self.val))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.val == other.val
        if isinstance(other, int):
            return self.val == self.field.elem(other).val
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.val))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.rinv(self.val))

    def is_zero(self) -> bool:
        return self.val == self.field.zero_raw

    def is_nonsquare(self) -> bool:
        return self.field.is_nonsquare_raw(self.val)

    def index(self) -> int:
        return self.field.index_of_raw(self.val)

    def __str__(self):
        return self.field.format_raw(self.val)

    def __repr__(self):
        return "FieldElement(%s, F_%d)" % (self, self.field.q)
