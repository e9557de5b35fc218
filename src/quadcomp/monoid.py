"""Monic quadratics as letters of a composition monoid.

A letter is f = (x - a)^2 - b.  Words are tuples of letter indices; the
leftmost index is the outermost map of the composition, so the word
(0, 1) over letters (f, g) stands for f(g(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iproduct
from typing import Optional, Sequence

from .errors import BudgetExceeded, EmptyAlphabet, IndexOutOfRange
from .finite_field import _GATHER_BYTES, FieldElement, FiniteField
from .polynomial import Poly, _mul_raw

DEFAULT_SEARCH_BUDGET = 200_000

# The automata's interim machine N has 2q + 1 states and one row of 2q + 1
# targets per letter, so the maximal alphabet's N holds about 2q^2 targets.
# At q = 1,021, the largest field allowed, building it took 0.8-1.0 s at
# 92 MB peak RSS (2-core x86-64, Python 3.11); at q = 1,000,003 it ran out
# of memory after 26 s.  Alphabets tabulate their letter maps (LetterSteps)
# only where N can exist.
MAX_INTERIM_Q = 1 << 10

# letter display names: f, g, h, ... falling back to L<i> for wide alphabets
_NAME_BASE = "fghijklmnopqrstuvwxyz"


def _letter_name(i: int, n_letters: int) -> str:
    return _NAME_BASE[i] if n_letters <= len(_NAME_BASE) else "L%d" % i


def name_word(word: Sequence[int], n_letters: int) -> str:
    """A word's text over any alphabet of n_letters letters: the names f
    to z run together ('ggf') up to 21 letters; wider alphabets give
    L<i>, comma separated ('L0,L12')."""
    sep = "" if n_letters <= len(_NAME_BASE) else ","
    return sep.join(_letter_name(i, n_letters) for i in word) or "(empty)"


@dataclass(frozen=True)
class MonicQuad:
    """The map x -> (x - a)^2 - b."""

    a: FieldElement
    b: FieldElement

    def __post_init__(self):
        if self.a.field != self.b.field:
            raise ValueError("mixed field contexts in letter")

    @property
    def field(self) -> FiniteField:
        return self.a.field

    def __call__(self, x) -> FieldElement:
        v = self.field.elem(x) - self.a
        return v * v - self.b

    def to_poly(self) -> Poly:
        f = self.field
        a, b = self.a, self.b
        return Poly(f, [a * a - b, -(a + a), f.one])

    @classmethod
    def from_poly(cls, poly: Poly) -> "MonicQuad":
        if poly.degree != 2 or not poly.is_monic:
            raise ValueError("letter must be a monic quadratic")
        f = poly.field
        two_inv = f.elem(2).inverse()
        a = -poly.coeff(1) * two_inv
        b = a * a - poly.coeff(0)
        return cls(a, b)

    def __str__(self):
        return "a=%s b=%s" % (self.a, self.b)


class Alphabet:
    """An ordered duplicate-free set of letters over one field.

    `pairs` holds each letter's raw (a, b), in letter order: the one form
    in which chains, automata and the batched composer read the letters.
    `steps` tabulates their maps once, where that is bounded.
    """

    def __init__(self, field: FiniteField, letters: Sequence[MonicQuad]):
        letters = tuple(letters)
        for quad in letters:
            if quad.field != field:
                raise ValueError("letter field does not match alphabet field")
        pairs = tuple((quad.a.val, quad.b.val) for quad in letters)
        seen = set()
        for quad, pair in zip(letters, pairs):
            if pair in seen:
                raise ValueError("duplicate letter %s" % (quad,))
            seen.add(pair)
        self.field = field
        self.letters = letters
        self.pairs = pairs

    @classmethod
    def maximal(cls, field: FiniteField) -> "Alphabet":
        """All letters x^2 - b, one per field element b."""
        zero = field.zero
        return cls(field, [MonicQuad(zero, b) for b in field.elements()])

    @cached_property
    def steps(self) -> Optional["LetterSteps"]:
        """The letters' maps as LetterSteps, built on first use and kept, for
        q <= MAX_INTERIM_Q while the table's 4 * L * q bytes stay within
        _GATHER_BYTES; None elsewhere."""
        q = self.field.q
        if q > MAX_INTERIM_Q or 4 * len(self.pairs) * q > _GATHER_BYTES:
            return None
        return LetterSteps(self.field, self.pairs)

    @property
    def is_maximal(self) -> bool:
        zero = self.field.zero_raw
        return len(self.pairs) == self.field.q and all(a == zero for a, _ in self.pairs)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i: int) -> MonicQuad:
        return self.letters[i]

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.field == other.field and self.pairs == other.pairs

    def letter_name(self, i: int) -> str:
        return _letter_name(i, len(self.letters))

    def parse_word(self, text: str) -> tuple:
        """Accept single-char names ('ggf'), or comma/space separated
        names or numeric indices ('1,1,0')."""
        text = text.strip()
        if not text:
            return ()
        names = {self.letter_name(i): i for i in range(len(self.letters))}
        if "," in text or " " in text:
            tokens = [t for t in text.replace(",", " ").split() if t]
        else:
            tokens = list(text)
        word = []
        for tok in tokens:
            if tok in names:
                word.append(names[tok])
            elif tok.isdigit() and int(tok) < len(self.letters):
                word.append(int(tok))
            else:
                raise ValueError("unknown letter %r" % (tok,))
        return tuple(word)

    def format_word(self, word: Sequence[int]) -> str:
        return name_word(word, len(self.letters))

    def check_word(self, word: Sequence[int]) -> tuple:
        word = tuple(word)
        n = len(self.letters)
        for i in word:
            if not isinstance(i, int) or not 0 <= i < n:
                raise IndexOutOfRange("letter index %r out of range" % (i,))
        return word

    def require_nonempty(self):
        if not self.letters:
            raise EmptyAlphabet("alphabet has no letters")


class LetterSteps:
    """Letter maps v -> (v - a)^2 - b as element indices, for chain walks
    and the automata.

    `table` is FiniteField.step_table of the pairs, read only, and `rows`
    its rows as memoryviews, which a lookup reads in about 40 ns; a list
    took 24 ns but holds 8 bytes, and past 256 an int object, for each
    4-byte entry.  Per letter, `b` and `neg_b` hold the indices of b and
    -b; per element index, `raws` holds the raw value and `nonsquare` a
    bool, in the field's nonsquare_list, which every alphabet shares.
    """

    def __init__(self, field: FiniteField, pairs: Sequence[tuple]):
        self.table = field.step_table(pairs)
        self.table.setflags(write=False)
        self.rows = [memoryview(row) for row in self.table]
        index = field.index_of_raw
        self.b = [index(b) for _, b in pairs]
        # -b = (a - a)^2 - b
        self.neg_b = [row[index(a)] for row, (a, _) in zip(self.rows, pairs)]
        self.nonsquare = field.nonsquare_list()
        self.raws = list(field.iter_raw())


def compose_chain(letters: Sequence[MonicQuad], inner: Poly) -> Poly:
    """letters[0] o ... o letters[-1] o inner, outermost letter first.

    Built from the inside out, one squaring per letter; the constants a and
    b of each letter touch only coefficient 0.  No letters give `inner`.
    """
    field = inner.field
    if any(quad.field != field for quad in letters):
        raise ValueError("mixed field contexts")
    vals = list(inner.vals) or [field.zero_raw]
    for quad in reversed(letters):
        vals[0] = field.rsub(vals[0], quad.a.val)
        vals = _mul_raw(vals, vals, field)
        vals[0] = field.rsub(vals[0], quad.b.val)
    return Poly(field, vals, raw=True)


def pi(word: Sequence[int], alphabet: Alphabet) -> Poly:
    """Morphism: the composition of the word's letters, outermost first.

    The empty word maps to x.
    """
    word = alphabet.check_word(word)
    return compose_chain([alphabet[i] for i in word], Poly.x(alphabet.field))


def distinguished_set(alphabet: Alphabet) -> set:
    """The set of b-values appearing among the letters."""
    return {quad.b for quad in alphabet}


def a_fibers(alphabet: Alphabet) -> dict:
    """Map each b-value to the set of a-values of letters sharing it."""
    fibers: dict = {}
    for quad in alphabet:
        fibers.setdefault(quad.b, set()).add(quad.a)
    return fibers


def _difference_union(alphabet: Alphabet) -> set:
    diffs = set()
    for fiber in a_fibers(alphabet).values():
        for x in fiber:
            for y in fiber:
                diffs.add((x - y).val)
    return diffs


def words_related(u: Sequence[int], v: Sequence[int], alphabet: Alphabet) -> bool:
    """True iff pi(v) - pi(u) is a constant lying in some fiber
    difference set A_b - A_b of the alphabet."""
    diff = pi(v, alphabet) - pi(u, alphabet)
    if diff.degree > 0:
        return False
    c = diff.coeff(0).val if not diff.is_zero else alphabet.field.zero_raw
    return c in _difference_union(alphabet)


@dataclass(frozen=True)
class FreedomCertificate:
    free: bool
    reason: Optional[str]

    def __bool__(self):
        return self.free


def freedom_certificate(alphabet: Alphabet) -> FreedomCertificate:
    """Certify that distinct words give distinct compositions.

    Sufficient criteria: all letters share one b-value, or all letters
    have distinct b-values.  Anything else returns an uncertified result;
    it does not mean a collision exists.
    """
    alphabet.require_nonempty()
    n_b = len(distinguished_set(alphabet))
    if n_b == 1:
        return FreedomCertificate(True, "all letters share one b-value")
    if n_b == len(alphabet):
        return FreedomCertificate(True, "letters have pairwise distinct b-values")
    return FreedomCertificate(False, None)


def collision_search(
    alphabet: Alphabet, max_len: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> Optional[tuple]:
    """Exhaustive search for two distinct words with equal composition.

    Returns the first collision (u, v) in length-then-lexicographic order,
    or None.  Raises BudgetExceeded once more than `budget` words have
    been examined.  A negative `max_len` or `budget` raises ValueError.
    """
    if max_len < 0 or budget < 0:
        raise ValueError("max_len and budget must be >= 0")
    alphabet.require_nonempty()
    n = len(alphabet)
    visited = 0
    for length in range(1, max_len + 1):
        seen: dict = {}
        for word in _iproduct(range(n), repeat=length):
            visited += 1
            if visited > budget:
                raise BudgetExceeded(
                    "collision search visited more than %d words" % budget
                )
            key = pi(word, alphabet).vals
            if key in seen:
                return (seen[key], word)
            seen[key] = word
    return None
