"""Irreducibility of quadratic compositions.

Three routes are provided.  The chain criterion: f_1 o ... o f_t is
irreducible iff b_1 and every (f_1 o ... o f_{i-1})(-b_i) is a nonsquare.
The automaton route: lazy or materialized runs of the machinery in
`automaton`.  The decomposition route: peel outer monic quadratics off a
polynomial by completing the square, then test the recovered chain.  The
chain criterion works on raw field values, reducing each step once; a word
over an alphabet that keeps its step table (Alphabet.steps) steps by
lookups in it instead.  The decomposition works on element indices: ints
mod p over F_p, and lookups in the field's index tables over an extension
field small enough to have them; a larger one peels raw values.
FieldElement and Poly objects are built only for what is returned.

Levels: iter_levels and enumerate_level give the accepted words of a
given length as one (words, n) matrix of letter indices in lexicographic
order.  The words are the length-n paths of M, so level n+1 is built from
level n by appending one letter per word (the accepted language is prefix
closed); see automaton.extend_frontier.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .automaton import build_interim, extend_frontier, start_level
from .errors import (
    DegreeTooSmall,
    EmptyWord,
    FreedomNotCertified,
    InvalidDegree,
    NotDecomposable,
    NotIrreducible,
    OddDegree,
)
from .finite_field import FieldElement, FiniteField
from .monoid import Alphabet, LetterSteps, MonicQuad, compose_chain, freedom_certificate
from .polynomial import _SCHOOL_MAX, Poly, _mul_raw

IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"
NOT_DECOMPOSABLE = "not-decomposable"


@dataclass(frozen=True)
class ChainReport:
    """Chain values with per-value nonsquare verdicts.

    first_failure is the 1-based index of the first square value, or None
    when every value is a nonsquare; on failure the values stop at the
    failing index.
    """

    values: Tuple[FieldElement, ...]
    verdicts: Tuple[bool, ...]
    first_failure: Optional[int]

    @property
    def irreducible(self) -> bool:
        return self.first_failure is None

    @property
    def status(self) -> str:
        return IRREDUCIBLE if self.first_failure is None else REDUCIBLE

    @property
    def witness(self) -> Optional[int]:
        return self.first_failure


def chain_value(prefix: Sequence[MonicQuad], letter: MonicQuad) -> FieldElement:
    """The chain value for `letter` following the outer letters `prefix`.

    With an empty prefix the letter is outermost and the value is b_letter
    itself; otherwise it is (prefix_1 o ... o prefix_i)(-b_letter),
    computed by pointwise application from the innermost prefix letter
    outward.
    """
    field = letter.field
    if not prefix:
        return letter.b
    pairs = _letter_pairs(field, reversed(prefix))
    return FieldElement(field, field.rchain(field.rneg(letter.b.val), pairs))


def _raw_chain(field: FiniteField, pairs: Iterable[tuple]) -> Tuple[list, Optional[int]]:
    """Chain values of letters given as raw (a, b) pairs, outermost first.

    The first value is b_1; value i is -b_i sent through the outer letters
    from the innermost outward by the field's rchain.  Returns the raw
    values up to and including the first square one, and that value's
    1-based index, or None when every value is a nonsquare.  Pairs are
    drawn one at a time, so a lazy iterable is read no further than the
    first square value.
    """
    prefix: List[tuple] = []
    values = []
    for a, b in pairs:
        value = field.rchain(field.rneg(b), reversed(prefix)) if prefix else b
        values.append(value)
        if not field.is_nonsquare_raw(value):
            return values, len(values)
        prefix.append((a, b))
    return values, None


def _table_chain(steps: LetterSteps, word: Sequence[int]) -> Tuple[list, Optional[int]]:
    """_raw_chain of a word over an alphabet, by its LetterSteps: the same
    values and index, each chain step one lookup in a letter's row of
    element indices."""
    rows, nonsquare = steps.rows, steps.nonsquare
    values = []
    inner = []  # the rows of the letters read so far, innermost first
    for j in word:
        if inner:
            v = steps.neg_b[j]
            for row in inner:
                v = row[v]
        else:
            v = steps.b[j]
        values.append(steps.raws[v])
        if not nonsquare[v]:
            return values, len(values)
        inner.insert(0, rows[j])
    return values, None


def _letter_pairs(field: FiniteField, letters: Iterable[MonicQuad]) -> Iterator[tuple]:
    for quad in letters:
        if quad.field != field:
            raise ValueError("mixed field contexts")
        yield quad.a.val, quad.b.val


def _chain_report(field: FiniteField, values: list, first_failure: Optional[int]) -> ChainReport:
    """The report of raw chain values and the first failing index."""
    verdicts = (True,) * (len(values) - 1) + (first_failure is None,)
    return ChainReport(
        tuple([FieldElement(field, v) for v in values]), verdicts, first_failure
    )


def letter_chain(letters: Sequence[MonicQuad]) -> ChainReport:
    """Chain report for an explicit letter sequence (outermost first)."""
    if not letters:
        raise EmptyWord("the chain criterion needs at least one letter")
    field = letters[0].field
    return _chain_report(field, *_raw_chain(field, _letter_pairs(field, letters)))


def chain_irreducible(word: Sequence[int], alphabet: Alphabet) -> ChainReport:
    """Chain criterion for a word over an alphabet (outermost letter first).

    Steps are lookups in `alphabet.steps` where the alphabet keeps it, and
    `FiniteField.rchain` on the letters' pairs elsewhere.  Either way a word
    that fails early takes no further steps.
    """
    word = alphabet.check_word(word)
    if not word:
        raise EmptyWord("the chain criterion needs a nonempty word")
    field, steps = alphabet.field, alphabet.steps
    if steps is None:
        return _chain_report(field, *_raw_chain(field, map(alphabet.pairs.__getitem__, word)))
    return _chain_report(field, *_table_chain(steps, word))


def _warn_unless_free(alphabet: Alphabet, assume_free: bool) -> None:
    if assume_free or freedom_certificate(alphabet):
        return
    warnings.warn(
        FreedomNotCertified(
            "alphabet freedom is not certified; distinct words may compose "
            "to the same polynomial"
        )
    )


def iter_levels(
    alphabet: Alphabet,
    max_level: Optional[int] = None,
    assume_free: bool = False,
    max_words: Optional[int] = None,
) -> Iterator[tuple]:
    """Yield (n, words) for n = 1, 2, ..., words a read-only (W, n) matrix of
    letter indices; stops after max_level or when a level comes up empty.
    A level of more than max_words words raises BudgetExceeded before it is
    built (see automaton.extend_frontier)."""
    alphabet.require_nonempty()
    _warn_unless_free(alphabet, assume_free)
    n_aut = build_interim(alphabet)
    level = start_level(n_aut)
    while max_level is None or level[0].shape[1] < max_level:
        level = extend_frontier(n_aut, level, max_words)
        words = level[0]
        yield words.shape[1], words
        if not len(words):
            return


def enumerate_level(alphabet: Alphabet, n: int, assume_free: bool = False):
    """All accepted words of length exactly n, in lexicographic order, as
    one read-only (W, n) matrix of letter indices."""
    if n < 1:
        raise ValueError("level must be >= 1")
    for _, words in iter_levels(alphabet, n, assume_free):
        pass
    # a language that dies before level n ends on an empty, shorter level
    return words.reshape(-1, n)


def enumerate_irreducible_degree(field: FiniteField, n: int) -> Iterator[Poly]:
    """All monic irreducible degree-2^n compositions of monic quadratics.

    Every such polynomial is pi(w)(x - s) for a unique accepted word w
    over the maximal alphabet {x^2 - b} and shift s.  Shifts run in field
    element order (outer loop), words in lexicographic order.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    alphabet = Alphabet.maximal(field)
    words = enumerate_level(alphabet, n).tolist()
    for _, _, poly in _shifted_compositions(alphabet, words):
        yield poly


def _shifted_compositions(
    alphabet: Alphabet, words: Sequence[Sequence[int]]
) -> Iterator[Tuple[FieldElement, Sequence[int], Poly]]:
    """(shift, word, pi(word)(x - shift)) with shifts in field element
    order (outer loop) and words in the given order."""
    field = alphabet.field
    chains = [[alphabet[j] for j in word] for word in words]
    for shift in field.elements():
        inner = Poly.x(field) - shift
        for word, letters in zip(words, chains):
            yield shift, word, compose_chain(letters, inner)


@dataclass(frozen=True)
class CanonicalChain:
    """The unique writing F = (x^2-a_1) o ... o (x^2-a_n) o (x - shift)."""

    bs: Tuple[FieldElement, ...]
    shift: FieldElement

    def recompose(self) -> Poly:
        field = self.shift.field
        letters = [MonicQuad(field.zero, b) for b in self.bs]
        return compose_chain(letters, Poly.x(field) - self.shift)

    def word(self) -> Tuple[int, ...]:
        """Letter indices over the maximal alphabet (letter j is x^2 - e_j)."""
        return tuple(a.index() for a in self.bs)


def _convolve_at(add: list, mul: list, h: list, lo: int, hi: int) -> int:
    """The index of the sum of h[u] h[lo + hi - u] over lo <= u <= hi, for
    element indices h and the index tables add and mul; 0 when lo > hi."""
    acc = 0
    while lo < hi:
        acc = add[acc][mul[h[lo]][h[hi]]]
        lo += 1
        hi -= 1
    acc = add[acc][acc]
    if lo == hi:
        acc = add[acc][mul[h[lo]][h[lo]]]
    return acc


def _peel_indices(field: FiniteField, fv: list, half: int) -> Tuple[int, list]:
    """_peel_raw on the element indices fv, by the field's index tables;
    `half` is the index of 1/2."""
    tables = field.index_tables()
    add, mul_, neg, raws = tables.add, tables.mul, tables.neg, tables.raws
    halve = mul_[half]
    d = (len(fv) - 1) // 2
    h = [0] * d + [1]
    for j in range(1, d + 1):
        h[d - j] = halve[add[fv[2 * d - j]][neg[_convolve_at(add, mul_, h, d - j + 1, d - 1)]]]
    top = h[:d]
    if d > _SCHOOL_MAX:
        square = [raws[c] for c in top]
        if _mul_raw(square, square, field)[1:d] != [raws[c] for c in fv[1:d]]:
            raise NotDecomposable("no monic quadratic splits off")
    else:
        for i in range(1, d):
            if _convolve_at(add, mul_, top, 0, i) != fv[i]:
                raise NotDecomposable("no monic quadratic splits off")
    return add[mul_[top[0]][top[0]]][neg[fv[0]]], h


def _peel_ints(field: FiniteField, fv: list, half: int) -> Tuple[int, list]:
    """_peel_raw over F_p, on ints mod p."""
    p = field.p
    d = (len(fv) - 1) // 2
    h = [0] * d + [1]
    for j in range(1, d + 1):
        seg = h[d - j + 1 : d]
        h[d - j] = (fv[2 * d - j] - sum(map(mul, seg, reversed(seg)))) * half % p
    top = h[:d]
    if d > _SCHOOL_MAX:
        if _mul_raw(top, top, field)[1:d] != fv[1:d]:
            raise NotDecomposable("no monic quadratic splits off")
    else:
        for i in range(1, d):
            seg = top[: i + 1]
            if sum(map(mul, seg, reversed(seg))) % p != fv[i]:
                raise NotDecomposable("no monic quadratic splits off")
    return (top[0] * top[0] - fv[0]) % p, h


def _peel_raw(field: FiniteField, fv: list, half) -> Tuple[object, list]:
    """(a, h) with fv = (x^2 - a) o H, for the raw coefficients fv (low
    degree first) of a monic polynomial of degree 2d >= 2; h holds the raw
    coefficients of the monic degree-d H.  `half` is the raw inverse of 2.

    Completing the square: in F = H^2 - a the coefficient of x^(2d-j) is
    2 h[d-j] plus a dot product of the h[u] above it, so degrees 2d-1 .. d
    give h[d-1] .. h[0] in turn.  Degrees 1 .. d-1 of F must then equal
    those of H^2, which are those of h[:d]^2 as H = h[:d] + x^d.

    Only extension fields without index tables peel raw values; _peel_ints
    and _peel_indices peel ints and element indices the same way.  Up to
    d = _SCHOOL_MAX they sum degrees 1 .. d-1 of the square alone, which
    beats _mul_raw there; past it they square by _mul_raw too.
    """
    d = (len(fv) - 1) // 2
    h = [field.zero_raw] * (d + 1)
    h[d] = field.one_raw
    rdot, rsub, rmul = field.rdot, field.rsub, field.rmul
    for j in range(1, d + 1):
        seg = h[d - j + 1 : d]
        h[d - j] = rmul(rsub(fv[2 * d - j], rdot(seg, seg[::-1])), half)
    top = h[:d]
    low = _mul_raw(top, top, field)
    if low[1:d] != fv[1:d]:
        raise NotDecomposable("no monic quadratic splits off")
    return field.rsub(low[0], fv[0]), h


def _peel_setup(F: Poly) -> tuple:
    """(peel, fv, half, tables): the peel for F's field, F's coefficients
    and the inverse of 2 as it reads them, and the field's index tables or
    None.  Extension fields with index tables peel element indices; the
    rest peel raw values: ints over F_p, which are their own indices, and
    coordinate tuples past the tables."""
    field = F.field
    half = (field.p + 1) // 2  # 1/2 is this F_p constant, whose index is itself
    tables = field.index_tables()
    if tables is not None:
        return _peel_indices, list(map(tables.index.__getitem__, F.vals)), half, tables
    if field.k == 1:
        return _peel_ints, list(F.vals), half, None
    return _peel_raw, list(F.vals), field.raw_from_index(half), None


def decompose_quadratic_outer(F: Poly) -> Tuple[FieldElement, Poly]:
    """Write monic F of degree 2d as (x^2 - a) o H with H monic of degree d."""
    deg = F.degree
    if deg < 2:
        raise DegreeTooSmall("degree must be at least 2")
    if deg % 2:
        raise OddDegree("degree must be even")
    if not F.is_monic:
        raise ValueError("polynomial must be monic")
    field = F.field
    peel, fv, half, tables = _peel_setup(F)
    a, h = peel(field, fv, half)
    if tables is not None:
        a, h = tables.raws[a], [tables.raws[c] for c in h]
    return FieldElement(field, a), Poly(field, h, raw=True)


def _decompose(F: Poly) -> Tuple[list, object, object]:
    """(bs, shift, tables): the b_1, ..., b_n and the shift of F's canonical
    chain, as element indices when the field has index tables (`tables`)
    and as raw values when it has none (None)."""
    deg = F.degree
    if deg < 2 or deg & (deg - 1):
        raise InvalidDegree("degree must be a power of 2, at least 2")
    if not F.is_monic:
        raise ValueError("polynomial must be monic")
    field = F.field
    peel, fv, half, tables = _peel_setup(F)
    bs = []
    while len(fv) > 2:
        a, fv = peel(field, fv, half)
        bs.append(a)
    return bs, field.rneg(fv[0]) if tables is None else tables.neg[fv[0]], tables


def _canonical_chain(field: FiniteField, bs: list, shift, tables) -> CanonicalChain:
    """The chain of _decompose's output."""
    if tables is not None:
        bs, shift = [tables.raws[b] for b in bs], tables.raws[shift]
    return CanonicalChain(
        tuple(FieldElement(field, b) for b in bs), FieldElement(field, shift)
    )


def full_decompose(F: Poly) -> CanonicalChain:
    """Peel outer monic quadratics off F down to a linear polynomial."""
    return _canonical_chain(F.field, *_decompose(F))


def _first_square(field: FiniteField, bs: list, tables) -> Optional[int]:
    """The chain criterion's first failing index for the letters x^2 - b,
    b in _decompose's bs (outermost first), or None when the chain is
    irreducible.  Value i sends -b_i through the letters before it,
    innermost first; its first step squares -b_i, so the walk steps
    v <- v^2 - b from v = b_i."""
    if tables is not None:
        add, mul_, neg, nonsquare = tables.add, tables.mul, tables.neg, tables.nonsquare
        for i, v in enumerate(bs):
            for b in reversed(bs[:i]):
                v = add[mul_[v][v]][neg[b]]
            if not nonsquare[v]:
                return i + 1
        return None
    if field.k > 1:
        zero = field.zero_raw
        return _raw_chain(field, [(zero, b) for b in bs])[1]
    p, nonsquare = field.p, field.is_nonsquare_raw
    for i, v in enumerate(bs):
        for b in reversed(bs[:i]):
            v = (v * v - b) % p
        if not nonsquare(v):
            return i + 1
    return None


@dataclass(frozen=True)
class DecompositionVerdict:
    """Outcome of the decomposition-based irreducibility test."""

    status: str
    witness: Optional[int] = None
    chain: Optional[CanonicalChain] = None

    @property
    def irreducible(self) -> bool:
        return self.status == IRREDUCIBLE


def test_decomposable(F: Poly) -> DecompositionVerdict:
    """Decompose F and run the chain criterion on the recovered word.

    The shift is discarded: irreducibility is invariant under x -> x + c.
    Returns one of irreducible / reducible (with the failing chain index)
    / not-decomposable.
    """
    field = F.field
    try:
        bs, shift, tables = _decompose(F)
    except NotDecomposable:
        return DecompositionVerdict(NOT_DECOMPOSABLE)
    first_failure = _first_square(field, bs, tables)
    status = IRREDUCIBLE if first_failure is None else REDUCIBLE
    return DecompositionVerdict(status, first_failure,
                                _canonical_chain(field, bs, shift, tables))


def canonicalize(F: Poly) -> Tuple[FieldElement, Tuple[int, ...]]:
    """The unique (shift, word over the maximal alphabet) with
    F = pi(word)(x - shift); F must be an irreducible composition."""
    field = F.field
    bs, shift, tables = _decompose(F)
    first_failure = _first_square(field, bs, tables)
    if first_failure is not None:
        raise NotIrreducible("chain value %d is a square" % first_failure)
    if tables is not None:
        shift = tables.raws[shift]
    elif field.k > 1:
        bs = map(field.index_of_raw, bs)
    return FieldElement(field, shift), tuple(bs)
