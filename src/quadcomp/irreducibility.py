"""Irreducibility of quadratic compositions.

Three routes are provided.  The chain criterion: f_1 o ... o f_t is
irreducible iff b_1 and every (f_1 o ... o f_{i-1})(-b_i) is a nonsquare.
The automaton route: lazy or materialized runs of the machinery in
`automaton`.  The decomposition route: peel outer monic quadratics off a
polynomial, then test the recovered chain.

Levels: enumerate_level lists the accepted words of a given length
together with an opaque resume state, so level n+1 is built from level n
by appending one letter per word (the accepted language is prefix
closed).
"""

from __future__ import annotations

import gc
import warnings
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .automaton import InterimAutomaton, build_interim
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
from .monoid import Alphabet, MonicQuad, compose_chain, freedom_certificate
from .polynomial import Poly

IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"
NOT_DECOMPOSABLE = "not-decomposable"

Frontier = List[Tuple[Tuple[int, ...], int]]


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
    if not prefix:
        return letter.b
    acc = -letter.b
    for quad in reversed(prefix):
        acc = quad(acc)
    return acc


def letter_chain(letters: Sequence[MonicQuad]) -> ChainReport:
    """Chain report for an explicit letter sequence (outermost first)."""
    if not letters:
        raise EmptyWord("the chain criterion needs at least one letter")
    values = []
    verdicts = []
    first_failure = None
    for i in range(len(letters)):
        value = chain_value(letters[:i], letters[i])
        ok = value.is_nonsquare()
        values.append(value)
        verdicts.append(ok)
        if not ok:
            first_failure = i + 1
            break
    return ChainReport(tuple(values), tuple(verdicts), first_failure)


def chain_irreducible(word: Sequence[int], alphabet: Alphabet) -> ChainReport:
    """Chain criterion for a word over an alphabet (outermost letter first)."""
    word = alphabet.check_word(word)
    if not word:
        raise EmptyWord("the chain criterion needs a nonempty word")
    return letter_chain([alphabet[j] for j in word])


def extend_frontier(n_aut: InterimAutomaton, frontier: Frontier) -> Frontier:
    """Append every viable letter to every (word, resume-state) pair."""
    n_letters = len(n_aut.alphabet)
    out = []
    # The new pairs are tuples of ints and cannot form cycles.  Left on, the
    # cycle collector runs after every few hundred of them and now and then
    # rescans every live object, so a level's cost grew faster than its size.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for word, mask in frontier:
            for j in range(n_letters):
                nxt = n_aut.preimage_mask(mask, j)
                if nxt & 1:
                    out.append((word + (j,), nxt))
    finally:
        if enabled:
            gc.enable()
    return out


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
    alphabet: Alphabet, max_level: Optional[int] = None, assume_free: bool = False
) -> Iterator[Tuple[int, Frontier]]:
    """Yield (n, frontier) for n = 1, 2, ...; stops after max_level or when
    a level comes up empty."""
    alphabet.require_nonempty()
    _warn_unless_free(alphabet, assume_free)
    n_aut = build_interim(alphabet)
    frontier: Frontier = [((), n_aut.accepting_mask)]
    level = 0
    while max_level is None or level < max_level:
        frontier = extend_frontier(n_aut, frontier)
        level += 1
        yield level, frontier
        if not frontier:
            return


def enumerate_level(alphabet: Alphabet, n: int, assume_free: bool = False) -> Frontier:
    """All accepted words of length exactly n, in lexicographic order,
    paired with their resume states."""
    if n < 1:
        raise ValueError("level must be >= 1")
    result: Frontier = []
    for level, frontier in iter_levels(alphabet, n, assume_free):
        if level == n:
            result = frontier
    return result


def enumerate_irreducible_degree(field: FiniteField, n: int) -> Iterator[Poly]:
    """All monic irreducible degree-2^n compositions of monic quadratics.

    Every such polynomial is pi(w)(x - s) for a unique accepted word w
    over the maximal alphabet {x^2 - b} and shift s.  Shifts run in field
    element order (outer loop), words in lexicographic order.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    alphabet = Alphabet.maximal(field)
    words = [word for word, _ in enumerate_level(alphabet, n)]
    for _, _, poly in _shifted_compositions(alphabet, words):
        yield poly


def _shifted_compositions(
    alphabet: Alphabet, words: Sequence[Tuple[int, ...]]
) -> Iterator[Tuple[FieldElement, Tuple[int, ...], Poly]]:
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


def decompose_quadratic_outer(F: Poly) -> Tuple[FieldElement, Poly]:
    """Write monic F of degree 2d as (x^2 - a) o H with H monic of degree d.

    The inner part is found by matching coefficients from the top: first
    the unique monic Ht of degree d with Ht(0) = 0 and deg(F - Ht^2) <= d,
    then F = Ht^2 + e1*Ht + e0 must hold exactly, and completing the
    square turns (x^2 + e1*x + e0, Ht) into the normalized pair (a, H).
    """
    deg = F.degree
    if deg < 2:
        raise DegreeTooSmall("degree must be at least 2")
    if deg % 2:
        raise OddDegree("degree must be even")
    if not F.is_monic:
        raise ValueError("polynomial must be monic")
    field = F.field
    d = deg // 2
    inv2 = field.rinv(field.radd(field.one_raw, field.one_raw))
    fv = list(F.vals)
    h = [field.zero_raw] * (d + 1)
    h[d] = field.one_raw
    for j in range(1, d):
        s = fv[2 * d - j]
        for u in range(d - j + 1, d):
            s = field.rsub(s, field.rmul(h[u], h[2 * d - j - u]))
        h[d - j] = field.rmul(s, inv2)
    ht = Poly(field, h, raw=True)
    rest = F - ht * ht
    e1 = rest.coeff(d)
    linear = rest - e1 * ht
    if linear.degree > 0:
        raise NotDecomposable("no monic quadratic splits off")
    e0 = linear.coeff(0)
    c = e1 * FieldElement(field, inv2)
    a = c * c - e0
    return a, ht + c


def full_decompose(F: Poly) -> CanonicalChain:
    """Peel outer monic quadratics off F down to a linear polynomial."""
    deg = F.degree
    if deg < 2 or deg & (deg - 1):
        raise InvalidDegree("degree must be a power of 2, at least 2")
    if not F.is_monic:
        raise ValueError("polynomial must be monic")
    bs = []
    current = F
    while current.degree > 1:
        a, current = decompose_quadratic_outer(current)
        bs.append(a)
    shift = -current.coeff(0)
    return CanonicalChain(tuple(bs), shift)


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
        chain = full_decompose(F)
    except NotDecomposable:
        return DecompositionVerdict(NOT_DECOMPOSABLE)
    report = letter_chain([MonicQuad(field.zero, a) for a in chain.bs])
    return DecompositionVerdict(report.status, report.witness, chain)


def canonicalize(F: Poly) -> Tuple[FieldElement, Tuple[int, ...]]:
    """The unique (shift, word over the maximal alphabet) with
    F = pi(word)(x - shift); F must be an irreducible composition."""
    field = F.field
    chain = full_decompose(F)
    report = letter_chain([MonicQuad(field.zero, a) for a in chain.bs])
    if not report.irreducible:
        raise NotIrreducible(
            "chain value %d is a square" % report.first_failure
        )
    return chain.shift, chain.word()
