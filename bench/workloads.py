"""The three workloads: inputs built from a seed, one pass of each fixed job,
and a check of every answer.

Each pass times nothing itself except the decomposition queries; the caller
times the pass.  Calls into the package go through `call`, which opens a span
named `<layer>.<function>` when tracing is on and turns an exception or a
refusal into failed operations of that layer.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Sequence, Tuple

from quadcomp import (
    IRREDUCIBLE,
    REDUCIBLE,
    Alphabet,
    FieldElement,
    FiniteField,
    MonicQuad,
    PadicInt,
    PadicQuad,
    Poly,
    accepts,
    build_interim,
    canonicalize,
    chain_irreducible,
    compose_levels,
    count_accepted,
    enumerate_irreducible_degree,
    iter_levels,
    lazy_accepts,
    letter_chain,
    local_irreducible,
    minimize,
    pi,
    rabin_irreducible_2power,
    rabin_is_irreducible,
    reverse_subset_prune,
    test_decomposable,
)
from quadcomp._batch import from_polys

from measure import Tally, check_batch_size

# Language-level answers, pinned from the seed commit.  They do not depend on
# the seed or on how the automata number their states.
GOLDEN = {
    # words checked by crosscheck: 20 seeded alphabets of fixed sizes plus the
    # maximal alphabet per field
    "crosscheck_words": 33935,
    # irreducible words of length 1..5 over the maximal alphabet (1..4 for F_9)
    "crosscheck_maximal": {
        3: [1, 2, 4, 10, 28],
        5: [2, 6, 18, 62, 250],
        7: [3, 12, 48, 204, 1008],
        9: [4, 20, 100, 564],
    },
    "enumerate_polys": 6564,
    "enumerate_frontier": [1, 2, 4, 10, 28, 82, 244, 730, 2188],
    # sha256 of the sorted coefficient bytes of all 6,564 polynomials
    "enumerate_set_sha256": "ab99040187ccb5449a91e5befc82f9b03e3ce7e2ec0c0828f2c761b8a35f1554",
    "count_n20": {
        19: 261564705596083368369762,
        23: 9628002332587076792023780,
        25: 48435019182262498726740924,
        27: 118384110744872971252019038,
        29: 506169192412813742653260266,
    },
}

# The batched kernel keeps exact integers in float64 only while
# d * ((p - 1) / 2)^2 stays below 2^52.  Wrong verdicts beyond that bound are
# a known defect: they count as failures but do not make the run incorrect.
EXACT_LIMIT = 1 << 52

EDGE_PRIMES = (1_000_003, 33_554_393)
EDGE_LEVEL = 6
EDGE_PER_VERDICT = 20


def seeded(seed: int, *labels) -> random.Random:
    return random.Random("/".join(str(x) for x in (seed,) + labels))


def call(tr, tally: Tally, name: str, ops: int, fn, *args, tag: str = "", known=False):
    """fn(*args) inside a span; a raised exception fails `ops` operations of
    the span's layer and returns None."""
    layer = name.split(".", 1)[0]
    with tr.span(name, tag, ops):
        return tally.guard(layer, ops, name, fn, *args, known=known)


def batched(field: FiniteField, arr) -> list:
    rows, width = arr.shape
    check_batch_size(rows, width - 1)
    return rabin_irreducible_2power(field, arr).tolist()


def beyond_exact(p: int, d: int) -> bool:
    return d * ((p - 1) // 2) ** 2 >= EXACT_LIMIT


def field_tag(field: FiniteField) -> str:
    return "fp" if field.k == 1 else "fpk"


def random_alphabet(field: FiniteField, rng: random.Random, size: int) -> Alphabet:
    letters, seen = [], set()
    while len(letters) < size:
        a, b = rng.randrange(field.q), rng.randrange(field.q)
        if (a, b) not in seen:
            seen.add((a, b))
            letters.append(MonicQuad(FieldElement(field, field.raw_from_index(a)),
                                     FieldElement(field, field.raw_from_index(b))))
    return Alphabet(field, letters)


def compose_at(field: FiniteField, word: Sequence[int], shift) -> Poly:
    """pi(word)(x - shift) over the maximal alphabet, squared inside out."""
    poly = Poly(field, (field.rneg(shift), field.one_raw), raw=True)
    for j in reversed(word):
        poly = poly * poly - FieldElement(field, field.raw_from_index(j))
    return poly


def random_word_with(alphabet: Alphabet, rng: random.Random, length: int,
                     irreducible: bool) -> tuple:
    n = len(alphabet)
    while True:
        word = tuple(rng.randrange(n) for _ in range(length))
        if chain_irreducible(word, alphabet).irreducible == irreducible:
            return word


def timed_canonicalize(tr, tally, poly, samples: List[float]):
    """[(shift, word)] of canonicalize(poly), timed into samples; None if the
    call failed."""
    t0 = time.perf_counter()
    got = call(tr, tally, "irreducibility.canonicalize", 1,
               lambda: [(s.val, w) for s, w in [canonicalize(poly)]])
    samples.append(time.perf_counter() - t0)
    return got


# -- crosscheck ---------------------------------------------------------------

CROSS_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2))
CROSS_LEVELS = 5
CROSS_ALPHABET_SIZES = (1,) * 10 + (2,) * 10


@dataclass
class Group:
    field: FiniteField
    alphabet: Alphabet
    levels: int
    words: Dict[int, List[tuple]]
    maximal: bool


@dataclass
class CrosscheckInputs:
    groups: List[Group]
    scalar: List[Tuple[Alphabet, tuple, bool]]
    decompose: List[Tuple[Alphabet, tuple, bool]]
    padic: List[Tuple[List[MonicQuad], List[PadicQuad]]]
    edge: List[Tuple[FiniteField, List[Alphabet], List[bool]]]

    def describe(self) -> list:
        return [
            [(g.field.q, [(l.a.val, l.b.val) for l in g.alphabet], g.levels) for g in self.groups],
            [(a.field.q, w, v) for a, w, v in self.scalar],
            [(a.field.q, w, v) for a, w, v in self.decompose],
            [[(q.a.val, q.b.val, q.a.p) for q in chain] for _, chain in self.padic],
            [(f.p, [[(l.a.val, l.b.val) for l in a] for a in alphs], v)
             for f, alphs, v in self.edge],
        ]


def setup_crosscheck(seed: int) -> CrosscheckInputs:
    word_lists: Dict[Tuple[int, int], List[tuple]] = {}

    def words(n_letters, t):
        key = (n_letters, t)
        if key not in word_lists:
            word_lists[key] = list(product(range(n_letters), repeat=t))
        return word_lists[key]

    groups: List[Group] = []
    scalar, decompose = [], []
    for p, k in CROSS_FIELDS:
        field = FiniteField(p, k)
        rng = seeded(seed, "crosscheck", "alphabets", field.q)
        alphabets = [random_alphabet(field, rng, size) for size in CROSS_ALPHABET_SIZES]
        mine = [Group(field, a, CROSS_LEVELS, {}, False) for a in alphabets]
        maximal = Alphabet.maximal(field)
        max_levels = 4 if field.q == 9 else CROSS_LEVELS
        mine.append(Group(field, maximal, max_levels, {}, True))
        for g in mine:
            g.words = {t: words(len(g.alphabet), t) for t in range(1, g.levels + 1)}
        groups.extend(mine)

        # Scalar Rabin: two irreducible words at every level and two reducible
        # ones at levels 1-4.  Rabin's test exits early on some reducible
        # inputs, so reducible words at d = 32 would make the pass's cost
        # depend on the seed.
        rng = seeded(seed, "crosscheck", "scalar", field.q)
        for t in range(1, CROSS_LEVELS + 1):
            for want in (True, False):
                if not want and t == CROSS_LEVELS:
                    continue
                found = 0
                while found < 2:
                    g = rng.choice([g for g in mine if g.levels >= t])
                    word = rng.choice(g.words[t])
                    if chain_irreducible(word, g.alphabet).irreducible == want:
                        scalar.append((g.alphabet, word, want))
                        found += 1
        # Decomposition: 125 maximal-alphabet words, levels and verdicts
        # alternating.
        rng = seeded(seed, "crosscheck", "decompose", field.q)
        for i in range(125):
            t = 1 + i % max_levels
            want = i % 2 == 0
            decompose.append((maximal, random_word_with(maximal, rng, t, want), want))

    return CrosscheckInputs(groups, scalar, decompose, padic_chains(seed, "crosscheck"),
                            edge_inputs(seed, "crosscheck"))


def padic_chains(seed: int, label: str) -> List[Tuple[List[MonicQuad], List[PadicQuad]]]:
    """100 chains per prime 3, 5, 7: prime-field letters and their lifts to
    p-adic integers.  The outermost letter has unit discriminant, so the
    lifting theorem applies and no chain is refused."""
    out = []
    for p in (3, 5, 7):
        field = FiniteField(p)
        rng = seeded(seed, label, "padic", p)
        for _ in range(100):
            residues = [(rng.randrange(p), rng.randrange(1, p) if i == 0 else rng.randrange(p))
                        for i in range(rng.randint(1, 4))]
            letters = [MonicQuad(field.elem(a), field.elem(b)) for a, b in residues]
            chain = [PadicQuad(PadicInt(p, a + p * rng.randrange(p ** 7)),
                               PadicInt(p, b + p * rng.randrange(p ** 7)))
                     for a, b in residues]
            out.append((letters, chain))
    return out


def edge_inputs(seed: int, label: str) -> List[Tuple[FiniteField, List[Alphabet], List[bool]]]:
    """Per edge prime: EDGE_PER_VERDICT irreducible, then as many reducible
    chains of EDGE_LEVEL letters, with their verdicts."""
    edge = []
    for p in EDGE_PRIMES:
        field = FiniteField(p)
        rng = seeded(seed, label, "edge", p)
        verdicts = [True] * EDGE_PER_VERDICT + [False] * EDGE_PER_VERDICT
        edge.append((field, [edge_chain(field, rng, want) for want in verdicts], verdicts))
    return edge


def edge_chain(field: FiniteField, rng: random.Random, irreducible: bool) -> Alphabet:
    """EDGE_LEVEL distinct letters whose chain is (ir)reducible as asked."""
    while True:
        letters = []
        for _ in range(EDGE_LEVEL):
            while True:
                quad = MonicQuad(field.elem(rng.randrange(field.p)),
                                 field.elem(rng.randrange(field.p)))
                if not irreducible or letter_chain(letters + [quad]).irreducible:
                    break
            letters.append(quad)
        if letter_chain(letters).irreducible == irreducible:
            return Alphabet(field, letters)


def crosscheck_pass(inp: CrosscheckInputs, tr, tally: Tally) -> List[float]:
    decompose_samples: List[float] = []
    words_checked = 0
    maximal_counts: Dict[int, List[int]] = {}
    # The decomposition queries are spread over the group loop, so their
    # percentiles sample the whole pass rather than one short burst of it.
    n_groups = len(inp.groups)
    for gi, g in enumerate(inp.groups):
        with tr.span("bench.crosscheck.decompose"):
            for alph, word, want in inp.decompose[gi::n_groups]:
                _decompose_check(alph, word, want, tr, tally, decompose_samples)
        field, alph = g.field, g.alphabet
        with tr.span("bench.crosscheck.group", str(field.q)):
            n_aut = call(tr, tally, "automaton.build_interim", 1, build_interim, alph)
            dfa = call(tr, tally, "automaton.reverse_subset_prune", 1, reverse_subset_prune, n_aut)
            levels = call(tr, tally, "_batch.compose_levels", 1, compose_levels,
                          field, alph, g.levels)
            for t in range(1, g.levels + 1):
                words = g.words[t]
                words_checked += len(words)
                ref = call(tr, tally, "irreducibility.chain_irreducible", len(words),
                           lambda: [chain_irreducible(w, alph).irreducible for w in words])
                if ref is None:
                    continue
                if g.maximal:
                    maximal_counts.setdefault(field.q, []).append(sum(ref))
                got = call(tr, tally, "_batch.rabin_irreducible_2power", len(words),
                           lambda: batched(field, levels[t]))
                tally.compare("_batch", got, ref, "batched q=%d t=%d" % (field.q, t))
                got = call(tr, tally, "automaton.accepts", len(words),
                           lambda: [accepts(dfa, w) for w in words])
                tally.compare("automaton", got, ref, "accepts q=%d t=%d" % (field.q, t))
                got = call(tr, tally, "automaton.lazy_accepts", len(words),
                           lambda: [lazy_accepts(n_aut, w) for w in words])
                tally.compare("automaton", got, ref, "lazy q=%d t=%d" % (field.q, t))
    tally.compare("irreducibility", [words_checked], [GOLDEN["crosscheck_words"]],
                  "crosscheck word count")
    for q, want in GOLDEN["crosscheck_maximal"].items():
        tally.compare("irreducibility", maximal_counts.get(q, []), want,
                      "maximal irreducible counts q=%d" % q)

    with tr.span("bench.crosscheck.scalar"):
        for alph, word, want in inp.scalar:
            poly = call(tr, tally, "monoid.pi", 1, pi, word, alph)
            got = call(tr, tally, "polynomial.rabin_is_irreducible", 1,
                       lambda: [rabin_is_irreducible(poly)], tag=field_tag(alph.field))
            tally.compare("polynomial", got, [want], "scalar rabin")

    with tr.span("bench.crosscheck.padic"):
        for letters, chain in inp.padic:
            ref = call(tr, tally, "irreducibility.letter_chain", 1, letter_chain, letters)
            got = call(tr, tally, "local_field.local_irreducible", 1,
                       lambda: [(v.status, v.witness) for v in [local_irreducible(chain)]])
            if ref is not None:
                want = (IRREDUCIBLE, None) if ref.irreducible else (REDUCIBLE, ref.first_failure)
                tally.compare("local_field", got, [want], "local")

    with tr.span("bench.crosscheck.edge"):
        edge_slice(inp.edge, tr, tally)
    return decompose_samples


def _decompose_check(alph, word, want, tr, tally: Tally, samples: List[float]) -> None:
    poly = call(tr, tally, "monoid.pi", 1, pi, word, alph)
    got = call(tr, tally, "irreducibility.test_decomposable", 1,
               lambda: [test_decomposable(poly).status], tag=str(2 ** len(word)))
    tally.compare("irreducibility", got, [IRREDUCIBLE if want else REDUCIBLE],
                  "test_decomposable")
    if want:
        got = timed_canonicalize(tr, tally, poly, samples)
        tally.compare("irreducibility", got, [(alph.field.zero_raw, word)], "canonicalize")


def edge_slice(edge, tr, tally: Tally) -> int:
    """Degree-64 compositions at large p through the batched kernel; returns
    the number of wrong verdicts."""
    wrong = 0
    for field, alphs, want in edge:
        known = beyond_exact(field.p, 2 ** EDGE_LEVEL)
        polys = [call(tr, tally, "monoid.pi", 1, pi, tuple(range(EDGE_LEVEL)), a) for a in alphs]
        arr = call(tr, tally, "_batch.from_polys", len(polys), from_polys, field, polys)
        got = call(tr, tally, "_batch.rabin_irreducible_2power", len(polys),
                   lambda: batched(field, arr), known=known)
        wrong += tally.compare("_batch", got, want, "edge p=%d" % field.p, known=known)
    return wrong


# -- enumerate ------------------------------------------------------------------

ENUM_LEVEL = 9
ENUM_CANONICAL = 100
ENUM_BATCH = 8


@dataclass
class EnumerateInputs:
    field: FiniteField
    alphabet: Alphabet
    canonical_idx: List[int]
    batch_idx: List[int]
    rejected: List[tuple]

    def describe(self) -> list:
        return [self.field.q, self.canonical_idx, self.batch_idx, self.rejected]


def setup_enumerate(seed: int) -> EnumerateInputs:
    field = FiniteField(3)
    alphabet = Alphabet.maximal(field)
    rng = seeded(seed, "enumerate")
    total = GOLDEN["enumerate_polys"]
    canonical_idx = rng.sample(range(total), ENUM_CANONICAL)
    batch_idx = rng.sample(range(total), ENUM_BATCH)
    rejected = [random_word_with(alphabet, rng, ENUM_LEVEL, False) for _ in range(ENUM_BATCH)]
    return EnumerateInputs(field, alphabet, canonical_idx, batch_idx, rejected)


def poly_set_digest(polys: Sequence[Poly]) -> str:
    """Digest of a set of polynomials over a prime field below 256, independent
    of the order they were produced in."""
    h = hashlib.sha256()
    for vals in sorted(bytes(p.vals) + b"|" for p in polys):
        h.update(vals)
    return h.hexdigest()


def enumerate_pass(inp: EnumerateInputs, tr, tally: Tally) -> List[float]:
    field, alph = inp.field, inp.alphabet
    samples: List[float] = []
    with tr.span("bench.enumerate.automaton"):
        n_aut = call(tr, tally, "automaton.build_interim", 1, build_interim, alph)
        m_aut = call(tr, tally, "automaton.reverse_subset_prune", 1, reverse_subset_prune, n_aut)
        accepted = call(tr, tally, "automaton.count_accepted", 1, count_accepted, m_aut,
                        ENUM_LEVEL)

    with tr.span("bench.enumerate.frontier"):
        sizes = []
        levels = iter_levels(alph, ENUM_LEVEL)
        for level in range(1, ENUM_LEVEL + 1):
            step = call(tr, tally, "irreducibility.iter_levels", 1,
                        lambda: len(next(levels)[1]), tag=str(level))
            sizes.append(step)
        tally.compare("irreducibility", sizes, GOLDEN["enumerate_frontier"], "frontier sizes")

    with tr.span("bench.enumerate.polys"):
        polys = call(tr, tally, "irreducibility.enumerate_irreducible_degree", 1,
                     lambda: list(enumerate_irreducible_degree(field, ENUM_LEVEL)))
        if polys is None:
            return samples
        want_total = GOLDEN["enumerate_polys"]
        tally.compare("irreducibility", [len(polys), len(polys)],
                      [want_total, field.q * (accepted or 0)], "enumerated count")
        tally.compare("irreducibility", [poly_set_digest(polys)],
                      [GOLDEN["enumerate_set_sha256"]], "enumerated set")
        if len(polys) != want_total:
            return samples

    with tr.span("bench.enumerate.canonicalize"):
        for idx in inp.canonical_idx:
            poly = polys[idx]
            got = timed_canonicalize(tr, tally, poly, samples)
            back = call(tr, tally, "polynomial.compose", 1,
                        lambda: [compose_at(field, word, shift) for shift, word in got])
            tally.compare("irreducibility", back, [poly], "canonical round trip")

    with tr.span("bench.enumerate.batched"):
        rows = [polys[i] for i in inp.batch_idx]
        for word in inp.rejected:
            rows.append(call(tr, tally, "polynomial.compose", 1, compose_at, field, word,
                             field.zero_raw))
        want = [True] * len(inp.batch_idx) + [False] * len(inp.rejected)
        arr = call(tr, tally, "_batch.from_polys", len(rows), from_polys, field, rows)
        got = call(tr, tally, "_batch.rabin_irreducible_2power", len(rows),
                   lambda: batched(field, arr), tag="d512")
        tally.compare("_batch", got, want, "batched d=512")
    return samples


# -- count ------------------------------------------------------------------------

COUNT_FIELDS = ((19, 1), (23, 1), (5, 2), (3, 3), (29, 1))
COUNT_LEVEL = 20
COUNT_WORDS = 100
COUNT_DECOMPOSE = 40


@dataclass
class CountInputs:
    fields: List[Tuple[FiniteField, Alphabet]]
    random_words: Dict[int, List[tuple]]
    seed: int

    def describe(self) -> list:
        return [[f.q for f, _ in self.fields], sorted(self.random_words.items()), self.seed]


def setup_count(seed: int) -> CountInputs:
    fields, words = [], {}
    for p, k in COUNT_FIELDS:
        field = FiniteField(p, k)
        fields.append((field, Alphabet.maximal(field)))
        rng = seeded(seed, "count", "words", field.q)
        words[field.q] = [tuple(rng.randrange(field.q) for _ in range(COUNT_LEVEL))
                          for _ in range(COUNT_WORDS)]
    return CountInputs(fields, words, seed)


def random_walks(m_aut, n_letters: int, rng: random.Random, count: int, length: int) -> list:
    """Words read off random walks in the partial DFA (all states accept)."""
    walks = []
    while len(walks) < count:
        state, word = m_aut.start, []
        while len(word) < length:
            options = [j for j in range(n_letters) if (state, j) in m_aut.trans]
            if not options:
                break
            j = rng.choice(options)
            word.append(j)
            state = m_aut.trans[(state, j)]
        if len(word) == length:
            walks.append(tuple(word))
    return walks


def count_pass(inp: CountInputs, tr, tally: Tally) -> List[float]:
    samples: List[float] = []
    for field, alph in inp.fields:
        q = field.q
        tag = str(q)
        with tr.span("bench.count.prune", tag):
            n_aut = call(tr, tally, "automaton.build_interim", 1, build_interim, alph, tag=tag)
            m_aut = call(tr, tally, "automaton.reverse_subset_prune", 1, reverse_subset_prune,
                         n_aut, tag=tag)
        with tr.span("bench.count.minimize", tag):
            m_min = call(tr, tally, "automaton.minimize", 1, minimize, m_aut, tag=tag)
        with tr.span("bench.count.count", tag):
            counts = [call(tr, tally, "automaton.count_accepted", 1, count_accepted, aut,
                           COUNT_LEVEL, tag=tag) for aut in (m_aut, m_min)]
            tally.compare("automaton", counts, [GOLDEN["count_n20"][q]] * 2, "count q=%d" % q)
        with tr.span("bench.count.checks", tag):
            pairs = list(product(range(q), repeat=2))
            brute = call(tr, tally, "irreducibility.chain_irreducible", len(pairs),
                         lambda: [chain_irreducible(w, alph).irreducible for w in pairs])
            two = call(tr, tally, "automaton.count_accepted", 1, count_accepted, m_aut, 2, tag=tag)
            if brute is None:
                continue
            tally.compare("automaton", [two], [sum(brute)], "n=2 brute force q=%d" % q)

            rng = seeded(inp.seed, "count", "walks", q)
            irreducible_pairs = [w for w, ok in zip(pairs, brute) if ok]
            for word in rng.sample(irreducible_pairs, COUNT_DECOMPOSE):
                poly = call(tr, tally, "monoid.pi", 1, pi, word, alph)
                got = timed_canonicalize(tr, tally, poly, samples)
                tally.compare("irreducibility", got, [(field.zero_raw, word)], "canonicalize n=2")

            words = inp.random_words[q] + random_walks(m_aut, q, rng, COUNT_WORDS, COUNT_LEVEL)
            ref = call(tr, tally, "irreducibility.chain_irreducible", len(words),
                       lambda: [chain_irreducible(w, alph).irreducible for w in words])
            if ref is None:
                continue
            got = call(tr, tally, "automaton.accepts", len(words),
                       lambda: [accepts(m_aut, w) for w in words])
            tally.compare("automaton", got, ref, "accepts q=%d" % q)
            got = call(tr, tally, "automaton.lazy_accepts", len(words),
                       lambda: [lazy_accepts(n_aut, w) for w in words])
            tally.compare("automaton", got, ref, "lazy q=%d" % q)
        del n_aut, m_aut, m_min
    return samples


WORKLOADS = {
    "crosscheck": (setup_crosscheck, crosscheck_pass),
    "enumerate": (setup_enumerate, enumerate_pass),
    "count": (setup_count, count_pass),
}
