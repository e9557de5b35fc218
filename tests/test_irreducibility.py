import hashlib
import random
import re
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from quadcomp import (
    Alphabet,
    BudgetExceeded,
    CanonicalChain,
    ChainReport,
    EmptyWord,
    FieldElement,
    FiniteField,
    FreedomNotCertified,
    InvalidDegree,
    MonicQuad,
    NotDecomposable,
    NotIrreducible,
    OddDegree,
    DegreeTooSmall,
    Poly,
    IRREDUCIBLE,
    NOT_DECOMPOSABLE,
    REDUCIBLE,
    build_interim,
    canonicalize,
    chain_irreducible,
    chain_value,
    decompose_quadratic_outer,
    enumerate_irreducible_degree,
    enumerate_level,
    extend_frontier,
    full_decompose,
    iter_levels,
    letter_chain,
    pi,
    rabin_is_irreducible,
    reverse_subset_prune,
    start_level,
)
from quadcomp import automaton, monoid
from quadcomp import test_decomposable as decomposable_verdict

F3 = FiniteField(3)
F5 = FiniteField(5)
F7 = FiniteField(7)
F9 = FiniteField(3, 2)


def example_alphabet():
    return Alphabet(F5, [MonicQuad(F5.elem(0), F5.elem(2)),
                         MonicQuad(F5.elem(1), F5.elem(3))])


def test_chain_frozen_examples():
    alph = example_alphabet()
    r = chain_irreducible(alph.parse_word("fg"), alph)
    assert [v.val for v in r.values] == [2, 2]
    assert r.irreducible and r.first_failure is None
    r = chain_irreducible(alph.parse_word("gf"), alph)
    assert [v.val for v in r.values] == [3, 1]
    assert not r.irreducible and r.first_failure == 2
    assert r.verdicts == (True, False)
    r = chain_irreducible(alph.parse_word("ggf"), alph)
    assert [v.val for v in r.values] == [3, 3, 2]
    assert r.irreducible
    r = chain_irreducible(alph.parse_word("ggg"), alph)
    assert r.first_failure == 3 and r.values[-1].val == 1
    r = chain_irreducible(alph.parse_word("fgf"), alph)
    assert r.first_failure == 3 and r.values[-1].val == 4
    r = chain_irreducible(alph.parse_word("ggff"), alph)
    assert r.first_failure == 4


def test_chain_values_stop_at_first_failure():
    alph = example_alphabet()
    r = chain_irreducible(alph.parse_word("gfgg"), alph)
    assert r.first_failure == 2
    assert len(r.values) == 2 and len(r.verdicts) == 2


def test_single_letter_value_is_b():
    # the outermost value is b itself: x^2 - b irreducible iff b nonsquare
    mx = Alphabet.maximal(F3)
    r = chain_irreducible(mx.parse_word("h"), mx)
    assert [v.val for v in r.values] == [2]
    assert r.irreducible
    assert not chain_irreducible(mx.parse_word("g"), mx).irreducible
    for field in (F3, F5, F7, F9):
        for b in field.elements():
            assert chain_value((), MonicQuad(field.zero, b)) == b


def test_chain_matches_rabin_exhaustively():
    # the criterion agrees with actual irreducibility of the composition
    for alph in (example_alphabet(), Alphabet.maximal(F3)):
        for t in range(1, 5):
            for word in product(range(len(alph)), repeat=t):
                claim = chain_irreducible(word, alph).irreducible
                assert claim == rabin_is_irreducible(pi(word, alph)), word


def test_chain_rejects_empty():
    alph = example_alphabet()
    with pytest.raises(EmptyWord):
        chain_irreducible((), alph)
    with pytest.raises(EmptyWord):
        letter_chain([])


def test_letter_chain_plain_sequences():
    # works on raw letter lists, no alphabet needed
    letters = [MonicQuad(F5.elem(0), F5.elem(2)), MonicQuad(F5.elem(1), F5.elem(3))]
    assert letter_chain(letters).irreducible
    assert letter_chain(list(reversed(letters))).first_failure == 2


def chain_reference(letters):
    """The chain criterion folded over FieldElements: value i is
    (f_1 o ... o f_{i-1})(-b_i), or b_1 for i = 1, each letter applied
    through MonicQuad.__call__; the values stop at the first square."""
    if not letters:
        raise EmptyWord("the chain criterion needs at least one letter")
    values = []
    for i, letter in enumerate(letters):
        value = letter.b
        if i:
            value = -letter.b
            for quad in reversed(letters[:i]):
                value = quad(value)
        values.append(value)
        if not value.is_nonsquare():
            return ChainReport(tuple(values), (True,) * i + (False,), i + 1)
    return ChainReport(tuple(values), (True,) * len(values), None)


def random_letter(field, rng):
    return MonicQuad(field.elem(field.raw_from_index(rng.randrange(field.q))),
                     field.elem(field.raw_from_index(rng.randrange(field.q))))


def test_letter_chain_matches_the_field_element_fold():
    rng = random.Random(31337)
    for field in (F3, F9, FiniteField(5, 2), FiniteField(3, 3),
                  FiniteField(65537), FiniteField(1_000_003)):
        full = early = 0
        for length in range(1, 21):
            # random words mostly stop early; grown words keep every value
            # a nonsquare as long as some letter allows it
            words = [[random_letter(field, rng) for _ in range(length)] for _ in range(2)]
            grown = []
            while len(grown) < length:
                for _ in range(60):
                    quad = random_letter(field, rng)
                    if chain_reference(grown + [quad]).irreducible:
                        break
                grown.append(quad)
            for letters in words + [grown]:
                want = chain_reference(letters)
                assert letter_chain(letters) == want, (field, letters)
                alph = Alphabet(field, list(dict.fromkeys(letters)))
                word = tuple(map(alph.letters.index, letters))
                assert chain_irreducible(word, alph) == want, (field, word)
                assert [chain_value(letters[:i], letters[i])
                        for i in range(len(want.values))] == list(want.values)
                full += want.irreducible and length == 20
                early += want.first_failure is not None and want.first_failure < length
        assert full and early, field


def test_letter_chain_refusals_match_the_field_element_fold():
    for fn in (letter_chain, chain_reference):
        with pytest.raises(EmptyWord):
            fn([])
        # F_5's b = 2 is a nonsquare, so the second letter is reached
        with pytest.raises(ValueError):
            fn([MonicQuad(F5.elem(0), F5.elem(2)), MonicQuad(F3.zero, F3.elem(2))])
    with pytest.raises(ValueError):
        chain_value([MonicQuad(F5.elem(0), F5.elem(2))], MonicQuad(F3.zero, F3.elem(2)))
    # a first value that is a square ends the chain before the other field
    letters = [MonicQuad(F5.elem(0), F5.elem(1)), MonicQuad(F3.zero, F3.elem(2))]
    assert letter_chain(letters) == chain_reference(letters)
    assert letter_chain(letters).first_failure == 1


def test_enumerate_level_frozen_sets():
    alph = example_alphabet()
    words = [alph.format_word(w) for w in enumerate_level(alph, 3).tolist()]
    assert words == ["fff", "ffg", "fgg", "ggf"]
    mx = Alphabet.maximal(F3)
    words = [mx.format_word(w) for w in enumerate_level(mx, 2).tolist()]
    assert words == ["hg", "hh"]
    # level 1 is exactly the letters with nonsquare b
    for alph2 in (Alphabet.maximal(F5), Alphabet.maximal(F7), Alphabet.maximal(F9)):
        level1 = set(enumerate_level(alph2, 1)[:, 0].tolist())
        expect = {i for i, quad in enumerate(alph2) if quad.b.is_nonsquare()}
        assert level1 == expect


def test_enumerate_level_matches_chain_filter():
    alph = example_alphabet()
    for n in range(1, 6):
        brute = [list(w) for w in product(range(2), repeat=n)
                 if chain_irreducible(w, alph).irreducible]
        assert enumerate_level(alph, n).tolist() == brute


def test_levels_of_a_wide_alphabet_keep_every_letter_index():
    # all 361 letters (x - a)^2 - b over F_19: indices past 255 need 16 bits
    f19 = FiniteField(19)
    wide = Alphabet(f19, [MonicQuad(a, b) for a in f19.elements() for b in f19.elements()])
    words = enumerate_level(wide, 2, assume_free=True)
    brute = [list(w) for w in product(range(361), repeat=2)
             if chain_irreducible(w, wide).irreducible]
    assert words.tolist() == brute
    assert words.max() >= 300


def test_enumerate_level_validates_n():
    with pytest.raises(ValueError):
        enumerate_level(example_alphabet(), 0)


def test_iter_levels_stops_when_language_dies():
    dead = Alphabet(F3, [MonicQuad(F3.elem(0), F3.elem(1))])  # x^2 - 1 reducible
    seen = list(iter_levels(dead, 10))
    assert [(n, words.shape) for n, words in seen] == [(1, (0, 1))]
    assert enumerate_level(dead, 3).shape == (0, 3)


def test_extend_frontier_steps_one_level():
    alph = example_alphabet()
    n_aut = build_interim(alph)
    frontier = start_level(n_aut)
    level1 = extend_frontier(n_aut, frontier)
    assert level1[0].tolist() == [[0], [1]]
    level2 = extend_frontier(n_aut, level1)
    assert level2[0].tolist() == [[0, 0], [0, 1], [1, 1]]
    # an empty level steps to an empty level
    dead = build_interim(Alphabet(F3, [MonicQuad(F3.elem(0), F3.elem(1))]))
    level1 = extend_frontier(dead, start_level(dead))
    assert [a.shape for a in extend_frontier(dead, level1)] == [(0, 2), (0,), (0,)]


def test_extend_frontier_is_the_same_across_chunks(monkeypatch):
    # a chunk of 1 byte gathers one word's preimages at a time, one of
    # 1000 bytes those of 9 words (7 letters, 15 states)
    n_aut = build_interim(Alphabet.maximal(F7))
    levels = [start_level(n_aut)]
    for gather_bytes in (None, 1, 1000):
        if gather_bytes:
            monkeypatch.setattr(automaton, "_GATHER_BYTES", gather_bytes)
        frontier = levels[0]
        for n in range(1, 5):
            frontier = extend_frontier(n_aut, frontier)
            if gather_bytes is None:
                levels.append(frontier)
            else:
                assert all(np.array_equal(a, b) for a, b in zip(frontier, levels[n]))
    assert len(levels[4][0]) > 100


def level_alphabets():
    return [example_alphabet()] + [Alphabet.maximal(f) for f in (F3, F5, F9, FiniteField(5, 2))]


def test_level_rows_are_the_folds_of_their_words():
    # a word's resume row is accepting_mask folded by mask = mask[rows[j]]
    # over its letters; the fold is taken for all of a level's words at once,
    # and each row from level 1 on is a union of classes, held as its key
    for alph in level_alphabets():
        n_aut = build_interim(alph)
        key_of = n_aut.classes.key_of
        folds = {(): n_aut.accepting_mask}
        level = start_level(n_aut)
        for _ in range(5):
            level = extend_frontier(n_aut, level)
            words, ids, keys = level
            words = list(map(tuple, words.tolist()))
            prev = np.array([folds[w[:-1]] for w in words])
            expected = prev[np.arange(len(words))[:, None], n_aut.rows[[w[-1] for w in words]]]
            expected_keys = np.array([key_of(row)[0] for row in expected], dtype=keys.dtype)
            assert expected_keys.all()  # the zero key marks a row that is no union of classes
            assert np.array_equal(keys[ids], expected_keys)
            folds = dict(zip(words, expected))


def test_level_words_share_read_only_rows():
    # a level's resume rows are distinct states of M, so M bounds how many it holds
    for alph in level_alphabets():
        n_aut = build_interim(alph)
        m_states = reverse_subset_prune(n_aut).n_states
        level = start_level(n_aut)
        for _ in range(5):
            level = extend_frontier(n_aut, level)
            words, ids, rows = level
            assert not words.flags.writeable and not rows.flags.writeable
            assert len(rows) <= m_states
            assert len(np.unique(rows, axis=0)) == len(rows) and ids.max() < len(rows)


def test_level_step_holds_no_row_per_word():
    # a word holds its letters and one resume id; the rows are shared
    alph = Alphabet.maximal(F3)
    n_aut = build_interim(alph)
    frontier = start_level(n_aut)
    for _ in range(10):
        frontier = extend_frontier(n_aut, frontier)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        level = extend_frontier(n_aut, frontier)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(level[0]) < 32


def test_iter_levels_refuses_a_level_past_the_byte_budget(monkeypatch):
    alph = Alphabet.maximal(FiniteField(29))
    sizes = [len(frontier) for _, frontier in iter_levels(alph, 4)]
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", 1 << 20)
    seen = []
    with pytest.raises(BudgetExceeded, match=r"level \d+ holds \d+ words, about \d+ of 1 MB") as exc:
        for _, frontier in iter_levels(alph, 4):
            seen.append(len(frontier))
    level, words = map(int, re.search(r"level (\d+) holds (\d+)", str(exc.value)).groups())
    assert seen == sizes[: level - 1] and words == sizes[level - 1]


def test_iter_levels_refuses_past_max_words_before_the_step():
    # level 4 over F_29 holds 48,426 words; the step to it would gather the
    # preimages of level 3's 2,814 rows (4.8 MB) and then build the words
    alph = Alphabet.maximal(FiniteField(29))
    levels = iter_levels(alph, 4, max_words=10_000)
    assert [len(next(levels)[1]) for _ in range(3)] == [14, 210, 3150]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="^level 4 holds 48426 words, budget is 10000$"):
            next(levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10


def test_extend_frontier_counts_its_new_rows_in_the_byte_budget(monkeypatch):
    # over F_101 level 1 holds 50 words of a few bytes each, but the step to
    # it numbers 50 new keys, each held in its numbering's sorted keys and
    # ids; level 2 holds 2,550 words, each with its own key
    n_aut = build_interim(Alphabet.maximal(FiniteField(101)))
    start = start_level(n_aut)
    levels = [start]
    for _ in range(2):
        levels.append(extend_frontier(n_aut, levels[-1]))

    def words_bytes(level):
        words, ids, _ = level
        return words.nbytes + ids.nbytes + 2 * len(ids) * np.dtype(np.intp).itemsize

    keys1, keys2 = levels[1][2], levels[2][2]
    assert (len(keys1), len(keys2)) == (50, 2550)
    chunks = []

    def counted(*args):
        for chunk in preimage_ids(*args):
            chunks.append(chunk)
            yield chunk

    preimage_ids = automaton._preimage_ids
    monkeypatch.setattr(automaton, "_preimage_ids", counted)
    # level 1's words and keys fit the budget, but not the step that numbers
    # the keys: it is refused after the start's one chunk, before any word
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", 2 * words_bytes(levels[1]) + keys1.nbytes)
    with pytest.raises(BudgetExceeded, match=r"^level 1 holds 50 words, about 0 of 0 MB$"):
        extend_frontier(n_aut, start)
    assert len(chunks) == 1
    # the estimate follows each chunk: with one level-1 key per chunk, the
    # step to level 2 refuses long before it has gathered all 50 keys'
    # preimages
    chunks.clear()
    monkeypatch.setattr(automaton, "_GATHER_BYTES", 1)
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", 2 * words_bytes(levels[2]) + keys2.nbytes // 4)
    with pytest.raises(BudgetExceeded, match=r"^level 2 holds 2550 words"):
        extend_frontier(n_aut, levels[1])
    assert 1 < len(chunks) < len(keys1) // 2


def test_freedom_warning_on_uncertified_alphabet():
    coll = Alphabet(F3, [MonicQuad(F3.elem(0), F3.elem(0)),
                         MonicQuad(F3.elem(1), F3.elem(0)),
                         MonicQuad(F3.elem(0), F3.elem(1))])
    with pytest.warns(FreedomNotCertified):
        enumerate_level(coll, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enumerate_level(coll, 2, assume_free=True)
        enumerate_level(example_alphabet(), 2)


def test_enumerate_irreducible_degree_small():
    polys = list(enumerate_irreducible_degree(F3, 1))
    # one accepted word (h) and three shifts
    assert len(polys) == 3
    assert all(p.degree == 2 and rabin_is_irreducible(p) for p in polys)
    assert len({p.vals for p in polys}) == 3
    quartics = list(enumerate_irreducible_degree(F3, 2))
    assert len(quartics) == 6
    assert all(p.degree == 4 and rabin_is_irreducible(p) for p in quartics)
    assert Poly.parse(F3, "2,0,1,0,1") in quartics


def test_enumerate_irreducible_degree_counts_q5():
    mx = Alphabet.maximal(F5)
    brute = [w for w in product(range(5), repeat=3)
             if chain_irreducible(w, mx).irreducible]
    octics = list(enumerate_irreducible_degree(F5, 3))
    assert len(octics) == 5 * len(brute)
    assert all(p.degree == 8 for p in octics)
    assert len({p.vals for p in octics}) == len(octics)
    sample = octics[::7]
    assert all(rabin_is_irreducible(p) for p in sample)


def test_decompose_quadratic_outer_frozen():
    # (x-1)^2 - 3 = (x^2 - 3) o (x - 1)
    F = Poly.parse(F5, "3,3,1")
    a, H = decompose_quadratic_outer(F)
    assert a == F5.elem(3)
    assert H == Poly.parse(F5, "4,1")
    # x^4 + x^2 + 2 = (x^2 - 2) o (x^2 - 1) over F_3
    a, H = decompose_quadratic_outer(Poly.parse(F3, "2,0,1,0,1"))
    assert a == F3.elem(2)
    assert H == Poly.parse(F3, "2,0,1")
    with pytest.raises(NotDecomposable):
        decompose_quadratic_outer(Poly.parse(F5, "1,1,0,0,1"))  # x^4 + x + 1
    with pytest.raises(OddDegree):
        decompose_quadratic_outer(Poly.parse(F5, "1,0,0,1"))
    with pytest.raises(DegreeTooSmall):
        decompose_quadratic_outer(Poly.parse(F5, "1,1"))
    with pytest.raises(ValueError):
        decompose_quadratic_outer(Poly.parse(F5, "1,0,2"))  # not monic


def test_decompose_matches_brute_force_search():
    # ground truth by composing every (outer, inner) monic quadratic pair
    decomposable = set()
    for a0, a1, b0, b1 in product(range(5), repeat=4):
        outer = Poly(F5, (a0, a1, 1), raw=True)
        inner = Poly(F5, (b0, b1, 1), raw=True)
        decomposable.add(outer.compose(inner).vals)
    for tail in product(range(5), repeat=4):
        F = Poly(F5, tail + (1,), raw=True)
        try:
            a, H = decompose_quadratic_outer(F)
            ok = True
            assert H * H - a == F
        except NotDecomposable:
            ok = False
        assert ok == (F.vals in decomposable), F.csv()


def test_full_decompose_round_trip():
    chain = full_decompose(Poly.parse(F3, "2,0,1,0,1"))
    assert [b.val for b in chain.bs] == [2, 1]
    assert chain.shift == F3.zero
    assert chain.word() == (2, 1)
    assert chain.recompose() == Poly.parse(F3, "2,0,1,0,1")
    chain = full_decompose(Poly.parse(F5, "3,3,1"))
    assert [b.val for b in chain.bs] == [3]
    assert chain.shift == F5.elem(1)
    assert chain.recompose() == Poly.parse(F5, "3,3,1")


def test_full_decompose_random_round_trips():
    # every chain recomposes to a polynomial that decomposes back to it
    import random
    rng = random.Random(5)
    for field in (F3, F5, F7, F9):
        elems = list(field.elements())
        for _ in range(25):
            t = rng.randint(1, 4)
            bs = tuple(rng.choice(elems) for _ in range(t))
            shift = rng.choice(elems)
            chain = CanonicalChain(bs, shift)
            F = chain.recompose()
            assert full_decompose(F) == chain


def test_full_decompose_validates_degree():
    with pytest.raises(InvalidDegree):
        full_decompose(Poly.parse(F5, "1,1"))
    with pytest.raises(InvalidDegree):
        full_decompose(Poly.parse(F5, "1,0,0,1"))
    with pytest.raises(NotDecomposable):
        full_decompose(Poly.parse(F5, "1,1,0,0,1"))


def test_test_decomposable_three_outcomes():
    v = decomposable_verdict(Poly.parse(F3, "2,0,1,0,1"))
    assert v.status == IRREDUCIBLE and v.irreducible
    assert v.chain is not None
    # (x^2 - 3)^2 - 3 over F_5: decomposes, chain fails at index 2
    v = decomposable_verdict(Poly.parse(F5, "1,0,4,0,1"))
    assert v.status == REDUCIBLE and v.witness == 2
    v = decomposable_verdict(Poly.parse(F5, "1,1,0,0,1"))
    assert v.status == NOT_DECOMPOSABLE and v.chain is None
    assert not v.irreducible


def test_test_decomposable_agrees_with_rabin_when_decomposable():
    for tail in product(range(3), repeat=4):
        F = Poly(F3, tail + (1,), raw=True)
        v = decomposable_verdict(F)
        if v.status == NOT_DECOMPOSABLE:
            continue
        assert (v.status == IRREDUCIBLE) == rabin_is_irreducible(F), F.csv()


def test_test_decomposable_translation_invariant():
    F = Poly.parse(F5, "1,0,4,0,1")
    base = decomposable_verdict(F).status
    for c in F5.elements():
        assert decomposable_verdict(F.shift_argument(c)).status == base


def test_canonicalize_frozen():
    shift, word = canonicalize(Poly.parse(F3, "2,0,1,0,1"))
    assert shift == F3.zero
    assert word == (2, 1)
    # the same polynomial precomposed with x + 1 shifts by -1
    shifted = Poly.parse(F3, "2,0,1,0,1").shift_argument(F3.elem(1))
    shift, word = canonicalize(shifted)
    assert shift == F3.elem(2)
    assert word == (2, 1)
    # recomposition identity: F(x + shift) = pi(word)
    mx = Alphabet.maximal(F3)
    assert shifted.shift_argument(shift) == pi(word, mx)


def test_canonicalize_rejects_reducible_and_indecomposable():
    with pytest.raises(NotIrreducible):
        canonicalize(Poly.parse(F5, "1,0,4,0,1"))
    with pytest.raises(NotDecomposable):
        canonicalize(Poly.parse(F5, "1,1,0,0,1"))


def test_canonicalize_inverts_enumerate():
    mx = Alphabet.maximal(F5)
    words = list(map(tuple, enumerate_level(mx, 2).tolist()))
    for shift in F5.elements():
        for word in words:
            F = pi(word, mx).shift_argument(-shift)
            got_shift, got_word = canonicalize(F)
            assert got_shift == shift
            assert got_word == word


def decompose_reference(F):
    """The boxed outer peel: top-down matching on raw values, the rest in
    Poly and FieldElement arithmetic, with 2 inverted by rinv."""
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


def full_decompose_reference(F):
    deg = F.degree
    if deg < 2 or deg & (deg - 1):
        raise InvalidDegree("degree must be a power of 2, at least 2")
    if not F.is_monic:
        raise ValueError("polynomial must be monic")
    bs = []
    current = F
    while current.degree > 1:
        a, current = decompose_reference(current)
        bs.append(a)
    return CanonicalChain(tuple(bs), -current.coeff(0))


def verdict_reference(F):
    """(status, witness, chain) of test_decomposable, from the references."""
    try:
        chain = full_decompose_reference(F)
    except NotDecomposable:
        return NOT_DECOMPOSABLE, None, None
    report = chain_reference([MonicQuad(F.field.zero, b) for b in chain.bs])
    return report.status, report.witness, chain


def verdict_fields(F):
    v = decomposable_verdict(F)
    return v.status, v.witness, v.chain


def canonicalize_reference(F):
    status, witness, chain = verdict_reference(F)
    if status == NOT_DECOMPOSABLE:
        raise NotDecomposable("no monic quadratic splits off")
    if status == REDUCIBLE:
        raise NotIrreducible("chain value %d is a square" % witness)
    return chain.shift, chain.word()


def outcome(fn, F):
    """fn(F), or the type and message of the ValueError it raises."""
    try:
        return fn(F)
    except ValueError as exc:
        return type(exc), str(exc)


def peels_until_refused(peel, F):
    """The outer constants peel strips off F, and the 1-based index of the
    peel that raised NotDecomposable, or None when F peels down to degree 1."""
    bs = []
    while F.degree > 1:
        try:
            a, F = peel(F)
        except NotDecomposable:
            return bs, len(bs) + 1
        bs.append(a)
    return bs, None


REFERENCE_FIELDS = (F3, F9, FiniteField(5, 2), FiniteField(3, 3), FiniteField(3, 4),
                    FiniteField(65537), FiniteField(1_000_003))


def random_elem(field, rng):
    return field.elem(field.raw_from_index(rng.randrange(field.q)))


def seeded_chains(field, rng):
    """Shifted canonical chains of degree 2..128: per length one random
    chain, mostly reducible, and one grown to stay irreducible as long as
    some tried constant allows it."""
    for t in range(1, 8):
        yield CanonicalChain(tuple(random_elem(field, rng) for _ in range(t)),
                             random_elem(field, rng))
        grown = []
        while len(grown) < t:
            for _ in range(60):
                b = random_elem(field, rng)
                if chain_reference([MonicQuad(field.zero, c) for c in grown + [b]]).irreducible:
                    break
            grown.append(b)
        yield CanonicalChain(tuple(grown), random_elem(field, rng))


def test_decomposition_matches_the_boxed_reference():
    rng = random.Random(2024)
    for field in REFERENCE_FIELDS:
        seen = set()
        for chain in seeded_chains(field, rng):
            F = chain.recompose()
            assert full_decompose(F) == full_decompose_reference(F) == chain
            assert outcome(decompose_quadratic_outer, F) == decompose_reference(F)
            got = verdict_fields(F)
            assert got == verdict_reference(F)
            assert outcome(canonicalize, F) == outcome(canonicalize_reference, F)
            seen.add(got[0])
        assert seen == {IRREDUCIBLE, REDUCIBLE}, field


def test_perturbed_compositions_are_refused_at_the_reference_peel():
    # (x^2 - b_1) o ... o (x^2 - b_i) o (G + c x^j) with G a composition of
    # degree 2e >= 4 and 0 < j < e: the first i peels succeed and peel i + 1
    # leaves c x^j; a perturbation anywhere else is compared as it falls
    rng = random.Random(77)
    for field in REFERENCE_FIELDS:
        refused_late = 0
        for chain in seeded_chains(field, rng):
            t = len(chain.bs)
            if t < 2:
                continue
            i = rng.randrange(t - 1)
            inner = CanonicalChain(chain.bs[i:], chain.shift).recompose()
            j = rng.randrange(1, inner.degree // 2)
            c = random_elem(field, rng)
            while c.is_zero():
                c = random_elem(field, rng)
            bump = Poly(field, [0] * j + [c])
            outer = CanonicalChain(chain.bs[:i], field.zero).recompose()
            cases = [(outer.compose(inner + bump), i + 1)]
            F = chain.recompose()
            cases.append((F + Poly(field, [0] * rng.randrange(F.degree) + [c]), "any"))
            for G, at in cases:
                want = peels_until_refused(decompose_reference, G)
                assert peels_until_refused(decompose_quadratic_outer, G) == want
                if at != "any":
                    assert want[1] == at
                    refused_late += at > 1
                assert outcome(full_decompose, G) == outcome(full_decompose_reference, G)
                assert outcome(canonicalize, G) == outcome(canonicalize_reference, G)
                assert verdict_fields(G) == verdict_reference(G)
        assert refused_late, field


def test_decomposition_refusals_match_the_reference():
    for field in REFERENCE_FIELDS:
        two = field.elem(2)
        inputs = [
            Poly(field, [1]),                          # degree 0
            Poly(field, [3, 1]),                       # degree 1
            Poly(field, [1, 0, 0, 1]),                 # odd
            Poly(field, [1, 2, 0, 1, 0, 1]),           # odd
            Poly(field, [1, 0, 2, 0, 1, 0, 1]),        # degree 6
            Poly(field, [2, 0, 1, 0, two]),            # not monic
            Poly(field, [2, 1, two]),                  # not monic
            Poly(field, [0, 1, 0, two]),               # odd and not monic
        ]
        pairs = [(decompose_quadratic_outer, decompose_reference),
                 (full_decompose, full_decompose_reference),
                 (canonicalize, canonicalize_reference),
                 (verdict_fields, verdict_reference)]
        kinds = set()
        for F in inputs:
            for fn, ref in pairs:
                got = outcome(fn, F)
                assert got == outcome(ref, F), (fn.__name__, F)
                kinds.add(got[0])
        assert {DegreeTooSmall, OddDegree, InvalidDegree, ValueError} <= kinds, field


def test_canonicalize_builds_no_poly_and_one_field_element(monkeypatch):
    mx = Alphabet.maximal(F9)
    word = (4, 8, 6, 4, 4, 0)
    F = pi(word, mx).shift_argument(F9.elem(1))
    assert F.degree == 64
    polys, elements = [], []
    poly_init, element_init = Poly.__init__, FieldElement.__init__

    def spy_poly(self, *args, **kwargs):
        polys.append(args)
        poly_init(self, *args, **kwargs)

    def spy_element(self, *args):
        elements.append(args)
        element_init(self, *args)

    monkeypatch.setattr(Poly, "__init__", spy_poly)
    monkeypatch.setattr(FieldElement, "__init__", spy_element)
    shift, got = canonicalize(F)
    monkeypatch.undo()
    assert polys == []
    assert len(elements) == 1  # the returned shift
    assert got == word
    assert F.shift_argument(shift) == pi(word, mx)


def random_chain(field, rng, length):
    return CanonicalChain(tuple(random_elem(field, rng) for _ in range(length)),
                          random_elem(field, rng))


def test_degree_1024_round_trips_at_k_3_and_large_p():
    rng = random.Random(1024)
    for field in (FiniteField(3, 3), FiniteField(2 ** 31 - 1)):
        chain = random_chain(field, rng, 10)
        F = chain.recompose()
        assert F.degree == 1024
        assert full_decompose(F) == full_decompose_reference(F) == chain


def test_every_monomial_bump_of_a_degree_64_composition():
    # F = (x^2 - a) o H with deg H = 32: adding c to F changes only a, and
    # adding c x^i for 1 <= i <= 31 leaves H fixed by degrees 63 .. 32 of F
    # and breaks F + a = H^2 below them
    rng = random.Random(64)
    for field in (F9, FiniteField(3, 3), FiniteField(2 ** 31 - 1)):
        F = random_chain(field, rng, 6).recompose()
        assert F.degree == 64
        a, H = decompose_quadratic_outer(F)
        c = random_elem(field, rng)
        while c.is_zero():
            c = random_elem(field, rng)
        for i in range(64):
            G = F + Poly(field, [0] * i + [c])
            if i == 0:
                assert decompose_quadratic_outer(G) == (a - c, H)
            elif i <= 31:
                with pytest.raises(NotDecomposable):
                    decompose_quadratic_outer(G)
            want = peels_until_refused(decompose_reference, G)
            assert peels_until_refused(decompose_quadratic_outer, G) == want, (field, i)


def table_check_alphabets(field):
    """The maximal alphabet, where it fits, and seeded ones with a != 0."""
    rng = random.Random(field.q)
    out = [Alphabet.maximal(field)] if field.q <= 1 << 11 else []
    for size in (1, 3, 8):
        pairs = set()
        while len(pairs) < min(size, (field.q - 1) * field.q):
            pairs.add((rng.randrange(1, field.q), rng.randrange(field.q)))
        out.append(Alphabet(field, [MonicQuad(field.elem(field.raw_from_index(a)),
                                              field.elem(field.raw_from_index(b)))
                                    for a, b in sorted(pairs)]))
    return out


def seeded_chain_words(alph, rng):
    """Words of length 1..20: uniform ones, which mostly fail early, and ones
    grown a letter at a time by the reference to stay irreducible as long
    as they can."""
    n = len(alph)
    words = [tuple(rng.randrange(n) for _ in range(length)) for length in range(1, 21)]
    grown = []
    for _ in range(40):
        letter = rng.randrange(n)
        if letter_chain([alph[j] for j in grown + [letter]]).irreducible:
            grown.append(letter)
        words.append(tuple(grown + [letter]))
        if len(grown) == 19:
            break
    return words


def assert_chain_matches_letter_chain(alph, rng):
    for word in seeded_chain_words(alph, rng):
        got = chain_irreducible(word, alph)
        want = letter_chain([alph[j] for j in word])
        # a ChainReport compares its values, verdicts and first_failure
        assert got == want, (alph.field, word)


def test_chain_by_step_table_equals_letter_chain():
    irreducible = 0
    for p, k in ((3, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 3), (7, 3)):
        field = FiniteField(p, k)
        rng = random.Random(p * 100 + k)
        for alph in table_check_alphabets(field):
            assert alph.steps is not None
            assert_chain_matches_letter_chain(alph, rng)
            irreducible += chain_irreducible(seeded_chain_words(alph, rng)[-1], alph).irreducible
    assert irreducible > 5


def test_chain_past_the_step_table_bound_equals_letter_chain(monkeypatch):
    # F_1031 and p = 1,000,003 lie past MAX_INTERIM_Q, where rchain steps
    for field in (FiniteField(1031), FiniteField(1_000_003)):
        rng = random.Random(field.p)
        for alph in table_check_alphabets(field):
            assert alph.steps is None
            assert_chain_matches_letter_chain(alph, rng)
    # and so it does past the table's byte bound; the reports are the same
    alphabets = table_check_alphabets(FiniteField(5, 2))
    words = {id(alph): seeded_chain_words(alph, random.Random(3)) for alph in alphabets}
    want = [[chain_irreducible(w, alph) for w in words[id(alph)]] for alph in alphabets]
    monkeypatch.setattr(monoid, "_GATHER_BYTES", 0)
    fresh = [Alphabet(alph.field, alph.letters) for alph in alphabets]
    assert all(alph.steps is None for alph in fresh)
    assert [[chain_irreducible(w, alph) for w in words[id(old)]]
            for alph, old in zip(fresh, alphabets)] == want


def test_extend_frontier_counts_a_level_one_chunk_of_keys_at_a_time():
    # level 2 of F_1021 has 260,610 keys of 512 class bits; unpacked all at
    # once to count level 3's words, they took two arrays of 133 MB
    n_aut = build_interim(Alphabet.maximal(FiniteField(1021)))
    level = extend_frontier(n_aut, extend_frontier(n_aut, start_level(n_aut)))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=r"^level 3 holds 133171710 words"):
            extend_frontier(n_aut, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * automaton._GATHER_BYTES


def seeded_extension_chains(field, rng):
    """Per length 2..9 (degree 4..512), a shifted chain of a random word over
    the maximal alphabet and one of a word grown to stay irreducible."""
    alph = Alphabet.maximal(field)
    for n in range(2, 10):
        word = [rng.randrange(field.q) for _ in range(n)]
        grown = []
        while len(grown) < n:
            for _ in range(60):
                j = rng.randrange(field.q)
                if chain_irreducible(grown + [j], alph).irreducible:
                    break
            grown.append(j)
        for w in (word, grown):
            yield CanonicalChain(tuple(alph[j].b for j in w), random_elem(field, rng))


def extension_decomposition_lines():
    """Per seeded chain over F_9, F_25 and F_27, its word and shift, and what
    full_decompose, test_decomposable and canonicalize return for it."""
    for field in (F9, FiniteField(5, 2), FiniteField(3, 3)):
        rng = random.Random(field.q)
        for chain in seeded_extension_chains(field, rng):
            F = chain.recompose()
            full = full_decompose(F)
            status, witness, found = verdict_fields(F)
            yield F, chain, "%d %s %d | %s %d | %s %s %s | %s" % (
                field.q, chain.word(), chain.shift.index(), full.word(), full.shift.index(),
                status, witness, found.word(), outcome(canonicalize, F))


# sha256 of those lines, each ended by a newline, taken before F_{p^k} products
# went through log tables
EXTENSION_DECOMPOSITION_SHA256 = "401d9a647a48f81934c755b9b2af9e4f66bb54f5d4bc4d1cadc851c2fc44cda4"


def test_extension_field_decompositions_match_the_reference_and_the_pinned_digest():
    digest = hashlib.sha256()
    for F, chain, line in extension_decomposition_lines():
        assert full_decompose(F) == full_decompose_reference(F) == chain
        assert verdict_fields(F) == verdict_reference(F)
        assert outcome(canonicalize, F) == outcome(canonicalize_reference, F)
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == EXTENSION_DECOMPOSITION_SHA256


def nonzero_elem(field, rng):
    c = random_elem(field, rng)
    while c.is_zero():
        c = random_elem(field, rng)
    return c


def test_decomposition_at_the_index_table_edges():
    # F_243 is the largest field with index tables and F_289 = 17^2 the
    # smallest extension field past them; chains of degree 2 to 64, each as
    # it is, bumped anywhere, and bumped so that peel i + 1 refuses
    rng = random.Random(289)
    for field in (FiniteField(3, 5), FiniteField(17, 2)):
        assert (field.index_tables() is None) == (field.q == 289)
        statuses, refused_late = set(), 0
        for chain in seeded_chains(field, rng):
            t = len(chain.bs)
            if t > 6:
                continue
            F = chain.recompose()
            assert full_decompose(F) == full_decompose_reference(F) == chain
            statuses.add(verdict_fields(F)[0])
            c = nonzero_elem(field, rng)
            cases = [F, F + Poly(field, [0] * rng.randrange(F.degree) + [c])]
            if t >= 2:
                i = rng.randrange(t - 1)
                inner = CanonicalChain(chain.bs[i:], chain.shift).recompose()
                bump = Poly(field, [0] * rng.randrange(1, inner.degree // 2) + [c])
                outer = CanonicalChain(chain.bs[:i], field.zero).recompose()
                cases.append(outer.compose(inner + bump))
            for G in cases:
                want = peels_until_refused(decompose_reference, G)
                assert peels_until_refused(decompose_quadratic_outer, G) == want
                refused_late += (want[1] or 0) > 1
                assert outcome(full_decompose, G) == outcome(full_decompose_reference, G)
                assert outcome(canonicalize, G) == outcome(canonicalize_reference, G)
                assert verdict_fields(G) == verdict_reference(G)
        assert statuses == {IRREDUCIBLE, REDUCIBLE} and refused_late, field


def test_one_peel_at_every_degree_from_2_to_64():
    # (x^2 - a) o H for a random monic H of each degree d = 1 .. 32, on both
    # sides of _SCHOOL_MAX, past which the square check goes by _mul_raw,
    # and F + c x^i for some 0 < i < 2d, which is refused at least for i < d
    rng = random.Random(64)
    for field in (FiniteField(29), F9, FiniteField(3, 5), FiniteField(17, 2)):
        for d in range(1, 33):
            H = Poly(field, [random_elem(field, rng) for _ in range(d)] + [field.one])
            a = random_elem(field, rng)
            F = H * H - a
            assert decompose_quadratic_outer(F) == decompose_reference(F) == (a, H)
            for i in {1, d - 1, d, rng.randrange(1, 2 * d)} - {0}:
                G = F + Poly(field, [0] * i + [nonzero_elem(field, rng)])
                got = outcome(decompose_quadratic_outer, G)
                assert got == outcome(decompose_reference, G), (field, d, i)
                assert got[0] is NotDecomposable or i >= d
