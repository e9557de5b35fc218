import random
import warnings
from itertools import product

import pytest

from quadcomp import (
    Alphabet,
    CanonicalChain,
    ChainReport,
    EmptyWord,
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
)
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
    words = [alph.format_word(w) for w, _ in enumerate_level(alph, 3)]
    assert words == ["fff", "ffg", "fgg", "ggf"]
    mx = Alphabet.maximal(F3)
    words = [mx.format_word(w) for w, _ in enumerate_level(mx, 2)]
    assert words == ["hg", "hh"]
    # level 1 is exactly the letters with nonsquare b
    for alph2 in (Alphabet.maximal(F5), Alphabet.maximal(F7), Alphabet.maximal(F9)):
        level1 = {w[0] for w, _ in enumerate_level(alph2, 1)}
        expect = {i for i, quad in enumerate(alph2) if quad.b.is_nonsquare()}
        assert level1 == expect


def test_enumerate_level_matches_chain_filter():
    alph = example_alphabet()
    for n in range(1, 6):
        brute = [w for w in product(range(2), repeat=n)
                 if chain_irreducible(w, alph).irreducible]
        assert [w for w, _ in enumerate_level(alph, n)] == brute


def test_enumerate_level_validates_n():
    with pytest.raises(ValueError):
        enumerate_level(example_alphabet(), 0)


def test_iter_levels_stops_when_language_dies():
    dead = Alphabet(F3, [MonicQuad(F3.elem(0), F3.elem(1))])  # x^2 - 1 reducible
    seen = list(iter_levels(dead, 10))
    assert seen == [(1, [])]


def test_extend_frontier_steps_one_level():
    alph = example_alphabet()
    n_aut = build_interim(alph)
    frontier = [((), n_aut.accepting_mask)]
    level1 = extend_frontier(n_aut, frontier)
    assert [w for w, _ in level1] == [(0,), (1,)]
    level2 = extend_frontier(n_aut, level1)
    assert [w for w, _ in level2] == [(0, 0), (0, 1), (1, 1)]


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
    words = [w for w, _ in enumerate_level(mx, 2)]
    for shift in F5.elements():
        for word in words:
            F = pi(word, mx).shift_argument(-shift)
            got_shift, got_word = canonicalize(F)
            assert got_shift == shift
            assert got_word == word
