import random
from itertools import product

import pytest

from quadcomp import (
    Alphabet,
    BudgetExceeded,
    EmptyAlphabet,
    FiniteField,
    IndexOutOfRange,
    MonicQuad,
    Poly,
    a_fibers,
    collision_search,
    compose_chain,
    distinguished_set,
    freedom_certificate,
    pi,
    words_related,
)

F3 = FiniteField(3)
F5 = FiniteField(5)


def example_alphabet():
    """f = x^2 - 2 and g = (x-1)^2 - 3 over F_5."""
    return Alphabet(F5, [MonicQuad(F5.elem(0), F5.elem(2)),
                         MonicQuad(F5.elem(1), F5.elem(3))])


def collision_alphabet():
    """f = x^2, g = (x-1)^2, h = x^2 - 1 over F_3; pi(fh) = pi(gf)."""
    return Alphabet(F3, [MonicQuad(F3.elem(0), F3.elem(0)),
                         MonicQuad(F3.elem(1), F3.elem(0)),
                         MonicQuad(F3.elem(0), F3.elem(1))])


def test_monic_quad_evaluation():
    g = MonicQuad(F5.elem(1), F5.elem(3))
    assert g(F5.elem(2)) == F5.elem(3)
    assert g(F5.elem(3)) == F5.elem(1)
    assert g.to_poly() == Poly.parse(F5, "3,3,1")
    assert MonicQuad.from_poly(g.to_poly()) == g
    assert str(g) == "a=1 b=3"


def test_from_poly_rejects_non_quadratics():
    with pytest.raises(ValueError):
        MonicQuad.from_poly(Poly.parse(F5, "1,1"))
    with pytest.raises(ValueError):
        MonicQuad.from_poly(Poly.parse(F5, "1,0,2"))


def test_alphabet_basics():
    alph = example_alphabet()
    assert len(alph) == 2
    assert alph.letter_name(0) == "f"
    assert alph.letter_name(1) == "g"
    assert not alph.is_maximal
    assert Alphabet.maximal(F3).is_maximal
    assert len(Alphabet.maximal(F3)) == 3
    with pytest.raises(ValueError):
        Alphabet(F5, [alph[0], alph[0]])


def test_word_parse_and_format():
    alph = example_alphabet()
    assert alph.parse_word("ggf") == (1, 1, 0)
    assert alph.parse_word("1,1,0") == (1, 1, 0)
    assert alph.parse_word("g g f") == (1, 1, 0)
    assert alph.format_word((1, 1, 0)) == "ggf"
    assert alph.format_word(()) == "(empty)"
    with pytest.raises(ValueError):
        alph.parse_word("gx")
    with pytest.raises(IndexOutOfRange):
        alph.check_word((0, 2))
    with pytest.raises(EmptyAlphabet):
        Alphabet(F5, []).require_nonempty()


def test_pi_morphism():
    alph = example_alphabet()
    # pi is empty-word -> x, single letters -> their polynomials
    assert pi((), alph) == Poly.x(F5)
    assert pi((0,), alph) == Poly.parse(F5, "3,0,1")
    assert pi((1,), alph) == Poly.parse(F5, "3,3,1")
    # morphism property: pi(uv) = pi(u) o pi(v)
    for u in product(range(2), repeat=2):
        for v in product(range(2), repeat=2):
            assert pi(u + v, alph) == pi(u, alph).compose(pi(v, alph))
    # degree is 2^len
    assert pi((0, 1, 0), alph).degree == 8


def test_pi_frozen_example():
    # h g over the maximal F_3 alphabet composes to x^4 + x^2 + 2
    mx = Alphabet.maximal(F3)
    word = mx.parse_word("hg")
    assert word == (2, 1)
    assert pi(word, mx) == Poly.parse(F3, "2,0,1,0,1")


def test_distinguished_set_and_fibers():
    assert distinguished_set(example_alphabet()) == {F5.elem(2), F5.elem(3)}
    assert distinguished_set(Alphabet.maximal(F3)) == set(F3.elements())
    two_fiber = Alphabet(F5, [MonicQuad(F5.elem(0), F5.elem(3)),
                              MonicQuad(F5.elem(1), F5.elem(3))])
    assert distinguished_set(two_fiber) == {F5.elem(3)}
    fibers = a_fibers(two_fiber)
    assert fibers == {F5.elem(3): {F5.elem(0), F5.elem(1)}}


def test_words_related():
    coll = collision_alphabet()
    # pi(f) - pi(h) = 1, which is 1 - 0 from the b=0 fiber {0, 1}
    assert words_related((2,), (0,), coll)
    assert words_related((0,), (2,), coll)
    # pi(g) - pi(f) = x + 1 is not constant
    assert not words_related((0,), (1,), coll)
    # colliding words are related through the zero difference
    assert words_related((0, 2), (1, 0), coll)
    # in a free alphabet only trivial differences land in the fiber set
    alph = example_alphabet()
    assert words_related((0,), (0,), alph)
    assert not words_related((0,), (1,), alph)


def test_freedom_certificates():
    # distinct b-values: free
    cert = freedom_certificate(example_alphabet())
    assert cert
    assert "distinct" in cert.reason
    # single shared b-value: free
    cert = freedom_certificate(Alphabet(F5, [MonicQuad(F5.elem(0), F5.elem(3)),
                                             MonicQuad(F5.elem(1), F5.elem(3))]))
    assert cert
    # mixed fibers: not certified
    cert = freedom_certificate(collision_alphabet())
    assert not cert
    assert cert.reason is None


def test_collision_search_finds_known_collision():
    coll = collision_alphabet()
    found = collision_search(coll, 3)
    assert found is not None
    u, v = found
    assert u != v
    assert pi(u, coll) == pi(v, coll)
    # the first collision is at length 2: f(h(x)) = g(f(x)) = x^4 + x^2 + 1
    assert len(u) == 2 and len(v) == 2
    assert {tuple(u), tuple(v)} == {(0, 2), (1, 0)}


def test_collision_search_free_alphabet():
    assert collision_search(example_alphabet(), 5) is None
    with pytest.raises(BudgetExceeded):
        collision_search(example_alphabet(), 10, budget=100)


def test_collision_search_refuses_negative_counts():
    with pytest.raises(ValueError):
        collision_search(example_alphabet(), -1)
    with pytest.raises(ValueError):
        collision_search(example_alphabet(), 1, budget=-1)
    assert collision_search(example_alphabet(), 0, budget=0) is None


def test_certified_alphabets_are_collision_free():
    # every 2-letter alphabet over F_3 that the certificate calls free
    # really has no collision up to length 4
    quads = [MonicQuad(a, b) for a in F3.elements() for b in F3.elements()]
    for i in range(len(quads)):
        for j in range(i + 1, len(quads)):
            alph = Alphabet(F3, [quads[i], quads[j]])
            if freedom_certificate(alph):
                assert collision_search(alph, 4) is None


def test_suffix_extension_preserves_relation():
    # if pi(u) = pi(v) then appending any common outer prefix keeps equality
    coll = collision_alphabet()
    u, v = (0, 2), (1, 0)
    for w in product(range(3), repeat=2):
        assert pi(w + u, coll) == pi(w + v, coll)


def test_compose_chain_matches_a_fold_of_compose():
    rng = random.Random(5)
    for field in (FiniteField(3, 2), FiniteField(5, 2)):
        elems = list(field.elements())
        letters = [MonicQuad(rng.choice(elems[1:]), rng.choice(elems)) for _ in range(4)]
        assert all(not quad.a.is_zero() for quad in letters)
        x = Poly.x(field)
        for inner in (x, x - rng.choice(elems[1:])):
            assert compose_chain([], inner) == inner
            for t in range(1, 5):
                chain = letters[:t]
                want = inner
                for quad in reversed(chain):
                    want = quad.to_poly().compose(want)
                assert compose_chain(chain, inner) == want
                assert want.degree == 2**t
        with pytest.raises(ValueError):
            compose_chain(letters, Poly.x(F3))
