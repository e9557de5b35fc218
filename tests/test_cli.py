import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from quadcomp import (
    Alphabet,
    FiniteField,
    FreedomNotCertified,
    MonicQuad,
    build_interim,
    chain_irreducible,
    enumerate_irreducible_degree,
)
import quadcomp
from quadcomp import automaton
from quadcomp.cli import CliError, _parse_alphabet, _prime_power, main

EX1 = "a=0 b=2;a=1 b=3"
COLLIDING = "a=0 b=0;a=1 b=0;a=0 b=1"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out.splitlines(), captured.err


def test_build_minimized_text(capsys):
    rc, out, _ = run(capsys, "build", "--q", "5", "--alphabet", EX1,
                     "--emit", "M", "--minimize")
    assert rc == 0
    assert out == [
        "M: partial DFA over F_5, 4 states, start 0, all states accepting",
        "0 --f--> 0",
        "0 --g--> 1",
        "1 --g--> 2",
        "2 --f--> 3",
    ]


def test_build_interim_text_and_merge(capsys):
    rc, out, _ = run(capsys, "build", "--q", "5", "--alphabet", EX1, "--emit", "N")
    assert rc == 0
    assert out[0] == "N: interim automaton over F_5, 11 states"
    rc, out, _ = run(capsys, "build", "--q", "5", "--alphabet", EX1,
                     "--emit", "N", "--merge")
    assert rc == 0
    assert out[0] == "N: merged interim automaton over F_5, 6 states"


def test_build_interim_text_lists_the_accepting_states(capsys):
    rc, out, _ = run(capsys, "build", "--q", "3", "--emit", "N")
    assert rc == 0 and out[1] == "accepting: I <1> (2)"
    rc, out, _ = run(capsys, "build", "--q", "5", "--alphabet", EX1, "--emit", "N")
    n_aut = build_interim(_parse_alphabet(FiniteField(5), EX1))
    want = [st.label() for st, ok in zip(n_aut.states, n_aut.accepting) if ok]
    assert rc == 0 and out[1] == "accepting: " + " ".join(want)


def test_build_merge_illegal(capsys):
    rc, _, err = run(capsys, "build", "--q", "3", "--merge")
    assert rc == 2
    assert "-1 to be a square" in err


def test_build_json_and_dot(capsys):
    rc, out, _ = run(capsys, "build", "--q", "5", "--alphabet", EX1,
                     "--emit", "M", "--minimize", "--format", "json")
    assert rc == 0
    blob = json.loads("\n".join(out))
    assert blob["type"] == "partial"
    assert len(blob["states"]) == 4
    assert blob["field"] == {"p": 5, "k": 1}
    rc, out, _ = run(capsys, "build", "--q", "5", "--alphabet", EX1,
                     "--emit", "both", "--format", "json")
    blob = json.loads("\n".join(out))
    assert set(blob) == {"N", "M"}
    rc, out, _ = run(capsys, "build", "--q", "5", "--alphabet", EX1,
                     "--emit", "M", "--minimize", "--format", "dot")
    assert rc == 0 and out[0].startswith("digraph")


def test_field_argument_validation(capsys):
    rc, _, err = run(capsys, "build", "--q", "4")
    assert rc == 2 and "characteristic 2 unsupported" in err
    rc, _, err = run(capsys, "build", "--q", "12")
    assert rc == 2
    rc, _, err = run(capsys, "count", "-n", "1", "--q", "5", "--p", "5")
    assert rc == 2 and "not both" in err
    rc, _, err = run(capsys, "count", "-n", "1")
    assert rc == 2 and "field is required" in err


def test_k_goes_with_p_and_never_with_q(capsys):
    for k in ("3", "1"):
        rc, out, err = run(capsys, "count", "--q", "9", "--k", k, "-n", "2")
        assert rc == 2 and out == [] and "not both" in err
    # --p alone means k = 1
    assert run(capsys, "count", "--p", "3", "-n", "3")[:2] == (0, ["words: 4", "polynomials: 12"])
    assert run(capsys, "count", "--p", "3", "--k", "2", "-n", "2")[:2] == \
        run(capsys, "count", "--q", "9", "-n", "2")[:2]


def test_test_word_verdicts(capsys):
    rc, out, _ = run(capsys, "test", "--q", "5", "--alphabet", EX1, "--word", "fg")
    assert rc == 0 and out == ["Irreducible"]
    rc, out, _ = run(capsys, "test", "--q", "5", "--alphabet", EX1, "--word", "gf")
    assert rc == 1 and out == ["Reducible (witness index 2)"]


def test_test_poly_verdicts(capsys):
    rc, out, _ = run(capsys, "test", "--q", "3", "--poly", "2,0,1,0,1")
    assert rc == 0 and out == ["Irreducible"]
    rc, out, _ = run(capsys, "test", "--q", "5", "--poly", "1,0,4,0,1")
    assert rc == 1 and out == ["Reducible (witness index 2)"]
    rc, out, _ = run(capsys, "test", "--q", "5", "--poly", "1,1,0,0,1")
    assert rc == 3 and out == ["NotDecomposable"]


def test_test_argument_validation(capsys):
    rc, _, err = run(capsys, "test", "--q", "5")
    assert rc == 2 and "exactly one" in err
    rc, _, err = run(capsys, "test", "--q", "5", "--word", "f", "--poly", "1,1")
    assert rc == 2
    rc, _, err = run(capsys, "test", "--q", "5", "--alphabet", EX1, "--word", "fx")
    assert rc == 2
    rc, _, err = run(capsys, "test", "--q", "5", "--alphabet", "a=1", "--word", "f")
    assert rc == 2 and "missing b=" in err


def test_extension_field_poly(capsys):
    # x^2 + 1 splits over F_9 since -1 is a square there
    rc, out, _ = run(capsys, "test", "--p", "3", "--k", "2",
                     "--poly", "[1,0],[0,0],[1,0]")
    assert rc == 1 and out == ["Reducible (witness index 1)"]


def test_count_output(capsys):
    rc, out, _ = run(capsys, "count", "--q", "3", "-n", "4")
    assert rc == 0 and out == ["words: 10", "polynomials: 30"]
    rc, out, _ = run(capsys, "count", "--q", "3", "-n", "4", "--words")
    assert rc == 0 and out == ["10"]
    rc, out, _ = run(capsys, "count", "--q", "5", "--alphabet", EX1, "-n", "3")
    assert rc == 0 and out == ["words: 4"]
    rc, out, _ = run(capsys, "count", "--q", "9", "-n", "1")
    assert rc == 0 and out == ["words: 4", "polynomials: 36"]
    rc, _, _ = run(capsys, "count", "--q", "3", "-n", "0")
    assert rc == 0


def test_enumerate_polynomials(capsys):
    rc, out, _ = run(capsys, "enumerate", "--q", "3", "-n", "1")
    assert rc == 0
    assert out == ["1,0,1", "2,1,1", "2,2,1"]
    rc, out, _ = run(capsys, "enumerate", "--q", "3", "-n", "1", "--annotate")
    assert out[0] == "1,0,1  shift=0 word=h"
    rc, out, _ = run(capsys, "enumerate", "--q", "5", "--alphabet", EX1,
                     "-n", "2", "--annotate")
    assert rc == 0
    assert out == ["2,0,1,0,1  word=ff", "2,3,0,1,1  word=fg", "1,2,3,1,1  word=gg"]


def test_enumerate_maximal_polynomials_match_the_library(capsys):
    rc, out, _ = run(capsys, "enumerate", "--q", "5", "-n", "3")
    assert rc == 0
    want = [poly.csv() for poly in enumerate_irreducible_degree(FiniteField(5), 3)]
    assert len(want) > 5
    assert out == want


def test_enumerate_words(capsys):
    rc, out, _ = run(capsys, "enumerate", "--q", "3", "-n", "2", "--words")
    assert rc == 0 and out == ["hg", "hh"]
    rc, out, _ = run(capsys, "enumerate", "--q", "3", "-n", "2", "--words",
                     "--innermost-first")
    assert rc == 0 and out == ["gh", "hh"]


# two letters drawn over F_11 by random.Random(18): (randrange(11), randrange(11)) each
SEEDED = "a=2 b=1;a=10 b=7"


@pytest.mark.parametrize("argv, lines, digest", [
    (("--q", "5", "-n", "6", "--words"), 1126,
     "18662807acee2bad4c41bc52c0589c9f4bfd8dee750e6c48ebc9aaf0ff3c6fdd"),
    (("--q", "9", "-n", "3", "--annotate", "--innermost-first"), 900,
     "3fe06b28de5f428431c8b6af7ad7749a25b70c0272fe71a0ff1bb47101ebe6d7"),
    (("--q", "11", "--alphabet", SEEDED, "-n", "12", "--words"), 622,
     "30f8fead5e49855a697765b3289b920191b04346886e816f240a6786f5cd53c4"),
    (("--q", "11", "--alphabet", SEEDED, "-n", "6", "--annotate"), 11,
     "c356094ef42a3578f7ad369042214c78ce9766323cd155b968dab801236a65d3"),
])
def test_enumerate_output_is_pinned(capsys, argv, lines, digest):
    assert main(["enumerate", *argv]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_names_every_letter_of_a_wide_alphabet(capsys):
    # 361 letters: L300 must not wrap to L44 in an 8-bit word matrix
    letters = ";".join("a=%d b=%d" % (a, b) for a in range(19) for b in range(19))
    wide = _parse_alphabet(FiniteField(19), letters)
    with pytest.warns(FreedomNotCertified):
        rc, out, _ = run(capsys, "enumerate", "--q", "19", "--alphabet", letters,
                         "-n", "1", "--words")
    assert rc == 0 and "L300" in out
    assert out == ["L%d" % j for j in range(361) if chain_irreducible((j,), wide).irreducible]


def test_enumerate_budget(capsys):
    rc, _, err = run(capsys, "enumerate", "--q", "3", "-n", "3", "--budget", "2")
    assert rc == 4 and "budget exceeded" in err
    rc, _, err = run(capsys, "enumerate", "--q", "3", "-n", "2", "--budget", "5")
    assert rc == 4  # 2 words pass, 6 shifted polynomials do not
    rc, _, err = run(capsys, "enumerate", "--q", "3", "-n", "0")
    assert rc == 2


def test_freedom_output(capsys):
    rc, out, _ = run(capsys, "freedom", "--q", "5", "--alphabet", EX1)
    assert rc == 0 and out == ["Free: letters have pairwise distinct b-values"]
    rc, out, _ = run(capsys, "freedom", "--q", "3", "--alphabet", "a=0 b=1;a=1 b=1")
    assert rc == 0 and out == ["Free: all letters share one b-value"]
    rc, out, _ = run(capsys, "freedom", "--q", "3", "--alphabet", COLLIDING)
    assert rc == 0 and out == ["Unknown: no criterion applies"]


def test_freedom_collision_search(capsys):
    rc, out, _ = run(capsys, "freedom", "--q", "3", "--alphabet", COLLIDING,
                     "--search-depth", "2")
    assert rc == 0
    assert out[1] == "collision: fh and gf compose to the same polynomial"
    rc, out, _ = run(capsys, "freedom", "--q", "5", "--alphabet", EX1,
                     "--search-depth", "3")
    assert out[1] == "collision search to length 3: none found"


def test_local_verdicts(capsys):
    rc, out, _ = run(capsys, "local", "--p", "5", "--chain", "b=7;a=1 b=3")
    assert rc == 0 and out == ["Irreducible"]
    rc, out, _ = run(capsys, "local", "--p", "5", "--chain", "b=6")
    assert rc == 1 and out == ["Reducible (witness index 1)"]
    rc, out, _ = run(capsys, "local", "--p", "5", "--chain", "b=5")
    assert rc == 3 and out == ["PreconditionFailed"]


def test_local_validation(capsys):
    rc, _, err = run(capsys, "local", "--p", "4", "--chain", "b=7")
    assert rc == 2
    rc, _, err = run(capsys, "local", "--p", "5", "--chain", "x=3")
    assert rc == 2
    rc, _, err = run(capsys, "local", "--p", "5", "--chain", "b=7", "--precision", "0")
    assert rc == 2


def test_canonicalize_output(capsys):
    rc, out, _ = run(capsys, "canonicalize", "--q", "3", "--poly", "2,0,1,0,1")
    assert rc == 0 and out == ["shift: 0", "word: hg"]
    rc, out, _ = run(capsys, "canonicalize", "--q", "5", "--poly", "1,0,4,0,1")
    assert rc == 1 and out == ["NotIrreducible"]
    rc, out, _ = run(capsys, "canonicalize", "--q", "5", "--poly", "1,1,0,0,1")
    assert rc == 3 and out == ["NotDecomposable"]


def test_decompose_output(capsys):
    rc, out, _ = run(capsys, "decompose", "--q", "3", "--poly", "2,0,1,0,1")
    assert rc == 0 and out == ["chain: 2, 1", "shift: 0"]
    rc, out, _ = run(capsys, "decompose", "--q", "5", "--poly", "3,3,1")
    assert rc == 0 and out == ["chain: 3", "shift: 1"]
    rc, out, _ = run(capsys, "decompose", "--q", "5", "--poly", "1,1,0,0,1")
    assert rc == 3 and out == ["NotDecomposable"]
    rc, _, _ = run(capsys, "decompose", "--q", "5", "--poly", "1,1,1,1")
    assert rc == 2  # degree is not a power of 2


# (q, poly) -> decompose and canonicalize (stdout lines, exit code); over
# F_9 and F_25 an irreducible, a reducible (chain value 3 is a square) and an
# indecomposable degree-8 polynomial, each shifted by x -> x + [1,2].  Over
# F_243, the largest field with index tables, the same three shifted by
# x -> x + [1,2,0,1,0], the indecomposable one the irreducible one plus x.
# The README example is checked by the two tests above.
DECOMPOSE_GOLDEN = [
    ("9", "[0,2],[1,1],[0,2],[1,2],[2,0],[2,2],[0,1],[2,1],[1,0]",
     (["chain: [1,1], [0,0], [0,0]", "shift: [2,1]"], 0), (["shift: [2,1]", "word: jff"], 0)),
    ("9", "[2,2],[2,1],[1,0],[2,2],[2,0],[2,2],[1,0],[2,1],[1,0]",
     (["chain: [2,1], [0,0], [2,1]", "shift: [2,1]"], 0), (["NotIrreducible"], 1)),
    ("9", "[0,2],[2,1],[0,2],[1,2],[2,0],[2,2],[0,1],[2,1],[1,0]",
     (["NotDecomposable"], 3), (["NotDecomposable"], 3)),
    ("25", "[4,4],[4,3],[4,0],[4,3],[0,0],[2,4],[1,0],[3,1],[1,0]",
     (["chain: [2,1], [0,0], [0,0]", "shift: [4,3]"], 0), (["shift: [4,3]", "word: L7,L0,L0"], 0)),
    ("25", "[2,4],[1,0],[3,3],[3,4],[4,4],[0,3],[1,1],[3,1],[1,0]",
     (["chain: [2,1], [0,0], [0,1]", "shift: [4,3]"], 0), (["NotIrreducible"], 1)),
    ("25", "[4,4],[0,3],[4,0],[4,3],[0,0],[2,4],[1,0],[3,1],[1,0]",
     (["NotDecomposable"], 3), (["NotDecomposable"], 3)),
    ("243", "[1,1,1,0,2],[0,0,0,2,1],[0,1,2,2,0],[0,0,1,0,0],[1,2,1,2,1],[0,1,1,2,0],"
     "[2,1,1,1,1],[2,1,0,2,0],[1,0,0,0,0]",
     (["chain: [0,0,0,1,1], [1,1,1,0,0], [1,2,0,1,1]", "shift: [2,1,0,2,0]"], 0),
     (["shift: [2,1,0,2,0]", "word: L108,L13,L115"], 0)),
    ("243", "[2,1,0,1,0],[1,2,2,2,0],[1,1,2,0,0],[2,1,1,2,1],[2,1,1,1,2],[0,1,1,2,0],"
     "[1,0,0,2,0],[2,1,0,2,0],[1,0,0,0,0]",
     (["chain: [2,2,2,2,0], [2,0,1,2,1], [2,0,1,0,2]", "shift: [2,1,0,2,0]"], 0),
     (["NotIrreducible"], 1)),
    ("243", "[1,1,1,0,2],[1,0,0,2,1],[0,1,2,2,0],[0,0,1,0,0],[1,2,1,2,1],[0,1,1,2,0],"
     "[2,1,1,1,1],[2,1,0,2,0],[1,0,0,0,0]",
     (["NotDecomposable"], 3), (["NotDecomposable"], 3)),
]


@pytest.mark.parametrize("q, poly, decompose, canonical", DECOMPOSE_GOLDEN)
def test_decompose_and_canonicalize_golden(capsys, q, poly, decompose, canonical):
    for cmd, (want_out, want_rc) in (("decompose", decompose), ("canonicalize", canonical)):
        rc, out, _ = run(capsys, cmd, "--q", q, "--poly", poly)
        assert (out, rc) == (want_out, want_rc), cmd


def test_argparse_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_prime_power_splits_q_by_integer_roots():
    assert _prime_power(9) == (3, 2)
    assert _prime_power(3**40) == (3, 40)
    assert _prime_power(2**61 - 1) == (2**61 - 1, 1)
    for q in (15, 3**5 * 5):
        with pytest.raises(CliError, match="q must be a prime power, got %d" % q):
            _prime_power(q)
    for q in (1, 2):
        with pytest.raises(CliError, match="q must be an odd prime power >= 3, got %d" % q):
            _prime_power(q)


F9 = FiniteField(3, 2)


def verdict_line(report):
    if report.irreducible:
        return ["Irreducible"]
    return ["Reducible (witness index %d)" % report.first_failure]


def test_bracket_letters_over_f9(capsys):
    t = F9.parse_element("[0,1]")
    assert t == (1 - t) * (1 - t)  # so b = t is a square
    rc, out, _ = run(capsys, "test", "--q", "9", "--alphabet", "a=[1,0] b=[0,1]",
                     "--word", "f")
    assert rc == 1 and out == ["Reducible (witness index 1)"]
    alphabet = Alphabet(F9, [MonicQuad(F9.parse_element("[1,0]"), t)])
    assert out == verdict_line(chain_irreducible((0,), alphabet))


def test_commas_outside_brackets_split_letter_pieces(capsys):
    text = "a=[1,0],b=[0,1];b=[2,2]"
    alphabet = _parse_alphabet(F9, text)
    el = F9.parse_element
    assert alphabet.letters == (
        MonicQuad(el("[1,0]"), el("[0,1]")),
        MonicQuad(F9.zero, el("[2,2]")),
    )
    verdicts = set()
    for n in (1, 2, 3):
        for word in product(range(2), repeat=n):
            rc, out, _ = run(capsys, "test", "--p", "3", "--k", "2", "--alphabet", text,
                             "--word", alphabet.format_word(word))
            want = chain_irreducible(word, alphabet)
            assert out == verdict_line(want)
            assert rc == (0 if want.irreducible else 1)
            verdicts.add(rc)
    assert verdicts == {0, 1}


def test_local_chain_shares_the_letter_grammar(capsys):
    rc, out, _ = run(capsys, "local", "--p", "5", "--chain", "a=1,b=3")
    assert rc == 0 and out == ["Irreducible"]


def test_refusals_exit_with_usage_errors(capsys):
    for argv in (
        ("test", "--q", "5", "--alphabet", "a=0 b=2;;a=1 b=3", "--word", "f"),
        ("test", "--q", "5", "--alphabet", "c=1 b=2", "--word", "f"),
        ("local", "--p", "5", "--chain", "b=7;;b=3"),
        ("test", "--q", "5", "--alphabet", EX1, "--word", ""),
        ("count", "--q", "5", "-n", "-1"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, []), argv
        assert err.startswith("error: "), argv


def test_a_letter_giving_a_coefficient_twice_is_refused(capsys):
    # the last value used to win: a=2 here, and b=2 made the chain irreducible
    rc, out, _ = run(capsys, "local", "--p", "3", "--chain", "b=1")
    assert rc == 1 and out == ["Reducible (witness index 1)"]
    for argv in (
        ("test", "--q", "5", "--alphabet", "a=1 a=2 b=3", "--word", "f"),
        ("test", "--q", "5", "--alphabet", "a=0 b=2;b=3 a=1 b=3", "--word", "f"),
        ("test", "--q", "9", "--alphabet", "a=[1,0],b=[0,1],a=[1,0]", "--word", "f"),
        ("local", "--p", "3", "--chain", "b=1 b=2"),
        ("local", "--p", "5", "--chain", "a=1,b=3;a=0,a=0,b=3"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, []), argv
        assert err.startswith("error: ") and "twice" in err, argv


def test_an_empty_coordinate_is_refused(capsys):
    rc, out, _ = run(capsys, "test", "--q", "9", "--poly", "[ 1 , 2 ],0,1")
    assert rc == 0 and out == ["Irreducible"]
    for poly in ("[1,,2],0,1", "[1,2,],0,1", "[,1,2],0,1"):
        rc, out, err = run(capsys, "test", "--q", "9", "--poly", poly)
        assert (rc, out) == (2, []), poly
        assert err.startswith("error: "), poly
    rc, out, _ = run(capsys, "test", "--q", "9", "--alphabet", "a=[1,,0] b=[0,1]", "--word", "f")
    assert (rc, out) == (2, [])


def test_freedom_refuses_negative_counts(capsys):
    for extra in (("--search-depth", "-1"), ("--budget", "-1", "--search-depth", "1")):
        rc, out, err = run(capsys, "freedom", "--q", "5", *extra)
        assert (rc, out) == (2, []), extra
        assert err.startswith("error: "), extra


def test_count_refuses_a_subset_walk_past_its_byte_budget(capsys, monkeypatch):
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", 1 << 20)
    rc, out, err = run(capsys, "count", "--q", "29", "-n", "1")
    assert rc == 4 and out == []
    assert err.startswith("budget exceeded: subset walk at layer ")


def test_enumerate_refuses_a_level_past_the_byte_budget(capsys, monkeypatch):
    # level 4 holds 48,426 words, well under the output budget
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", 1 << 20)
    rc, out, err = run(capsys, "enumerate", "--q", "29", "-n", "6", "--words")
    assert rc == 4 and out == []
    assert err.startswith("budget exceeded: level ")


def test_enumerate_refuses_past_the_output_budget_before_building_the_level(capsys):
    # level 4 over F_29 holds 48,426 words; building them before the check
    # took an 11 MB peak
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "enumerate", "--q", "29", "-n", "4", "--words",
                           "--budget", "10000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (4, [])
    assert err == "budget exceeded: level 4 holds 48426 words, budget is 10000\n"
    assert peak < 4 * 2**20


def test_test_over_a_large_extension_field(capsys):
    # q = 100003^2; x^2 + 1 splits, as -1 is a square in every F_{p^2}
    rc, out, _ = run(capsys, "test", "--q", "10000600009", "--poly", "[1,0],[0,0],[1,0]")
    assert (rc, out) == (1, ["Reducible (witness index 1)"])


def test_enumerate_refuses_a_negative_budget(capsys):
    rc, out, err = run(capsys, "enumerate", "--q", "5", "--alphabet", "b=1;b=2",
                       "-n", "2", "--budget", "-1")
    assert (rc, out) == (2, [])
    assert err.startswith("error: ")
    rc, out, _ = run(capsys, "enumerate", "--q", "5", "--alphabet", "b=1;b=2",
                     "-n", "1", "--words", "--budget", "0")
    assert rc == 4 and out == []


def test_no_command_takes_a_seed(capsys):
    for argv in (("count", "--q", "3", "-n", "0"),
                 ("local", "--p", "5", "--chain", "a=1 b=3")):
        rc, out, _ = run(capsys, *argv, "--seed", "42")
        assert (rc, out) == (2, []), argv


def test_q_past_the_exact_primality_bound_is_a_usage_error(capsys):
    psi_13 = 3_317_044_064_679_887_385_961_981
    rc, out, err = run(capsys, "count", "--q", str(psi_13), "-n", "1")
    assert (rc, out) == (2, [])
    assert err.startswith("error: ") and "exact only below" in err


def test_fields_too_large_for_the_automata_are_refused_before_any_letter(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("an alphabet was built")

    monkeypatch.setattr(Alphabet, "__init__", refuse)
    for argv in (("count", "--q", "1000003", "-n", "1"),
                 ("count", "--q", "1031", "--alphabet", "b=1", "-n", "1"),
                 ("build", "--q", "1000003"),
                 ("enumerate", "--q", "1000003", "-n", "1", "--words")):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, []), argv
        assert err == "error: the automata need q <= 1024, got q = %s\n" % argv[2], argv
    # the letters of canonicalize's word are named from their number alone
    rc, out, _ = run(capsys, "canonicalize", "--q", "1000003", "--poly", "1,0,1")
    assert (rc, out) == (0, ["shift: 0", "word: L1000002"])


def test_the_largest_field_allowed_builds_its_automata(capsys):
    rc, out, _ = run(capsys, "count", "--q", "1021", "--alphabet", "b=1;b=2", "-n", "3")
    alphabet = _parse_alphabet(FiniteField(1021), "b=1;b=2")
    words = sum(chain_irreducible(w, alphabet).irreducible for w in product(range(2), repeat=3))
    assert (rc, out) == (0, ["words: %d" % words])


# a child that prints its own peak RSS in KiB after the command's output:
# VmHWM restarts at exec, where ru_maxrss keeps the peak of the parent
PEAK_RSS_CHILD = """
import sys
from quadcomp.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def test_enumerate_over_the_largest_field_keeps_its_levels_as_keys():
    # level 2 over F_1021 resumes at 260,610 distinct subsets of N's 2,043
    # states: as bool rows they took 532 MB of a 620 MB peak, as keys of 64
    # bytes they take 17 MB
    env = dict(os.environ, PYTHONPATH=str(Path(quadcomp.__file__).parents[1]))
    argv = ["enumerate", "--q", "1021", "-n", "2", "--words"]
    child = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, *argv], env=env,
                           capture_output=True, check=True)
    assert (hashlib.sha256(child.stdout).hexdigest()
            == "8cf71d90920fbb29add4071fcb100bf730d1dc19cecb787c1f7cdf7ad761acf7")
    assert int(child.stderr.decode().split()[-1]) < 300 * 2**10
