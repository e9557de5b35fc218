import json
from itertools import product

import pytest

from quadcomp import (
    Alphabet,
    FiniteField,
    MonicQuad,
    build_interim,
    chain_irreducible,
    enumerate_irreducible_degree,
)
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


def test_freedom_refuses_negative_counts(capsys):
    for extra in (("--search-depth", "-1"), ("--budget", "-1", "--search-depth", "1")):
        rc, out, err = run(capsys, "freedom", "--q", "5", *extra)
        assert (rc, out) == (2, []), extra
        assert err.startswith("error: "), extra


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
