"""Command line front end.

Exit codes: 0 success (and "irreducible" verdicts), 1 reducible or not
irreducible, 2 usage or parse errors, 3 not-decomposable or failed
precondition, 4 search, output or subset-walk budget exceeded.

Words are written outermost letter first everywhere; --innermost-first
only flips the printed order.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import List, Optional

from .automaton import (
    InterimAutomaton,
    _check_interim_q,
    _json_doc,
    build_interim,
    count_accepted,
    export,
    merge_dist_reg,
    minimize,
    reverse_subset_prune,
)
from .errors import BudgetExceeded, NotDecomposable, NotIrreducible
from .finite_field import FiniteField, is_prime
from .irreducibility import (
    IRREDUCIBLE,
    NOT_DECOMPOSABLE,
    REDUCIBLE,
    _shifted_compositions,
    canonicalize,
    chain_irreducible,
    full_decompose,
    iter_levels,
    test_decomposable,
)
from .local_field import DEFAULT_PRECISION, PadicInt, PadicQuad, local_irreducible
from .monoid import (DEFAULT_SEARCH_BUDGET, Alphabet, MonicQuad, collision_search,
                     freedom_certificate, name_word, pi)
from .polynomial import Poly, _split_csv

DEFAULT_OUTPUT_BUDGET = 1_000_000


class CliError(Exception):
    """Bad usage or unparseable input; maps to exit code 2."""


@contextmanager
def _usage_errors():
    """Re-raise a ValueError from the library as a CliError."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc))


def _prime_power(q: int):
    if q < 3:
        raise CliError("q must be an odd prime power >= 3, got %d" % q)
    if q % 2 == 0:
        raise CliError("characteristic 2 unsupported")
    # q = p^k has an exact k-th root, and the largest such k has a prime root
    for k in range(q.bit_length() - 1, 0, -1):
        r = _iroot(q, k)
        if r**k == q and is_prime(r):
            return r, k
    raise CliError("q must be a prime power, got %d" % q)


def _iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n, by Newton's iteration from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _field_from_args(args) -> FiniteField:
    if args.q is not None:
        if args.p is not None or args.k is not None:
            raise CliError("give --q or --p (with --k), not both")
        with _usage_errors():
            p, k = _prime_power(args.q)
    elif args.p is not None:
        p, k = args.p, 1 if args.k is None else args.k
        if p % 2 == 0:
            raise CliError("characteristic 2 unsupported")
    else:
        raise CliError("a field is required: --q or --p (with --k)")
    with _usage_errors():
        return FiniteField(p, k)


def _parse_letters(text: str, value) -> list:
    """(a, b) of each letter 'a=<v> b=<v>' in text, letters joined by ';'.

    A letter splits into pieces at whitespace and at commas outside [...]
    element literals.  `value` maps each coefficient's text; a defaults
    to 0, and a coefficient given twice is refused.
    """
    letters = []
    for part in text.split(";"):
        pieces = [piece for chunk in _split_csv(part) for piece in chunk.split()]
        if not pieces:
            raise CliError("empty letter in %r" % text)
        coeffs = {}
        for piece in pieces:
            if piece[:2] not in ("a=", "b="):
                raise CliError("cannot parse %r; expected a=<v> b=<v>" % part.strip())
            if piece[0] in coeffs:
                raise CliError("letter %r gives %s twice" % (part.strip(), piece[:2]))
            coeffs[piece[0]] = piece[2:]
        if "b" not in coeffs:
            raise CliError("letter %r is missing b=" % part.strip())
        letters.append((value(coeffs.get("a", "0")), value(coeffs["b"])))
    return letters


def _parse_alphabet(field: FiniteField, text: str) -> Alphabet:
    if text.strip() == "maximal":
        return Alphabet.maximal(field)
    with _usage_errors():
        letters = [MonicQuad(a, b) for a, b in _parse_letters(text, field.parse_element)]
        return Alphabet(field, letters)


def _automaton_alphabet(args) -> Alphabet:
    """The alphabet of args, once its field is known to be small enough
    for the automata; a larger one is refused before any letter is built."""
    field = _field_from_args(args)
    with _usage_errors():
        _check_interim_q(field.q)
    return _parse_alphabet(field, args.alphabet)


def _format_word(alphabet: Alphabet, word, innermost_first: bool) -> str:
    if innermost_first:
        word = tuple(reversed(tuple(word)))
    return alphabet.format_word(word)


# -- build -------------------------------------------------------------------


def _text_automaton(name: str, aut) -> List[str]:
    field = aut.field
    labels = aut.labels()
    letters = [aut.alphabet.letter_name(j) for j in range(len(aut.alphabet))]
    if isinstance(aut, InterimAutomaton):
        kind = "merged interim" if aut.merged else "interim"
        acc = " ".join(label for label, ok in zip(labels, aut.accepting) if ok)
        lines = [
            "%s: %s automaton over F_%d, %d states" % (name, kind, field.q, aut.n_states),
            "accepting: %s" % acc,
        ]
    else:
        lines = [
            "%s: partial DFA over F_%d, %d states, start %d, all states accepting"
            % (name, field.q, aut.n_states, aut.start)
        ]
    lines += ["%s --%s--> %s" % (labels[s], letters[j], labels[t]) for s, j, t in aut.edges()]
    return lines


def cmd_build(args) -> int:
    alphabet = _automaton_alphabet(args)
    n_aut = build_interim(alphabet)
    if args.merge:
        with _usage_errors():
            n_aut = merge_dist_reg(n_aut)
    pieces = []
    if args.emit in ("N", "both"):
        pieces.append(("N", n_aut))
    if args.emit in ("M", "both"):
        m_aut = reverse_subset_prune(n_aut)
        if args.minimize:
            m_aut = minimize(m_aut)
        pieces.append(("M", m_aut))
    if args.format == "json":
        if len(pieces) == 1:
            print(export(pieces[0][1], "json"))
        else:
            bundle = {name: _json_doc(aut) for name, aut in pieces}
            print(json.dumps(bundle, indent=2, sort_keys=True))
    elif args.format == "dot":
        for _, aut in pieces:
            print(export(aut, "dot", trim=args.trim))
    else:
        for name, aut in pieces:
            for line in _text_automaton(name, aut):
                print(line)
    return 0


# -- test / local ------------------------------------------------------------


def _print_verdict(verdict) -> int:
    """Print a chain, decomposition or local verdict; return its exit code."""
    if verdict.status == IRREDUCIBLE:
        print("Irreducible")
        return 0
    if verdict.status == REDUCIBLE:
        print("Reducible (witness index %d)" % verdict.witness)
        return 1
    print("NotDecomposable" if verdict.status == NOT_DECOMPOSABLE else "PreconditionFailed")
    return 3


def cmd_test(args) -> int:
    field = _field_from_args(args)
    if (args.word is None) == (args.poly is None):
        raise CliError("exactly one of --word or --poly is required")
    with _usage_errors():
        if args.word is not None:
            alphabet = _parse_alphabet(field, args.alphabet)
            verdict = chain_irreducible(alphabet.parse_word(args.word), alphabet)
        else:
            verdict = test_decomposable(Poly.parse(field, args.poly))
    return _print_verdict(verdict)


def cmd_local(args) -> int:
    with _usage_errors():
        chain = [
            PadicQuad(PadicInt(args.p, a, args.precision), PadicInt(args.p, b, args.precision))
            for a, b in _parse_letters(args.chain, int)
        ]
        verdict = local_irreducible(chain)
    return _print_verdict(verdict)


# -- enumerate / count -------------------------------------------------------


def cmd_enumerate(args) -> int:
    alphabet = _automaton_alphabet(args)
    if args.n < 1:
        raise CliError("n must be >= 1")
    if args.budget < 0:
        raise CliError("budget must be >= 0")
    for _, words in iter_levels(alphabet, args.n, max_words=args.budget):
        pass
    # lists of ints, as Alphabet.check_word refuses numpy integers; a language
    # that dies before level n leaves none
    words = words.tolist()
    if args.words:
        for word in words:
            print(_format_word(alphabet, word, args.innermost_first))
        return 0
    if alphabet.is_maximal:
        n_polys = alphabet.field.q * len(words)
        if n_polys > args.budget:
            raise BudgetExceeded("%d polynomials exceed the budget %d" % (n_polys, args.budget))
        rows = _shifted_compositions(alphabet, words)
    else:
        rows = ((None, word, pi(word, alphabet)) for word in words)
    for shift, word, poly in rows:
        line = poly.csv()
        if args.annotate:
            shown = "word=" + _format_word(alphabet, word, args.innermost_first)
            if shift is not None:
                shown = "shift=%s %s" % (shift, shown)
            line += "  " + shown
        print(line)
    return 0


def cmd_count(args) -> int:
    alphabet = _automaton_alphabet(args)
    if args.n < 0:
        raise CliError("n must be >= 0")
    m_aut = reverse_subset_prune(build_interim(alphabet))
    words = count_accepted(m_aut, args.n)
    if args.words:
        print(words)
        return 0
    print("words: %d" % words)
    if alphabet.is_maximal and args.n >= 1:
        print("polynomials: %d" % (alphabet.field.q * words))
    return 0


# -- freedom -----------------------------------------------------------------


def cmd_freedom(args) -> int:
    field = _field_from_args(args)
    alphabet = _parse_alphabet(field, args.alphabet)
    cert = freedom_certificate(alphabet)
    if args.search_depth is not None:
        # searched before anything is printed, so a refusal leaves stdout empty
        with _usage_errors():
            found = collision_search(alphabet, args.search_depth, budget=args.budget)
    if cert:
        print("Free: %s" % cert.reason)
    else:
        print("Unknown: no criterion applies")
    if args.search_depth is None:
        return 0
    if found is None:
        print("collision search to length %d: none found" % args.search_depth)
    else:
        u, v = found
        print(
            "collision: %s and %s compose to the same polynomial"
            % (alphabet.format_word(u), alphabet.format_word(v))
        )
    return 0


# -- canonicalize / decompose -------------------------------------------------


def cmd_canonicalize(args) -> int:
    field = _field_from_args(args)
    with _usage_errors():
        try:
            shift, word = canonicalize(Poly.parse(field, args.poly))
        except NotIrreducible:
            print("NotIrreducible")
            return 1
        except NotDecomposable:
            print("NotDecomposable")
            return 3
    print("shift: %s" % shift)
    # letter j of the maximal alphabet is x^2 - e_j, one letter per element
    print("word: %s" % name_word(word, field.q))
    return 0


def cmd_decompose(args) -> int:
    field = _field_from_args(args)
    with _usage_errors():
        try:
            chain = full_decompose(Poly.parse(field, args.poly))
        except NotDecomposable:
            print("NotDecomposable")
            return 3
    print("chain: %s" % ", ".join(str(b) for b in chain.bs))
    print("shift: %s" % chain.shift)
    return 0


# -- parser ------------------------------------------------------------------


def _add_field_args(sub) -> None:
    sub.add_argument("--q", type=int, default=None, help="field size, an odd prime power")
    sub.add_argument("--p", type=int, default=None, help="field characteristic")
    sub.add_argument("--k", type=int, default=None, help="extension degree (with --p, default 1)")


def _add_alphabet_arg(sub) -> None:
    sub.add_argument(
        "--alphabet",
        default="maximal",
        help="'maximal' or letters 'a=<elem> b=<elem>' separated by ';' (a defaults to 0)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcomp",
        description="Irreducible compositions of monic quadratics over odd finite fields.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("build", help="construct the word automata")
    _add_field_args(s)
    _add_alphabet_arg(s)
    s.add_argument("--emit", choices=["N", "M", "both"], default="both")
    s.add_argument("--format", choices=["text", "dot", "json"], default="text")
    s.add_argument("--merge", action="store_true", help="merge mirrored interim states")
    s.add_argument("--minimize", action="store_true", help="minimize the partial DFA")
    s.add_argument("--trim", action="store_true", help="drop unreachable states (dot only)")
    s.set_defaults(func=cmd_build)

    s = subs.add_parser("test", help="decide irreducibility of a word or polynomial")
    _add_field_args(s)
    _add_alphabet_arg(s)
    s.add_argument("--word", default=None, help="word over the alphabet, outermost first")
    s.add_argument("--poly", default=None, help="coefficients, low degree first, comma separated")
    s.set_defaults(func=cmd_test)

    s = subs.add_parser("enumerate", help="list accepted words or their polynomials")
    _add_field_args(s)
    _add_alphabet_arg(s)
    s.add_argument("-n", type=int, required=True, help="word length, >= 1")
    s.add_argument("--words", action="store_true", help="print words instead of polynomials")
    s.add_argument("--annotate", action="store_true", help="append shift/word annotations")
    s.add_argument("--innermost-first", action="store_true", help="print words reversed")
    s.add_argument("--budget", type=int, default=DEFAULT_OUTPUT_BUDGET)
    s.set_defaults(func=cmd_enumerate)

    s = subs.add_parser("count", help="count accepted words of one length")
    _add_field_args(s)
    _add_alphabet_arg(s)
    s.add_argument("-n", type=int, required=True, help="word length, >= 0")
    s.add_argument("--words", action="store_true", help="print the bare word count")
    s.set_defaults(func=cmd_count)

    s = subs.add_parser("freedom", help="report whether the alphabet composes freely")
    _add_field_args(s)
    _add_alphabet_arg(s)
    s.add_argument("--search-depth", type=int, default=None, help="also search for collisions")
    s.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    s.set_defaults(func=cmd_freedom)

    s = subs.add_parser("local", help="chain criterion over the p-adic integers")
    s.add_argument("--p", type=int, required=True, help="odd prime")
    s.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    s.add_argument("--chain", required=True, help="letters 'a=<int> b=<int>' separated by ';'")
    s.set_defaults(func=cmd_local)

    s = subs.add_parser("canonicalize", help="canonical shift and word of an irreducible")
    _add_field_args(s)
    s.add_argument("--poly", required=True, help="coefficients, low degree first")
    s.set_defaults(func=cmd_canonicalize)

    s = subs.add_parser("decompose", help="full quadratic decomposition of a polynomial")
    _add_field_args(s)
    s.add_argument("--poly", required=True, help="coefficients, low degree first")
    s.set_defaults(func=cmd_decompose)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
