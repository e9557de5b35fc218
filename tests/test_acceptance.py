"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line on the real stdout so the
verdicts stay visible under pytest's capture.  The random samples are
seeded, so every run exercises the same instances.
"""

import random
import time
from itertools import product

import pytest

from quadcomp import (
    Alphabet,
    CanonicalChain,
    FiniteField,
    IRREDUCIBLE,
    MonicQuad,
    PRECONDITION_FAILED,
    PadicInt,
    PadicQuad,
    PartialDfa,
    Poly,
    accepts,
    automaton_from_json,
    build_interim,
    chain_irreducible,
    compose_levels,
    count_accepted,
    disc_composition,
    discriminant,
    enumerate_irreducible_degree,
    enumerate_level,
    extend_frontier,
    full_decompose,
    isomorphic,
    lazy_accepts,
    letter_chain,
    local_irreducible,
    pi,
    rabin_irreducible_2power,
    rabin_is_irreducible,
    reverse_subset_prune,
    start_level,
)
from quadcomp import test_decomposable as decomposable_verdict
from quadcomp._batch import from_polys
from quadcomp.cli import main as cli_main

F3 = FiniteField(3)
F5 = FiniteField(5)
F7 = FiniteField(7)
F9 = FiniteField(3, 2)
GRID_FIELDS = (F3, F5, F7, F9)

EX1_ALPHABET = "a=0 b=2;a=1 b=3"

_CAP = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    global _CAP
    _CAP = capsys
    yield
    _CAP = None


def report(num, ok, detail=""):
    line = "criterion %2d: %s%s" % (num, "PASS" if ok else "FAIL",
                                    "  [%s]" % detail if detail else "")
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def ex1_alphabet():
    return Alphabet(F5, [MonicQuad(F5.elem(0), F5.elem(2)),
                         MonicQuad(F5.elem(1), F5.elem(3))])


def build_dfa(alphabet):
    return reverse_subset_prune(build_interim(alphabet))


def sampled_alphabets(field, rng, count=20):
    """`count` seeded alphabets of one or two distinct letters."""
    elems = list(field.elements())
    out = []
    while len(out) < count:
        size = rng.randint(1, 2)
        letters, seen = [], set()
        while len(letters) < size:
            quad = MonicQuad(rng.choice(elems), rng.choice(elems))
            key = (quad.a.val, quad.b.val)
            if key not in seen:
                seen.add(key)
                letters.append(quad)
        out.append(Alphabet(field, letters))
    return out


def grid_alphabets(field, rng):
    return sampled_alphabets(field, rng) + [Alphabet.maximal(field)]


def test_criterion_01_golden_automata(capsys):
    t0 = time.monotonic()

    def build_via_cli(args):
        rc = cli_main(["build"] + args + ["--emit", "M", "--minimize",
                                          "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        got = automaton_from_json(out)
        assert isinstance(got, PartialDfa)
        return got

    got1 = build_via_cli(["--q", "5", "--alphabet", EX1_ALPHABET])
    golden_two_letter = PartialDfa(F5, ex1_alphabet(), 4,
                      {(0, 0): 0, (0, 1): 1, (1, 1): 2, (2, 0): 3})
    got2 = build_via_cli(["--q", "3", "--alphabet", "maximal"])
    golden_maximal = PartialDfa(F3, Alphabet.maximal(F3), 4,
                      {(0, 2): 1, (1, 1): 2, (1, 2): 3, (2, 0): 2,
                       (3, 0): 3, (3, 1): 3, (3, 2): 3})
    elapsed = time.monotonic() - t0
    ok = isomorphic(got1, golden_two_letter) and isomorphic(got2, golden_maximal) and elapsed < 1.0
    report(1, ok, "two golden automata matched in %.2fs" % elapsed)


def test_criterion_02_example1_language():
    alph = ex1_alphabet()
    dfa = build_dfa(alph)
    counts = []
    mismatch = 0
    for n in range(9):
        accepted = {w for w in product(range(2), repeat=n) if accepts(dfa, w)}
        expected = set()
        if n == 0:
            expected.add(())
        expected.add((0,) * n)                    # f^n
        if n >= 1:
            expected.add((0,) * (n - 1) + (1,))   # f^(n-1) g
        if n >= 2:
            expected.add((0,) * (n - 2) + (1, 1))
        if n >= 3:
            expected.add((0,) * (n - 3) + (1, 1, 0))
        if accepted != expected or count_accepted(dfa, n) != len(expected):
            mismatch += 1
        counts.append(len(accepted))
    ok = mismatch == 0 and counts == [1, 2, 3, 4, 4, 4, 4, 4, 4]
    report(2, ok, "counts %s" % counts)


def test_criterion_03_example2_counts():
    mx = Alphabet.maximal(F3)
    dfa = build_dfa(mx)
    mismatch = 0
    got = []
    for n in range(1, 8):
        expected = {1: 1, 2: 2}.get(n, 1 + 3 ** (n - 2))
        counted = count_accepted(dfa, n)
        filtered = sum(1 for w in product(range(3), repeat=n) if accepts(dfa, w))
        got.append(counted)
        if not (counted == filtered == expected):
            mismatch += 1
    report(3, mismatch == 0, "counts n=1..7: %s" % got)


def test_criterion_04_four_way_agreement():
    t0 = time.monotonic()
    rng = random.Random(41)
    checked = 0
    mismatch = 0
    spot_pool = []
    for field in GRID_FIELDS:
        for alph in grid_alphabets(field, rng):
            n_aut = build_interim(alph)
            dfa = reverse_subset_prune(n_aut)
            levels = compose_levels(field, alph, 5)
            for t in range(1, 6):
                verdicts = rabin_irreducible_2power(field, levels[t])
                for r, word in enumerate(product(range(len(alph)), repeat=t)):
                    batch = bool(verdicts[r])
                    a = accepts(dfa, word)
                    b = lazy_accepts(n_aut, word)
                    c = chain_irreducible(word, alph).irreducible
                    if not (a == b == c == batch):
                        mismatch += 1
                    checked += 1
                    spot_pool.append((alph, word, batch))
    # classical gcd-based Rabin on a seeded subsample of the same words
    for alph, word, batch in rng.sample(spot_pool, 200):
        if rabin_is_irreducible(pi(word, alph)) != batch:
            mismatch += 1
    elapsed = time.monotonic() - t0
    ok = mismatch == 0 and elapsed < 60.0
    report(4, ok, "%d words, 4 oracles, %d mismatches, %.1fs"
           % (checked, mismatch, elapsed))


def test_criterion_05_prefix_closed():
    rng = random.Random(41)  # same grid as criterion 4
    violations = 0
    accepted_total = 0
    for field in GRID_FIELDS:
        for alph in grid_alphabets(field, rng):
            dfa = build_dfa(alph)
            assert dfa.start == 0
            for t in range(1, 6):
                for word in product(range(len(alph)), repeat=t):
                    if not accepts(dfa, word):
                        continue
                    accepted_total += 1
                    for i in range(t):
                        if not accepts(dfa, word[:i]):
                            violations += 1
                        if not chain_irreducible(word[:i + 1], alph).irreducible:
                            violations += 1
    report(5, violations == 0,
           "%d accepted words, all prefixes accepted" % accepted_total)


def test_criterion_06_partition_theorem():
    cases = ((F3, 2), (F3, 3), (F5, 2))
    mismatch = 0
    sizes = []
    for field, n in cases:
        quads = [Poly(field, tail + (field.one_raw,), raw=True)
                 for tail in product(field.iter_raw(), repeat=2)]
        brute = set()
        for combo in product(quads, repeat=n):
            poly = combo[0]
            for f in combo[1:]:
                poly = poly.compose(f)
            if rabin_is_irreducible(poly):
                brute.add(poly)
        mine = list(enumerate_irreducible_degree(field, n))
        mx = Alphabet.maximal(field)
        words = enumerate_level(mx, n).tolist()
        classes = []
        for shift in field.elements():
            classes.append({pi(w, mx).shift_argument(-shift) for w in words})
        union = set().union(*classes)
        if set(mine) != brute or union != brute:
            mismatch += 1
        if len(mine) != field.q * len(words) or len(union) != sum(map(len, classes)):
            mismatch += 1
        sizes.append(len(mine))
    report(6, mismatch == 0, "set sizes %s" % sizes)


def test_criterion_07_round_trip():
    rng = random.Random(43)
    fields = (F3, F5, F7)
    groups = {}
    chains = []
    mismatch = 0
    for i in range(1000):
        field = fields[i % 3]
        t = rng.randint(1, 6)
        bs = tuple(field.elem(rng.randrange(field.q)) for _ in range(t))
        shift = field.elem(rng.randrange(field.q))
        chain = CanonicalChain(bs, shift)
        poly = chain.recompose()
        if full_decompose(poly) != chain:
            mismatch += 1
        verdict = decomposable_verdict(poly)
        groups.setdefault((field.q, t), []).append(poly)
        chains.append((field, poly, verdict.status == IRREDUCIBLE))
    for (q, t), polys in groups.items():
        field = next(f for f in fields if f.q == q)
        batch = rabin_irreducible_2power(field, from_polys(field, polys))
        claims = [c for f, p, c in chains if f.q == q and p.degree == 2**t]
        if len(claims) != len(polys) or any(
                bool(b) != c for b, c in zip(batch, claims)):
            mismatch += 1
    for field, poly, claim in rng.sample(chains, 25):
        if poly.degree <= 16 and rabin_is_irreducible(poly) != claim:
            mismatch += 1
    report(7, mismatch == 0, "1000 chains, decompose and verdict agree")


def test_criterion_08_discriminant_lemma():
    rng = random.Random(47)
    mismatch = 0
    for i in range(500):
        field = GRID_FIELDS[i % 4]
        elems = list(field.elements())
        deg = rng.randint(1, 8)
        g = Poly(field, [rng.choice(elems) for _ in range(deg)] + [field.one])
        f = MonicQuad(rng.choice(elems), rng.choice(elems))
        lhs = discriminant(g.compose(f.to_poly()))
        rhs = disc_composition(g, f)
        if lhs * lhs != rhs * rhs:
            mismatch += 1
    report(8, mismatch == 0, "500 pairs, squares equal")


def test_criterion_09_local_theorem():
    rng = random.Random(53)
    primes = (3, 5, 7)
    mismatch = 0
    for i in range(200):
        p = primes[i % 3]
        m = p**8
        chain = []
        for _ in range(rng.randint(1, 4)):
            b = rng.randrange(m)
            while b % p == 0:
                b = rng.randrange(m)
            chain.append(PadicQuad(PadicInt(p, rng.randrange(m), 8),
                                   PadicInt(p, b, 8)))
        verdict = local_irreducible(chain)
        reduced = letter_chain([quad.reduce() for quad in chain])
        if verdict.status == PRECONDITION_FAILED:
            mismatch += 1
        elif verdict.irreducible != reduced.irreducible:
            mismatch += 1
        elif not verdict.irreducible and verdict.witness != reduced.first_failure:
            mismatch += 1
    for p in primes:
        one = PadicQuad(PadicInt(p, 0, 8), PadicInt(p, p, 8))
        if local_irreducible([one]).status != PRECONDITION_FAILED:
            mismatch += 1
    report(9, mismatch == 0, "200 chains lift; x^2 - p refused")


def test_criterion_10_performance():
    mx = Alphabet.maximal(F3)
    dfa = build_dfa(mx)
    expected = 3 * count_accepted(dfa, 10)
    t0 = time.monotonic()
    produced = sum(1 for _ in enumerate_irreducible_degree(F3, 10))
    elapsed = time.monotonic() - t0
    ok = produced == expected and elapsed < 30.0

    # per-level frontier growth, repeated until each level times stably
    n_aut = build_interim(mx)
    frontier = start_level(n_aut)
    per_level = []
    for _ in range(10):
        reps, spent = 1, 0.0
        while True:
            t1 = time.perf_counter()
            for _ in range(reps):
                nxt = extend_frontier(n_aut, frontier)
            spent = time.perf_counter() - t1
            if spent >= 0.025:
                break
            reps = max(reps * 2, int(reps * 0.05 / max(spent, 1e-9)))
        per_level.append(spent / reps)
        frontier = nxt
    ratios = [b / a for a, b in zip(per_level, per_level[1:])]
    ok = ok and max(ratios) <= 2 * 3
    report(10, ok, "%d polynomials of degree 1024 in %.1fs, max level ratio %.2f"
           % (produced, elapsed, max(ratios)))
