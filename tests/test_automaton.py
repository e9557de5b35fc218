import json
import random
import sys
from collections import deque
from itertools import product

import numpy as np
import pytest

from quadcomp import (
    Alphabet,
    FieldElement,
    FiniteField,
    MonicQuad,
    IndexOutOfRange,
    NState,
    PartialDfa,
    UnsupportedFormat,
    accepts,
    automaton_from_json,
    build_interim,
    canonical_form,
    count_accepted,
    export,
    isomorphic,
    lazy_accepts,
    lazy_first_failure,
    merge_dist_reg,
    minimize,
    reverse_subset_prune,
    to_dot,
    to_json,
)
from quadcomp import automaton, cli
from quadcomp.automaton import _interim_reachable

F3 = FiniteField(3)
F5 = FiniteField(5)
F7 = FiniteField(7)
F9 = FiniteField(3, 2)
F25 = FiniteField(5, 2)
F27 = FiniteField(3, 3)


def example_alphabet():
    return Alphabet(F5, [MonicQuad(F5.elem(0), F5.elem(2)),
                         MonicQuad(F5.elem(1), F5.elem(3))])


def test_interim_shape():
    for field, letters in ((F3, 3), (F5, 2), (F7, 7)):
        alph = Alphabet.maximal(field) if letters == field.q else example_alphabet()
        aut = build_interim(alph)
        assert len(aut.states) == 2 * field.q + 1
        assert aut.states[0].kind == "initial"
        assert 0 in aut.accepting
        assert not aut.merged


def state_of(aut, kind, value):
    for i, s in enumerate(aut.states):
        if s.kind == kind and s.value == value:
            return i
    raise AssertionError("no state %s %s" % (kind, value))


def test_interim_transitions_follow_the_maps():
    alph = example_alphabet()
    aut = build_interim(alph)
    # start moves to the distinguished state of -b
    assert aut.delta[0][0] == state_of(aut, "dist", F5.elem(3))
    assert aut.delta[1][0] == state_of(aut, "dist", F5.elem(2))
    # dist and reg states move to reg states through the letter map
    d3 = state_of(aut, "dist", F5.elem(3))
    assert aut.delta[0][d3] == state_of(aut, "reg", F5.elem(2))  # f(3) = 2
    assert aut.delta[1][d3] == state_of(aut, "reg", F5.elem(1))  # g(3) = 1
    r2 = state_of(aut, "reg", F5.elem(2))
    assert aut.delta[0][r2] == r2  # f(2) = 2
    # dist(a) accepting iff -a nonsquare; reg(a) iff a nonsquare
    assert aut.accepting[0]
    for i, s in enumerate(aut.states):
        if s.kind == "dist":
            assert aut.accepting[i] == (-s.value).is_nonsquare()
        elif s.kind == "reg":
            assert aut.accepting[i] == s.value.is_nonsquare()


def test_merge_is_legal_iff_minus_one_square():
    merged = merge_dist_reg(build_interim(example_alphabet()))
    assert merged.merged
    assert len(merged.states) == F5.q + 1
    merge_dist_reg(build_interim(Alphabet.maximal(F9)))
    for field in (F3, F7):
        with pytest.raises(ValueError):
            merge_dist_reg(build_interim(Alphabet.maximal(field)))


def test_merged_interim_golden_for_the_two_letter_example():
    # the merged interim automaton of f = x^2-2, g = (x-1)^2-3 over F_5
    aut = merge_dist_reg(build_interim(example_alphabet()))
    v = {x: state_of(aut, "reg", F5.elem(x)) for x in range(5)}
    f, g = 0, 1
    assert aut.delta[f][0] == v[3]
    assert aut.delta[g][0] == v[2]
    assert aut.delta[f][v[3]] == v[2]
    assert aut.delta[g][v[3]] == v[1]
    assert aut.delta[f][v[2]] == v[2]
    assert aut.delta[g][v[2]] == v[3]
    assert aut.delta[f][v[1]] == v[4]
    assert aut.delta[g][v[1]] == v[2]
    assert aut.delta[f][v[4]] == v[4]
    assert aut.delta[g][v[4]] == v[1]
    accepting = {i for i in range(len(aut.states)) if aut.accepting[i]}
    assert accepting == {0, v[2], v[3]}


def test_reverse_subset_prune_marks_all_states_accepting():
    m = reverse_subset_prune(build_interim(example_alphabet()))
    assert m.start == 0
    assert m.n_states == 5
    # every state is accepting: acceptance is just transition existence
    for word in product(range(2), repeat=4):
        path_ok = True
        s = m.start
        for letter in word:
            nxt = m.trans.get((s, letter))
            if nxt is None:
                path_ok = False
                break
            s = nxt
        assert path_ok == accepts(m, word)


def test_raw_dfa_for_the_maximal_f3_alphabet():
    # golden machine: S --h--> 1, 1 --g--> 2, 1 --h--> 3,
    # 2 --f--> 2, and 3 loops on all three letters
    m = reverse_subset_prune(build_interim(Alphabet.maximal(F3)))
    f, g, h = 0, 1, 2
    golden = {(0, h): 1, (1, g): 2, (1, h): 3, (2, f): 2, (3, f): 3, (3, g): 3, (3, h): 3}
    assert m.n_states == 4
    assert m.trans == golden


def test_minimized_dfa_for_the_two_letter_example():
    # golden machine: S --f--> S, S --g--> 1 --g--> 2 --f--> 3
    m = minimize(reverse_subset_prune(build_interim(example_alphabet())))
    golden = PartialDfa(F5, example_alphabet(), 4,
                        {(0, 0): 0, (0, 1): 1, (1, 1): 2, (2, 0): 3})
    assert m.n_states == 4
    assert isomorphic(m, golden)
    assert canonical_form(m) == canonical_form(golden)


def test_minimize_preserves_language_and_counts():
    for alph in (example_alphabet(), Alphabet.maximal(F3), Alphabet.maximal(F5)):
        m = reverse_subset_prune(build_interim(alph))
        mm = minimize(m)
        assert mm.n_states <= m.n_states
        for n in range(7):
            assert count_accepted(m, n) == count_accepted(mm, n)
        for word in product(range(len(alph)), repeat=3):
            assert accepts(m, word) == accepts(mm, word)


def test_accepts_known_words():
    alph = example_alphabet()
    m = reverse_subset_prune(build_interim(alph))
    assert accepts(m, ())
    assert accepts(m, alph.parse_word("ggf"))
    assert accepts(m, alph.parse_word("fgg"))
    assert not accepts(m, alph.parse_word("gf"))
    assert not accepts(m, alph.parse_word("fgf"))
    mx = Alphabet.maximal(F3)
    m3 = reverse_subset_prune(build_interim(mx))
    assert accepts(m3, mx.parse_word("hg"))
    assert accepts(m3, mx.parse_word("hh"))
    assert not accepts(m3, mx.parse_word("hgg"))
    assert accepts(m3, mx.parse_word("hgf"))


def test_lazy_simulation_equals_dfa():
    for alph in (example_alphabet(), Alphabet.maximal(F3)):
        n_aut = build_interim(alph)
        m = reverse_subset_prune(n_aut)
        for t in range(1, 6):
            for word in product(range(len(alph)), repeat=t):
                assert lazy_accepts(n_aut, word) == accepts(m, word)


def test_lazy_failure_index_points_at_first_bad_prefix():
    alph = example_alphabet()
    n_aut = build_interim(alph)
    m = reverse_subset_prune(n_aut)
    for t in range(1, 6):
        for word in product(range(2), repeat=t):
            pos = lazy_first_failure(n_aut, word)
            if pos is None:
                assert accepts(m, word)
            else:
                assert not accepts(m, word[:pos])
                assert pos == 1 or accepts(m, word[: pos - 1])


def test_language_is_prefix_closed():
    for alph in (example_alphabet(), Alphabet.maximal(F3)):
        m = reverse_subset_prune(build_interim(alph))
        for t in range(1, 6):
            for word in product(range(len(alph)), repeat=t):
                if accepts(m, word):
                    assert all(accepts(m, word[:i]) for i in range(t))


def test_count_accepted_matches_exhaustive_filter():
    for alph in (example_alphabet(), Alphabet.maximal(F3)):
        m = reverse_subset_prune(build_interim(alph))
        for n in range(6):
            brute = sum(1 for w in product(range(len(alph)), repeat=n) if accepts(m, w))
            assert count_accepted(m, n) == brute
    with pytest.raises(ValueError):
        count_accepted(m, -1)


def test_example_count_sequences():
    m5 = reverse_subset_prune(build_interim(example_alphabet()))
    assert [count_accepted(m5, n) for n in range(9)] == [1, 2, 3, 4, 4, 4, 4, 4, 4]
    m3 = reverse_subset_prune(build_interim(Alphabet.maximal(F3)))
    assert [count_accepted(m3, n) for n in range(8)] == [1, 1, 2, 4, 10, 28, 82, 244]


def test_merge_preserves_language():
    for alph in (example_alphabet(), Alphabet.maximal(F9)):
        n_aut = build_interim(alph)
        merged = merge_dist_reg(n_aut)
        m1 = reverse_subset_prune(n_aut)
        m2 = reverse_subset_prune(merged)
        for n in range(5):
            assert count_accepted(m1, n) == count_accepted(m2, n)
        width = min(len(alph), 4)
        for t in range(1, 3):
            for word in product(range(width), repeat=t):
                assert accepts(m1, word) == accepts(m2, word)


def test_dot_export():
    m = minimize(reverse_subset_prune(build_interim(example_alphabet())))
    dot = to_dot(m)
    assert dot.startswith("digraph")
    edges = [line for line in dot.splitlines() if "->" in line and "__start" not in line]
    assert len(edges) == 4
    assert dot.count("doublecircle") == 4  # every state accepting
    n_aut = build_interim(example_alphabet())
    assert "(0)" in to_dot(n_aut)
    assert "(0)" not in to_dot(merge_dist_reg(n_aut), trim=True)


def test_json_round_trip():
    n_aut = build_interim(example_alphabet())
    m = reverse_subset_prune(n_aut)
    assert automaton_from_json(to_json(n_aut)) == n_aut
    assert automaton_from_json(to_json(m)) == m
    merged = merge_dist_reg(n_aut)
    assert automaton_from_json(to_json(merged)) == merged
    n9 = build_interim(Alphabet.maximal(F9))
    assert automaton_from_json(to_json(n9)) == n9
    blob = json.loads(to_json(m))
    assert blob["type"] == "partial"
    assert all(s["accepting"] for s in blob["states"])
    assert blob["field"] == {"p": 5, "k": 1}


def test_export_rejects_unknown_format():
    m = reverse_subset_prune(build_interim(example_alphabet()))
    with pytest.raises(UnsupportedFormat):
        export(m, "yaml")


def test_isomorphic_distinguishes():
    m5 = minimize(reverse_subset_prune(build_interim(example_alphabet())))
    m3 = minimize(reverse_subset_prune(build_interim(Alphabet.maximal(F3))))
    assert isomorphic(m5, m5)
    assert not isomorphic(m5, m3)


def queue_prune(n_aut):
    """Reference subset walk: one state and one letter at a time, over int
    bitmasks, with a deque for the BFS.  Returns (n_states, trans)."""
    start_mask = n_aut.accepting_mask
    ids = {start_mask: 0}
    trans = {}
    queue = deque([start_mask])
    while queue:
        mask = queue.popleft()
        sid = ids[mask]
        for j in range(len(n_aut.alphabet)):
            nxt = n_aut.preimage_mask(mask, j)
            if not nxt & 1:
                continue
            if nxt not in ids:
                ids[nxt] = len(ids)
                queue.append(nxt)
            trans[(sid, j)] = ids[nxt]
    return len(ids), trans


def queue_count(m_aut, n):
    """Reference path count: a dict walk over the edges, n times."""
    counts = {m_aut.start: 1}
    for _ in range(n):
        nxt = {}
        for (s, _j), t in m_aut.trans.items():
            if s in counts:
                nxt[t] = nxt.get(t, 0) + counts[s]
        counts = nxt
    return sum(counts.values())


def assert_same_walk(n_aut):
    m = reverse_subset_prune(n_aut)
    n_states, trans = queue_prune(n_aut)
    assert m.start == 0
    assert m.n_states == n_states
    assert m.trans == trans
    assert list(m.trans) == sorted(trans)  # edges in (state, letter) order
    return m


def test_layer_walk_matches_queue_walk_on_maximal_alphabets():
    for field in (F3, F5, F7, F9, F25, F27):
        m = assert_same_walk(build_interim(Alphabet.maximal(field)))
        assert queue_count(m, 12) == count_accepted(m, 12)


def test_layer_walk_matches_queue_walk_on_merged_automata():
    for alph in (example_alphabet(), Alphabet.maximal(F5), Alphabet.maximal(F9),
                 Alphabet.maximal(F25)):
        assert_same_walk(merge_dist_reg(build_interim(alph)))


def test_layer_walk_matches_queue_walk_past_64_bit_masks():
    rng = random.Random(20241018)
    largest = 0
    for field in (FiniteField(37), FiniteField(41)):
        assert 2 * field.q + 1 > 64
        for n_letters in (2, 3, 2, 3):
            letters = [MonicQuad(field.elem(rng.randrange(field.q)),
                                 field.elem(rng.randrange(field.q)))
                       for _ in range(n_letters)]
            m = assert_same_walk(build_interim(Alphabet(field, letters)))
            largest = max(largest, m.n_states)
    assert largest > 1000


def test_layer_walk_leaves_the_preimage_memo_empty():
    n_aut = build_interim(Alphabet.maximal(F7))
    reverse_subset_prune(n_aut)
    assert n_aut._pre_memo == {}


def test_count_accepted_is_exact_past_two_to_the_63():
    field = FiniteField(29)
    loops = PartialDfa(field, Alphabet.maximal(field), 1, {(0, j): 0 for j in range(29)})
    assert count_accepted(loops, 20) == 29**20 > 2**63
    assert type(count_accepted(loops, 20)) is int
    assert count_accepted(loops, 0) == 1


def test_count_accepted_without_edges():
    bare = PartialDfa(F3, Alphabet.maximal(F3), 2, {})
    assert count_accepted(bare, 0) == 1
    assert [count_accepted(bare, n) for n in (1, 2, 7)] == [0, 0, 0]


def moore_reference(m_aut):
    """Reference minimization: Moore's rounds over Python lists and dicts
    (a rejecting sink stands in for missing transitions), then the blocks
    numbered by a queue BFS from the start block."""
    n = m_aut.n_states
    sink = n
    n_letters = len(m_aut.alphabet)
    full = [
        [m_aut.trans.get((s, j), sink) for j in range(n_letters)] for s in range(n)
    ]
    full.append([sink] * n_letters)
    block = [0] * n + [1]
    while True:
        remap = {}
        new_block = []
        for s in range(n + 1):
            key = (block[s],) + tuple(block[t] for t in full[s])
            if key not in remap:
                remap[key] = len(remap)
            new_block.append(remap[key])
        if new_block == block:
            break
        block = new_block
    merged_trans = {}
    for (s, j), t in m_aut.trans.items():
        merged_trans[(block[s], j)] = block[t]
    start_block = block[m_aut.start]
    number = {start_block: 0}
    queue = deque([start_block])
    while queue:
        b = queue.popleft()
        for j in range(n_letters):
            t = merged_trans.get((b, j))
            if t is not None and t not in number:
                number[t] = len(number)
                queue.append(t)
    trans = {
        (number[s], j): number[t]
        for (s, j), t in merged_trans.items()
        if s in number and t in number
    }
    return PartialDfa(m_aut.field, m_aut.alphabet, len(number), trans, start=0)


def assert_same_minimum(m):
    got = minimize(m)
    want = moore_reference(m)
    assert got == want
    assert got.trans == want.trans
    return got.n_states < m.n_states


def random_alphabet(rng, field, n_letters):
    pairs = rng.sample(list(product(list(field.elements()), repeat=2)), n_letters)
    return Alphabet(field, [MonicQuad(a, b) for a, b in pairs])


def test_minimize_matches_moore_reference_on_interim_automata():
    shrunk = 0
    for field in (F3, F5, F7, F9, F25, F27):
        shrunk += assert_same_minimum(reverse_subset_prune(build_interim(Alphabet.maximal(field))))
    for alph in (example_alphabet(), Alphabet.maximal(F5), Alphabet.maximal(F9)):
        shrunk += assert_same_minimum(reverse_subset_prune(merge_dist_reg(build_interim(alph))))
    rng = random.Random(4242)
    for field in (F5, F7, F9, FiniteField(11), FiniteField(13)):
        for n_letters in (1, 2, 3, 4):
            alph = random_alphabet(rng, field, n_letters)
            shrunk += assert_same_minimum(reverse_subset_prune(build_interim(alph)))
    assert shrunk > 0


def test_minimize_matches_moore_reference_on_random_partial_dfas():
    rng = random.Random(777)
    shrunk = unreachable = edgeless = 0
    for _ in range(200):
        n = rng.randrange(1, 14)
        alph = Alphabet.maximal(F3) if rng.random() < 0.5 else example_alphabet()
        dense = rng.choice((0.3, 0.6, 0.9))
        trans = {(s, j): rng.randrange(n)
                 for s in range(n) for j in range(len(alph)) if rng.random() < dense}
        m = PartialDfa(alph.field, alph, n, trans, start=rng.randrange(n))
        shrunk += assert_same_minimum(m)
        reached = {m.start} | set(trans.values())
        unreachable += len(reached) < n
        edgeless += any(all((s, j) not in trans for j in range(len(alph))) for s in range(n))
    assert shrunk > 0 and unreachable > 0 and edgeless > 0


def test_count_accepted_switches_from_int64_to_python_ints():
    loop = PartialDfa(F5, example_alphabet(), 1, {(0, 0): 0, (0, 1): 0})
    for n in (62, 63, 64):
        got = count_accepted(loop, n)
        assert got == 2**n
        assert type(got) is int


def test_table_pipeline_never_builds_the_transition_dict():
    m = reverse_subset_prune(build_interim(Alphabet.maximal(F7)))
    mm = minimize(m)
    count_accepted(m, 5)
    count_accepted(mm, 5)
    assert "trans" not in vars(m)
    assert "trans" not in vars(mm)
    assert mm.trans == moore_reference(m).trans
    assert "trans" in vars(mm)


def test_table_consumers_never_build_the_transition_dict(monkeypatch, capsys):
    m = reverse_subset_prune(build_interim(Alphabet.maximal(F7)))
    accepts(m, (1, 2, 3))
    to_dot(m)
    to_json(m)
    assert "trans" not in vars(m)
    built = []

    def spy(n_aut):
        built.append(reverse_subset_prune(n_aut))
        return built[-1]

    monkeypatch.setattr(cli, "reverse_subset_prune", spy)
    assert cli.main(["build", "--q", "7", "--emit", "M"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + np.count_nonzero(built[0].table >= 0)
    assert "trans" not in vars(built[0])
    assert list(m.edges()) == [(s, j, t) for (s, j), t in sorted(m.trans.items())]


def test_partial_dfa_checks_its_transitions():
    alph = example_alphabet()
    for trans in ({(2, 0): 0}, {(-1, 0): 0}, {(0, 2): 0}, {(0, -1): 0},
                  {(0, 0): 2}, {(0, 0): -1}):
        with pytest.raises(IndexOutOfRange):
            PartialDfa(F5, alph, 2, trans)
    for table in (np.zeros((2, 3), dtype=np.int32), np.zeros((3, 2), dtype=np.int32),
                  np.array([[0, -2], [1, 1]]), np.array([[0, 2], [1, 1]])):
        with pytest.raises(IndexOutOfRange):
            PartialDfa(F5, alph, 2, table)
    for start in (-1, 2):
        with pytest.raises(IndexOutOfRange):
            PartialDfa(F5, alph, 2, {(0, 0): 1}, start=start)
    table = np.array([[1, -1], [-1, 0]])
    assert PartialDfa(F5, alph, 2, table) == PartialDfa(F5, alph, 2, {(0, 0): 1, (1, 1): 0})


def test_json_with_an_out_of_range_target_is_refused():
    blob = json.loads(to_json(reverse_subset_prune(build_interim(example_alphabet()))))
    blob["transitions"][0]["to"] = len(blob["states"])
    with pytest.raises(IndexOutOfRange):
        automaton_from_json(json.dumps(blob))


def test_both_oracles_refuse_an_out_of_range_letter():
    # F_3's M rejects the prefix (0,) already, so the bad letter comes later
    alph = Alphabet.maximal(F3)
    n_aut = build_interim(alph)
    m = reverse_subset_prune(n_aut)
    assert not accepts(m, (0,))
    for word in ((0, 7), (2, 2, 7), (7,), (0, -1)):
        with pytest.raises(IndexOutOfRange):
            accepts(m, word)
        with pytest.raises(IndexOutOfRange):
            lazy_accepts(n_aut, word)


def merge_reference(n_aut):
    """Reference merge: the merged machine's transitions computed again from
    the letters, one field operation at a time."""
    field = n_aut.field
    q = field.q
    raws = list(field.iter_raw())
    states = [NState("initial", None)]
    states += [NState("reg", FieldElement(field, v)) for v in raws]
    accepting = [True] + [field.is_nonsquare_raw(v) for v in raws]
    delta = []
    for quad in n_aut.alphabet:
        a, b = quad.a.val, quad.b.val
        row = [0] * (q + 1)
        row[0] = 1 + field.index_of_raw(field.rneg(b))
        for i, v in enumerate(raws):
            s = field.rsub(v, a)
            image = field.rsub(field.rmul(s, s), b)
            row[1 + i] = 1 + field.index_of_raw(image)
        delta.append(tuple(row))
    return states, accepting, delta


def assert_same_merge(alph):
    merged = merge_dist_reg(build_interim(alph))
    states, accepting, delta = merge_reference(merged)
    assert merged.merged
    assert list(merged.states) == states
    assert list(merged.accepting) == accepting
    assert list(merged.delta) == delta
    assert merge_dist_reg(merged) is merged


def test_merge_matches_the_letter_by_letter_reference():
    F13 = FiniteField(13)
    for field in (F5, F9, F13, F25):
        assert_same_merge(Alphabet.maximal(field))
    rng = random.Random(2024)
    fields = (F5, F9, F13, FiniteField(17), F25)
    for i in range(20):
        assert_same_merge(random_alphabet(rng, fields[i % 5], rng.randint(1, 4)))


def canonical_reference(m_aut):
    """Reference canonical form: BFS with a deque over the transition dict."""
    number = {m_aut.start: 0}
    queue = deque([m_aut.start])
    while queue:
        s = queue.popleft()
        for j in range(len(m_aut.alphabet)):
            t = m_aut.trans.get((s, j))
            if t is not None and t not in number:
                number[t] = len(number)
                queue.append(t)
    edges = sorted(
        (number[s], j, number[t])
        for (s, j), t in m_aut.trans.items()
        if s in number and t in number
    )
    return (m_aut.n_states, len(number), tuple(edges))


def interim_reachable_reference(n_aut):
    seen = {0}
    queue = deque([0])
    while queue:
        s = queue.popleft()
        for row in n_aut.delta:
            if row[s] not in seen:
                seen.add(row[s])
                queue.append(row[s])
    return sorted(seen)


def test_canonical_form_matches_the_deque_reference():
    rng = random.Random(99)
    moved_start = unreachable = 0
    for _ in range(200):
        n = rng.randrange(1, 14)
        alph = Alphabet.maximal(F3) if rng.random() < 0.5 else example_alphabet()
        dense = rng.choice((0.2, 0.5, 0.9))
        trans = {(s, j): rng.randrange(n)
                 for s in range(n) for j in range(len(alph)) if rng.random() < dense}
        m = PartialDfa(alph.field, alph, n, trans, start=rng.randrange(n))
        got = canonical_form(m)
        assert got == canonical_reference(m)
        assert all(type(v) is int for edge in got[2] for v in edge)
        moved_start += m.start != 0
        unreachable += got[1] < n
    assert moved_start > 0 and unreachable > 0
    for alph in (example_alphabet(), Alphabet.maximal(F5)):
        m = reverse_subset_prune(build_interim(alph))
        assert canonical_form(m) == canonical_reference(m)
        assert canonical_form(minimize(m)) == canonical_reference(minimize(m))


def test_trimmed_dot_keeps_the_reachable_interim_states():
    automata = []
    for alph in (Alphabet.maximal(F5), Alphabet.maximal(F9), example_alphabet()):
        n_aut = build_interim(alph)
        automata += [n_aut, merge_dist_reg(n_aut)]
    trimmed = 0
    for n_aut in automata:
        keep = interim_reachable_reference(n_aut)
        assert _interim_reachable(n_aut) == keep
        dot = to_dot(n_aut, trim=True)
        nodes = [line.split(" [shape")[0].strip() for line in dot.splitlines()
                 if "[shape=" in line and "__start" not in line]
        assert nodes == ['"%s"' % n_aut.states[t].label() for t in keep]
        trimmed += len(keep) < n_aut.n_states
    assert trimmed > 0


def object_arrays_seen(fn, *args):
    """(fn(*args), whether a frame of quadcomp.automaton held an object-dtype
    array at any call or return during the call)."""
    seen = []

    def profile(frame, event, arg):
        if frame.f_code.co_filename == automaton.__file__:
            seen.extend(v.dtype == object for v in frame.f_locals.values()
                        if isinstance(v, np.ndarray))

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, any(seen)


def test_count_accepted_meets_in_the_middle_on_a_loop():
    # one state with 29 loops: a side's next step is exact in int64 while
    # 29 ** (i + 1) < 2 ** 63, that is for 12 steps a side, so n <= 24 runs
    # in int64 with each side stopping at its bound and n >= 25 needs the
    # object-array fallback for its last n - 24 steps
    field = FiniteField(29)
    loop = PartialDfa(field, Alphabet.maximal(field), 1, {(0, j): 0 for j in range(29)})
    for n in range(41):
        got, boxed = object_arrays_seen(count_accepted, loop, n)
        assert got == 29**n, n
        assert type(got) is int
        assert boxed == (n > 24), n


def test_count_accepted_matches_the_dict_path_counter_across_the_bounds():
    # M over F_7 grows by up to 7 words a letter, so n = 60 pushes both
    # sides to their int64 bounds and the last steps through the fallback
    m = reverse_subset_prune(build_interim(Alphabet.maximal(F7)))
    boxed_at = []
    for n in range(61):
        got, boxed = object_arrays_seen(count_accepted, m, n)
        assert got == queue_count(m, n), n
        boxed_at.append(boxed)
    assert not boxed_at[0] and boxed_at[-1]
    mm = minimize(m)
    for n in (0, 1, 17, 40, 60):
        assert count_accepted(mm, n) == queue_count(m, n)


def test_count_accepted_matches_the_dict_path_counter_on_random_dfas():
    rng = random.Random(9090)
    moved_start = unreachable = edgeless = 0
    for _ in range(150):
        n_states = rng.randrange(1, 12)
        alph = Alphabet.maximal(F5) if rng.random() < 0.5 else example_alphabet()
        dense = rng.choice((0.0, 0.3, 0.7, 1.0))
        trans = {(s, j): rng.randrange(n_states)
                 for s in range(n_states) for j in range(len(alph)) if rng.random() < dense}
        m = PartialDfa(alph.field, alph, n_states, trans, start=rng.randrange(n_states))
        for n in (0, 1, 2, 5, 13, 30, 70):
            assert count_accepted(m, n) == queue_count(m, n), (trans, m.start, n)
        moved_start += m.start != 0
        unreachable += len({m.start} | set(trans.values())) < n_states
        edgeless += not trans
    assert moved_start > 0 and unreachable > 0 and edgeless > 0


def test_count_accepted_of_m_over_f29_at_length_20_stays_in_int64():
    field = FiniteField(29)
    m = reverse_subset_prune(build_interim(Alphabet.maximal(field)))
    got, boxed = object_arrays_seen(count_accepted, m, 20)
    assert got > 2**63
    assert not boxed
