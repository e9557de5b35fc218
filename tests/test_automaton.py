import hashlib
import json
import random
import sys
import tracemalloc
from collections import deque
from itertools import product

import numpy as np
import pytest

from quadcomp import (
    Alphabet,
    BudgetExceeded,
    FieldElement,
    FiniteField,
    MonicQuad,
    IndexOutOfRange,
    InterimAutomaton,
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
from quadcomp import automaton, cli, irreducibility, monoid
from quadcomp.automaton import _reachable as _interim_reachable

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


def test_interim_refuses_fields_past_its_bound():
    assert automaton.MAX_INTERIM_Q == 1024
    for field in (FiniteField(1021), FiniteField(1031), FiniteField(3, 7), FiniteField(1_000_003)):
        one_letter = Alphabet(field, [MonicQuad(field.zero, field.one)])
        if field.q <= 1024:
            assert build_interim(one_letter).n_states == 2 * field.q + 1
            continue
        with pytest.raises(ValueError, match="^the automata need q <= 1024, got q = %d$" % field.q):
            build_interim(one_letter)


def state_of(aut, kind, value):
    for i, s in enumerate(aut.states):
        if s.kind == kind and s.value == value:
            return i
    raise AssertionError("no state %s %s" % (kind, value))


def test_interim_transitions_follow_the_maps():
    alph = example_alphabet()
    aut = build_interim(alph)
    # start moves to the distinguished state of -b
    assert aut.rows[0, 0] == state_of(aut, "dist", F5.elem(3))
    assert aut.rows[1, 0] == state_of(aut, "dist", F5.elem(2))
    # dist and reg states move to reg states through the letter map
    d3 = state_of(aut, "dist", F5.elem(3))
    assert aut.rows[0, d3] == state_of(aut, "reg", F5.elem(2))  # f(3) = 2
    assert aut.rows[1, d3] == state_of(aut, "reg", F5.elem(1))  # g(3) = 1
    r2 = state_of(aut, "reg", F5.elem(2))
    assert aut.rows[0, r2] == r2  # f(2) = 2
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
    assert aut.rows[f, 0] == v[3]
    assert aut.rows[g, 0] == v[2]
    assert aut.rows[f, v[3]] == v[2]
    assert aut.rows[g, v[3]] == v[1]
    assert aut.rows[f, v[2]] == v[2]
    assert aut.rows[g, v[2]] == v[3]
    assert aut.rows[f, v[1]] == v[4]
    assert aut.rows[g, v[1]] == v[2]
    assert aut.rows[f, v[4]] == v[4]
    assert aut.rows[g, v[4]] == v[1]
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
    merged9 = merge_dist_reg(n9)
    assert automaton_from_json(to_json(merged9)) == merged9
    blob = json.loads(to_json(m))
    assert blob["type"] == "partial"
    assert all(s["accepting"] for s in blob["states"])
    assert blob["field"] == {"p": 5, "k": 1}


def test_interim_automaton_stores_only_its_read_only_arrays():
    n9 = build_interim(Alphabet.maximal(F9))
    text = to_json(build_interim(Alphabet.maximal(F9)))  # to_json reads `accepting`
    for aut in (n9, merge_dist_reg(n9), automaton_from_json(text)):
        stored = vars(aut)
        assert stored["rows"].dtype == np.intp
        assert stored["rows"].shape == (9, aut.n_states)
        assert stored["accepting_mask"].dtype == bool
        assert "accepting" not in stored
        for arr in (aut.rows, aut.accepting_mask):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        assert aut.accepting == tuple(aut.accepting_mask.tolist())
        assert {type(acc) for acc in aut.accepting} == {bool}
        assert "accepting" in vars(aut)
    # the constructor copies: writing the caller's array leaves N as it was
    rows = np.array(n9.rows)
    copy = InterimAutomaton(n9.field, n9.alphabet, n9.states, n9.accepting_mask, rows)
    rows[:] = 0
    assert copy == n9


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
    rows = n_aut.rows.tolist()

    def preimage(mask, j):
        return sum(1 << s for s, t in enumerate(rows[j]) if (mask >> t) & 1)

    start_mask = sum(1 << s for s, acc in enumerate(n_aut.accepting) if acc)
    ids = {start_mask: 0}
    trans = {}
    queue = deque([start_mask])
    while queue:
        mask = queue.popleft()
        sid = ids[mask]
        for j in range(len(n_aut.alphabet)):
            nxt = preimage(mask, j)
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


def test_layer_walk_matches_queue_walk_across_chunks(monkeypatch):
    # a chunk of 1 byte holds one subset; at 200 and 5000 bytes a BFS layer
    # spans several chunks that each meet new subsets
    auts = [build_interim(Alphabet.maximal(field)) for field in (F7, F9, F25)]
    auts.append(merge_dist_reg(build_interim(example_alphabet())))
    for gather_bytes in (1, 200, 5000):
        monkeypatch.setattr(automaton, "_GATHER_BYTES", gather_bytes)
        for n_aut in auts:
            assert_same_walk(n_aut)


def test_subset_walk_refuses_past_its_byte_budget(monkeypatch):
    n_aut = build_interim(Alphabet.maximal(FiniteField(29)))
    m = reverse_subset_prune(n_aut)
    assert m.table.nbytes > 1 << 20
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", 1 << 20)
    with pytest.raises(BudgetExceeded, match=r"at layer \d+ holds \d+ states, about \d+ of 1 MB"):
        reverse_subset_prune(n_aut)
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", 1 << 30)
    assert reverse_subset_prune(n_aut) == m


def test_subset_walk_counts_the_layer_it_steps(monkeypatch):
    # over maximal F_29 the walk's largest estimate is 3,770,480 bytes of
    # table, keys and ids, and 3,778,992 with the frontier of the layer it
    # steps, which stays alive until the layer ends
    n_aut = build_interim(Alphabet.maximal(FiniteField(29)))
    m = reverse_subset_prune(n_aut)
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", 3_770_480)
    with pytest.raises(BudgetExceeded, match="subset walk at layer"):
        reverse_subset_prune(n_aut)
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", 3_778_992)
    assert reverse_subset_prune(n_aut) == m


def test_subset_walk_counts_the_copy_that_joins_its_table(monkeypatch):
    # every letter over F_13: M's 821 states take 169 table entries each, and
    # their ids about a sixth of that, so the walk holds well under 1.5 tables
    # until joining the blocks copies the table once more
    field = FiniteField(13)
    raws = list(field.iter_raw())
    letters = [MonicQuad(field.elem(a), field.elem(b)) for a in raws for b in raws]
    n_aut = build_interim(Alphabet(field, letters))
    m = reverse_subset_prune(n_aut)
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", m.table.nbytes * 3 // 2)
    with pytest.raises(BudgetExceeded, match="subset walk at layer"):
        reverse_subset_prune(n_aut)
    monkeypatch.setattr(automaton, "MAX_WALK_BYTES", m.table.nbytes * 3)
    assert reverse_subset_prune(n_aut) == m


def random_interim(rng, n_letters, n_states):
    """An InterimAutomaton with arbitrary targets and accepting flags.  Its
    columns come from a small pool, so states often share a column."""
    letters = [MonicQuad(F7.elem(a), F7.elem(b))
               for a, b in rng.sample(list(product(range(7), repeat=2)), n_letters)]
    pool = [[rng.randrange(n_states) for _ in range(n_letters)]
            for _ in range(rng.randint(1, n_states))]
    cols = [rng.choice(pool) for _ in range(n_states)]
    states = [NState("initial", None)] + [NState("reg", F7.elem(s)) for s in range(1, n_states)]
    accepting = [rng.random() < 0.5 for _ in range(n_states)]
    return InterimAutomaton(F7, Alphabet(F7, letters), states, accepting,
                            [[col[j] for col in cols] for j in range(n_letters)])


def start_is_keyed(n_aut):
    """Whether N's accepting states are a union of its column classes, so
    that the walk's start subset has its own key."""
    classes = automaton._Classes(n_aut)
    return bool(classes.key_of(n_aut.accepting_mask).view(np.uint8).any())


def test_integer_key_walk_matches_queue_walk_on_arbitrary_interim_automata():
    rng = random.Random(1809)
    keyed = sentinel = shared = 0
    for _ in range(200):
        n_aut = random_interim(rng, rng.randint(1, 4), rng.randint(1, 11))
        assert_same_walk(n_aut)
        classes = automaton._Classes(n_aut)
        shared += classes.n_classes < n_aut.n_states
        if start_is_keyed(n_aut):
            keyed += 1
        else:
            sentinel += 1
    assert keyed > 20 and sentinel > 20 and shared > 100


def test_integer_key_walk_matches_queue_walk_when_the_letters_share_an_a():
    rng = random.Random(1810)
    for field in (F7, F9, FiniteField(11), FiniteField(13), FiniteField(17)):
        elems = list(field.elements())
        a = rng.choice(elems[1:])
        for n_letters in (2, 3, 5):
            alph = Alphabet(field, [MonicQuad(a, b) for b in rng.sample(elems, n_letters)])
            n_aut = build_interim(alph)
            # <v>, (v), <2a - v> and (2a - v) share one class
            assert automaton._Classes(n_aut).n_classes == (field.q + 1) // 2 + 1
            assert_same_walk(n_aut)


def test_integer_key_walk_matches_queue_walk_on_keys_wider_than_64_bits():
    # two letters with different a: only <v> and (v) share a class, so a
    # key takes q + 1 bits; M has 1,222, 2,165 and 315 states
    for q, letters in ((67, [(36, 53), (17, 37)]), (67, [(9, 23), (52, 28)]),
                       (101, [(1, 60), (5, 97)])):
        field = FiniteField(q)
        alph = Alphabet(field, [MonicQuad(field.elem(a), field.elem(b)) for a, b in letters])
        n_aut = build_interim(alph)
        assert automaton._Classes(n_aut).dtype.kind == "V"  # packed bytes, not a uint64
        assert assert_same_walk(n_aut).n_states >= 315


# SHA-256 of M's table, taken from the walk that numbered packed bool rows
# through a dict, and whether the start subset is a union of column classes
M_TABLE_SHA256 = [
    (19, False, 518, "1c61b13114a86ca75e0f749136d73e72d76ab421b6d1ab2fb17cf1f3fec6034a", False),
    (23, False, 2060, "951bed7e35e5166234fd87e8a85950d6d0a564386f7a558ab34681f88c7a62f0", False),
    (29, False, 14241, "5ed087d401c33b5f05bbf2f14d0c42607f58c3f8a661fcb12bfc3ef6511e19e6", True),
    (31, False, 32533, "20fe9602e2a2cd57efe8e97bb8f43048e28524a7f63150582e328954342994c2", False),
    # merged, the initial state shares its column with (0), which rejects
    (29, True, 14241, "5ed087d401c33b5f05bbf2f14d0c42607f58c3f8a661fcb12bfc3ef6511e19e6", False),
]


def test_integer_key_walk_keeps_m_for_the_maximal_alphabets():
    for q, merged, n_states, digest, keyed in M_TABLE_SHA256:
        n_aut = build_interim(Alphabet.maximal(FiniteField(q)))
        if merged:
            n_aut = merge_dist_reg(n_aut)
        m = reverse_subset_prune(n_aut)
        assert (m.n_states, hashlib.sha256(m.table.data).hexdigest()) == (n_states, digest), q
        assert start_is_keyed(n_aut) == keyed, (q, merged)


def test_subset_walk_over_f29_in_bounded_memory():
    # numbering packed bool rows through a dict peaked at 36.7 MB; integer
    # keys peak at 14.0 MB, most of it one chunk's gather
    n_aut = build_interim(Alphabet.maximal(FiniteField(29)))
    tracemalloc.start()
    try:
        m = reverse_subset_prune(n_aut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.n_states == 14241
    assert peak < 18 * 2**20


def test_count_accepted_is_exact_past_two_to_the_63():
    field = FiniteField(29)
    loops = PartialDfa(field, Alphabet.maximal(field), 1, {(0, j): 0 for j in range(29)})
    assert count_accepted(loops, 20) == 29**20 > 2**63
    assert type(count_accepted(loops, 20)) is int
    assert count_accepted(loops, 0) == 1


def test_count_accepted_counts_the_same_one_span_of_states_at_a_time(monkeypatch):
    # at 1 byte a span holds one state; at 100 and 1000 bytes a step gathers
    # a few spans, some of whose states have no edges
    rng = random.Random(4343)
    automata = [reverse_subset_prune(build_interim(Alphabet.maximal(field))) for field in (F7, F9)]
    for _ in range(10):
        n = rng.randrange(1, 30)
        trans = {(s, j): rng.randrange(n) for s in range(n) for j in range(3) if rng.random() < 0.4}
        automata.append(PartialDfa(F3, Alphabet.maximal(F3), n, trans, start=rng.randrange(n)))
    lengths = (0, 1, 5, 12, 40)  # F_9 passes 2**63 before n = 40
    want = [[count_accepted(m, n) for n in lengths] for m in automata]
    assert want[1][-1] > 2**63
    for gather_bytes in (1, 100, 1000):
        monkeypatch.setattr(automaton, "_GATHER_BYTES", gather_bytes)
        assert [[count_accepted(m, n) for n in lengths] for m in automata] == want


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
    # each side of the meet in the middle counts up to 2**62 in int64, so a
    # 2-letter loop first needs Python ints at n = 62 + 62 + 1
    loop = PartialDfa(F5, example_alphabet(), 1, {(0, 0): 0, (0, 1): 0})
    for n in (62, 63, 64, 124, 125, 130):
        got, boxed = object_arrays_seen(count_accepted, loop, n)
        assert got == 2**n
        assert type(got) is int
        assert boxed == (n >= 125), n


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
    n_aut = build_interim(example_alphabet())
    blob = json.loads(to_json(reverse_subset_prune(n_aut)))
    blob["transitions"][0]["to"] = len(blob["states"])
    with pytest.raises(IndexOutOfRange):
        automaton_from_json(json.dumps(blob))
    n_states = n_aut.n_states
    for field, value in (("to", 99), ("to", n_states), ("to", -1), ("letter", -1),
                         ("letter", 2), ("from", -1), ("from", n_states)):
        blob = json.loads(to_json(n_aut))
        blob["transitions"][5][field] = value
        with pytest.raises(IndexOutOfRange):
            automaton_from_json(json.dumps(blob))
    blob = json.loads(to_json(n_aut))
    del blob["transitions"][5]
    with pytest.raises(IndexOutOfRange):
        automaton_from_json(json.dumps(blob))
    # a (from, letter) pair listed twice, even with the same target
    for aut in (n_aut, reverse_subset_prune(n_aut)):
        for to in (None, 0):
            blob = json.loads(to_json(aut))
            extra = dict(blob["transitions"][1])
            if to is not None:
                extra["to"] = to
            blob["transitions"].append(extra)
            with pytest.raises(IndexOutOfRange):
                automaton_from_json(json.dumps(blob))
    # state ids that are not exactly 0..n-1
    for aut in (n_aut, reverse_subset_prune(n_aut)):
        for bad in (42, -1, 0):
            blob = json.loads(to_json(aut))
            blob["states"][-1]["id"] = bad
            with pytest.raises(IndexOutOfRange):
                automaton_from_json(json.dumps(blob))
    # an interim machine starts at state 0, as N's constructor has it
    n3 = build_interim(Alphabet.maximal(F3))
    for start, merged in ((5, False), (5, "yes"), (1, True), (-1, False)):
        blob = json.loads(to_json(n3))
        blob.update(start=start, merged=merged)
        with pytest.raises(IndexOutOfRange):
            automaton_from_json(json.dumps(blob))
    blob = json.loads(to_json(reverse_subset_prune(n_aut)))
    blob["states"][1]["accepting"] = False
    with pytest.raises(ValueError):
        automaton_from_json(json.dumps(blob))
    # documents that are not an object, lack a key or hold an entry of the wrong type
    malformed = [([], "'list' object"), ("M", "'str' object")]
    for aut in (n_aut, reverse_subset_prune(n_aut)):
        keys = ("field", "alphabet", "states", "transitions")
        for key in keys + ("start",):
            blob = json.loads(to_json(aut))
            del blob[key]
            malformed.append((blob, "no key '%s'" % key))
        blob = json.loads(to_json(aut))
        del blob["states"][1]["accepting"]
        malformed.append((blob, "no key 'accepting'"))
        blob = json.loads(to_json(aut))
        blob["states"][1] = [1, True]
        malformed.append((blob, "list indices"))
    for merged in ("yes", 1, 0, None, []):
        blob = json.loads(to_json(n3))
        blob["merged"] = merged
        malformed.append((blob, "merged must be a bool"))
    for blob, named in malformed:
        with pytest.raises(UnsupportedFormat, match=named):
            automaton_from_json(json.dumps(blob))


def test_json_with_wrong_typed_entries_is_refused():
    # unchecked, "to": 2.7 loaded as target 2, "letter": 1.0 escaped as a
    # numpy IndexError, ids and starts of 0.0 and "to": true passed, and
    # "accepting": "false" loaded as accepting
    n_aut = build_interim(example_alphabet())
    for aut in (n_aut, reverse_subset_prune(n_aut)):
        text = to_json(aut)
        assert automaton_from_json(text) == aut
        cases = [("transitions", 0, "to", 2.7), ("transitions", 0, "letter", 1.0),
                 ("transitions", 0, "from", 0.0), ("transitions", 0, "to", True),
                 ("transitions", 0, "letter", False), ("states", 0, "id", 0.0),
                 ("states", 1, "id", True), ("states", 0, "accepting", "false"),
                 ("states", 0, "accepting", 1), ("states", 0, "accepting", None)]
        for key, i, field, value in cases:
            blob = json.loads(text)
            blob[key][i][field] = value
            with pytest.raises(UnsupportedFormat, match="malformed"):
                automaton_from_json(json.dumps(blob))
        for start in (0.0, False, "0"):
            blob = json.loads(text)
            blob["start"] = start
            with pytest.raises(UnsupportedFormat, match="malformed"):
                automaton_from_json(json.dumps(blob))


def test_interim_automaton_checks_its_transitions():
    n_aut = build_interim(example_alphabet())
    n = n_aut.n_states
    args = (n_aut.field, n_aut.alphabet, n_aut.states)
    delta = n_aut.rows.tolist()
    for bad in (delta[:1], delta + delta[:1], [delta[0], delta[1][:-1]],
                [delta[0], delta[1] + [0]], [delta[0], delta[1][:-1] + [n]],
                [delta[0], [-1] + delta[1][1:]]):
        with pytest.raises(IndexOutOfRange):
            InterimAutomaton(*args, n_aut.accepting, bad)
    for accepting in (n_aut.accepting[:-1], n_aut.accepting + (True,)):
        with pytest.raises(IndexOutOfRange):
            InterimAutomaton(*args, accepting, delta)
    assert InterimAutomaton(*args, n_aut.accepting, delta) == n_aut


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
    assert list(map(tuple, merged.rows.tolist())) == delta
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
        for row in n_aut.rows.tolist():
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


def first_rejected_prefix(m_aut, word):
    """1-based length of the shortest prefix that `accepts` rejects, or None."""
    for pos in range(1, len(word) + 1):
        if not accepts(m_aut, word[:pos]):
            return pos
    return None


def random_m_walk(rng, m_aut, length):
    """A word read along `length` random transitions of M from its start."""
    word, state = [], m_aut.start
    for _ in range(length):
        options = np.flatnonzero(m_aut.table[state] >= 0).tolist()
        if not options:
            break
        j = rng.choice(options)
        word.append(j)
        state = m_aut.table.item(state, j)
    return tuple(word)


def test_lazy_first_failure_matches_accepts_on_long_walks_and_random_words():
    rng = random.Random(1810)
    automata = [build_interim(Alphabet.maximal(field))
                for field in (F25, F27, FiniteField(29))]
    automata += [merge_dist_reg(build_interim(Alphabet.maximal(field))) for field in (F5, F9)]
    for n_aut in automata:
        m = reverse_subset_prune(n_aut)
        n_letters = len(n_aut.alphabet)
        walks = [random_m_walk(rng, m, 20) for _ in range(40)]
        assert max(map(len, walks)) == 20
        words = [tuple(rng.randrange(n_letters) for _ in range(rng.randint(1, 20)))
                 for _ in range(200)]
        failures = 0
        for word in walks + words:
            expected = first_rejected_prefix(m, word)
            assert lazy_first_failure(n_aut, word) == expected, word
            failures += expected is not None
        assert failures > 0


def test_lazy_simulation_and_levels_keep_no_state_on_n(monkeypatch):
    field = FiniteField(29)
    alph = Alphabet.maximal(field)
    n_aut = build_interim(alph)
    m = reverse_subset_prune(n_aut)
    rng = random.Random(77)
    walks = [random_m_walk(rng, m, 20) for _ in range(2000)]

    def footprint():
        return {key: len(value) if hasattr(value, "__len__") else None
                for key, value in vars(n_aut).items()}

    assert lazy_accepts(n_aut, walks[0])
    after_first = footprint()
    assert all(lazy_accepts(n_aut, word) for word in walks)
    monkeypatch.setattr(irreducibility, "build_interim", lambda _alph: n_aut)
    sizes = [len(frontier) for _, frontier in irreducibility.iter_levels(alph, 3)]
    assert sizes[-1] > 1000
    assert footprint() == after_first
    assert not any(isinstance(value, (dict, set)) for value in vars(n_aut).values())


def rendered_automata():
    out = []
    for alph in (example_alphabet(), Alphabet.maximal(F3), Alphabet.maximal(F9)):
        n_aut = build_interim(alph)
        out.append(n_aut)
        if alph.field is not F3:
            out.append(merge_dist_reg(n_aut))
        out.append(reverse_subset_prune(n_aut))
    return out


def test_renderers_list_exactly_the_edges_in_order():
    kinds = set()
    for aut in rendered_automata():
        edges = list(aut.edges())
        assert edges == sorted(edges)
        ids = {label: t for t, label in enumerate(aut.labels())}
        letters = {aut.alphabet.letter_name(j): j for j in range(len(aut.alphabet))}
        dot_edges = []
        for line in to_dot(aut).splitlines():
            if " -> " in line and "__start" not in line:
                src, rest = line.strip().split(" -> ")
                dst, label = rest.split(" [label=")
                dot_edges.append((ids[src.strip('"')], letters[label[1:-3]], ids[dst.strip('"')]))
        assert dot_edges == edges
        doc = json.loads(to_json(aut))
        assert [(t["from"], t["letter"], t["to"]) for t in doc["transitions"]] == edges
        text_edges = []
        for line in cli._text_automaton("X", aut):
            if "--> " in line:
                src, rest = line.split(" --", 1)
                letter, dst = rest.split("--> ")
                text_edges.append((ids[src], letters[letter], ids[dst]))
        assert text_edges == edges
        kinds.add((type(aut).__name__, getattr(aut, "merged", None)))
    assert len(kinds) == 3


def test_levels_build_n_column_classes_once(monkeypatch):
    """N's column classes are derived once and kept on N, so the level walk
    does not redo their np.unique at every level; its levels stay those of
    a walk that rebuilt them each time (sizes and SHA-256 taken there)."""
    built = []
    real = automaton._Classes

    def counting(n_aut):
        built.append(n_aut)
        return real(n_aut)

    monkeypatch.setattr(automaton, "_Classes", counting)
    digest = hashlib.sha256()
    sizes = []
    for _, words in irreducibility.iter_levels(Alphabet.maximal(FiniteField(5)), 6):
        sizes.append(len(words))
        digest.update(np.ascontiguousarray(words, dtype=np.int64).tobytes())
    assert len(built) == 1
    assert sizes == [2, 6, 18, 62, 250, 1126]
    assert digest.hexdigest() == "4a7c2acd11d2c8b473f826aef34b2d31d56cb2321d7eb529a5cd4d2d8d809a8f"
    n_aut = built[0]
    assert n_aut.classes is n_aut.classes
    reverse_subset_prune(n_aut)
    assert len(built) == 1


def seeded_alphabet(field, n_letters, seed):
    """n_letters distinct letters with a != 0, drawn from a seeded generator."""
    rng = random.Random(seed)
    raws = list(field.iter_raw())
    pairs = set()
    while len(pairs) < min(n_letters, (field.q - 1) * field.q):
        pairs.add((rng.randrange(1, field.q), rng.randrange(field.q)))
    return Alphabet(field, [MonicQuad(FieldElement(field, raws[a]), FieldElement(field, raws[b]))
                            for a, b in sorted(pairs)])


def rchain_interim(alph, states):
    """N as build_interim made it one element at a time: each target by
    rchain, each acceptance by Euler's criterion."""
    field = alph.field
    q = field.q
    raws = list(field.iter_raw())
    index = field.index_of_raw

    def nonsquare(u):
        return u != field.zero_raw and field.rpow(u, (q - 1) // 2) != field.one_raw

    accepting = [True] + [nonsquare(field.rneg(v)) for v in raws] + [nonsquare(v) for v in raws]
    rows = np.empty((len(alph), 2 * q + 1), dtype=np.intp)
    for j, pair in enumerate(alph.pairs):
        rows[j, 0] = 1 + index(field.rneg(pair[1]))
        rows[j, 1 : q + 1] = rows[j, q + 1 :] = [1 + q + index(field.rchain(v, (pair,)))
                                                 for v in raws]
    return InterimAutomaton(field, alph, states, accepting, rows)


def test_interim_arrays_are_byte_equal_to_the_rchain_reference():
    # F_3, F_9, F_25, F_27, F_81, F_125, F_{7^3}: maximal and seeded a != 0;
    # merged wherever -1 is a square; and F_1021's maximal alphabet
    alphabets = [Alphabet.maximal(FiniteField(1021))]
    for p, k in ((3, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 3), (7, 3)):
        field = FiniteField(p, k)
        alphabets += [Alphabet.maximal(field), seeded_alphabet(field, 6, field.q)]
    for alph in alphabets:
        got = build_interim(alph)
        want = rchain_interim(alph, got.states)
        machines = [(got, want)]
        if alph.field.q % 4 == 1:
            machines.append((merge_dist_reg(got), merge_dist_reg(want)))
        for g, w in machines:
            assert g.rows.dtype == w.rows.dtype and g.rows.tobytes() == w.rows.tobytes()
            assert g.accepting_mask.tobytes() == w.accepting_mask.tobytes()
            assert g == w


def test_interim_is_the_same_when_the_alphabet_keeps_no_step_table(monkeypatch):
    alphabets = [Alphabet.maximal(F27), seeded_alphabet(F25, 9, 4), example_alphabet()]
    kept = [build_interim(alph) for alph in alphabets]
    assert all(alph.steps is not None for alph in alphabets)
    # past the bound an alphabet keeps none, and N reads a table built for it
    monkeypatch.setattr(monoid, "_GATHER_BYTES", 0)
    fresh = [Alphabet(alph.field, alph.letters) for alph in alphabets]
    assert all(alph.steps is None for alph in fresh)
    assert [build_interim(alph) for alph in fresh] == kept


def test_alphabet_keeps_its_step_table_only_within_its_bounds():
    alph = Alphabet.maximal(FiniteField(1021))
    assert alph.steps is alph.steps and not alph.steps.table.flags.writeable
    assert alph.steps.table.shape == (1021, 1021)
    assert Alphabet.maximal(FiniteField(1031)).steps is None
    # 4 * L * q bytes past 16 MiB: 4,109 letters over F_1021
    field = FiniteField(1021)
    wide = Alphabet(field, [MonicQuad(field.elem(a), field.elem(b))
                            for a in range(5) for b in range(822)][:4109])
    assert wide.steps is None


def test_transition_view_reads_the_table_and_finds_only_keys_in_range():
    m = reverse_subset_prune(build_interim(Alphabet.maximal(F7)))
    view = m.trans
    assert view is m.trans
    assert not isinstance(view, dict)
    n, letters = m.table.shape
    want = {(s, j): t for s, j, t in m.edges()}
    assert view == want and want == view and dict(view) == want
    assert list(view) == sorted(want) and list(view.items()) == sorted(want.items())
    assert len(view) == len(want) == np.count_nonzero(m.table >= 0)
    s, j = next(iter(want))
    assert view[(s, j)] == want[(s, j)] and type(view[(s, j)]) is int
    assert view.get((s, j)) == want[(s, j)] and (s, j) in view
    missing = next((s, j) for s in range(n) for j in range(letters) if m.table[s, j] < 0)
    # numpy would wrap (s - n, j) and (s, j - letters) onto the defined (s, j)
    for key in (missing, (s - n, j), (s, j - letters), (-1, 0), (0, -1), (n, 0),
                (0, letters), (n + 7, 0), (0.5, 0), (0,), (0, 0, 0), "ab", None):
        assert key not in view
        assert view.get(key) is None
        with pytest.raises(KeyError):
            view[key]
    with pytest.raises(TypeError):
        view[(s, j)] = 0
    # no memo of its own: a change to the table shows at once
    table = m.table.copy()
    other = PartialDfa(m.field, m.alphabet, n, table)
    table[missing] = 0
    assert other.trans[missing] == 0
    assert not any(isinstance(value, (dict, list, set)) for value in vars(other.trans).values())


def renumbered(m, perm):
    """m with each state s renamed perm[s]."""
    table = np.full_like(m.table, -1)
    table[perm] = np.where(m.table >= 0, perm[m.table], -1)
    return PartialDfa(m.field, m.alphabet, m.n_states, table, start=int(perm[m.start]))


def test_minimize_returns_a_minimal_machine_in_bfs_order_as_it_is(monkeypatch):
    # a minimal machine keeps every state in a block of its own; minimize
    # copies its table when it is numbered breadth first from state 0, and
    # renumbers it otherwise
    renumberings = []

    def spy(succ, start):
        renumberings.append(start)
        return bfs_number(succ, start)

    bfs_number = automaton._bfs_number
    monkeypatch.setattr(automaton, "_bfs_number", spy)
    rng = random.Random(2525)
    permuted = 0
    for _ in range(200):
        n = rng.randrange(1, 14)
        alph = Alphabet.maximal(F3) if rng.random() < 0.5 else example_alphabet()
        dense = rng.choice((0.3, 0.6, 0.9))
        trans = {(s, j): rng.randrange(n)
                 for s in range(n) for j in range(len(alph)) if rng.random() < dense}
        m = PartialDfa(alph.field, alph, n, trans, start=rng.randrange(n))
        base = moore_reference(m)
        perm = np.array(rng.sample(range(base.n_states), base.n_states))
        for machine in (m, base, renumbered(base, perm)):
            del renumberings[:]
            got = minimize(machine)
            renumbered_it = bool(renumberings)
            assert got == moore_reference(machine)
            assert canonical_form(got) == canonical_form(base)
            assert got.table is not machine.table
            if machine is base:
                assert not renumbered_it and got == base
            elif machine is not m and perm.tolist() != sorted(perm.tolist()):
                assert renumbered_it, perm
                permuted += 1
    assert permuted > 100
