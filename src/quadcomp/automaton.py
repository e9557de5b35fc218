"""Automata deciding irreducibility of quadratic compositions.

build_interim constructs the complete DFA N over a letter alphabet: one
initial state, one distinguished state per field element (first letter
read), one regular state per field element (later letters), with
acceptance encoding the nonsquare test on the tracked value.  Words are
read outermost letter first.

reverse_subset_prune reverses N's arrows, determinizes by the subset
construction from the set of N's accepting states, and keeps only subsets
containing N's initial state.  The result is a partial DFA M, all of
whose states are accepting, that accepts exactly the words whose
composition is irreducible.  lazy_accepts runs the same subset simulation
word by word without materializing M.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import IndexOutOfRange, UnsupportedFormat
from .finite_field import FieldElement, FiniteField
from .monoid import Alphabet, MonicQuad

# reverse_subset_prune gathers at most this many bytes of preimages at once
_GATHER_BYTES = 1 << 24


@dataclass(frozen=True)
class NState:
    """A state of the interim automaton.

    kind is 'initial', 'dist' (value seen as the first chain input) or
    'reg' (value reached after at least one letter application).
    """

    kind: str
    value: Optional[FieldElement]

    def label(self) -> str:
        if self.kind == "initial":
            return "I"
        if self.kind == "dist":
            return "<%s>" % self.value
        return "(%s)" % self.value


class InterimAutomaton:
    """Complete DFA over the alphabet; all transitions defined."""

    def __init__(self, field, alphabet, states, accepting, delta, merged=False):
        self.field = field
        self.alphabet = alphabet
        self.states = tuple(states)
        self.accepting = tuple(accepting)
        self.delta = tuple(tuple(row) for row in delta)
        self.merged = merged
        self._pre_memo = {}

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def accepting_mask(self) -> int:
        return sum(1 << t for t, acc in enumerate(self.accepting) if acc)

    def preimage_mask(self, mask: int, letter: int) -> int:
        """Bitmask of states whose `letter` successor lies in `mask`."""
        key = (mask, letter)
        hit = self._pre_memo.get(key)
        if hit is None:
            row = self.delta[letter]
            hit = 0
            for t in range(len(row)):
                if (mask >> row[t]) & 1:
                    hit |= 1 << t
            self._pre_memo[key] = hit
        return hit

    def __eq__(self, other):
        if not isinstance(other, InterimAutomaton):
            return NotImplemented
        return (
            self.field == other.field
            and self.alphabet == other.alphabet
            and self.states == other.states
            and self.accepting == other.accepting
            and self.delta == other.delta
        )


class PartialDfa:
    """Partial DFA with every state accepting; missing transitions reject.

    The machine is held as `table`, an (n_states, letters) int32 array whose
    entry [s, j] is the successor of s under letter j, or -1 where that
    transition is missing.  `trans` accepts either such a table (an int32
    one is kept as is, not copied) or a {(state, letter): target} mapping.
    """

    def __init__(self, field, alphabet, n_states, trans, start=0):
        self.field = field
        self.alphabet = alphabet
        self.n_states = n_states
        shape = (n_states, len(alphabet))
        if isinstance(trans, np.ndarray):
            if trans.shape != shape:
                raise IndexOutOfRange("table shape %s, expected %s" % (trans.shape, shape))
            if trans.size and not -1 <= trans.min() <= trans.max() < n_states:
                raise IndexOutOfRange("table entry outside [-1, %d)" % n_states)
            table = trans.astype(np.int32, copy=False)
        else:
            table = np.full(shape, -1, dtype=np.int32)
            for (s, j), t in dict(trans).items():
                if not (0 <= s < n_states and 0 <= j < shape[1] and 0 <= t < n_states):
                    raise IndexOutOfRange("transition (%r, %r) -> %r out of range" % (s, j, t))
                table[s, j] = t
        if not 0 <= start < n_states:
            raise IndexOutOfRange("start state %r out of range" % (start,))
        self.table = table
        self.start = start

    def edges(self):
        """(state, letter, target) of every transition, in (state, letter) order."""
        s, j = np.nonzero(self.table >= 0)
        return zip(s.tolist(), j.tolist(), self.table[s, j].tolist())

    @cached_property
    def trans(self) -> dict:
        """{(state, letter): target}, in (state, letter) order; derived from
        `table` on first use and kept."""
        return {(s, j): t for s, j, t in self.edges()}

    def __eq__(self, other):
        if not isinstance(other, PartialDfa):
            return NotImplemented
        return (
            self.field == other.field
            and self.alphabet == other.alphabet
            and self.n_states == other.n_states
            and self.start == other.start
            and np.array_equal(self.table, other.table)
        )


def build_interim(alphabet: Alphabet) -> InterimAutomaton:
    """The complete automaton N with 2q + 1 states."""
    alphabet.require_nonempty()
    field = alphabet.field
    q = field.q
    raws = list(field.iter_raw())
    states = [NState("initial", None)]
    states += [NState("dist", FieldElement(field, v)) for v in raws]
    states += [NState("reg", FieldElement(field, v)) for v in raws]
    accepting = [True]
    accepting += [field.is_nonsquare_raw(field.rneg(v)) for v in raws]
    accepting += [field.is_nonsquare_raw(v) for v in raws]
    delta = []
    for quad in alphabet:
        a, b = quad.a.val, quad.b.val
        row = [0] * (2 * q + 1)
        row[0] = 1 + field.index_of_raw(field.rneg(b))
        for i, v in enumerate(raws):
            s = field.rsub(v, a)
            image = field.rsub(field.rmul(s, s), b)
            target = 1 + q + field.index_of_raw(image)
            row[1 + i] = target
            row[1 + q + i] = target
        delta.append(row)
    return InterimAutomaton(field, alphabet, states, accepting, delta)


def merge_dist_reg(n_aut: InterimAutomaton) -> InterimAutomaton:
    """Identify <a> with (a); only language-preserving when -1 is a square.

    The merged machine is N without its <a> block: the start keeps its
    arrows into the old <a> ids, which now name (a), and every arrow into a
    regular state moves down by q.
    """
    field = n_aut.field
    if field.is_nonsquare_raw(field.rneg(field.one_raw)):
        raise ValueError("merge requires -1 to be a square in the field")
    if n_aut.merged:
        return n_aut
    q = field.q
    states = n_aut.states[:1] + n_aut.states[q + 1 :]
    accepting = n_aut.accepting[:1] + n_aut.accepting[q + 1 :]
    delta = [row[:1] + tuple(t - q for t in row[q + 1 :]) for row in n_aut.delta]
    return InterimAutomaton(field, n_aut.alphabet, states, accepting, delta, merged=True)


def reverse_subset_prune(n_aut: InterimAutomaton) -> PartialDfa:
    """Reverse N, determinize, drop non-accepting subsets.

    Subset states are explored breadth first with letters in alphabet
    order, so state ids are deterministic.  The start subset is the set of
    N's accepting states; a subset accepts iff it contains N's initial
    state, and only accepting subsets are kept.

    Each BFS layer is one numpy pass: the layer's subsets are rows of an
    (F, n) bool array, and frontier[:, delta] takes the preimages under
    every letter at once.  Rows are packed into byte keys of any width and
    deduplicated with np.unique; new subsets get ids in order of first
    appearance, the order a queue-driven walk discovers them in.  Each
    layer writes its own rows of M's transition table.
    """
    n = n_aut.n_states
    n_letters = len(n_aut.alphabet)
    delta = np.asarray(n_aut.delta, dtype=np.intp)  # (L, n)
    chunk = max(1, _GATHER_BYTES // (n_letters * n))
    frontier = np.asarray(n_aut.accepting, dtype=bool)[None, :]
    seen = _pack(frontier)  # keys of every subset so far, in id order
    rows = []  # one block of table rows per layer
    while len(frontier):
        fresh = []
        layer_table = np.full(len(frontier) * n_letters, -1, dtype=np.int32)
        for lo in range(0, len(frontier), chunk):
            pre = frontier[lo : lo + chunk][:, delta].reshape(-1, n)
            flat = np.flatnonzero(pre[:, 0])
            if not len(flat):
                continue
            pre = pre[flat]
            keys = _pack(pre)
            n_seen = len(seen)
            _, first, inv = np.unique(
                np.concatenate([seen, keys]), return_index=True, return_inverse=True
            )
            # a key first met inside `seen` sits at its own id; the others
            # are numbered in order of first appearance among the candidates
            new = np.flatnonzero(first >= n_seen)
            new = new[np.argsort(first[new])]
            born = first[new] - n_seen
            first[new] = n_seen + np.arange(len(new))
            layer_table[lo * n_letters + flat] = first[inv[n_seen:]]
            fresh.append(pre[born])
            seen = np.concatenate([seen, keys[born]])
        rows.append(layer_table.reshape(-1, n_letters))
        frontier = np.concatenate(fresh) if fresh else frontier[:0]
    return PartialDfa(n_aut.field, n_aut.alphabet, len(seen), np.concatenate(rows))


def _pack(rows: np.ndarray) -> np.ndarray:
    """One fixed-width byte key per bool row, comparable by np.unique."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def accepts(m_aut: PartialDfa, word: Sequence[int]) -> bool:
    """Walk the partial DFA; undefined transitions reject."""
    table = m_aut.table
    state = m_aut.start
    for j in m_aut.alphabet.check_word(word):
        state = table.item(state, j)
        if state < 0:
            return False
    return True


def lazy_first_failure(n_aut: InterimAutomaton, word: Sequence[int]) -> Optional[int]:
    """Backward subset simulation on N.

    Returns the 1-based position of the first rejecting step, or None if
    the word is accepted.  Cost is O(q) per letter.
    """
    word = n_aut.alphabet.check_word(word)
    mask = n_aut.accepting_mask
    for pos, j in enumerate(word, 1):
        mask = n_aut.preimage_mask(mask, j)
        if not mask & 1:
            return pos
    return None


def lazy_accepts(n_aut: InterimAutomaton, word: Sequence[int]) -> bool:
    return lazy_first_failure(n_aut, word) is None


def count_accepted(m_aut: PartialDfa, n: int) -> int:
    """Number of accepted words of length exactly n (path counting).

    Every state of M accepts, so the count is met in the middle: it is the
    dot product of fwd, where fwd[s] counts the words of length i leading
    from the start to s, and bwd, where bwd[s] counts the words of length
    n - i readable from s.  Both step over one pair of edge arrays: a
    forward step adds each source's count into its targets, a backward
    step each target's count into its sources.  With d the largest
    out-degree, a forward step gives counts of at most sum(fwd) * d and a
    backward step at most max(bwd) * d; the side with the smaller bound
    steps next, in int64, while that bound stays below 2**63.  Once both
    bounds reach 2**63 the remaining steps go forward in object arrays of
    Python ints, which stay exact past 2**63.  The dot product is taken in
    Python ints.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    table = m_aut.table
    flat = np.flatnonzero(table >= 0)
    src, tgt = flat // table.shape[1], table.ravel()[flat]
    out_degree = int(np.bincount(src, minlength=1).max())
    fwd = np.zeros(m_aut.n_states, dtype=np.int64)
    fwd[m_aut.start] = 1
    bwd = np.ones(m_aut.n_states, dtype=np.int64)
    steps = n
    while steps:
        fwd_bound = int(fwd.sum()) * out_degree
        bwd_bound = int(bwd.max()) * out_degree
        if min(fwd_bound, bwd_bound) >= 2**63:
            break
        if fwd_bound <= bwd_bound:
            fwd = _path_step(fwd, src, tgt)
        else:
            bwd = _path_step(bwd, tgt, src)
        steps -= 1
    if steps:
        fwd = fwd.astype(object)
    for _ in range(steps):
        fwd = _path_step(fwd, src, tgt)
    both = (fwd != 0) & (bwd != 0)
    return sum(map(operator.mul, fwd[both].tolist(), bwd[both].tolist()))


def _path_step(counts: np.ndarray, gather: np.ndarray, scatter: np.ndarray) -> np.ndarray:
    """One path-counting step: counts[gather[e]] is added into entry
    scatter[e] of a fresh vector, for every edge e."""
    nxt = np.zeros_like(counts)
    np.add.at(nxt, scatter, counts[gather])
    return nxt


def minimize(m_aut: PartialDfa) -> PartialDfa:
    """Moore minimization of the partial DFA (via a rejecting sink).

    Each round is one array pass: a state's signature is its own block and
    the blocks of its successors, and np.unique over the signature rows
    gives the next blocks, until their number stops growing.  Blocks are
    then numbered breadth first from the start block, letters in alphabet
    order, so the result is the canonical minimal DFA.
    """
    table = m_aut.table
    n = m_aut.n_states
    sink = n
    full = np.vstack([np.where(table >= 0, table, sink), np.full((1, table.shape[1]), sink)])
    block = np.zeros(n + 1, dtype=np.int32)
    block[sink] = 1
    n_blocks = 2
    while True:
        sig = np.column_stack([block, block[full]])
        sig = sig.view(np.dtype((np.void, sig.shape[1] * sig.itemsize))).ravel()
        _, block_of = np.unique(sig, return_inverse=True)
        found = int(block_of.max()) + 1
        if found == n_blocks:
            break
        block, n_blocks = block_of.astype(np.int32), found
    # the states of a block share their successor blocks, so any one of
    # them may write the block's row; the sink's block stands for "missing"
    succ = np.empty((n_blocks, table.shape[1]), dtype=np.int32)
    succ[block] = block[full]
    succ[succ == block[sink]] = -1
    number = _bfs_number(succ, block[m_aut.start])
    kept = np.flatnonzero(number >= 0)
    n_found = len(kept)
    out = np.full((n_found, table.shape[1]), -1, dtype=np.int32)
    rows = succ[kept]
    out[number[kept]] = np.where(rows >= 0, number[rows], -1)
    return PartialDfa(m_aut.field, m_aut.alphabet, n_found, out, start=0)


def _bfs_number(succ: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first numbers of the states reachable from `start`.

    succ[s, j] is the successor of s under letter j, or -1 for none.  A
    state's number is its position in the order a queue-driven BFS with
    letters in column order first meets it; unreachable states get -1.
    Each BFS layer is one array pass.
    """
    number = np.full(len(succ), -1, dtype=np.intp)
    number[start] = 0
    frontier = np.array([start])
    n_found = 1
    while len(frontier):
        nxt = succ[frontier].ravel()
        nxt = nxt[nxt >= 0]
        nxt = nxt[number[nxt] < 0]
        _, first = np.unique(nxt, return_index=True)
        frontier = nxt[np.sort(first)]
        number[frontier] = np.arange(n_found, n_found + len(frontier))
        n_found += len(frontier)
    return number


def canonical_form(m_aut: PartialDfa) -> tuple:
    """Canonical renumbering by BFS with letters in alphabet order.

    Two trim partial DFAs over the same alphabet are isomorphic iff their
    canonical forms are equal.
    """
    table = m_aut.table
    number = _bfs_number(table, m_aut.start)
    s, j = np.nonzero((table >= 0) & (number >= 0)[:, None])
    edges = sorted(zip(number[s].tolist(), j.tolist(), number[table[s, j]].tolist()))
    return (m_aut.n_states, int(np.count_nonzero(number >= 0)), tuple(edges))


def isomorphic(m1: PartialDfa, m2: PartialDfa) -> bool:
    if len(m1.alphabet) != len(m2.alphabet):
        return False
    return canonical_form(m1) == canonical_form(m2)


# -- serialization -----------------------------------------------------------


def _interim_reachable(n_aut: InterimAutomaton) -> list:
    number = _bfs_number(np.asarray(n_aut.delta).T, 0)
    return np.flatnonzero(number >= 0).tolist()


def _dot_name(s) -> str:
    return '"%s"' % str(s).replace('"', '\\"')


def to_dot(aut, trim: bool = False) -> str:
    """Graphviz rendering; accepting states get double circles."""
    lines = ["digraph {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    if isinstance(aut, InterimAutomaton):
        keep = set(_interim_reachable(aut)) if trim else set(range(aut.n_states))
        for t in sorted(keep):
            shape = "doublecircle" if aut.accepting[t] else "circle"
            lines.append("  %s [shape=%s];" % (_dot_name(aut.states[t].label()), shape))
        lines.append("  __start -> %s;" % _dot_name(aut.states[0].label()))
        for j, quad in enumerate(aut.alphabet):
            name = aut.alphabet.letter_name(j)
            for s in sorted(keep):
                t = aut.delta[j][s]
                if t in keep:
                    lines.append(
                        "  %s -> %s [label=\"%s\"];"
                        % (
                            _dot_name(aut.states[s].label()),
                            _dot_name(aut.states[t].label()),
                            name,
                        )
                    )
    elif isinstance(aut, PartialDfa):
        for s in range(aut.n_states):
            lines.append("  %s [shape=doublecircle];" % _dot_name(s))
        lines.append("  __start -> %s;" % _dot_name(aut.start))
        for s, j, t in aut.edges():
            lines.append(
                "  %s -> %s [label=\"%s\"];"
                % (_dot_name(s), _dot_name(t), aut.alphabet.letter_name(j))
            )
    else:
        raise UnsupportedFormat("cannot render %r" % type(aut).__name__)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _alphabet_json(alphabet: Alphabet) -> list:
    return [{"a": str(quad.a), "b": str(quad.b)} for quad in alphabet]


def to_json(aut) -> str:
    field = aut.field
    doc = {
        "field": {"p": field.p, "k": field.k},
        "alphabet": _alphabet_json(aut.alphabet),
    }
    if isinstance(aut, InterimAutomaton):
        doc["type"] = "interim"
        doc["merged"] = aut.merged
        doc["start"] = 0
        doc["states"] = [
            {
                "id": t,
                "accepting": aut.accepting[t],
                "kind": st.kind,
                "value": None if st.value is None else str(st.value),
            }
            for t, st in enumerate(aut.states)
        ]
        doc["transitions"] = [
            {"from": s, "letter": j, "to": aut.delta[j][s]}
            for s in range(aut.n_states)
            for j in range(len(aut.alphabet))
        ]
    elif isinstance(aut, PartialDfa):
        doc["type"] = "partial"
        doc["start"] = aut.start
        doc["states"] = [{"id": t, "accepting": True} for t in range(aut.n_states)]
        doc["transitions"] = [
            {"from": s, "letter": j, "to": t} for s, j, t in aut.edges()
        ]
    else:
        raise UnsupportedFormat("cannot serialize %r" % type(aut).__name__)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _alphabet_from_json(field: FiniteField, items) -> Alphabet:
    letters = [
        MonicQuad(field.parse_element(it["a"]), field.parse_element(it["b"]))
        for it in items
    ]
    return Alphabet(field, letters)


def automaton_from_json(text: str):
    """Inverse of to_json for both automaton kinds."""
    doc = json.loads(text)
    field = FiniteField(doc["field"]["p"], doc["field"]["k"])
    alphabet = _alphabet_from_json(field, doc["alphabet"])
    if doc["type"] == "partial":
        trans = {(t["from"], t["letter"]): t["to"] for t in doc["transitions"]}
        return PartialDfa(field, alphabet, len(doc["states"]), trans, start=doc["start"])
    if doc["type"] == "interim":
        states = []
        accepting = []
        for st in sorted(doc["states"], key=lambda s: s["id"]):
            value = None if st["value"] is None else field.parse_element(st["value"])
            states.append(NState(st["kind"], value))
            accepting.append(bool(st["accepting"]))
        n = len(states)
        delta = [[0] * n for _ in alphabet.letters]
        for t in doc["transitions"]:
            delta[t["letter"]][t["from"]] = t["to"]
        return InterimAutomaton(
            field, alphabet, states, accepting, delta, merged=doc.get("merged", False)
        )
    raise UnsupportedFormat("unknown automaton type %r" % doc.get("type"))


def export(aut, fmt: str, trim: bool = False) -> str:
    if fmt == "dot":
        return to_dot(aut, trim=trim)
    if fmt == "json":
        return to_json(aut)
    raise UnsupportedFormat("unknown export format %r" % (fmt,))
