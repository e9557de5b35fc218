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
composition is irreducible.  Every preimage is a union of N's states with
equal columns, so the walk holds a subset as one integer key of one bit
per such class and numbers keys by sorting, with no dict.  lazy_accepts
and extend_frontier run the same subset simulation without materializing
M, by word and by level: a word matrix, one resume id per word and the
level's distinct keys, M's states.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, IndexOutOfRange, UnsupportedFormat
# a chunked step (_preimage_ids, extend_frontier, count_accepted) gathers
# at most about _GATHER_BYTES at once; N exists for q <= MAX_INTERIM_Q
from .finite_field import _GATHER_BYTES, FieldElement, FiniteField
from .monoid import MAX_INTERIM_Q, Alphabet, MonicQuad

# reverse_subset_prune refuses to hold more than this many bytes of the
# frontier of the layer it steps, M's table (twice, for the copy that joins
# its blocks), sorted subset keys and their ids, and next frontier;
# extend_frontier refuses a level whose word matrix, ids and np.nonzero
# indices, with the step's table, new keys and their numbering, pass it.
# For the maximal alphabet, M has 651,985 states at q = 41 and 2,038,570 at
# q = 43, about 3.5 times more per prime.
# The q = 43 walk took 14-16 s at 799-814 MB peak RSS (2-core x86-64,
# Python 3.11), and its estimate peaked at 717 MB; q = 47 passes 1 GiB at
# layer 6, with 4.9 M states, after 28 s.
MAX_WALK_BYTES = 1 << 30

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
    """Complete DFA over the alphabet; all transitions defined.

    N is two read-only arrays: `rows`, whose entry [j, s] is the successor
    of state s under letter j, and the bool row `accepting_mask`.  They are
    built from delta[j][s]: one row per letter, each with one target in
    [0, n_states) per state, and one accepting flag per state; anything
    else raises IndexOutOfRange.  State 0, the initial state, is the start.

    A set of states is a bool row over the states.  Its preimage under
    letter j, the states whose j-successor lies in the set, is
    row[rows[j]]; every walk over N's subsets steps this way.
    """

    start = 0

    def __init__(self, field, alphabet, states, accepting, delta, merged=False):
        self.field = field
        self.alphabet = alphabet
        self.states = tuple(states)
        self.merged = merged
        self.n_states = n = len(self.states)
        if len(accepting) != n or [len(row) for row in delta] != [n] * len(alphabet):
            raise IndexOutOfRange("need %d flags, %d rows of %d targets" % (n, len(alphabet), n))
        self.rows = np.array(delta, dtype=np.intp).reshape(len(alphabet), n)
        if self.rows.size and not 0 <= self.rows.min() <= self.rows.max() < n:
            raise IndexOutOfRange("transition targets must lie in [0, %d)" % n)
        self.accepting_mask = np.array(accepting, dtype=bool)
        _read_only(self.rows, self.accepting_mask)

    @cached_property
    def accepting(self) -> tuple:
        """`accepting_mask` as a tuple of bools; derived on first use and kept."""
        return tuple(self.accepting_mask.tolist())

    @cached_property
    def classes(self) -> "_Classes":
        """N's states grouped by equal columns of `rows`, which every subset
        walk steps through; derived on first use and kept."""
        return _Classes(self)

    def labels(self) -> list:
        return [st.label() for st in self.states]

    def edges(self):
        """(state, letter, target) of every transition, in (state, letter) order."""
        return ((s, j, t) for s, targets in enumerate(self.rows.T.tolist())
                for j, t in enumerate(targets))

    def __eq__(self, other):
        if not isinstance(other, InterimAutomaton):
            return NotImplemented
        key = operator.attrgetter("field", "alphabet", "states")
        return (key(self) == key(other) and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.accepting_mask, other.accepting_mask))


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
            table = _table_from_edges(((s, j, t) for (s, j), t in dict(trans).items()), shape)
        if not 0 <= start < n_states:
            raise IndexOutOfRange("start state %r out of range" % (start,))
        self.table = table
        self.start = start

    @property
    def accepting(self) -> tuple:
        return (True,) * self.n_states

    def labels(self) -> list:
        return [str(s) for s in range(self.n_states)]

    def edges(self):
        """(state, letter, target) of every transition, in (state, letter) order."""
        s, j = np.nonzero(self.table >= 0)
        return zip(s.tolist(), j.tolist(), self.table[s, j].tolist())

    @cached_property
    def trans(self) -> "_Transitions":
        """`table` as a read-only {(state, letter): target} mapping, in (state,
        letter) order; one view, which reads the table and copies nothing."""
        return _Transitions(self.table)

    def __eq__(self, other):
        if not isinstance(other, PartialDfa):
            return NotImplemented
        key = operator.attrgetter("field", "alphabet", "n_states", "start")
        return key(self) == key(other) and np.array_equal(self.table, other.table)


class _Transitions(Mapping):
    """The defined entries of a (states, letters) table as a read-only
    {(state, letter): target} mapping.  A key is found only when both its
    parts lie in range, so a negative one, which numpy would wrap, is not;
    iteration runs in (state, letter) order."""

    def __init__(self, table: np.ndarray):
        self._table = table
        self._cells = memoryview(table)

    def __getitem__(self, key) -> int:
        try:
            s, j = key
            if s >= 0 and j >= 0:
                t = self._cells[s, j]
                if t >= 0:
                    return t
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        # a key past either bound raises IndexError, a malformed one
        # TypeError or ValueError
        try:
            s, j = key
            return s >= 0 and j >= 0 and self._cells[s, j] >= 0
        except (TypeError, ValueError, IndexError):
            return False

    def __iter__(self):
        s, j = np.nonzero(self._table >= 0)
        return zip(s.tolist(), j.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._table >= 0))


def _is_index(v) -> bool:
    """Whether v is an int or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _table_from_edges(edges, shape) -> np.ndarray:
    """(n_states, letters) int32 table of (state, letter, target) triples, -1
    where none is given; refuses a triple that is not integers (TypeError),
    out of range or a repeated pair (IndexOutOfRange)."""
    n_states, n_letters = shape
    table = np.full(shape, -1, dtype=np.int32)
    for s, j, t in edges:
        if not (_is_index(s) and _is_index(j) and _is_index(t)):
            raise TypeError("transition (%r, %r) -> %r is not integers" % (s, j, t))
        if not (0 <= s < n_states and 0 <= j < n_letters and 0 <= t < n_states):
            raise IndexOutOfRange("transition (%r, %r) -> %r out of range" % (s, j, t))
        if table[s, j] >= 0:
            raise IndexOutOfRange("transition (%r, %r) listed twice" % (s, j))
        table[s, j] = t
    return table


def _check_interim_q(q: int) -> None:
    """Refuse, with ValueError, a field too large for N."""
    if q > MAX_INTERIM_Q:
        raise ValueError("the automata need q <= %d, got q = %d" % (MAX_INTERIM_Q, q))


def build_interim(alphabet: Alphabet) -> InterimAutomaton:
    """The complete automaton N with 2q + 1 states, for q <= MAX_INTERIM_Q.

    A letter's targets are its row of the alphabet's step table (kept as
    `alphabet.steps` where that is bounded), and acceptance reads the
    field's nonsquares by element index."""
    alphabet.require_nonempty()
    field = alphabet.field
    q = field.q
    _check_interim_q(q)
    raws = list(field.iter_raw())
    states = [NState("initial", None)] + [NState("dist", FieldElement(field, v)) for v in raws]
    states += [NState("reg", FieldElement(field, v)) for v in raws]
    nonsquare = field.nonsquare_mask()
    # -v is a nonsquare iff v is, when -1 is a square (q = 1 mod 4), and iff
    # v is a nonzero square otherwise; element 0 is zero
    neg_nonsquare = nonsquare ^ (q % 4 == 3)
    neg_nonsquare[0] = False
    accepting = np.concatenate(([True], neg_nonsquare, nonsquare))
    steps = alphabet.steps
    table = steps.table if steps is not None else field.step_table(alphabet.pairs)
    index, rneg = field.index_of_raw, field.rneg
    rows = np.empty((len(alphabet), len(states)), dtype=np.intp)
    # the initial state goes to <-b>; <v> and (v) both go to (f(v))
    rows[:, 0] = [1 + index(rneg(b)) for _, b in alphabet.pairs]
    rows[:, 1 : q + 1] = rows[:, q + 1 :] = table
    rows[:, 1:] += 1 + q
    return InterimAutomaton(field, alphabet, states, accepting, rows)


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
    accepting = np.hstack([n_aut.accepting_mask[:1], n_aut.accepting_mask[q + 1 :]])
    rows = np.hstack([n_aut.rows[:, :1], n_aut.rows[:, q + 1 :] - q])
    return InterimAutomaton(field, n_aut.alphabet, states, accepting, rows, merged=True)


def reverse_subset_prune(n_aut: InterimAutomaton) -> PartialDfa:
    """Reverse N, determinize, drop non-accepting subsets.

    Subset states are explored breadth first with letters in alphabet
    order, so state ids are deterministic.  The start subset is the set of
    N's accepting states; a subset accepts iff it contains N's initial
    state, and only accepting subsets are kept.

    Every preimage is a union of N's column classes (`n_aut.classes`), so a
    subset past the start is one integer key of one bit per class.  Each
    BFS layer takes one pass of _preimage_ids, which numbers keys in the
    order a queue-driven walk meets them.  Each chunk writes a block of M's
    table; past MAX_WALK_BYTES of the layer being stepped, table, keys, ids
    and next layer, estimated after each chunk, the walk raises
    BudgetExceeded.
    """
    classes = n_aut.classes
    frontier = n_aut.accepting_mask[None, :]
    known = _Numbering(classes.key_of(n_aut.accepting_mask))
    blocks = []  # M's table, flattened, one block per chunk
    layer = 0
    while len(frontier):
        layer += 1
        fresh = []
        for block, new_keys in _preimage_ids(classes, frontier, known):
            blocks.append(block)
            fresh.append(new_keys)
            held = frontier.nbytes + _step_bytes(blocks, fresh, known)
            if held > MAX_WALK_BYTES:
                raise BudgetExceeded("subset walk at layer %d holds %d states, about %d of %d MB"
                                     % (layer, known.count, held >> 20, MAX_WALK_BYTES >> 20))
        frontier = np.concatenate(fresh)
    table = np.concatenate(blocks).reshape(-1, len(n_aut.alphabet))
    return PartialDfa(n_aut.field, n_aut.alphabet, known.count, table)


class _Classes:
    """N's states grouped by their columns of `rows`.

    States with equal columns, such as <v> and (v), or v and 2a - v when
    every letter has the same a, go to the same state under every letter,
    so a preimage holds all of a class or none of it.  The classes come
    from `rows` alone, so they hold for merged and loaded machines too.  A
    preimage is one bit per class, packed into a uint64 key when the bits
    fit in 8 bytes and into fixed-width bytes otherwise.  The bits are
    padded with zeros to 1, 2, 4 or 8 bytes (past 8, to whole bytes), so a
    chunk's rows pack in one flat np.packbits and view as integers: packing
    rows of 2-3 bytes along axis 1 took 20-90 times as long.  A kept preimage
    holds the class of N's initial state, so its key is never zero.
    """

    def __init__(self, n_aut: InterimAutomaton):
        cols = np.ascontiguousarray(n_aut.rows.T)
        cols = cols.view(np.dtype((np.void, cols.shape[1] * cols.itemsize))).ravel()
        _, self.rep, of_state = np.unique(cols, return_index=True, return_inverse=True)
        self.of_state = of_state.ravel()
        self.n_classes = len(self.rep)
        width = -(-self.n_classes // 8)
        # the packed bits, padded to 1, 2, 4 or 8 bytes, widen to uint64
        self.packed = next((np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                            if np.dtype(t).itemsize >= width), np.dtype((np.void, width)))
        self.dtype = np.dtype(np.uint64) if width <= 8 else self.packed
        pad = 8 * self.packed.itemsize - self.n_classes
        # [j, c]: the j-successor of class c's states, and its class; the
        # padding columns read state 0 and are cleared after each gather
        self.on_states = np.pad(n_aut.rows[:, self.rep], ((0, 0), (0, pad)))
        self.on_classes = self.of_state[self.on_states]
        self.initial = self.of_state[0]

    def keys(self, bits: np.ndarray) -> np.ndarray:
        """One key per row of padded class bits."""
        return np.packbits(bits, bitorder="little").view(self.packed).astype(self.dtype, copy=False)

    def bits(self, keys: np.ndarray) -> np.ndarray:
        """The padded class bits of each key, one bool row per key."""
        packed = keys.astype(self.packed, copy=False).view(np.uint8)
        bits = np.unpackbits(packed, bitorder="little").view(bool)
        return bits.reshape(len(keys), 8 * self.packed.itemsize)

    def gather(self, frontier: np.ndarray) -> tuple:
        """A frontier's bits, keys unpacked or bool rows over N's states, and
        the (letters, classes) table that gathers their preimages; a class
        is read at its first state, so N's initial state for `initial`."""
        if frontier.ndim == 2:
            return frontier, self.on_states
        return self.bits(frontier), self.on_classes

    def key_of(self, states: np.ndarray) -> np.ndarray:
        """The key of a bool row over N's states, as a 1-element array: its
        own if the row is a union of classes, else the zero key, which no
        kept preimage has."""
        bits = np.zeros(8 * self.packed.itemsize, dtype=bool)
        if np.array_equal(states[self.rep][self.of_state], states):
            bits[: self.n_classes] = states[self.rep]
        return self.keys(bits)


class _Numbering:
    """Ids of keys, with no dict: the keys numbered so far, sorted, and
    their ids."""

    def __init__(self, keys: np.ndarray):
        # at most one key to start from, so already sorted
        self.keys, self.ids = keys, np.arange(len(keys), dtype=np.int32)
        self.count = len(keys)
        self.scratch = 0  # bytes of the last chunk's distinct keys and their first indices

    @property
    def nbytes(self) -> int:
        """Its keys and ids, twice, as each insert copies them, and the last
        chunk's distinct keys and their first indices."""
        return 2 * (self.keys.nbytes + self.ids.nbytes) + self.scratch

    def number(self, keys: np.ndarray) -> tuple:
        """The id of each key, numbering the unseen ones from `count` on in
        order of first appearance, and those new keys in id order."""
        # np.unique's stable sort finds first indices 5-fold slower than
        # the default sort and a minimum over each run of equal keys
        order = np.argsort(keys)
        ordered = keys[order]
        head = np.ones(len(keys), dtype=bool)
        head[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(head)
        uniq = ordered[starts]
        first = np.minimum.reduceat(order, starts) if len(keys) else starts
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(head) - 1
        self.scratch = uniq.nbytes + first.nbytes
        at = np.searchsorted(self.keys, uniq)
        seen = at < len(self.keys)
        seen[seen] = self.keys[at[seen]] == uniq[seen]
        ids = np.empty(len(uniq), dtype=np.int32)
        ids[seen] = self.ids[at[seen]]
        new = np.flatnonzero(~seen)
        in_order = new[np.argsort(first[new])]
        ids[in_order] = np.arange(self.count, self.count + len(new))
        self.count += len(new)
        self.keys = np.insert(self.keys, at[new], uniq[new])
        self.ids = np.insert(self.ids, at[new], ids[new])
        return ids[inverse], uniq[in_order]


def _preimage_ids(classes: _Classes, frontier: np.ndarray, known: _Numbering):
    """Number the preimages of `frontier` under every letter that hold N's
    initial state through `known`, gathering at most _GATHER_BYTES of class
    bits at once.  The frontier is keys, or bool rows over N's states for
    a start that need not be a union of classes.  Yields per chunk its ids
    in (subset, letter) order, -1 for the other preimages, and the keys it
    numbered first."""
    chunk = max(1, _GATHER_BYTES // classes.on_classes.size)
    # an empty frontier still yields one, empty, chunk: an empty level steps to an empty one
    for lo in range(0, len(frontier) or 1, chunk):
        bits, index = classes.gather(frontier[lo : lo + chunk])
        pre = np.take(bits, index, axis=1).reshape(-1, index.shape[1])
        pre[:, classes.n_classes :] = False  # the padding
        keep = pre[:, classes.initial]  # the preimage holds N's initial state
        block = np.full(len(keep), -1, dtype=np.int32)
        block[keep], new_keys = known.number(classes.keys(pre[keep]))
        yield block, new_keys


def _viable_letters(classes: _Classes, frontier: np.ndarray) -> np.ndarray:
    """For each subset of `frontier`, how many letters' preimages of it
    _preimage_ids keeps: letter j's when the subset holds the j-successor
    of N's initial state.  A chunk of subsets at a time, as a key unpacks to
    a bool per class bit and gathers a bool per letter; nothing of a chunk
    outlives the call."""
    counts = np.empty(len(frontier), dtype=np.intp)
    chunk = max(1, _GATHER_BYTES // (8 * classes.packed.itemsize + len(classes.on_classes)))
    for lo in range(0, len(frontier), chunk):
        bits, index = classes.gather(frontier[lo : lo + chunk])
        np.take(bits, index[:, classes.initial], axis=1).sum(axis=1, out=counts[lo : lo + chunk])
    return counts


def start_level(n_aut: InterimAutomaton) -> tuple:
    """Level 0: the empty word, in the narrowest unsigned dtype that holds
    every letter index, resuming at N's accepting states.  They are held as
    a bool row over N's states, since they need not be a union of classes
    and so have no key."""
    words = np.empty((1, 0), dtype=np.min_scalar_type(len(n_aut.alphabet) - 1))
    return _read_only(words, np.zeros(1, dtype=np.int32), n_aut.accepting_mask[None, :])


def extend_frontier(
    n_aut: InterimAutomaton, level: tuple, max_words: Optional[int] = None
) -> tuple:
    """Append every viable letter to every word of a level.

    A level is three read-only arrays: `words`, a (W, n) matrix of letter
    indices in lexicographic order; int32 `ids`, one per word; and `keys`,
    the level's distinct resume states, indexed by `ids`: the keys of the
    sets of N's states that lazy_first_failure holds after reading a word,
    so states of M (level 0 holds a bool row; see start_level).  The keys
    take the subset walk's step once, and its new keys, joined, are the
    next level's.  A level that would hold more than max_words words raises
    BudgetExceeded before the step, and one whose arrays, with the step's
    table, new keys and their numbering, would pass MAX_WALK_BYTES raises it
    as soon as the estimate does: before any new word exists."""
    words, ids, keys = level
    n = words.shape[1] + 1
    classes = n_aut.classes
    n_letters = len(n_aut.alphabet)
    n_viable = _viable_letters(classes, keys)
    n_words = int(np.bincount(ids, minlength=len(keys)) @ n_viable)
    # each word's successors and their mask; the new words and ids, and
    # the two index arrays of np.nonzero
    words_held = (len(ids) * n_letters * (np.dtype(np.int32).itemsize + 1)
                  + n_words * (n * words.itemsize + ids.itemsize + 2 * np.dtype(np.intp).itemsize))

    def check(held):
        if held > MAX_WALK_BYTES:
            raise BudgetExceeded("level %d holds %d words, about %d of %d MB"
                                 % (n, n_words, held >> 20, MAX_WALK_BYTES >> 20))

    check(words_held)
    if max_words is not None and n_words > max_words:
        raise BudgetExceeded("level %d holds %d words, budget is %d" % (n, n_words, max_words))
    blocks, fresh, seen = [], [], _Numbering(np.empty(0, dtype=classes.dtype))
    for block, new_keys in _preimage_ids(classes, keys, seen):
        blocks.append(block)
        fresh.append(new_keys)
        check(words_held + _step_bytes(blocks, fresh, seen))
    nxt = np.concatenate(blocks).reshape(-1, n_letters)[ids]
    r, j = np.nonzero(nxt >= 0)  # in (word, letter) order, which keeps the words sorted
    new_words = np.column_stack((words[r], j.astype(words.dtype)))
    return _read_only(new_words, nxt[r, j], np.concatenate(fresh))


def _step_bytes(blocks: list, fresh: list, known: _Numbering) -> int:
    """Bytes a subset step holds: its table blocks, twice, as joining them
    copies the whole table; its new keys; and the arrays of its numbering."""
    return 2 * sum(b.nbytes for b in blocks) + sum(f.nbytes for f in fresh) + known.nbytes


def _read_only(*arrays: np.ndarray) -> tuple:
    for array in arrays:
        array.setflags(write=False)
    return arrays


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
    the word is accepted.  One gather a letter, O(q), and nothing is kept.
    """
    word = n_aut.alphabet.check_word(word)
    rows, mask = n_aut.rows, n_aut.accepting_mask
    for pos, j in enumerate(word, 1):
        mask = mask[rows[j]]
        if not mask[0]:
            return pos
    return None


def lazy_accepts(n_aut: InterimAutomaton, word: Sequence[int]) -> bool:
    return lazy_first_failure(n_aut, word) is None


def count_accepted(m_aut: PartialDfa, n: int) -> int:
    """Number of accepted words of length exactly n (path counting).

    Every state of M accepts, so the count is met in the middle: it is the
    dot product of fwd, where fwd[s] counts the words of length i leading
    from the start to s, and bwd, where bwd[s] counts the words of length
    n - i readable from s.  Both step over the int32 edge targets in (state,
    letter) order, 4 bytes an edge: a forward step adds each state's count
    into its targets, a backward step gives each state the sum of its
    targets' counts.  With d the largest out-degree, a forward step gives
    counts of at most sum(fwd) * d and a backward step at most max(bwd) * d;
    the side with the smaller bound steps next, in int64, while that bound
    stays below 2**63.  Once both bounds reach 2**63 the remaining steps go
    forward in object arrays of Python ints, which stay exact past 2**63.
    The dot product is taken in Python ints.  A step gathers the counts of
    at most _GATHER_BYTES // 8 edges at once, a span of states at a time.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    table = m_aut.table
    defined = table >= 0
    degree = np.count_nonzero(defined, axis=1)
    out_degree = int(degree.max())
    nonempty = degree > 0
    starts = np.cumsum(degree) - degree
    per_span = max(1, _GATHER_BYTES // (8 * max(1, out_degree)))
    spans = [(lo, min(lo + per_span, m_aut.n_states))
             for lo in range(0, m_aut.n_states, per_span)]
    spans = [(lo, hi, int(starts[lo]), int(starts[hi - 1] + degree[hi - 1])) for lo, hi in spans]
    tgt = np.empty(spans[-1][3], dtype=table.dtype)
    for lo, hi, e0, e1 in spans:
        # compress builds an index array of 8 bytes an edge, so one span at a time
        np.compress(defined[lo:hi].ravel(), table[lo:hi], out=tgt[e0:e1])
    del defined
    fwd = np.zeros(m_aut.n_states, dtype=np.int64)
    fwd[m_aut.start] = 1
    bwd = np.ones(m_aut.n_states, dtype=np.int64)
    for _ in range(n):
        fwd_bound = int(fwd.sum()) * out_degree
        bwd_bound = int(bwd.max()) * out_degree
        if fwd.dtype != object and min(fwd_bound, bwd_bound) >= 2**63:
            fwd = fwd.astype(object)
        if fwd.dtype == object or fwd_bound <= bwd_bound:
            nxt = np.zeros_like(fwd)
            for lo, hi, e0, e1 in spans:
                np.add.at(nxt, tgt[e0:e1], np.repeat(fwd[lo:hi], degree[lo:hi]))
            fwd = nxt
        else:
            nxt = np.zeros_like(bwd)
            for lo, hi, e0, e1 in spans:
                if e1 > e0:
                    got = nonempty[lo:hi]
                    nxt[lo:hi][got] = np.add.reduceat(bwd[tgt[e0:e1]], starts[lo:hi][got] - e0)
            bwd = nxt
    both = (fwd != 0) & (bwd != 0)
    return sum(map(operator.mul, fwd[both].tolist(), bwd[both].tolist()))


def minimize(m_aut: PartialDfa) -> PartialDfa:
    """Moore minimization of the partial DFA (via a rejecting sink).

    Each round is one array pass: a state's signature is its own block and
    the blocks of its successors, and np.unique over the signature rows
    gives the next blocks, until their number stops growing or every state,
    the sink too, has a block of its own.  Blocks are then numbered breadth
    first from the start block, letters in alphabet order, so the result is
    the canonical minimal DFA.  When every state has a block of its own and
    m_aut is already numbered so, that numbering is the identity and the
    result holds a copy of m_aut's table.
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
        if n_blocks == n + 1:  # every state alone: no later round can split one
            break
    if n_blocks == n + 1 and _in_bfs_order(table, m_aut.start):
        return PartialDfa(m_aut.field, m_aut.alphabet, n, table.copy(), start=0)
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


def _in_bfs_order(table: np.ndarray, start: int) -> bool:
    """Whether _bfs_number(table, start) is the identity: start is 0, and
    read row by row, letters in column order, each target not met before
    is one past the largest met so far (0 counting as met), first met in a
    row below its own number, and every state is met."""
    targets = table.ravel()
    defined = np.flatnonzero(targets >= 0)
    met = targets[defined]
    seen = np.maximum.accumulate(np.concatenate([[0], met]))
    new = met > seen[:-1]
    return (start == 0 and seen[-1] == len(table) - 1 and bool(np.all(met <= seen[:-1] + 1))
            and bool(np.all(defined[new] // table.shape[1] < met[new])))


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


def _reachable(aut) -> list:
    """Ids of the states reachable from the start, ascending."""
    succ = aut.rows.T if isinstance(aut, InterimAutomaton) else aut.table
    return np.flatnonzero(_bfs_number(succ, aut.start) >= 0).tolist()


def to_dot(aut, trim: bool = False) -> str:
    """Graphviz rendering; accepting states get double circles, edges come in
    (state, letter) order, and trim drops the states the start cannot reach."""
    if not isinstance(aut, (InterimAutomaton, PartialDfa)):
        raise UnsupportedFormat("cannot render %r" % type(aut).__name__)
    names = ['"%s"' % label.replace('"', '\\"') for label in aut.labels()]
    letters = [aut.alphabet.letter_name(j) for j in range(len(aut.alphabet))]
    accepting = aut.accepting
    keep = set(_reachable(aut)) if trim else range(aut.n_states)
    lines = ["digraph {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    lines += ["  %s [shape=%s];" % (names[t], "doublecircle" if accepting[t] else "circle")
              for t in range(aut.n_states) if t in keep]
    lines.append("  __start -> %s;" % names[aut.start])
    lines += ['  %s -> %s [label="%s"];' % (names[s], names[t], letters[j])
              for s, j, t in aut.edges() if s in keep]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_doc(aut) -> dict:
    """The document to_json writes, as a dict."""
    if not isinstance(aut, (InterimAutomaton, PartialDfa)):
        raise UnsupportedFormat("cannot serialize %r" % type(aut).__name__)
    states = [{"id": t, "accepting": acc} for t, acc in enumerate(aut.accepting)]
    doc = {
        "field": {"p": aut.field.p, "k": aut.field.k},
        "alphabet": [{"a": str(quad.a), "b": str(quad.b)} for quad in aut.alphabet],
        "type": "partial",
        "start": aut.start,
        "states": states,
        "transitions": [{"from": s, "letter": j, "to": t} for s, j, t in aut.edges()],
    }
    if isinstance(aut, InterimAutomaton):
        doc.update(type="interim", merged=aut.merged)
        for entry, st in zip(states, aut.states):
            entry.update(kind=st.kind, value=None if st.value is None else str(st.value))
    return doc


def to_json(aut) -> str:
    return json.dumps(_json_doc(aut), indent=2, sort_keys=True) + "\n"


def automaton_from_json(text: str):
    """Inverse of to_json for both automaton kinds.

    State ids must be exactly 0..n-1 and each (state, letter) pair may be
    listed once; an interim machine needs every pair (its constructor
    refuses the -1 a missing one leaves) and starts at state 0, and every
    state of a partial one must accept.  A document that is not an object,
    lacks a key or holds an entry of the wrong type, such as a state id,
    letter, target or start that is not an int (a float or a bool), or an
    accepting flag or `merged` that is not a bool, raises UnsupportedFormat.
    """
    doc = json.loads(text)
    try:
        kind = doc.get("type")
        if kind not in ("interim", "partial"):
            raise UnsupportedFormat("unknown automaton type %r" % (kind,))
        field = FiniteField(doc["field"]["p"], doc["field"]["k"])
        parse = field.parse_element
        quads = [MonicQuad(parse(it["a"]), parse(it["b"])) for it in doc["alphabet"]]
        alphabet = Alphabet(field, quads)
        states = sorted(doc["states"], key=lambda st: st["id"])
        n = len(states)
        ids, accepting = [st["id"] for st in states], [st["accepting"] for st in states]
        if not all(map(_is_index, ids + [doc["start"]])):
            raise TypeError("state ids and the start must be ints")
        if not all(isinstance(flag, bool) for flag in accepting):
            raise TypeError("accepting flags must be bools")
        if ids != list(range(n)):
            raise IndexOutOfRange("state ids must be exactly 0..%d" % (n - 1))
        edges = ((t["from"], t["letter"], t["to"]) for t in doc["transitions"])
        table = _table_from_edges(edges, (n, len(alphabet)))
        if kind == "partial":
            if not all(accepting):
                raise ValueError("every state of a partial DFA accepts")
            return PartialDfa(field, alphabet, n, table, start=doc["start"])
        if doc["start"] != InterimAutomaton.start:
            raise IndexOutOfRange("an interim automaton starts at 0, not %r" % (doc["start"],))
        merged = doc.get("merged", False)
        if not isinstance(merged, bool):
            raise UnsupportedFormat("merged must be a bool, not %r" % (merged,))
        nstates = [NState(st["kind"], None if st["value"] is None else parse(st["value"]))
                   for st in states]
        return InterimAutomaton(field, alphabet, nstates, accepting, table.T, merged)
    except (KeyError, TypeError, AttributeError) as exc:
        # a document that is a list, say, has no .get
        what = "no key %s" % exc if isinstance(exc, KeyError) else exc
        raise UnsupportedFormat("malformed automaton document: %s" % what) from exc


def export(aut, fmt: str, trim: bool = False) -> str:
    if fmt == "dot":
        return to_dot(aut, trim=trim)
    if fmt == "json":
        return to_json(aut)
    raise UnsupportedFormat("unknown export format %r" % (fmt,))
