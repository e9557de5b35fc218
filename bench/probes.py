"""Layer probes for the traced run.

Every workload's traced run calls the same probes, so every per-layer metric
exists on every workload.  A probe times a seeded loop of calls into one
layer, or reads an exact count; each probe also runs inside a span, so every
layer has self time in the trace.  Results are checked where an answer is
known, and wrong answers count as failures of the probed layer.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path
from typing import Dict, List, Tuple

from quadcomp import (
    Alphabet,
    FiniteField,
    MonicQuad,
    Poly,
    accepts,
    build_interim,
    chain_irreducible,
    compose_levels,
    count_accepted,
    enumerate_irreducible_degree,
    full_decompose,
    iter_levels,
    lazy_accepts,
    letter_chain,
    local_irreducible,
    minimize,
    pi,
    rabin_is_irreducible,
    reverse_subset_prune,
    test_decomposable,
)
from quadcomp._batch import from_polys
from quadcomp.cli import main as cli_main

from measure import Tally
from tracing import span_durations
from workloads import (
    COUNT_FIELDS,
    COUNT_LEVEL,
    ENUM_LEVEL,
    GOLDEN,
    batched,
    call,
    compose_at,
    edge_inputs,
    edge_slice,
    field_tag,
    padic_chains,
    random_alphabet,
    random_word_with,
    seeded,
)

Metrics = Dict[str, Tuple[float, str]]

SRC = Path(__file__).resolve().parent.parent / "src"

REPEATS = 5
BLOCK = 100


def _median_time(fn, repeats: int = REPEATS) -> float:
    """Median seconds of `repeats` calls of fn()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_item(fn, items: list) -> float:
    """Median seconds per item, timing blocks of BLOCK items."""
    times = []
    for i in range(0, len(items), BLOCK):
        block = items[i:i + BLOCK]
        t0 = time.perf_counter()
        for item in block:
            fn(item)
        times.append((time.perf_counter() - t0) / len(block))
    return statistics.median(times)


def _peak_mb(fn, *args) -> float:
    """tracemalloc peak in MB during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _random_poly(field: FiniteField, rng, degree: int) -> Poly:
    vals = [field.raw_from_index(rng.randrange(field.q)) for _ in range(degree)]
    return Poly(field, vals + [field.one_raw], raw=True)


def finite_field_probes(seed, tr, tally) -> Metrics:
    out = {}
    for field in (FiniteField(3), FiniteField(3, 2)):
        rng = seeded(seed, "probe", "rmul", field.q)
        pairs = [(field.raw_from_index(rng.randrange(field.q)),
                  field.raw_from_index(rng.randrange(field.q))) for _ in range(20000)]
        rmul = field.rmul

        def loop():
            for u, v in pairs:
                rmul(u, v)

        with tr.span("finite_field.rmul", str(field.q), len(pairs) * REPEATS):
            secs = _median_time(loop)
        out["finite_field.rmul_ns.q%d" % field.q] = (secs / len(pairs) * 1e9, "ns")
    return out


def polynomial_probes(seed, tr, tally) -> Metrics:
    out = {}
    f3, f9 = FiniteField(3), FiniteField(3, 2)
    rng = seeded(seed, "probe", "poly")
    polys = [_random_poly(f3, rng, 512) for _ in range(8)]
    const = f3.elem(2)
    with tr.span("polynomial.square", "q3.d512", len(polys) * REPEATS):
        out["polynomial.square_ms.q3.d512"] = (
            _median_time(lambda: [p * p for p in polys]) / len(polys) * 1e3, "ms")
    with tr.span("polynomial.sub_const", "q3.d512", len(polys) * REPEATS):
        out["polynomial.sub_const_us.q3.d512"] = (
            _median_time(lambda: [p - const for p in polys]) / len(polys) * 1e6, "us")
    pairs = [(_random_poly(f9, rng, 32), _random_poly(f9, rng, 32)) for _ in range(4)]
    with tr.span("polynomial.mul", "q9.d32", len(pairs) * REPEATS):
        out["polynomial.mul_ms.q9.d32"] = (
            _median_time(lambda: [a * b for a, b in pairs]) / len(pairs) * 1e3, "ms")
    tally.compare("polynomial", [polys[0] * polys[0] - const], [polys[0] ** 2 - const],
                  "square probe")

    # scalar Rabin over F_7 (d = 16) and F_9 (d = 8), so its spans exist on
    # every workload
    for field, level in ((FiniteField(7), 4), (f9, 3)):
        alph = Alphabet.maximal(field)
        for want in (True, False):
            word = random_word_with(alph, rng, level, want)
            poly = call(tr, tally, "monoid.pi", 1, pi, word, alph)
            got = call(tr, tally, "polynomial.rabin_is_irreducible", 1,
                       lambda: [rabin_is_irreducible(poly)], tag=field_tag(field))
            tally.compare("polynomial", got, [want], "scalar rabin probe")
    return out


def batch_probes(seed, tr, tally) -> Metrics:
    out = {}
    rng = seeded(seed, "probe", "batch")
    for field, letters, level in ((FiniteField(7), 4, 5), (FiniteField(3, 2), 6, 4)):
        alph = random_alphabet(field, rng, letters)
        d = 2 ** level
        levels = call(tr, tally, "_batch.compose_levels", 1, compose_levels, field, alph, level)
        rows = levels[level]
        t0 = time.perf_counter()
        got = call(tr, tally, "_batch.rabin_irreducible_2power", len(rows), batched, field, rows)
        secs = time.perf_counter() - t0
        out["batch.rows_per_s.q%d.d%d" % (field.q, d)] = (len(rows) / secs, "1/s")
        words = list(product(range(letters), repeat=level))
        want = [chain_irreducible(w, alph).irreducible for w in words]
        tally.compare("_batch", got, want, "rows probe q=%d" % field.q)
        if field.q == 7:
            with tr.span("_batch.rabin_irreducible_2power", "peak", len(rows)):
                peak = _peak_mb(batched, field, rows)
            out["batch.peak_mb.q7.d32"] = (peak, "MB")

    f3 = FiniteField(3)
    alph = Alphabet.maximal(f3)
    words = [random_word_with(alph, rng, ENUM_LEVEL, want) for want in (True, False, True, False)]
    polys = [call(tr, tally, "polynomial.compose", 1, compose_at, f3, w, 0) for w in words]
    arr = call(tr, tally, "_batch.from_polys", len(polys), from_polys, f3, polys)
    t0 = time.perf_counter()
    got = call(tr, tally, "_batch.rabin_irreducible_2power", len(polys), batched, f3, arr)
    out["batch.ms_per_row.q3.d512"] = ((time.perf_counter() - t0) / len(polys) * 1e3, "ms")
    tally.compare("_batch", got, [True, False, True, False], "d=512 probe")
    with tr.span("_batch.rabin_irreducible_2power", "peak", len(polys)):
        peak = _peak_mb(batched, f3, arr)
    out["batch.peak_mb.q3.d512"] = (peak, "MB")

    out["batch.edge_wrong"] = (edge_slice(edge_inputs(seed, "probe"), tr, tally), "count")
    return out


# Peak RSS growth of a fresh interpreter during one reverse_subset_prune.
# VmHWM restarts at exec, unlike ru_maxrss, which keeps the parent's peak.
PRUNE_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from quadcomp import Alphabet, FiniteField, build_interim, reverse_subset_prune

def hwm_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

n_aut = build_interim(Alphabet.maximal(FiniteField(int(sys.argv[2]), int(sys.argv[3]))))
before = hwm_kb()
reverse_subset_prune(n_aut)
print((hwm_kb() - before) / 1024.0)
"""


def prune_rss_growth_mb(p: int, k: int) -> float:
    proc = subprocess.run([sys.executable, "-c", PRUNE_CHILD, str(SRC), str(p), str(k)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def automaton_probes(seed, tr, tally) -> Metrics:
    out = {}
    for p, k in COUNT_FIELDS:
        field = FiniteField(p, k)
        q = field.q
        alph = Alphabet.maximal(field)
        tag = str(q)
        n_aut = call(tr, tally, "automaton.build_interim", 1, build_interim, alph, tag=tag)
        t0 = time.perf_counter()
        m_aut = call(tr, tally, "automaton.reverse_subset_prune", 1, reverse_subset_prune,
                     n_aut, tag=tag)
        t1 = time.perf_counter()
        call(tr, tally, "automaton.minimize", 1, minimize, m_aut, tag=tag)
        t2 = time.perf_counter()
        words = call(tr, tally, "automaton.count_accepted", 1, count_accepted, m_aut,
                     COUNT_LEVEL, tag=tag)
        t3 = time.perf_counter()
        out["automaton.reverse_subset_prune_s.q%d" % q] = (t1 - t0, "s")
        out["automaton.minimize_s.q%d" % q] = (t2 - t1, "s")
        out["automaton.count_accepted_s.q%d" % q] = (t3 - t2, "s")
        tally.compare("automaton", [words], [GOLDEN["count_n20"][q]], "count probe q=%d" % q)
        out["automaton.m_states.q%d" % q] = (m_aut.n_states, "count")
    # tracemalloc slows the pure-Python subset walk about 17-fold, so the
    # prune's peak is read as RSS growth in a fresh process instead.  Its
    # time is spent in another process, so it is not automaton self time.
    del m_aut
    with tr.span("bench.probe.prune_peak", "29"):
        peak = prune_rss_growth_mb(*COUNT_FIELDS[-1])
    out["automaton.prune_peak_mb.q29"] = (peak, "MB")

    f7 = FiniteField(7)
    alph = Alphabet.maximal(f7)
    n_aut = build_interim(alph)
    m_aut = reverse_subset_prune(n_aut)
    rng = seeded(seed, "probe", "accepts")
    words = [tuple(rng.randrange(7) for _ in range(5)) for _ in range(2000)]
    with tr.span("automaton.accepts", "probe", len(words)):
        out["automaton.accepts_us"] = (_per_item(lambda w: accepts(m_aut, w), words) * 1e6, "us")
    with tr.span("automaton.lazy_accepts", "probe", len(words)):
        out["automaton.lazy_accepts_us"] = (
            _per_item(lambda w: lazy_accepts(n_aut, w), words) * 1e6, "us")
    with tr.span("irreducibility.chain_irreducible", "probe", len(words)):
        out["irreducibility.chain_irreducible_us"] = (
            _per_item(lambda w: chain_irreducible(w, alph), words) * 1e6, "us")
    ref = [chain_irreducible(w, alph).irreducible for w in words]
    tally.compare("automaton", [accepts(m_aut, w) for w in words], ref, "accepts probe")
    tally.compare("automaton", [lazy_accepts(n_aut, w) for w in words], ref, "lazy probe")
    return out


def irreducibility_probes(seed, tr, tally) -> Metrics:
    out = {}
    rng = seeded(seed, "probe", "irreducibility")
    f7 = FiniteField(7)
    alph7 = Alphabet.maximal(f7)
    polys = [call(tr, tally, "monoid.pi", 1, pi, tuple(rng.randrange(7) for _ in range(5)), alph7)
             for _ in range(40)]
    times = []
    for poly in polys:
        t0 = time.perf_counter()
        call(tr, tally, "irreducibility.test_decomposable", 1, test_decomposable, poly, tag="32")
        times.append(time.perf_counter() - t0)
    out["irreducibility.test_decomposable_us.d32"] = (statistics.median(times) * 1e6, "us")

    f3 = FiniteField(3)
    t0 = time.perf_counter()
    total = call(tr, tally, "irreducibility.enumerate_irreducible_degree", 1,
                 lambda: sum(1 for _ in enumerate_irreducible_degree(f3, ENUM_LEVEL)))
    out["irreducibility.enumerate_irreducible_degree_s"] = (time.perf_counter() - t0, "s")
    tally.compare("irreducibility", [total], [GOLDEN["enumerate_polys"]], "enumerate probe")

    alph3 = Alphabet.maximal(f3)
    per_level: Dict[int, List[float]] = {}
    for _ in range(REPEATS):
        levels = iter_levels(alph3, ENUM_LEVEL)
        for level in range(1, ENUM_LEVEL + 1):
            t0 = time.perf_counter()
            step = call(tr, tally, "irreducibility.iter_levels", 1, next, levels, tag=str(level))
            per_level.setdefault(level, []).append(time.perf_counter() - t0)
            out["irreducibility.frontier_words.level%d" % level] = (len(step[1]), "count")
    for level, times in per_level.items():
        out["irreducibility.extend_frontier_ms.level%d" % level] = (
            statistics.median(times) * 1e3, "ms")
    sizes = [int(out["irreducibility.frontier_words.level%d" % n][0])
             for n in range(1, ENUM_LEVEL + 1)]
    tally.compare("irreducibility", sizes, GOLDEN["enumerate_frontier"], "frontier probe")

    decompose_times, chain_times = [], []
    for _ in range(20):
        word = random_word_with(alph3, rng, ENUM_LEVEL, True)
        shift = rng.randrange(3)
        poly = call(tr, tally, "polynomial.compose", 1, compose_at, f3, word, shift)
        t0 = time.perf_counter()
        chain = call(tr, tally, "irreducibility.full_decompose", 1, full_decompose, poly)
        decompose_times.append(time.perf_counter() - t0)
        letters = [MonicQuad(f3.zero, b) for b in chain.bs]
        t0 = time.perf_counter()
        report = call(tr, tally, "irreducibility.letter_chain", 1, letter_chain, letters)
        chain_times.append(time.perf_counter() - t0)
        tally.compare("irreducibility", [(chain.word(), chain.shift.val, report.irreducible)],
                      [(word, shift, True)], "full_decompose probe")
    out["irreducibility.full_decompose_ms.d512"] = (statistics.median(decompose_times) * 1e3, "ms")
    out["irreducibility.letter_chain_us.n9"] = (statistics.median(chain_times) * 1e6, "us")
    return out


def local_field_probes(seed, tr, tally) -> Metrics:
    chains = padic_chains(seed, "probe")
    with tr.span("local_field.local_irreducible", "probe", len(chains)):
        per = _per_item(lambda c: local_irreducible(c[1]), chains)
    got = [local_irreducible(c).irreducible for _, c in chains]
    want = [letter_chain(letters).irreducible for letters, _ in chains]
    tally.compare("local_field", got, want, "local probe")
    return {"local_field.local_irreducible_us": (per * 1e6, "us")}


def _cli(tr, tally, argv: List[str], expected: str, name: str) -> float:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with tr.span("cli.main", name, 1), contextlib.redirect_stdout(buf):
        code = tally.guard("cli", 1, "cli " + name, cli_main, argv)
    secs = time.perf_counter() - t0
    tally.compare("cli", [(code, buf.getvalue())], [(0, expected)], "cli " + name)
    return secs


def cli_probes(seed, tr, tally) -> Metrics:
    f3 = FiniteField(3)
    listing = "".join(p.csv() + "\n" for p in enumerate_irreducible_degree(f3, 7))
    words = GOLDEN["count_n20"][23]
    counted = "words: %d\npolynomials: %d\n" % (words, 23 * words)
    return {
        "cli.main_s.enumerate": (_cli(tr, tally, ["enumerate", "--q", "3", "-n", "7"], listing,
                                      "enumerate"), "s"),
        "cli.main_s.count": (_cli(tr, tally, ["count", "--q", "23", "-n", "20"], counted,
                                  "count"), "s"),
    }


PROBES = (finite_field_probes, polynomial_probes, batch_probes, automaton_probes,
          irreducibility_probes, local_field_probes, cli_probes)


def run_all(seed: int, tr, tally: Tally) -> Metrics:
    out: Metrics = {}
    for probe in PROBES:
        with tr.span("bench.probe." + probe.__name__):
            out.update(probe(seed, tr, tally))
    return out


def span_metrics(spans) -> Metrics:
    """Metrics read from the spans of the whole traced section."""
    out: Metrics = {}
    for tag in ("fp", "fpk"):
        times = span_durations(spans, "polynomial.rabin_is_irreducible", tag)
        out["polynomial.rabin_is_irreducible_ms." + tag] = (statistics.median(times) * 1e3, "ms")
        out["polynomial.rabin_is_irreducible_calls." + tag] = (len(times), "count")
    out["monoid.pi_ms"] = (statistics.median(span_durations(spans, "monoid.pi")) * 1e3, "ms")
    out["batch.compose_levels_s"] = (sum(span_durations(spans, "_batch.compose_levels")), "s")
    out["batch.rabin_s"] = (sum(span_durations(spans, "_batch.rabin_irreducible_2power")), "s")
    return out
