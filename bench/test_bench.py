"""Tests of the benchmark's own logic (not of the package).

    python3 -m pytest bench/test_bench.py -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from measure import Refused, Tally, check_batch_size, percentile  # noqa: E402
from tracing import NullTracer, Tracer, layer_totals, self_times  # noqa: E402
import workloads  # noqa: E402


def test_flipped_verdict_counts_as_failed():
    tally = Tally()
    want = [True, False, True, True]
    got = [True, True, True, True]
    tally.compare("automaton", got, want, "flip")
    assert tally.attempted == {"automaton": 4}
    assert tally.failed == {"automaton": 1}
    assert tally.unexpected_failed == 1


def test_missing_results_fail_every_input():
    tally = Tally()
    tally.compare("_batch", [True], [True, False, True], "short")
    assert (tally.total_attempted, tally.total_failed) == (3, 3)


def test_raised_exception_counts_as_failed():
    tally = Tally()

    def boom():
        raise ZeroDivisionError("inverse of zero")

    assert workloads.call(NullTracer(), tally, "polynomial.rabin_is_irreducible", 7, boom) is None
    assert tally.failed == {"polynomial": 7}
    assert tally.attempted == {"polynomial": 7}
    assert "ZeroDivisionError" in tally.notes[0]


def test_refused_batch_counts_as_failed():
    tally = Tally()
    with pytest.raises(Refused):
        check_batch_size(512, 1024)
    check_batch_size(16807, 32)

    class Rows:
        shape = (512, 1025)

    got = workloads.call(NullTracer(), tally, "_batch.rabin_irreducible_2power", 512,
                         workloads.batched, None, Rows())
    assert got is None and tally.failed == {"_batch": 512}


def test_known_defect_failures_are_counted_but_expected():
    assert workloads.beyond_exact(33_554_393, 64)
    assert not workloads.beyond_exact(1_000_003, 64)
    tally = Tally()
    tally.compare("_batch", [False] * 3, [True] * 3, "edge", known=True)
    assert tally.total_failed == 3 and tally.known_failed == 3
    assert tally.unexpected_failed == 0


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 100)]
    with pytest.raises(ValueError):
        percentile(samples, 90)
    samples.append(100.0)
    assert percentile(samples, 90) == 90.0
    assert sum(1 for s in samples if s > percentile(samples, 90)) == 10


def _span(name, start, end, parent):
    return (name, "", start, end, parent, "pass", 1)


def test_self_time_nested_and_overlapping():
    spans = [
        _span("bench.pass", 0.0, 10.0, None),
        _span("automaton.accepts", 1.0, 3.0, 0),
        _span("automaton.lazy_accepts", 2.0, 5.0, 0),   # overlaps its sibling
        _span("_batch.rabin", 8.0, 12.0, 0),            # runs past its parent
        _span("polynomial.mul", 1.5, 2.5, 1),           # nested two deep
    ]
    own = self_times(spans)
    # parent covered by [1, 5] and [8, 10]
    assert own == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    totals = layer_totals(spans)
    assert totals["automaton"] == (pytest.approx(4.0), 2)
    assert totals["bench"][0] == pytest.approx(4.0)


def test_tracer_records_parents():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("bench.pass"):
        with tr.span("monoid.pi", calls=3):
            pass
        with tr.span("monoid.pi"):
            with tr.span("polynomial.mul"):
                pass
    names = [(s[0], s[4], s[6]) for s in tr.spans]
    assert names == [("bench.pass", None, 0), ("monoid.pi", 0, 3), ("monoid.pi", 0, 0),
                     ("polynomial.mul", 2, 0)]
    assert sum(self_times(tr.spans)) == pytest.approx(tr.spans[0][3] - tr.spans[0][2])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    setup = workloads.WORKLOADS[name][0]
    assert setup(5).describe() == setup(5).describe()
    assert setup(5).describe() != setup(6).describe()
