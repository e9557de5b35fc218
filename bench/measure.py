"""Bookkeeping shared by the workloads: failure tally, percentiles, host
facts and the memory ceiling for batched calls."""

from __future__ import annotations

import math
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

# Layers are the package modules that do work; `errors` only defines types.
LAYERS = (
    "finite_field",
    "polynomial",
    "monoid",
    "automaton",
    "irreducibility",
    "_batch",
    "local_field",
    "cli",
)

# The batched kernel builds a (rows, d-1, d) reduction tensor of up to 16-byte
# entries.  Inputs whose tensor could pass this ceiling are refused before the
# call, so no workload can reach the multi-gigabyte tensors of d = 1024.
BATCH_TENSOR_CEILING = 1 << 30

MIN_TAIL = 10

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Refused(Exception):
    """The benchmark declined to make a call that could exhaust the host."""


def check_batch_size(rows: int, d: int) -> None:
    need = rows * (d - 1) * d * 16
    if need > BATCH_TENSOR_CEILING:
        raise Refused(
            "%d rows at d = %d need a %d-byte reduction tensor, ceiling %d"
            % (rows, d, need, BATCH_TENSOR_CEILING)
        )


@dataclass
class Tally:
    """Operations attempted and failed, per layer.

    A failure is a verdict that disagrees with the reference, an exception
    or a refusal.  Failures inside a known-defect slice are counted like any
    other, and also kept apart so that they do not make the run incorrect.
    """

    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    known_failed: int = 0
    notes: List[str] = field(default_factory=list)

    def record(self, layer: str, attempted: int, failed: int, known: bool = False,
               note: Optional[str] = None) -> None:
        self.attempted[layer] = self.attempted.get(layer, 0) + attempted
        self.failed[layer] = self.failed.get(layer, 0) + failed
        if known:
            self.known_failed += failed
        if failed and note and len(self.notes) < 20:
            self.notes.append(note)

    def compare(self, layer: str, got: Optional[Sequence], want: Sequence, what: str,
                known: bool = False) -> int:
        """Count each position of `want` as one operation, failed where `got`
        differs; returns the number failed.  `got` None means the call
        already failed and was counted by guard()."""
        if got is None:
            return 0
        if len(got) != len(want):
            self.record(layer, len(want), len(want), known,
                        "%s: %d results for %d inputs" % (what, len(got), len(want)))
            return len(want)
        bad = sum(1 for g, w in zip(got, want) if g != w)
        self.record(layer, len(want), bad, known, "%s: %d wrong" % (what, bad))
        return bad

    def guard(self, layer: str, ops: int, what: str, fn: Callable, *args,
              known: bool = False):
        """Call fn(*args); an exception or refusal fails all `ops` operations
        and returns None."""
        try:
            return fn(*args)
        except Exception as exc:  # the program's error is a measured outcome
            self.record(layer, ops, ops, known,
                        "%s: %s: %s" % (what, type(exc).__name__, exc))
            return None

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def unexpected_failed(self) -> int:
        return self.total_failed - self.known_failed


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses unless at least MIN_TAIL samples
    lie beyond it, so a reported tail rests on that many observations."""
    n = len(samples)
    rank = math.ceil(pct / 100.0 * n)
    if n - rank < MIN_TAIL:
        raise ValueError(
            "p%g of %d samples has %d beyond it, need %d" % (pct, n, n - rank, MIN_TAIL)
        )
    return sorted(samples)[rank - 1]


def cap_threads() -> Dict[str, str]:
    """Cap BLAS and OpenMP pools at the usable cores; call before numpy loads."""
    cores = str(usable_cores())
    used = {}
    for var in THREAD_VARS:
        cur = os.environ.get(var)
        if cur is None or not cur.isdigit() or int(cur) > int(cores) or int(cur) < 1:
            os.environ[var] = cores
        used[var] = os.environ[var]
    return used


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_facts(threads: Dict[str, str]) -> dict:
    import numpy

    return {
        "nproc": usable_cores(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
        "platform": sys.platform,
    }
