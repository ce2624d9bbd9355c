"""Counters collected while the simulated program runs.

Everything here is *measured from the execution* (message counts, bytes,
cache misses, lock acquisitions, ...), not modeled -- the tests use these to
verify the paper's claims that do not depend on the cost model at all, e.g.
"~2% of the bodies migrate per time-step" (section 5.2) or ">95% of
aggregated requests have a single source thread" (section 5.5).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np


class Counters:
    """Per-thread named counters for one phase.

    Each key holds a plain list of per-thread floats: an ``add`` is one
    Python float addition, the same IEEE operation in the same order as
    an element update of a float64 array, without numpy's per-element
    overhead.  Readers get numpy results (``total`` sums pairwise, as
    ``ndarray.sum`` always did).  The runtime's charging hot path updates
    ``_data`` in place (see :mod:`repro.upc.runtime`); a missing key
    starts as a row of zeros.
    """

    def __init__(self, nthreads: int):
        self.nthreads = nthreads
        self._data: Dict[str, List[float]] = defaultdict(
            lambda: [0.0] * nthreads)

    def add(self, tid: int, key: str, n: float = 1) -> None:
        self._data[key][tid] += n

    def total(self, key: str) -> float:
        row = self._data.get(key)
        return float(np.array(row, dtype=np.float64).sum()) \
            if row is not None else 0.0

    def per_thread(self, key: str) -> np.ndarray:
        row = self._data.get(key)
        if row is None:
            return np.zeros(self.nthreads, dtype=np.float64)
        return np.array(row, dtype=np.float64)

    def keys(self) -> List[str]:
        return sorted(self._data)

    def merged_into(self, other: "Counters") -> None:
        for key, row in self._data.items():
            tgt = other._data[key]
            for t, n in enumerate(row):
                tgt[t] += n


@dataclass
class PhaseRecord:
    """Timing + counters for one completed phase of one time-step."""

    name: str
    step: int
    duration: float
    thread_times: np.ndarray
    nic_times: np.ndarray
    counters: Counters

    @property
    def imbalance(self) -> float:
        """max/mean of per-thread busy time (1.0 = perfectly balanced)."""
        mean = float(self.thread_times.mean())
        if mean == 0:
            return 1.0
        return float(self.thread_times.max()) / mean


class StatsLog:
    """Chronological log of phase records for a whole run."""

    def __init__(self) -> None:
        self.records: List[PhaseRecord] = []

    def append(self, rec: PhaseRecord) -> None:
        self.records.append(rec)

    def phases(self, name: str, steps: "slice | None" = None) -> List[PhaseRecord]:
        recs = [r for r in self.records if r.name == name]
        return recs if steps is None else recs[steps]

    def phase_time(self, name: str, steps: "slice | None" = None) -> float:
        return sum(r.duration for r in self.phases(name, steps))

    def total_time(self, steps: "slice | None" = None) -> float:
        if steps is None:
            return sum(r.duration for r in self.records)
        # single pass: bucket durations per phase name, then apply the
        # per-phase step slice (same semantics as summing phase_time over
        # every name, without the O(phases x records) rescans)
        by_name: Dict[str, List[float]] = {}
        for r in self.records:
            by_name.setdefault(r.name, []).append(r.duration)
        return sum(sum(durs[steps]) for durs in by_name.values())

    def counter_total(self, key: str, phase: "str | None" = None) -> float:
        tot = 0.0
        for r in self.records:
            if phase is None or r.name == phase:
                tot += r.counters.total(key)
        return tot

    def steps(self) -> List[int]:
        return sorted({r.step for r in self.records})

    def __iter__(self) -> Iterator[PhaseRecord]:
        return iter(self.records)
