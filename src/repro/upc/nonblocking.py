"""Non-blocking communication extensions (``bupc_memget_vlist_async``).

The paper's section 5.5 framework issues one *gather* per batch of requested
cells; the gather may pull from several source threads ("vlist") and returns
a handle that is later tested (``bupc_trysync``) or waited on
(``bupc_waitsync``).  Here an issue charges only CPU overhead to the caller;
the transfer's completion time is computed from the cost model and the
caller's clock only advances when it actually waits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .runtime import UpcRuntime


@dataclass
class Handle:
    """Completion handle of one asynchronous gather."""

    tid: int
    complete_at: float
    nelems: int
    nsources: int
    synced: bool = False


class AsyncEngine:
    """Issues and synchronizes non-blocking gathers for one runtime."""

    def __init__(self, rt: UpcRuntime):
        self.rt = rt
        self.outstanding: Dict[int, List[Handle]] = {}
        self.source_histogram: Dict[int, int] = {}

    def memget_vlist_async(self, tid: int,
                           per_source: Dict[int, int],
                           elem_nbytes: int) -> Handle:
        """Gather ``per_source[src]`` elements from each source thread.

        Returns a handle whose ``complete_at`` is the virtual time when all
        pieces have arrived.  NIC demand is charged at issue (the transfer
        happens in the background regardless of when the caller syncs).

        ``fw_issue`` in ``kernels/_bh_kernel.c`` (the compiled frontier
        loop of :mod:`repro.core.frontier`) mirrors these charges and
        counts in the same order; a change here must be made there too,
        and ``tests/test_frontier_c.py`` checks that the two agree.
        """
        rt = self.rt
        per_source = {s: n for s, n in per_source.items() if n > 0}
        if not per_source:
            h = Handle(tid, float(rt.clock[tid]), 0, 0)
            h.synced = True
            return h
        issue = rt.cost.async_issue() * len(per_source)
        rt.charge(tid, issue)
        now = float(rt.clock[tid])
        complete = now
        nelems = 0
        for src, n in per_source.items():
            ch = rt.cost.gather_ilist(tid, src, n, elem_nbytes)
            # one-way pipelined arrival: data lands `complete` after issue
            complete = max(complete, now + ch.complete)
            rt._add_nic(tid, src, ch.nic)
            nelems += n
        nsrc = len(per_source)
        self.source_histogram[nsrc] = self.source_histogram.get(nsrc, 0) + 1
        rt.count(tid, "async_gathers")
        rt.count(tid, "async_elems", nelems)
        h = Handle(tid, complete, nelems, nsrc)
        self.outstanding.setdefault(tid, []).append(h)
        return h

    def trysync(self, tid: int, handle: Handle) -> bool:
        """Non-blocking test; charges a test overhead, never waits."""
        rt = self.rt
        rt.charge(tid, rt.machine.cpu_overhead * 0.25)
        if handle.synced:
            return True
        if rt.clock[tid] >= handle.complete_at:
            self._retire(tid, handle)
            return True
        return False

    def waitsync(self, tid: int, handle: Handle) -> None:
        """Blocking wait: advances the clock to the completion time."""
        rt = self.rt
        if handle.synced:
            return
        if handle.complete_at > rt.clock[tid]:
            rt.count(tid, "waitsync_stall",
                     float(handle.complete_at - rt.clock[tid]))
            rt.clock[tid] = handle.complete_at
        rt.charge(tid, rt.machine.cpu_overhead * 0.25)
        self._retire(tid, handle)

    def _retire(self, tid: int, handle: Handle) -> None:
        handle.synced = True
        lst = self.outstanding.get(tid)
        if lst and handle in lst:
            lst.remove(handle)

    def outstanding_count(self, tid: int) -> int:
        return len(self.outstanding.get(tid, ()))

    def source_fractions(self) -> Dict[int, float]:
        """Fraction of gathers by number of distinct source threads.

        Used to check the paper's section-5.5 measurement: with 32 threads
        more than 95% of the requests had a single source thread.
        """
        return source_fractions(self.source_histogram)


def source_fractions(histogram: Dict[int, int]) -> Dict[int, float]:
    """A gathers-by-source-count histogram, normalized to fractions."""
    total = sum(histogram.values())
    if total == 0:
        return {}
    return {k: v / total for k, v in sorted(histogram.items())}
