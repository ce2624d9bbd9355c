"""Analytic cost functions over :class:`~repro.upc.params.MachineConfig`.

The cost model answers one question for every runtime operation: *how long
does the issuing thread stall, and how long does each endpoint's network
adapter stay busy*.  The runtime (:mod:`repro.upc.runtime`) charges the former
to the thread's virtual clock and the latter to the per-node NIC demand
accumulator; a phase then ends at the maximum of both (a bulk-synchronous
bottleneck composition).

Every function returns plain floats so callers in hot loops can scale them by
vector counts without numpy overhead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .params import MachineConfig


class Charge(NamedTuple):
    """Outcome of costing one operation.

    ``issuer``  -- seconds the issuing thread is busy/stalled.
    ``nic``     -- seconds of adapter occupancy at *each* endpoint node
                   (0 when the access uses a shared-memory fast path).
    ``complete``-- seconds after issue at which the data is available
                   (equals ``issuer`` for blocking ops; smaller for
                   non-blocking issues, where the caller keeps computing).
    """

    issuer: float
    nic: float
    complete: float


class CostModel:
    """Derives operation costs from a :class:`MachineConfig`."""

    def __init__(self, machine: MachineConfig):
        self.machine = machine
        m = machine
        self._compute_factor = (
            m.pthread_compute_factor if m.mode == "pthread" else 1.0
        )

    # ------------------------------------------------------------------ #
    # computation                                                        #
    # ------------------------------------------------------------------ #
    def compute(self, seconds: float) -> float:
        """Pure computation; subject to the pthread slowdown factor."""
        return seconds * self._compute_factor

    def interactions(self, count: float) -> float:
        """``count`` body/cell force evaluations on local data."""
        return self.compute(count * self.machine.interaction_cost)

    def local_words(self, count: float) -> float:
        """``count`` private-pointer word accesses."""
        return self.compute(count * self.machine.local_word_cost)

    def shared_local_words(self, count: float) -> float:
        """``count`` pointer-to-shared accesses whose affinity is local.

        This is the overhead the paper removes by *casting* global pointers
        that point to local data into plain C pointers (section 5.2/5.3).
        """
        m = self.machine
        return self.compute(
            count * (m.local_word_cost + m.global_deref_overhead)
        )

    # ------------------------------------------------------------------ #
    # point-to-point                                                     #
    # ------------------------------------------------------------------ #
    def _rtt(self, src: int, dst: int) -> float:
        m = self.machine
        if m.same_node(src, dst):
            return m.loopback_rtt  # process mode loopback
        return m.remote_rtt

    def word_access(self, src: int, dst: int, words: float = 1.0) -> Charge:
        """Fine-grained read/write of ``words`` shared words at thread dst.

        Each word is an individual blocking round trip -- exactly how a
        naive UPC pointer-to-shared dereference behaves (section 4).
        """
        m = self.machine
        if src == dst:
            t = self.shared_local_words(words)
            return Charge(issuer=t, nic=0.0, complete=t)
        if m.shared_memory_path(src, dst):
            t = self.compute(words * m.shm_word_cost)
            return Charge(issuer=t, nic=0.0, complete=t)
        per = self._rtt(src, dst) + m.cpu_overhead
        nic = words * (m.nic_gap + m.word_nbytes * m.byte_cost)
        t = words * per
        return Charge(issuer=t, nic=nic, complete=t)

    def bulk_get(self, src: int, dst: int, nbytes: float) -> Charge:
        """One blocking ``upc_memget``-style transfer of ``nbytes``."""
        m = self.machine
        if src == dst:
            t = self.compute(m.shm_copy_overhead + nbytes * m.shm_byte_cost)
            return Charge(issuer=t, nic=0.0, complete=t)
        if m.shared_memory_path(src, dst):
            t = self.compute(m.shm_copy_overhead + nbytes * m.shm_byte_cost)
            return Charge(issuer=t, nic=0.0, complete=t)
        t = self._rtt(src, dst) + m.cpu_overhead + nbytes * m.byte_cost
        nic = m.nic_gap + nbytes * m.byte_cost
        return Charge(issuer=t, nic=nic, complete=t)

    bulk_put = bulk_get  # symmetric in this model

    def gather_ilist(self, src: int, dst: int, nelems: int,
                     elem_nbytes: int) -> Charge:
        """Indexed gather (``upc_memget_ilist``) of ``nelems`` elements."""
        m = self.machine
        nbytes = nelems * elem_nbytes
        base = self.bulk_get(src, dst, nbytes)
        extra = nelems * m.gather_element_cost
        return Charge(
            issuer=base.issuer + extra,
            nic=base.nic,
            complete=base.complete + extra,
        )

    def async_issue(self) -> float:
        """CPU cost of *issuing* a non-blocking operation."""
        return self.machine.cpu_overhead

    # ------------------------------------------------------------------ #
    # synchronization / collectives                                      #
    # ------------------------------------------------------------------ #
    def lock_acquire(self, src: int, home: int) -> Charge:
        """Acquire a upc_lock living at thread ``home`` (uncontended)."""
        m = self.machine
        if m.shared_memory_path(src, home) or src == home:
            t = self.compute(m.lock_overhead * 0.25)
            return Charge(issuer=t, nic=0.0, complete=t)
        t = self._rtt(src, home) + m.lock_overhead
        nic = m.nic_gap
        return Charge(issuer=t, nic=nic, complete=t)

    def lock_release(self, src: int, home: int) -> Charge:
        m = self.machine
        if m.shared_memory_path(src, home) or src == home:
            t = self.compute(m.lock_overhead * 0.1)
            return Charge(issuer=t, nic=0.0, complete=t)
        t = 0.5 * self._rtt(src, home)
        return Charge(issuer=t, nic=m.nic_gap, complete=t)

    def _stages(self, nthreads: int) -> int:
        return max(1, math.ceil(math.log2(max(2, nthreads))))

    def barrier(self, nthreads: int) -> float:
        """A dissemination-style barrier over ``nthreads`` threads."""
        if nthreads <= 1:
            return self.machine.collective_base_cost
        m = self.machine
        nodes = m.nodes_for(nthreads)
        # intra-node stages are cheap in pthread mode
        intra_stages = self._stages(min(nthreads, m.threads_per_node))
        inter_stages = self._stages(nodes) if nodes > 1 else 0
        intra = intra_stages * (
            m.shm_word_cost * 4 if m.mode == "pthread"
            else m.collective_stage_cost
        )
        if m.threads_per_node == 1:
            intra = 0.0
        inter = inter_stages * m.collective_stage_cost
        return m.collective_base_cost + intra + inter

    def reduce_vector(self, nthreads: int, nbytes: float) -> float:
        """All-reduce of ``nbytes`` across ``nthreads`` (tree algorithm).

        One call reduces an entire vector; this is what makes the paper's
        per-level vector reduction (section 6) beat one reduction per
        subspace (Figures 10 vs 11).
        """
        m = self.machine
        if nthreads <= 1:
            return m.collective_base_cost
        stages = self._stages(nthreads)
        per_stage = m.collective_stage_cost + nbytes * m.byte_cost + m.nic_gap
        # reduce + broadcast
        return m.collective_base_cost + 2 * stages * per_stage

    def broadcast(self, nthreads: int, nbytes: float) -> float:
        m = self.machine
        if nthreads <= 1:
            return m.collective_base_cost
        stages = self._stages(nthreads)
        return m.collective_base_cost + stages * (
            m.collective_stage_cost + nbytes * m.byte_cost
        )

