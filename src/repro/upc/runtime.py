"""The simulated UPC runtime: virtual clocks, phases, charged operations.

Execution model
---------------
The reproduction executes SPMD programs *functionally* in one Python process:
each phase runs the per-thread work of every UPC thread (usually in thread
order), while a **virtual clock per thread** advances by the modeled cost of
every operation the thread performs.  Cross-thread timing interactions are
captured by three mechanisms:

1. **NIC demand** -- every message adds adapter occupancy to its endpoint
   *nodes*; a phase cannot end before the busiest adapter has served its
   demand.  This models serialization at hot spots (e.g. all threads reading
   ``tol``/``eps`` from thread 0 in the baseline, section 5.1).
2. **Lock free-times** -- see :mod:`repro.upc.locks`.
3. **A dependency event loop** (:meth:`UpcRuntime.run_waiting`) for phases
   where threads spin on flags set by other threads (the center-of-mass
   ``done`` flags of section 5.4).  The baseline's c-of-m phase normally
   runs as a compiled replay of this loop (:mod:`repro.core.build_replay`);
   ``run_waiting`` is that replay's oracle, and serves when no kernel
   does.

A phase ends with an implicit ``upc_barrier``: its duration is
``max(max_i thread_busy_i, max_node nic_demand_node) + barrier`` and all
clocks jump to the common end time.  Phase durations and all counters are
recorded in a :class:`~repro.upc.stats.StatsLog`.

Charging hot path
-----------------
The baseline replays millions of fine-grained shared accesses and per-cell
lock operations, so :meth:`UpcRuntime.word_access`, :meth:`~UpcRuntime.lock`
and :meth:`~UpcRuntime.unlock` are table lookups.  A charge depends only on
(issuer, target, word width), so the runtime memoizes the
:class:`~repro.upc.costmodel.CostModel` values: per word width in
:data:`TABLE_WORDS` and per issuing thread, a row of ``(issuer, nic)``
pairs is filled in on first use, and lock acquire/release rows sit
alongside.  An entry *is* the cost model's value, not a re-derivation, and
each charge then does the same float operations in the same order as
costing it afresh: ``clock[tid] += issuer * count``, the NIC add under the
same ``> 0`` guard, then the counters.  No accumulation may be reordered or
batched on this path -- the golden outputs (``tests/golden_sim.json``) are
held with exact equality.  A row is ``nthreads`` references to a few shared
pairs (one per distinct cost: local, same-node, remote), never a fresh
object per entry, so a table costs one pointer per (issuer, target) slot.
Widths outside :data:`TABLE_WORDS` are costed directly, keeping the number
of tables bounded.

The compiled replays of the baseline's tree build and c-of-m phase take
their charges from :meth:`UpcRuntime.class_tables` instead.  Every charge
they make depends only on the *relation class* of the (issuer, target)
pair: the thread itself, a same-node pair on the shared-memory path, a
same-node pair through the adapter, or a remote pair.  One entry per
class and kind, costed at a representative pair, replaces a P x P row
fill.
"""

from __future__ import annotations

import functools
import heapq
from contextlib import contextmanager
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from ..obs.trace import CAT_PHASE, get_tracer
from .costmodel import Charge, CostModel
from .locks import UpcLock
from .memory import SharedHeap
from .params import MachineConfig
from .stats import Counters, PhaseRecord, StatsLog

#: word widths whose charges are memoized: a single word, and every field
#: width the variants charge (``core/variants/base.py``); any other width
#: is costed directly
TABLE_WORDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)

#: relation classes of an (issuer, target) pair (:meth:`class_tables`)
REL_SELF, REL_SHM, REL_NODE, REL_REMOTE = range(4)
#: word widths of the class tables, in the kind order of the compiled
#: replays (``rp_word_kind`` in ``_bh_kernel.c``); lock acquire and
#: release follow them
CLASS_WORDS = (1.0, 2.0, 4.0)


class UpcRuntime:
    """One SPMD execution over ``nthreads`` simulated UPC threads."""

    def __init__(self, nthreads: int, machine: Optional[MachineConfig] = None,
                 tracer=None):
        if nthreads < 1:
            raise ValueError("need at least one UPC thread")
        self.nthreads = nthreads
        #: span sink; defaults to the ambient tracer (no-op unless a
        #: telemetry session is active)
        self.tracer = tracer if tracer is not None else get_tracer()
        self.machine = machine if machine is not None else MachineConfig()
        self.cost = CostModel(self.machine)
        self.heap = SharedHeap(nthreads)
        self.nnodes = self.machine.nodes_for(nthreads)
        self.clock = np.zeros(nthreads, dtype=np.float64)
        self.log = StatsLog()
        self.step = 0
        self._phase: Optional[str] = None
        self._phase_start = 0.0
        self._nic = np.zeros(self.nnodes, dtype=np.float64)
        self._counters: Optional[Counters] = None
        self._node_of = [self.machine.node_of(t) for t in range(nthreads)]
        #: spin-wait tokens completed in the current run_waiting phase
        self._done_tokens: Dict[Hashable, float] = {}
        # charge tables (module docstring, "Charging hot path"): per word
        # width / lock op, one row of (issuer, nic) pairs per issuing
        # thread, created on first use; _pairs shares equal pairs
        self._word_rows: Dict[float, List[Optional[list]]] = {
            w: [None] * nthreads for w in TABLE_WORDS
        }
        self._acquire_rows: List[Optional[list]] = [None] * nthreads
        self._release_rows: List[Optional[list]] = [None] * nthreads
        self._pairs: Dict[Tuple[float, float], Tuple[float, float]] = {}
        self._class_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._gather_tables: Dict[Tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # phases                                                             #
    # ------------------------------------------------------------------ #
    @contextmanager
    def phase(self, name: str):
        """Run a phase; on exit, synchronize all threads and log timing."""
        self.begin_phase(name)
        try:
            yield self
        finally:
            self.end_phase()

    def begin_phase(self, name: str) -> None:
        if self._phase is not None:
            raise RuntimeError(f"phase {self._phase!r} still open")
        self._phase = name
        self._phase_start = float(self.clock.max())
        self.clock[:] = self._phase_start
        self._nic[:] = 0.0
        self._counters = Counters(self.nthreads)
        self.tracer.begin(name, CAT_PHASE, sim_ts=self._phase_start,
                          step=self.step)

    def end_phase(self) -> float:
        if self._phase is None:
            raise RuntimeError("no open phase")
        busy = self.clock - self._phase_start
        dur = float(max(busy.max(), self._nic.max()))
        dur += self.cost.barrier(self.nthreads)
        rec = PhaseRecord(
            name=self._phase,
            step=self.step,
            duration=dur,
            thread_times=busy.copy(),
            nic_times=self._nic.copy(),
            counters=self._counters,
        )
        self.log.append(rec)
        self.clock[:] = self._phase_start + dur
        self._phase = None
        self._counters = None
        self.tracer.end(sim_dur=dur)
        return dur

    @property
    def now(self) -> float:
        """Common virtual time (only meaningful between phases)."""
        return float(self.clock.max())

    # ------------------------------------------------------------------ #
    # charging primitives                                                #
    # ------------------------------------------------------------------ #
    def charge(self, tid: int, seconds: float) -> None:
        """Advance thread ``tid``'s clock by raw ``seconds``."""
        self.clock[tid] += seconds

    def charge_compute(self, tid: int, seconds: float) -> None:
        """Advance by computation time (pthread factor applied)."""
        self.clock[tid] += self.cost.compute(seconds)

    def count(self, tid: int, key: str, n: float = 1) -> None:
        """Bump a per-phase counter (no time charged)."""
        if self._counters is not None:
            self._counters.add(tid, key, n)

    def _apply(self, tid: int, owner: int, ch: Charge, count: float = 1.0,
               key: Optional[str] = None) -> None:
        self.clock[tid] += ch.issuer * count
        self._add_nic(tid, owner, ch.nic * count)
        if key is not None and self._counters is not None:
            self._counters.add(tid, key, count)

    def _add_nic(self, src: int, dst: int, seconds: float) -> None:
        # Adapter occupancy is charged at the serving (target) node: for
        # small messages the dominant cost sits in the target's message
        # processing, while the initiator's share is covered by the CPU
        # overhead already charged to its clock.  Loopback traffic in
        # process mode therefore still loads the node's single adapter.
        if seconds <= 0.0:
            return
        self._nic[self._node_of[dst]] += seconds

    # ------------------------------------------------------------------ #
    # shared-memory access operations                                    #
    # ------------------------------------------------------------------ #
    def _table_pair(self, rows: List[Optional[list]],
                    cost_fn: Callable[..., Charge], tid: int, target: int,
                    *args) -> Tuple[float, float]:
        """One table entry; costed and shared through ``_pairs`` on first
        use."""
        row = rows[tid]
        if row is None:
            row = rows[tid] = [None] * self.nthreads
        pair = row[target]
        if pair is None:
            ch = cost_fn(tid, target, *args)
            pair = (ch.issuer, ch.nic)
            pair = row[target] = self._pairs.setdefault(pair, pair)
        return pair

    def class_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(classes, table)``: the charges by relation class.

        ``classes[s, d]`` (uint8, P x P) is the class of the pair:
        :data:`REL_SELF`, :data:`REL_SHM`, :data:`REL_NODE` or
        :data:`REL_REMOTE`.  ``table[k, c]`` is the cost model's
        ``(issuer, nic)`` for every pair of class ``c`` and kind ``k``: a
        word access of each width in :data:`CLASS_WORDS`, then lock
        acquire, then lock release.  The classes come from
        ``MachineConfig.shared_memory_path`` and ``same_node``, the
        predicates the cost model prices by.  Each entry is costed at the
        first pair of its class; a class without pairs holds zeros.
        """
        if self._class_tables is None:
            m = self.machine
            P = self.nthreads
            classes = np.array(
                [[REL_SELF if s == d
                  else REL_SHM if m.shared_memory_path(s, d)
                  else REL_NODE if m.same_node(s, d)
                  else REL_REMOTE for d in range(P)] for s in range(P)],
                dtype=np.uint8).reshape(P, P)
            cost = self.cost
            kinds = [functools.partial(cost.word_access, words=w)
                     for w in CLASS_WORDS]
            kinds += [cost.lock_acquire, cost.lock_release]
            table = np.zeros((len(kinds), REL_REMOTE + 1, 2))
            for c in range(REL_REMOTE + 1):
                pairs = np.argwhere(classes == c)
                if len(pairs):
                    s, d = pairs[0].tolist()
                    for k, fn in enumerate(kinds):
                        ch = fn(s, d)
                        table[k, c] = ch.issuer, ch.nic
            self._class_tables = (classes, table)
        return self._class_tables

    def gather_table(self, elem_nbytes: int, nmax: int) -> np.ndarray:
        """``table[c, n]``: the cost model's ``(complete, nic)`` for an
        ``n``-element indexed gather of ``elem_nbytes``-byte elements
        (:meth:`CostModel.gather_ilist`), for every pair of relation class
        ``c`` (:meth:`class_tables`) and ``n`` in ``1..nmax``; row 0 is
        zeros.  Each entry is costed at the first pair of its class."""
        key = (elem_nbytes, nmax)
        table = self._gather_tables.get(key)
        if table is None:
            classes, _ = self.class_tables()
            table = np.zeros((REL_REMOTE + 1, nmax + 1, 2))
            for c in range(REL_REMOTE + 1):
                pairs = np.argwhere(classes == c)
                if len(pairs):
                    s, d = pairs[0].tolist()
                    for n in range(1, nmax + 1):
                        ch = self.cost.gather_ilist(s, d, n, elem_nbytes)
                        table[c, n] = ch.complete, ch.nic
            self._gather_tables[key] = table
        return table

    def word_access(self, tid: int, owner: int, words: float = 1.0,
                    count: float = 1.0, key: str = "word_access") -> None:
        """``count`` fine-grained accesses of ``words`` shared words each."""
        rows = self._word_rows.get(words)
        if rows is None:
            issuer, nic, _ = self.cost.word_access(tid, owner, words)
        else:
            # the hottest call of a baseline run: look up inline, and
            # leave only a miss to _table_pair
            row = rows[tid]
            pair = None if row is None else row[owner]
            if pair is None:
                pair = self._table_pair(rows, self.cost.word_access, tid,
                                        owner, words)
            issuer, nic = pair
        self.clock[tid] += issuer * count
        nic *= count
        if nic > 0.0:
            self._nic[self._node_of[owner]] += nic
        counters = self._counters
        if counters is not None:
            data = counters._data
            if key is not None:
                data[key][tid] += count
            if owner != tid:
                data["remote_words"][tid] += words * count

    def memget(self, tid: int, owner: int, nbytes: float,
               key: str = "memget") -> None:
        """Blocking bulk get of ``nbytes`` from thread ``owner``."""
        ch = self.cost.bulk_get(tid, owner, nbytes)
        self._apply(tid, owner, ch, 1.0, key)
        if owner != tid and self._counters is not None:
            self._counters.add(tid, "remote_bytes", nbytes)

    def memput(self, tid: int, owner: int, nbytes: float,
               key: str = "memput") -> None:
        """Blocking bulk put of ``nbytes`` to thread ``owner``."""
        ch = self.cost.bulk_put(tid, owner, nbytes)
        self._apply(tid, owner, ch, 1.0, key)
        if owner != tid and self._counters is not None:
            self._counters.add(tid, "remote_bytes", nbytes)

    def memget_ilist(self, tid: int, owner: int, nelems: int,
                     elem_nbytes: int, key: str = "memget_ilist") -> None:
        """Indexed gather of ``nelems`` elements from one source thread."""
        if nelems <= 0:
            return
        ch = self.cost.gather_ilist(tid, owner, nelems, elem_nbytes)
        self._apply(tid, owner, ch, 1.0, key)
        if owner != tid and self._counters is not None:
            self._counters.add(tid, "remote_bytes", nelems * elem_nbytes)

    # ------------------------------------------------------------------ #
    # locks                                                              #
    # ------------------------------------------------------------------ #
    def new_lock(self, home: int = 0) -> UpcLock:
        return UpcLock(home)

    def lock(self, tid: int, lk: UpcLock) -> None:
        issuer, nic = self._table_pair(self._acquire_rows,
                                       self.cost.lock_acquire, tid, lk.home)
        self.clock[tid] = lk.acquire_at(tid, float(self.clock[tid]), issuer)
        self._add_nic(tid, lk.home, nic)
        self.count(tid, "lock_acquire")

    def unlock(self, tid: int, lk: UpcLock) -> None:
        issuer, nic = self._table_pair(self._release_rows,
                                       self.cost.lock_release, tid, lk.home)
        self.clock[tid] = lk.release_at(tid, float(self.clock[tid]), issuer)
        self._add_nic(tid, lk.home, nic)

    # ------------------------------------------------------------------ #
    # dependency event loop                                              #
    # ------------------------------------------------------------------ #
    def run_waiting(self, gens: Dict[int, Iterator[Hashable]],
                    poll_cost: float = 0.0) -> None:
        """Interleave per-thread generators that wait on tokens.

        Each generator performs its work, charging its own thread's clock,
        and ``yield``s a *token* whenever it must wait for that token to be
        marked done (see :meth:`mark_done`).  The scheduler resumes a waiter
        once the token is done, advancing the waiter's clock to the token's
        completion time (a spin wait).  Raises on deadlock.
        """
        self._done_tokens.clear()
        runnable = [(float(self.clock[t]), t) for t in gens]
        heapq.heapify(runnable)
        blocked: Dict[Hashable, list] = {}
        live = set(gens)
        while live:
            if not runnable:
                # try to unblock from tokens done earlier in this call
                progressed = False
                for token in list(blocked):
                    if token in self._done_tokens:
                        for t in blocked.pop(token):
                            heapq.heappush(runnable, (float(self.clock[t]), t))
                        progressed = True
                if not progressed:
                    raise RuntimeError(
                        f"deadlock: threads {sorted(live)} blocked on "
                        f"{sorted(map(repr, blocked))[:5]}"
                    )
                continue
            _, tid = heapq.heappop(runnable)
            gen = gens[tid]
            while True:
                try:
                    token = next(gen)
                except StopIteration:
                    live.discard(tid)
                    break
                done_at = self._done_tokens.get(token)
                if done_at is None:
                    blocked.setdefault(token, []).append(tid)
                    break
                if done_at > self.clock[tid]:
                    self.clock[tid] = done_at
                if poll_cost:
                    self.clock[tid] += poll_cost
            # wake any waiters whose tokens were completed by this slice
            for token in list(blocked):
                done_at = self._done_tokens.get(token)
                if done_at is not None:
                    for t in blocked.pop(token):
                        if done_at > self.clock[t]:
                            self.clock[t] = done_at
                        heapq.heappush(runnable, (float(self.clock[t]), t))

    def mark_done(self, token: Hashable, tid: int) -> None:
        """Record that ``token`` completed at thread ``tid``'s current time."""
        self._done_tokens[token] = float(self.clock[tid])

    def token_done(self, token: Hashable) -> bool:
        return token in self._done_tokens
