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
lock operations, and the cache variants hundreds of thousands of bulk
gets, so every point-to-point charge is a lookup in one price store.  A
charge depends only on the operation and on the *relation class* of the
(issuer, target) pair: the thread itself, a same-node pair on the
shared-memory path, a same-node pair through the adapter, or a remote
pair -- the predicates :class:`~repro.upc.costmodel.CostModel` prices by.
The runtime classifies the P x P pairs once, at construction, and keeps
one entry per operation, keyed by kind and size (:meth:`UpcRuntime.prices`):
the cost model's :class:`~repro.upc.costmodel.Charge` at a representative
pair of each class, costed on first use.  Any word width, transfer size
or gather length gets its entry the first time it is charged.

An entry *is* the cost model's value, not a re-derivation, and each
charge does the same float operations in the same order as costing it
afresh: ``clock[tid] += issuer * count``, the NIC add under the same
``> 0`` guard, then the counters.  No accumulation may be reordered on
this path -- the golden outputs (``tests/golden_sim.json``) are held
with exact equality.  :meth:`UpcRuntime.word_access_many` charges one
thread's per-owner words of a call site in one call, with every add of
the per-entry loop, in its order.

The compiled replays of the baseline's tree build and c-of-m phase and
the compiled frontier walk read the same store as arrays:
:meth:`UpcRuntime.class_tables` and :meth:`UpcRuntime.gather_table`.

NIC times are sums, so their bits depend on the order of the adds.  A
phase that runs several threads' work at once
(:mod:`repro.kernels.pool`) keeps each thread's NIC adds in a log
(:meth:`UpcRuntime.deferred_nic`, and the compiled frontier walk's own
log) and adds the logs in thread order afterwards
(:meth:`UpcRuntime.add_nic_log`): the same adds in the same order.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.trace import CAT_PHASE, get_tracer
from .costmodel import Charge, CostModel
from .locks import UpcLock
from .memory import SharedHeap
from .params import MachineConfig
from .stats import Counters, PhaseRecord, StatsLog

#: relation classes of an (issuer, target) pair (module docstring)
REL_SELF, REL_SHM, REL_NODE, REL_REMOTE = range(4)
#: word widths of the class tables, in the kind order of the compiled
#: replays (``rp_word_kind`` in ``_bh_kernel.c``); lock acquire and
#: release follow them
CLASS_WORDS = (1.0, 2.0, 4.0)
#: the store entries of :meth:`UpcRuntime.class_tables`, in kind order
CLASS_OPS = tuple(("word", w) for w in CLASS_WORDS) + (("acquire",),
                                                       ("release",))
#: the price of a class without pairs (never looked up by a charge)
NO_CHARGE = Charge(0.0, 0.0, 0.0)


class NicLog:
    """Stands in for ``UpcRuntime._nic`` while NIC adds are deferred.

    Every charge adds as ``nic[node] += seconds``: reading gives 0.0, so
    the write is ``0.0 + seconds`` (exactly ``seconds``), and it is
    logged as ``(node, seconds)`` instead of added.
    """

    __slots__ = ("nodes", "seconds")

    def __init__(self) -> None:
        self.nodes: List[int] = []
        self.seconds: List[float] = []

    def __getitem__(self, node: int) -> float:
        return 0.0

    def __setitem__(self, node: int, seconds: float) -> None:
        self.nodes.append(node)
        self.seconds.append(seconds)


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
        # the price store (module docstring, "Charging hot path"):
        # _rel[s][d] is the relation class of the pair, _reps the first
        # pair of each class in row-major order (None for an empty
        # class), and _prices maps an operation to its charge per class
        node_of = self._node_of
        shm = self.machine.shared_memory_path
        self._rel: List[List[int]] = [
            [REL_SELF if s == d else REL_REMOTE if node_of[s] != node_of[d]
             else REL_SHM if shm(s, d) else REL_NODE
             for d in range(nthreads)] for s in range(nthreads)]
        self._classes = np.array(self._rel, dtype=np.uint8).reshape(
            nthreads, nthreads)
        flat = self._classes.ravel()
        self._reps: List[Optional[Tuple[int, int]]] = []
        for c in range(REL_REMOTE + 1):
            i = int(np.argmax(flat == c))
            self._reps.append(divmod(i, nthreads) if flat[i] == c else None)
        self._prices: Dict[tuple, List[Charge]] = {}
        #: gather_table's arrays, by (elem_nbytes, nmax)
        self._gather_views: Dict[Tuple[int, int], np.ndarray] = {}

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

    @contextmanager
    def deferred_nic(self) -> Iterator[NicLog]:
        """Log every NIC add made inside the block instead of making it
        (point-to-point charges only); :meth:`add_nic_log` makes them."""
        saved, self._nic = self._nic, NicLog()
        try:
            yield self._nic
        finally:
            self._nic = saved

    def add_nic_log(self, nodes, seconds) -> None:
        """Make logged NIC adds (node ids, seconds), in log order."""
        # ufunc.at adds unbuffered, one element at a time, in order
        np.add.at(self._nic, np.asarray(nodes, dtype=np.intp), seconds)

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
    def prices(self, op: tuple) -> List[Charge]:
        """The store entry of operation ``op``: the cost model's
        :class:`Charge` for a pair of each relation class, indexed by
        class, costed on first use.

        ``op`` is ``("word", words)``, ``("acquire",)``, ``("release",)``,
        ``("get", nbytes)``, ``("put", nbytes)`` or ``("gather", nelems,
        elem_nbytes)``.
        """
        entry = self._prices.get(op)
        if entry is None:
            cost = self.cost
            fn = {"word": cost.word_access, "get": cost.bulk_get,
                  "put": cost.bulk_put, "gather": cost.gather_ilist,
                  "acquire": cost.lock_acquire,
                  "release": cost.lock_release}[op[0]]
            entry = self._prices[op] = [
                NO_CHARGE if rep is None else fn(*rep, *op[1:])
                for rep in self._reps]
        return entry

    def price(self, tid: int, target: int, op: tuple) -> Charge:
        """The charge of operation ``op`` (:meth:`prices`) issued by
        ``tid`` at ``target``."""
        return self.prices(op)[self._rel[tid][target]]

    def class_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(classes, table)``: the price store as arrays.

        ``classes[s, d]`` (uint8, P x P) is the relation class of the
        pair: :data:`REL_SELF`, :data:`REL_SHM`, :data:`REL_NODE` or
        :data:`REL_REMOTE`.  ``table[k, c]`` is the ``(issuer, nic)`` of
        every pair of class ``c`` for the ``k``-th operation of
        :data:`CLASS_OPS`: a word access of each width in
        :data:`CLASS_WORDS`, then lock acquire, then lock release.  A
        class without pairs holds zeros.
        """
        table = np.array([[ch[:2] for ch in self.prices(op)]
                          for op in CLASS_OPS])
        return self._classes, table

    def gather_table(self, elem_nbytes: int, nmax: int) -> np.ndarray:
        """``table[c, n]``: the ``(complete, nic)`` of an ``n``-element
        indexed gather of ``elem_nbytes``-byte elements (the store's
        ``("gather", n, elem_nbytes)``), for every pair of relation class
        ``c`` and ``n`` in ``1..nmax``; row 0 is zeros.

        Store entries never change, so the array is assembled once per
        ``(elem_nbytes, nmax)`` and reused: the frontier walk asks for it
        on every call, once per thread and step.
        """
        key = (elem_nbytes, nmax)
        table = self._gather_views.get(key)
        if table is None:
            table = np.zeros((REL_REMOTE + 1, nmax + 1, 2))
            for n in range(1, nmax + 1):
                table[:, n] = [(ch.complete, ch.nic) for ch in
                               self.prices(("gather", n, elem_nbytes))]
            self._gather_views[key] = table
        return table

    def word_access(self, tid: int, owner: int, words: float = 1.0,
                    count: float = 1.0, key: str = "word_access") -> None:
        """``count`` fine-grained accesses of ``words`` shared words each."""
        # the hottest call of a baseline run: look the entry up inline
        op = ("word", words)
        prices = self._prices.get(op) or self.prices(op)
        issuer, nic, _ = prices[self._rel[tid][owner]]
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

    def word_access_many(self, tid: int, owners: Sequence[int],
                         counts: Sequence[float], words: float = 1.0,
                         key: str = "word_access") -> None:
        """:meth:`word_access` of each ``(owners[i], counts[i])`` entry,
        in order, in one call.

        Ordering contract: every accumulation gets the adds of the
        per-entry loop, in entry order, so every value keeps its bits.
        ``clock[tid]`` adds ``issuer * count`` entry by entry; the NIC
        adds ``nic * count`` at the owner's node when that is above 0,
        entry by entry (into the :class:`NicLog` under
        :meth:`deferred_nic`); the ``key`` row adds ``count`` and the
        ``remote_words`` row ``words * count`` (for ``owner != tid``),
        entry by entry, starting from the row's value.  Running values
        are held as Python floats: the same IEEE adds.  A counter row is
        created exactly when the loop would create it: none for an empty
        batch, and no ``remote_words`` row when every owner is ``tid``.
        ``key`` is not ``"remote_words"``.
        """
        if not len(owners):
            return
        op = ("word", words)
        prices = self._prices.get(op) or self.prices(op)
        rel = self._rel[tid]
        node_of = self._node_of
        counters = self._counters
        rows = counters._data if counters is not None else None
        row = rows.get(key) if rows is not None and key is not None \
            else None
        keyed = row[tid] if row is not None else 0.0
        row = rows.get("remote_words") if rows is not None else None
        remote = row[tid] if row is not None else 0.0
        any_remote = False
        clock = self.clock.item(tid)
        nic_nodes: List[int] = []
        nic_seconds: List[float] = []
        for owner, count in zip(owners, counts):
            issuer, nic, _ = prices[rel[owner]]
            clock += issuer * count
            nic *= count
            if nic > 0.0:
                nic_nodes.append(node_of[owner])
                nic_seconds.append(nic)
            keyed += count
            if owner != tid:
                remote += words * count
                any_remote = True
        self.clock[tid] = clock
        if nic_nodes:
            sink = self._nic
            if isinstance(sink, NicLog):
                sink.nodes += nic_nodes
                sink.seconds += nic_seconds
            else:
                self.add_nic_log(nic_nodes, nic_seconds)
        if rows is not None:
            if key is not None:
                rows[key][tid] = keyed
            if any_remote:
                rows["remote_words"][tid] = remote

    def _transfer(self, tid: int, owner: int, op: tuple, nbytes: float,
                  key: Optional[str]) -> None:
        """One blocking transfer of ``nbytes`` priced by ``op``."""
        # a cache variant's every fetch: look the entry up inline
        prices = self._prices.get(op) or self.prices(op)
        issuer, nic, _ = prices[self._rel[tid][owner]]
        self.clock[tid] += issuer
        if nic > 0.0:
            self._nic[self._node_of[owner]] += nic
        counters = self._counters
        if counters is not None:
            data = counters._data
            if key is not None:
                data[key][tid] += 1.0
            if owner != tid:
                data["remote_bytes"][tid] += nbytes

    def memget(self, tid: int, owner: int, nbytes: float,
               key: str = "memget") -> None:
        """Blocking bulk get of ``nbytes`` from thread ``owner``."""
        self._transfer(tid, owner, ("get", nbytes), nbytes, key)

    def memput(self, tid: int, owner: int, nbytes: float,
               key: str = "memput") -> None:
        """Blocking bulk put of ``nbytes`` to thread ``owner``."""
        self._transfer(tid, owner, ("put", nbytes), nbytes, key)

    def memget_ilist(self, tid: int, owner: int, nelems: int,
                     elem_nbytes: int, key: str = "memget_ilist") -> None:
        """Indexed gather of ``nelems`` elements from one source thread."""
        if nelems <= 0:
            return
        self._transfer(tid, owner, ("gather", nelems, elem_nbytes),
                       nelems * elem_nbytes, key)

    # ------------------------------------------------------------------ #
    # locks                                                              #
    # ------------------------------------------------------------------ #
    def new_lock(self, home: int = 0) -> UpcLock:
        return UpcLock(home)

    def lock(self, tid: int, lk: UpcLock) -> None:
        issuer, nic, _ = self.price(tid, lk.home, ("acquire",))
        self.clock[tid] = lk.acquire_at(tid, float(self.clock[tid]), issuer)
        self._add_nic(tid, lk.home, nic)
        self.count(tid, "lock_acquire")

    def unlock(self, tid: int, lk: UpcLock) -> None:
        issuer, nic, _ = self.price(tid, lk.home, ("release",))
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
        self.clear_done()
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

    def clear_done(self) -> None:
        """Forget every done token (:meth:`run_waiting` starts from
        none)."""
        self._done_tokens.clear()
