"""The runtime's price store equals the cost model exactly.

Every point-to-point charge of :class:`UpcRuntime` reads one price store:
the cost model's :class:`Charge` per relation class of the (issuer,
target) pair, costed once at a representative pair of each class
(``repro.upc.runtime``, "Charging hot path").  These tests hold every
(issuer, target) lookup to ``==`` against :class:`CostModel` on every
machine shape, every charge to costing it afresh, the array views of the
compiled replays to the store, and the list-backed :class:`Counters` to
the numpy implementation it replaced.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict

import numpy as np
import pytest

from repro.core.variants import base
from repro.upc.costmodel import Charge
from repro.upc.locks import UpcLock
from repro.upc.nonblocking import AsyncEngine
from repro.upc.params import (
    MachineConfig,
    paper_section5_machine,
    paper_section6_machine,
)
from repro.upc.runtime import CLASS_WORDS, UpcRuntime
from repro.upc.stats import Counters

P = 8
#: process-tpn4 is the only shape with same-node pairs through the adapter
MACHINES = {
    "process-tpn1": paper_section5_machine(),
    "process-tpn4": MachineConfig(threads_per_node=4, mode="process"),
    "pthread-tpn4": paper_section6_machine(4),
}
#: every width core/variants/base.py charges: its field constants, plus
#: single words and the 6-word bounding-box gather
VARIANT_WORDS = sorted({
    1.0, 6.0, base.CELL_VISIT_WORDS, base.CELL_TEST_WORDS,
    base.CELL_OPEN_WORDS, base.BODY_POS_WORDS, base.BODY_FORCE_WORDS,
    base.BODY_LEAF_WORDS, base.BODY_ADV_WORDS, base.COFM_CHILD_WORDS,
    base.ATOMIC_COFM_WORDS,
})
#: the longest gather piece the frontier walk's table covers
GATHER_N = 64


@pytest.fixture(params=sorted(MACHINES))
def machine(request) -> MachineConfig:
    return MACHINES[request.param]


def test_variant_widths_are_tabled():
    """Every width the variants charge gets one store entry, of one
    charge per relation class, on first use."""
    rt = UpcRuntime(P, paper_section5_machine())
    with rt.phase("p"):
        for words in VARIANT_WORDS:
            rt.word_access(0, 3, words=words)
            rt.word_access(3, 3, words=words)
    assert sorted(rt._prices) == [("word", w) for w in VARIANT_WORDS]
    assert all(len(entry) == 4 for entry in rt._prices.values())


def test_word_rows_equal_cost_model(machine):
    """Word accesses fill the store with one entry per width, and the
    entry each (issuer, target) charge reads is the cost model's."""
    rt = UpcRuntime(P, machine)
    cost = rt.cost
    with rt.phase("p"):
        for words in VARIANT_WORDS:
            for src in range(P):
                for dst in range(P):
                    rt.word_access(src, dst, words=words)
                    ch = cost.word_access(src, dst, words)
                    entry = rt._prices[("word", words)]
                    assert entry[rt._rel[src][dst]] == ch, (words, src, dst)
    assert sorted(rt._prices) == [("word", w) for w in VARIANT_WORDS]


def test_lock_rows_equal_cost_model(machine):
    """``lock``/``unlock`` fill the acquire and release entries only, and
    the entry each (issuer, home) charge reads is the cost model's."""
    rt = UpcRuntime(P, machine)
    with rt.phase("p"):
        for src in range(P):
            for home in range(P):
                lk = UpcLock(home)
                rt.lock(src, lk)
                rt.unlock(src, lk)
                cls = rt._rel[src][home]
                acq = rt.cost.lock_acquire(src, home)
                rel = rt.cost.lock_release(src, home)
                assert rt._prices[("acquire",)][cls] == acq, (src, home)
                assert rt._prices[("release",)][cls] == rel, (src, home)
    assert sorted(rt._prices) == [("acquire",), ("release",)]


def test_prices_equal_cost_model(machine):
    """Every (issuer, target) lookup in the store is the cost model's
    charge of that pair, exactly, for every operation the variants
    charge."""
    rt = UpcRuntime(P, machine)
    cost = rt.cost
    m = machine
    ops = [(("word", w), cost.word_access, (w,)) for w in VARIANT_WORDS]
    ops += [(("acquire",), cost.lock_acquire, ()),
            (("release",), cost.lock_release, ())]
    for nbytes in (m.cell_nbytes, m.body_nbytes):
        ops += [(("get", nbytes), cost.bulk_get, (nbytes,)),
                (("put", nbytes), cost.bulk_put, (nbytes,))]
    ops += [(("gather", n, m.cell_nbytes), cost.gather_ilist,
             (n, m.cell_nbytes)) for n in range(1, GATHER_N + 1)]
    classes = set()
    for s in range(P):
        for d in range(P):
            classes.add(rt._rel[s][d])
            for op, fn, args in ops:
                assert rt.price(s, d, op) == fn(s, d, *args), (s, d, op)
    # the pairs cover every class this machine has, and no more
    assert classes == {c for c, rep in enumerate(rt._reps)
                       if rep is not None}
    assert len(rt._prices) == len(ops)


#: the machines of tests/golden_sim.py
GOLDEN_MACHINES = {
    "section5": paper_section5_machine(),
    "section6-tpn4": paper_section6_machine(4),
}


@pytest.mark.parametrize("nthreads", [1, 4, 16, 112])
@pytest.mark.parametrize("name", sorted(GOLDEN_MACHINES))
def test_class_tables_equal_cost_model(name, nthreads):
    """Every (issuer, target) lookup through the relation-class tables
    of the compiled replays is the cost model's charge, exactly."""
    rt = UpcRuntime(nthreads, GOLDEN_MACHINES[name])
    classes, table = rt.class_tables()
    cost = rt.cost
    kinds = [lambda s, d, w=w: cost.word_access(s, d, w) for w in CLASS_WORDS]
    kinds += [cost.lock_acquire, cost.lock_release]
    assert table.shape == (len(kinds), 4, 2)
    assert classes.shape == (nthreads, nthreads)
    assert classes.dtype == np.uint8
    for s in range(nthreads):
        for d in range(nthreads):
            for k, cost_fn in enumerate(kinds):
                ch = cost_fn(s, d)
                issuer, nic = table[k, classes[s, d]]
                assert issuer == ch.issuer and nic == ch.nic, (s, d, k)
    # classified once; the table is a view of the store, costed once
    again_classes, again = rt.class_tables()
    assert again_classes is classes and np.array_equal(again, table)
    assert len(rt._prices) == len(kinds)


def test_gather_table_is_the_store(machine):
    rt = UpcRuntime(P, machine)
    nbytes = machine.cell_nbytes
    table = rt.gather_table(nbytes, GATHER_N)
    assert table.shape == (4, GATHER_N + 1, 2)
    assert rt.gather_table(nbytes, GATHER_N) is table  # assembled once
    assert not table[:, 0].any()
    for n in range(1, GATHER_N + 1):
        for c, ch in enumerate(rt.prices(("gather", n, nbytes))):
            assert tuple(table[c, n]) == (ch.complete, ch.nic)
    for s in range(P):
        for d in range(P):
            ch = rt.cost.gather_ilist(s, d, 7, nbytes)
            assert tuple(table[rt._rel[s][d], 7]) == (ch.complete, ch.nic)


class FreshCosting:
    """Each charge costed afresh from the cost model, in the float
    operations and order the runtime documents."""

    def __init__(self, rt: UpcRuntime):
        self.cost = rt.cost
        self.node_of = rt.machine.node_of
        self.clock = rt.clock.copy()
        self.nic = np.zeros(rt.nnodes)
        self.counts: Dict[str, list] = defaultdict(lambda: [0.0] * P)
        self.locks: Dict[int, UpcLock] = {}

    def _nic(self, dst, seconds):
        if seconds > 0.0:
            self.nic[self.node_of(dst)] += seconds

    def word_access(self, src, dst, words, count):
        ch = self.cost.word_access(src, dst, words)
        self.clock[src] += ch.issuer * count
        self._nic(dst, ch.nic * count)
        self.counts["k"][src] += count
        if src != dst:
            self.counts["remote_words"][src] += words * count

    def transfer(self, ch, src, dst, nbytes, key):
        self.clock[src] += ch.issuer
        self._nic(dst, ch.nic)
        self.counts[key][src] += 1.0
        if src != dst:
            self.counts["remote_bytes"][src] += nbytes

    def lock_pair(self, src, home):
        lk = self.locks.setdefault(home, UpcLock(home))
        ch = self.cost.lock_acquire(src, home)
        self.clock[src] = lk.acquire_at(src, float(self.clock[src]),
                                        ch.issuer)
        self._nic(home, ch.nic)
        self.counts["lock_acquire"][src] += 1
        ch = self.cost.lock_release(src, home)
        self.clock[src] = lk.release_at(src, float(self.clock[src]),
                                        ch.issuer)
        self._nic(home, ch.nic)

    def vlist(self, src, per_source, nbytes) -> float:
        per_source = {s: n for s, n in per_source.items() if n > 0}
        now = float(self.clock[src])
        if not per_source:
            return now
        self.clock[src] += self.cost.async_issue() * len(per_source)
        now = float(self.clock[src])
        complete = now
        for s, n in per_source.items():
            ch = self.cost.gather_ilist(src, s, n, nbytes)
            complete = max(complete, now + ch.complete)
            self._nic(s, ch.nic)
        self.counts["async_gathers"][src] += 1
        self.counts["async_elems"][src] += sum(per_source.values())
        return complete


def test_table_charge_matches_fresh_costing(machine):
    """Clock, NIC and counters move exactly as costing each call afresh,
    for every point-to-point charge and for widths no variant uses."""
    rt = UpcRuntime(P, machine)
    m = machine
    locks: Dict[int, UpcLock] = {}
    engine = AsyncEngine(rt)
    rng = random.Random(5)
    widths = VARIANT_WORDS + [0.5, 5.0, 7.0, 1e3]
    with rt.phase("p"):
        want = FreshCosting(rt)
        for _ in range(1500):
            src, dst = rng.randrange(P), rng.randrange(P)
            kind = rng.randrange(6)
            if kind == 0:
                words = rng.choice(widths)
                count = rng.choice([1.0, 3.0, 0.37 * rng.randrange(1, 50)])
                rt.word_access(src, dst, words=words, count=count, key="k")
                want.word_access(src, dst, words, count)
            elif kind == 1:
                lk = locks.setdefault(dst, UpcLock(dst))
                rt.lock(src, lk)
                rt.unlock(src, lk)
                want.lock_pair(src, dst)
            elif kind == 2:
                nbytes = rng.choice([m.cell_nbytes, m.body_nbytes, 1e5])
                rt.memget(src, dst, nbytes, key="g")
                want.transfer(rt.cost.bulk_get(src, dst, nbytes), src, dst,
                              nbytes, "g")
            elif kind == 3:
                nbytes = rng.choice([m.cell_nbytes, m.body_nbytes])
                rt.memput(src, dst, nbytes, key="u")
                want.transfer(rt.cost.bulk_put(src, dst, nbytes), src, dst,
                              nbytes, "u")
            elif kind == 4:
                n = rng.randrange(0, 90)
                rt.memget_ilist(src, dst, n, m.cell_nbytes, key="i")
                if n > 0:
                    want.transfer(
                        rt.cost.gather_ilist(src, dst, n, m.cell_nbytes),
                        src, dst, n * m.cell_nbytes, "i")
            else:
                per_source = {s: rng.randrange(0, 70)
                              for s in rng.sample(range(P), 3)}
                h = engine.memget_vlist_async(src, per_source, m.cell_nbytes)
                assert h.complete_at == want.vlist(src, per_source,
                                                   m.cell_nbytes)
        assert np.array_equal(rt.clock, want.clock)
        assert np.array_equal(rt._nic, want.nic)
        data = rt._counters._data
        assert sorted(data) == sorted(want.counts)
        for key, row in want.counts.items():
            assert data[key] == row, key


def test_untabled_widths_cost_directly():
    """Free word counts (e.g. ThreadCtx.deref) charge exactly what
    costing them directly gives, through one store entry per width."""
    widths = (0.5, 5.0, 7.0, 1e3)
    rt = UpcRuntime(P, paper_section5_machine())
    with rt.phase("p"):
        for words in widths:
            rt.word_access(0, 3, words=words)
    assert sorted(rt._prices) == [("word", w) for w in widths]
    want = UpcRuntime(P, paper_section5_machine())
    with want.phase("p"):
        for words in widths:
            want.charge(0, want.cost.word_access(0, 3, words).issuer)
    assert rt.log.records[-1].thread_times[0] \
        == want.log.records[-1].thread_times[0]


def test_charge_is_immutable_named_tuple():
    ch = Charge(issuer=1.0, nic=0.5, complete=1.0)
    assert (ch.issuer, ch.nic, ch.complete) == (1.0, 0.5, 1.0)
    with pytest.raises(AttributeError):
        ch.issuer = 2.0


class NumpyCounters:
    """The float64-array implementation the list-backed Counters replaced."""

    def __init__(self, nthreads: int):
        self.nthreads = nthreads
        self._data: Dict[str, np.ndarray] = {}

    def add(self, tid, key, n=1):
        arr = self._data.get(key)
        if arr is None:
            arr = self._data[key] = np.zeros(self.nthreads)
        arr[tid] += n

    def total(self, key):
        arr = self._data.get(key)
        return float(arr.sum()) if arr is not None else 0.0

    def per_thread(self, key):
        arr = self._data.get(key)
        return np.zeros(self.nthreads) if arr is None else arr.copy()

    def merged_into(self, other):
        for key, arr in self._data.items():
            tgt = other._data.setdefault(key, np.zeros(other.nthreads))
            tgt += arr


@pytest.mark.parametrize("nthreads", [1, 3, 16, 112])
def test_counters_match_numpy_reference(nthreads):
    rng = random.Random(nthreads)
    lists = [Counters(nthreads), Counters(nthreads)]
    arrays = [NumpyCounters(nthreads), NumpyCounters(nthreads)]
    visits = 37
    for i in range(4000):
        which = i % 2
        tid = rng.randrange(nthreads)
        key = rng.choice(["partition_reads", "remote_words", "n"])
        # non-integer increments, as partition's visits*2/P
        n = rng.choice([1, visits * 2 / nthreads, rng.random() * 1e-3])
        lists[which].add(tid, key, n)
        arrays[which].add(tid, key, n)
    for c, a in zip(lists, arrays):
        for key in ("partition_reads", "remote_words", "n", "absent"):
            assert c.total(key) == a.total(key)
            assert np.array_equal(c.per_thread(key), a.per_thread(key))
    lists[0].merged_into(lists[1])
    arrays[0].merged_into(arrays[1])
    for key in ("partition_reads", "remote_words", "n"):
        assert lists[1].total(key) == arrays[1].total(key)
        assert np.array_equal(lists[1].per_thread(key),
                              arrays[1].per_thread(key))
    assert lists[1].keys() == sorted(arrays[1]._data)


def test_done_tokens_exist_from_construction():
    rt = UpcRuntime(2)
    tokens = rt._done_tokens
    assert not rt.token_done("x")
    rt.mark_done("x", 0)
    assert rt.token_done("x")

    def gen():
        yield from ()

    rt.run_waiting({0: gen()})
    assert rt._done_tokens is tokens  # cleared in place, never replaced
    assert not rt.token_done("x")
