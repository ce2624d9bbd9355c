"""The runtime's memoized charge tables equal the cost model exactly.

``UpcRuntime.word_access`` / ``lock`` / ``unlock`` read ``(issuer, nic)``
pairs from lazily filled per-issuer rows instead of costing every call
afresh (``repro.upc.runtime``, "Charging hot path").  These tests hold
every row entry to ``==`` against :class:`CostModel`, the list-backed
:class:`Counters` to the numpy implementation it replaced, and the tables
to their memory bounds.
"""

from __future__ import annotations

import random
from typing import Dict

import numpy as np
import pytest

from repro.core.app import BarnesHutSimulation
from repro.core.config import BHConfig
from repro.core.variants import base
from repro.upc.costmodel import Charge
from repro.upc.locks import UpcLock
from repro.upc.params import (
    MachineConfig,
    paper_section5_machine,
    paper_section6_machine,
)
from repro.upc.runtime import CLASS_WORDS, TABLE_WORDS, UpcRuntime
from repro.upc.stats import Counters

P = 8
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
    base.BODY_ADV_WORDS, base.BODY_LEAF_WORDS, base.COFM_CHILD_WORDS,
    base.ATOMIC_COFM_WORDS,
})


def distinct_pairs(rows) -> set:
    return {id(pair) for row in rows if row is not None
            for pair in row if pair is not None}


@pytest.fixture(params=sorted(MACHINES))
def machine(request) -> MachineConfig:
    return MACHINES[request.param]


def test_variant_widths_are_tabled():
    assert set(VARIANT_WORDS) <= set(TABLE_WORDS)


def test_word_rows_equal_cost_model(machine):
    rt = UpcRuntime(P, machine)
    cost = rt.cost
    for words in VARIANT_WORDS:
        for src in range(P):
            for dst in range(P):
                rt.word_access(src, dst, words=words)
                ch = cost.word_access(src, dst, words)
                assert rt._word_rows[words][src][dst] == (ch.issuer, ch.nic)


def test_lock_rows_equal_cost_model(machine):
    rt = UpcRuntime(P, machine)
    for src in range(P):
        for home in range(P):
            lk = UpcLock(home)
            rt.lock(src, lk)
            rt.unlock(src, lk)
            acq = rt.cost.lock_acquire(src, home)
            rel = rt.cost.lock_release(src, home)
            assert rt._acquire_rows[src][home] == (acq.issuer, acq.nic)
            assert rt._release_rows[src][home] == (rel.issuer, rel.nic)


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
    assert rt.class_tables() is rt.class_tables()  # costed once


def test_table_charge_matches_fresh_costing(machine):
    """Clock, NIC and counters move exactly as costing each call afresh."""
    rt = UpcRuntime(P, machine)
    clock = np.zeros(P)
    nic = np.zeros(rt.nnodes)
    remote = [0.0] * P
    rng = random.Random(5)
    with rt.phase("p"):
        clock[:] = rt.clock
        for _ in range(500):
            src, dst = rng.randrange(P), rng.randrange(P)
            words = rng.choice(VARIANT_WORDS)
            count = rng.choice([1.0, 3.0, 0.37 * rng.randrange(1, 50)])
            rt.word_access(src, dst, words=words, count=count, key="k")
            ch = rt.cost.word_access(src, dst, words)
            clock[src] += ch.issuer * count
            if ch.nic * count > 0.0:
                nic[machine.node_of(dst)] += ch.nic * count
            if src != dst:
                remote[src] += words * count
        assert np.array_equal(rt.clock, clock)
        assert np.array_equal(rt._nic, nic)
        assert rt._counters.per_thread("remote_words").tolist() == remote


def test_untabled_widths_cost_directly():
    """Free word counts (e.g. ThreadCtx.deref) never grow the tables."""
    rt = UpcRuntime(P, paper_section5_machine())
    with rt.phase("p"):
        for words in (0.5, 5.0, 7.0, 1e3):
            rt.word_access(0, 3, words=words)
    assert sorted(rt._word_rows) == sorted(TABLE_WORDS)
    assert rt._pairs == {}
    want = UpcRuntime(P, paper_section5_machine())
    with want.phase("p"):
        for words in (0.5, 5.0, 7.0, 1e3):
            want.charge(0, want.cost.word_access(0, 3, words).issuer)
    assert rt.log.records[-1].thread_times[0] \
        == want.log.records[-1].thread_times[0]


def test_rows_share_few_pairs_at_scale(monkeypatch):
    """One baseline step at P=112 fills rows from a handful of pairs.

    Run without the kernel: its replays of the tree build and c-of-m
    phase charge through :meth:`UpcRuntime.class_tables`, so only the
    hook-driven phases fill the visit and child-read rows.
    """
    monkeypatch.setattr("repro.kernels.load_kernel", lambda: None)
    cfg = BHConfig(nbodies=448, nsteps=1, warmup_steps=0)
    sim = BarnesHutSimulation(cfg, 112, machine=paper_section5_machine(),
                              variant="baseline")
    sim.run()
    rt = sim.rt
    used = 0
    for words, rows in rt._word_rows.items():
        assert len(distinct_pairs(rows)) <= 4, words
        used += any(row is not None for row in rows)
    assert used >= 3  # visits, child reads and single-word accesses
    assert len(distinct_pairs(rt._acquire_rows)) <= 4
    assert len(distinct_pairs(rt._release_rows)) <= 4


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
