"""The baseline's batched per-owner charges against their per-entry loops.

``UpcRuntime.word_access_many`` must do what a loop of ``word_access``
does, add for add: every clock, NIC time (or deferred NIC log entry) and
counter row, with the same rows created.  The force phase's per-phase
tally (``force_tally``) must charge what the per-thread derivation from
each walk's open counts charged, at any chunk size, and the per-phase
assignment lists and owner counts must equal the per-thread ones.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.core.variants.base as variant_base
from repro.backends.object_tree import slot_walk
from repro.core.app import BarnesHutSimulation
from repro.core.cache import CellCache
from repro.core.config import BHConfig
from repro.core.phases import ADVANCE, FORCE, TREEBUILD
from repro.core.variants.base import (
    BODY_FORCE_WORDS,
    BODY_LEAF_WORDS,
    CELL_OPEN_WORDS,
    CELL_TEST_WORDS,
)
from repro.nbody.distributions import make_distribution
from repro.upc.params import paper_section5_machine, paper_section6_machine
from repro.upc.runtime import NicLog, UpcRuntime

MACHINES = {
    "section5": paper_section5_machine,
    "section6-tpn4": lambda: paper_section6_machine(4),
}


def _assert_same_counters(got, want):
    if want is None:
        assert got is None
        return
    rows, want_rows = got._data, want._data
    assert sorted(rows) == sorted(want_rows)
    for key in rows:
        assert rows[key] == want_rows[key], key
        assert [type(x) for x in rows[key]] \
            == [type(x) for x in want_rows[key]], key


class TestWordAccessMany:
    @staticmethod
    def _batches(rng, P, tid):
        """Random batches: repeated owners, ``tid`` itself, non-integer
        and integer counts, and the empty batch."""
        for n in (0, 1, 3, 2 * P + 5):
            owners = rng.integers(0, P, size=n).tolist()
            if n:
                owners[0] = tid
            counts = np.round(rng.random(n) * 50, 3).tolist()
            if n > 2:
                counts[1] = 7.0
            yield owners, counts
        yield [tid, tid], [2.5, 1.0]  # every owner is the issuer

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @pytest.mark.parametrize("P", [1, 4, 16, 112])
    @pytest.mark.parametrize("words", [1.0, 2.0, 6.0])
    @pytest.mark.parametrize("counted", [True, False])
    @pytest.mark.parametrize("deferred", [False, True])
    def test_matches_the_loop(self, machine, P, words, counted, deferred):
        rng = np.random.default_rng(P * 31 + int(words))
        got = UpcRuntime(P, MACHINES[machine]())
        want = UpcRuntime(P, MACHINES[machine]())
        clock = rng.random(P) * 1e-3
        for rt in (got, want):
            rt.clock[:] = clock
            rt._nic[:] = np.arange(rt.nnodes) * 1e-7
            if counted:
                rt.begin_phase("phase")
                rt.count(0, "k", 0.1)  # an existing row keeps its value
        for tid in sorted({0, P - 1, P // 2}):
            for owners, counts in self._batches(rng, P, tid):
                if deferred:
                    with got.deferred_nic() as log:
                        got.word_access_many(tid, owners, counts, words,
                                             key="k")
                    with want.deferred_nic() as want_log:
                        for o, c in zip(owners, counts):
                            want.word_access(tid, o, words, c, key="k")
                    assert log.nodes == want_log.nodes
                    assert log.seconds == want_log.seconds
                else:
                    got.word_access_many(tid, owners, counts, words,
                                         key="k")
                    for o, c in zip(owners, counts):
                        want.word_access(tid, o, words, c, key="k")
                assert np.array_equal(got.clock, want.clock)
                assert np.array_equal(got._nic, want._nic)
                _assert_same_counters(got._counters, want._counters)

    def test_rows_created_as_the_loop_creates_them(self):
        rt = UpcRuntime(4)
        rt.begin_phase("phase")
        rt.word_access_many(1, [], [], key="k")
        assert rt._counters.keys() == []
        rt.word_access_many(1, [1, 1], [2.0, 3.0], key="k")
        assert rt._counters.keys() == ["k"]
        assert rt._counters.total("k") == 5.0
        rt.word_access_many(1, range(4), [1.0] * 4, key=None)
        assert rt._counters.keys() == ["k", "remote_words"]

    def test_nic_log_entries_are_the_loop_adds(self):
        # the NIC adds go to the log's lists, nothing to the array
        rt = UpcRuntime(16, paper_section5_machine())
        nic = rt._nic.copy()
        with rt.deferred_nic() as log:
            rt.word_access_many(3, list(range(16)), [2.0] * 16)
        assert isinstance(log, NicLog) and len(log.nodes) == 15
        assert np.array_equal(rt._nic, nic)


# ---------------------------------------------------------------------- #
# the force phase's per-phase tally                                      #
# ---------------------------------------------------------------------- #
def _at_phase(variant, nthreads, phase, machine="section5", nbodies=384):
    """A variant after step 0 and step 1's phases before ``phase``, with
    ``phase`` open."""
    cfg = BHConfig(nbodies=nbodies, nsteps=2, warmup_steps=1, seed=7)
    bodies = make_distribution("plummer", nbodies, seed=7)
    sim = BarnesHutSimulation(cfg, nthreads, machine=MACHINES[machine](),
                              variant=variant, bodies=bodies)
    v = sim.variant
    v.step(0)
    v.step_index = v.rt.step = 1
    for name, method in v.phase_plan():
        if name == phase:
            break
        with v.rt.phase(name):
            method()
    v.rt.begin_phase(phase)
    return v


def _loop_body_words(v, tid, idx, words):
    """charge_body_words as one word_access per owner."""
    rt = v.rt
    if v.body_ptrs_local():
        rt.charge_compute(tid, len(idx) * words * rt.machine.local_word_cost)
        return
    counts = np.bincount(v.bodies.store[idx], minlength=v.P)
    for owner in np.nonzero(counts)[0]:
        rt.word_access(tid, int(owner), words=1.0,
                       count=float(counts[owner]) * words, key="body_words")


def _local_words(tree, opens, k):
    return float(CELL_TEST_WORDS * tree.tests(opens, k).sum()
                 + CELL_OPEN_WORDS * opens.sum()
                 + BODY_LEAF_WORDS * tree.leaf_visits(opens).sum())


def _thread_charge(v, tid, tree, opens, k):
    """Each variant's force charges derived from one walk's opens on its
    own, one word_access per owner."""
    rt = v.rt
    if v.name == "mpi-let":
        rt.charge_compute(tid, _local_words(tree, opens, k)
                          * rt.machine.local_word_cost)
        return
    if v.cache_mode is not None:
        cache = CellCache(rt, tid, v.bodies.store,
                          v.cache_mode == "merged", v.rows)
        cache.localize_root()
        for row in tree.open_order(opens):
            cache.ensure_children(row)
        rt.charge_compute(tid, _local_words(tree, opens, k)
                          * rt.machine.local_word_cost)
        rt.count(tid, "cache_misses", cache.misses)
        rt.count(tid, "cache_hits", cache.hits)
        rt.count(tid, "cache_local_copies", cache.local_copies)
        return
    tests = tree.tests(opens, k)
    opened = opens.astype(np.float64)
    leaf = tree.leaf_visits(opens)
    words_to = np.bincount(
        tree.flat.home,
        weights=CELL_TEST_WORDS * tests + CELL_OPEN_WORDS * opened,
        minlength=v.P)
    words_to += np.bincount(v.bodies.store[tree.flat.leaf_bodies],
                            weights=BODY_LEAF_WORDS * leaf, minlength=v.P)
    for owner in np.flatnonzero(words_to > 0):
        rt.word_access(tid, int(owner), words=1.0,
                       count=float(words_to[owner]), key="force_words")
    if not v.replicate_scalars:
        scalar_reads = float(2.0 * tests.sum() - opened.sum() + leaf.sum())
        if scalar_reads > 0:
            rt.word_access(tid, 0, words=1.0, count=scalar_reads,
                           key="scalar_reads")


def _per_thread_force(v):
    """The object-tree force phase with every thread's charges derived
    on their own: the oracle of the per-phase tally."""
    rt, bodies = v.rt, v.bodies
    tree = v.slot_tree()
    new_cost = bodies.cost.copy()
    for t in range(v.P):
        idx = v.assigned(t)
        if not len(idx):
            continue
        acc, work, opens = slot_walk(tree, idx)
        _loop_body_words(v, t, idx, BODY_FORCE_WORDS)
        _thread_charge(v, t, tree, opens, len(idx))
        bodies.acc[idx] = acc
        new_cost[idx] = np.maximum(work, 1.0)
        rt.charge_compute(t, float(work.sum()) * rt.machine.interaction_cost)
        rt.count(t, "interactions", float(work.sum()))
    bodies.cost = new_cost


def _assert_same_state(got, want):
    assert np.array_equal(got.rt.clock, want.rt.clock)
    assert np.array_equal(got.rt._nic, want.rt._nic)
    _assert_same_counters(got.rt._counters, want.rt._counters)
    assert np.array_equal(got.rt.heap.allocated, want.rt.heap.allocated)
    assert np.array_equal(got.rt.heap.live_objects,
                          want.rt.heap.live_objects)
    assert np.array_equal(got.bodies.acc, want.bodies.acc)
    assert np.array_equal(got.bodies.cost, want.bodies.cost)


FORCE_VARIANTS = ("baseline", "replicate", "cache", "cache-merged",
                  "mpi-let")


@pytest.mark.parametrize("chunk", ["1", "above-P"])
@pytest.mark.parametrize("nthreads", [1, 4, 16, 112])
@pytest.mark.parametrize("variant", FORCE_VARIANTS)
def test_force_tally_matches_per_thread_charges(monkeypatch, variant,
                                                nthreads, chunk):
    v = _at_phase(variant, nthreads, FORCE,
                  "section6-tpn4" if nthreads == 16 else "section5")
    monkeypatch.setattr(variant_base, "TALLY_CHUNK",
                        1 if chunk == "1" else nthreads + 1)
    got = copy.deepcopy(v)
    got.phase_force()
    want = copy.deepcopy(v)
    _per_thread_force(want)
    _assert_same_state(got, want)
    if variant == "baseline" and nthreads > 1:
        assert got.rt._counters.total("force_words") > 0
        assert got.rt._counters.total("remote_words") > 0


def test_force_tally_rows():
    v = _at_phase("baseline", 16, FORCE)
    tree = v.slot_tree()
    idx_lists = [idx for idx in v.assigned_all() if len(idx)]
    opens = [slot_walk(tree, idx)[2] for idx in idx_lists]
    ks = [len(idx) for idx in idx_lists]
    leaf_owner = v.bodies.store[tree.flat.leaf_bodies]
    rows = variant_base.force_tally(tree, opens, ks, leaf_owner, v.P)
    bare = variant_base.force_tally(tree, opens, ks, None, v.P)
    for row, plain, op, k in zip(rows, bare, opens, ks):
        tests = tree.tests(op, k)
        leaf = tree.leaf_visits(op)
        assert row.tests == plain.tests == tests.sum()
        assert row.opens == plain.opens == op.sum()
        assert row.leaf == plain.leaf == leaf.sum()
        assert plain.words is None
        want = np.bincount(tree.flat.home,
                           weights=CELL_TEST_WORDS * tests
                           + CELL_OPEN_WORDS * op, minlength=v.P) \
            + np.bincount(leaf_owner, weights=BODY_LEAF_WORDS * leaf,
                          minlength=v.P)
        assert np.array_equal(row.words, want)
        assert variant_base.VariantBase.local_force_words(row) \
            == _local_words(tree, op, k)
    assert variant_base.force_tally(tree, [], [], leaf_owner, v.P) == []


@pytest.mark.parametrize("phase", [TREEBUILD, FORCE, ADVANCE])
@pytest.mark.parametrize("variant", ["baseline", "redistribute"])
def test_assignments_per_phase(variant, phase):
    v = _at_phase(variant, 16, phase)
    lists = v.assigned_all()
    assert len(lists) == v.P
    for t, idx in enumerate(lists):
        want = v.assigned(t)
        assert idx.dtype == want.dtype and np.array_equal(idx, want)
    counts = v.owner_counts()
    assert len(counts) == v.P
    if v.body_ptrs_local():
        assert counts == [None] * v.P
        return
    for t, idx in enumerate(lists):
        assert np.array_equal(
            counts[t], np.bincount(v.bodies.store[idx], minlength=v.P))
