"""The section-5.5 frontier force engine: compiled loop vs Python oracle.

``bh_frontier_walk`` replays ``frontier._walk_py`` -- the same groups,
parks, pooled gathers, trysync/waitsync order and float operations --
so one force phase run both ways from deep-copied state must agree with
``np.array_equal`` on everything it touches: accelerations, interaction
counts, every thread clock and NIC time, every counter row, the
``FrontierStats`` measurements, the engine's source histogram and its
(empty) outstanding-handle lists.  The oracle runs with the kernel
lookup patched away, as on a box without a compiler.

The run-level tests at the bottom (source histogram over the measured
steps, ``variant_stats["frontier"]``) hold with or without a kernel.
"""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest

import repro.core.frontier as frontier
import repro.kernels.pool as pool
from repro.core.app import BarnesHutSimulation, run_variant
from repro.core.config import BHConfig
from repro.core.frontier import FrontierStats, frontier_force, frontier_forces
from repro.core.phases import FORCE
from repro.core.variants.async_agg import AsyncAgg
from repro.core.variants.base import BODY_FORCE_WORDS
from repro.kernels import load_kernel
from repro.nbody.distributions import make_distribution
from repro.upc.nonblocking import AsyncEngine, source_fractions
from repro.upc.params import paper_section5_machine, paper_section6_machine

needs_kernel = pytest.mark.skipif(load_kernel() is None,
                                  reason="no compiled frontier walk here")

MACHINES = {
    "section5": paper_section5_machine,
    "section6-tpn4": lambda: paper_section6_machine(4),
}


def _at_force_phase(variant, nthreads, dist="plummer", n123=(4, 4, 4),
                    open_self=False, machine="section5", nbodies=384,
                    coincident=False):
    """A variant after step 0 and step 1's phases before the force
    phase, with the force phase open."""
    n1, n2, n3 = n123
    cfg = BHConfig(nbodies=nbodies, nsteps=2, warmup_steps=1, seed=7,
                   distribution=dist, n1=n1, n2=n2, n3=n3,
                   open_self_cells=open_self)
    bodies = make_distribution(dist, nbodies, seed=7)
    if coincident:
        # nine bodies moving as one: a MAX_DEPTH bucket leaf every step
        bodies.pos[50:58] = bodies.pos[40]
        bodies.vel[50:58] = bodies.vel[40]
    sim = BarnesHutSimulation(cfg, nthreads, machine=MACHINES[machine](),
                              variant=variant, bodies=bodies)
    v = sim.variant
    v.step(0)
    v.step_index = v.rt.step = 1
    for name, method in v.phase_plan():
        if name == FORCE:
            break
        with v.rt.phase(name):
            method()
    v.rt.begin_phase(FORCE)
    return v


def _force_phase(v, compiled: bool):
    """Every thread's frontier force on a deep copy of ``v``."""
    v = copy.deepcopy(v)
    engine = AsyncEngine(v.rt)
    tree = v.slot_tree() if compiled else None
    calls = []
    for t in range(v.P):
        acc, work, stats = frontier_force(v, engine, t, v.assigned(t), tree)
        calls.append((acc, work, stats))
        assert engine.outstanding.get(t, []) == []
    return v, engine, calls


def _phase_walks(v, monkeypatch, workers=None):
    """The force phase's walks as ``AsyncAgg.phase_force`` runs them
    (every thread's body words charged ahead of its walk) on a deep copy
    of ``v``: the batch on ``workers`` walk workers, or, with ``None``,
    thread after thread through the Python loop, as a serial phase."""
    v = copy.deepcopy(v)
    engine = AsyncEngine(v.rt)
    jobs = [(t, v.assigned(t)) for t in range(v.P) if len(v.assigned(t))]

    def body_words(t, idx):
        v.charge_body_words(t, idx, BODY_FORCE_WORDS)

    with monkeypatch.context() as mp:
        if workers is None:
            mp.setattr("repro.kernels.load_kernel", lambda: None)
            calls = []
            for t, idx in jobs:
                body_words(t, idx)
                calls.append(frontier_force(v, engine, t, idx))
        else:
            mp.setattr(pool, "_WORKERS", workers)
            calls = frontier_forces(v, engine, jobs,
                                    v.slot_tree(),
                                    body_words)
    return v, engine, calls


def _assert_identical(v, monkeypatch):
    """The compiled force phase equals the oracle's; its calls."""
    got = _force_phase(v, compiled=True)
    with monkeypatch.context() as mp:
        mp.setattr("repro.kernels.load_kernel", lambda: None)
        want = _force_phase(v, compiled=False)
    assert [s.engine for _, _, s in want[2]] == [frontier.PY_ENGINE] * v.P
    return _assert_same_calls(got, want)


def _assert_same_calls(got_run, want_run):
    """Two runs of a force phase's walks touched everything alike;
    the first's calls."""
    got_v, got_eng, got = got_run
    want_v, want_eng, want = want_run
    assert len(got) == len(want)
    for (acc, work, stats), (r_acc, r_work, r_stats) in zip(got, want):
        assert np.array_equal(acc, r_acc)
        assert np.array_equal(work, r_work)
        assert stats.counts() == r_stats.counts()
    assert np.array_equal(got_v.rt.clock, want_v.rt.clock)
    assert np.array_equal(got_v.rt._nic, want_v.rt._nic)
    rows = got_v.rt._counters._data
    want_rows = want_v.rt._counters._data
    assert sorted(rows) == sorted(want_rows)
    for key in rows:
        assert np.array_equal(rows[key], want_rows[key]), key
    assert got_eng.source_histogram == want_eng.source_histogram
    return got


CASES = [
    # variant, P, distribution, (n1, n2, n3), open_self, machine
    ("async", 1, "plummer", (4, 4, 4), False, "section5"),
    ("async", 4, "uniform", (1, 1, 1), False, "section6-tpn4"),
    ("async", 16, "disk", (2, 2, 2), True, "section5"),
    ("async", 64, "plummer", (8, 8, 8), False, "section6-tpn4"),
    ("async", 16, "plummer", (1, 4, 8), False, "section5"),
    ("subspace", 4, "plummer", (8, 1, 2), True, "section5"),
    ("subspace", 16, "uniform", (1, 4, 8), False, "section6-tpn4"),
    ("subspace", 64, "disk", (4, 2, 1), False, "section5"),
    ("subspace", 16, "plummer", (2, 8, 4), True, "section6-tpn4"),
    ("subspace", 1, "disk", (8, 8, 8), True, "section6-tpn4"),
    ("subspace", 16, "plummer", (8, 1, 2), False, "section5"),
    ("subspace", 64, "uniform", (1, 1, 1), True, "section6-tpn4"),
]


@needs_kernel
class TestCompiledMatchesOracle:
    @pytest.mark.parametrize(
        "variant,nthreads,dist,n123,open_self,machine", CASES,
        ids=["-".join(map(str, c)) for c in CASES])
    def test_force_phase_bit_identical(self, monkeypatch, variant,
                                       nthreads, dist, n123, open_self,
                                       machine):
        v = _at_force_phase(variant, nthreads, dist, n123, open_self,
                            machine)
        got = _assert_identical(v, monkeypatch)
        assert all(s.engine == frontier.C_ENGINE for acc, _, s in got
                   if len(acc))
        # the case exercises the remote path: something was gathered
        if nthreads > 1:
            assert sum(s.gathers for _, _, s in got) > 0

    @pytest.mark.parametrize(
        "variant,nthreads,dist,n123,open_self,machine", CASES,
        ids=["-".join(map(str, c)) for c in CASES])
    def test_walk_workers_bit_identical(self, monkeypatch, variant,
                                        nthreads, dist, n123, open_self,
                                        machine):
        # one worker, two workers and the serial Python phase agree on
        # every output, clock, NIC time (the logged adds, in thread
        # order), counter row (the stall included) and histogram
        v = _at_force_phase(variant, nthreads, dist, n123, open_self,
                            machine)
        one = _phase_walks(v, monkeypatch, workers=1)
        two = _phase_walks(v, monkeypatch, workers=2)
        got = _assert_same_calls(two, one)
        _assert_same_calls(two, _phase_walks(v, monkeypatch))
        assert all(s.engine == frontier.C_ENGINE for _, _, s in got)

    def test_walk_workers_with_waits_and_callbacks(self, monkeypatch):
        # stalls, forced gathers and callback-priced pieces, both ways
        monkeypatch.setattr(frontier, "GATHER_TABLE_N", 1)
        v = _at_force_phase("async", 16, n123=(8, 1, 8))
        two = _phase_walks(v, monkeypatch, workers=2)
        got = _assert_same_calls(two, _phase_walks(v, monkeypatch, 1))
        _assert_same_calls(two, _phase_walks(v, monkeypatch))
        assert sum(s.waits for _, _, s in got) > 0
        assert two[0].rt._counters.total("waitsync_stall") > 0

    @pytest.mark.parametrize("variant", ["async", "subspace"])
    def test_force_phase_workers_bit_identical(self, monkeypatch, variant):
        runs = []
        for workers in (1, 2):
            v = copy.deepcopy(_at_force_phase(variant, 16, dist="disk"))
            with monkeypatch.context() as mp:
                mp.setattr(pool, "_WORKERS", workers)
                v.phase_force()
            runs.append(v)
        got, want = runs
        assert got.force_engine == want.force_engine == frontier.C_ENGINE
        assert np.array_equal(got.bodies.acc, want.bodies.acc)
        assert np.array_equal(got.bodies.cost, want.bodies.cost)
        assert np.array_equal(got.rt.clock, want.rt.clock)
        assert np.array_equal(got.rt._nic, want.rt._nic)
        assert dict(got.rt._counters._data) == dict(want.rt._counters._data)
        assert got.frontier_totals == want.frontier_totals
        assert got.source_histogram == want.source_histogram

    @pytest.mark.parametrize("open_self", [False, True])
    def test_max_depth_bucket(self, monkeypatch, open_self):
        v = _at_force_phase("subspace", 16, open_self=open_self,
                            coincident=True)
        leaf_sizes = np.diff(v.slot_tree().flat.leaf_ptr)
        assert leaf_sizes.max() > 1
        _assert_identical(v, monkeypatch)

    def test_waits_and_forced_gathers_are_exercised(self, monkeypatch):
        # n2 = 1 with a large n3 forces the stalled branches
        v = _at_force_phase("async", 16, n123=(8, 1, 8))
        got = _assert_identical(v, monkeypatch)
        assert sum(s.waits for _, _, s in got) > 0
        assert sum(s.forced_gathers for _, _, s in got) > 0

    def test_tree_flattened_on_demand(self, monkeypatch):
        # frontier_force without a tree flattens one itself
        v = _at_force_phase("async", 4)
        w = copy.deepcopy(v)
        engine = AsyncEngine(w.rt)
        acc, work, stats = frontier_force(w, engine, 1, w.assigned(1))
        assert stats.engine == frontier.C_ENGINE
        _, _, calls = _force_phase(v, compiled=True)
        assert np.array_equal(acc, calls[1][0])
        assert np.array_equal(work, calls[1][1])

    def test_declined_workspace_runs_the_oracle(self, monkeypatch):
        v = _at_force_phase("subspace", 16, n123=(2, 2, 2))
        monkeypatch.setattr(frontier, "C_WORKSPACE_CAP", 1)
        got = _assert_identical(v, monkeypatch)
        assert {s.engine for _, _, s in got} == {frontier.PY_ENGINE}

    def test_callback_error_propagates(self, monkeypatch):
        # with no table every gather piece is priced by the callback
        v = _at_force_phase("async", 16)
        monkeypatch.setattr(frontier, "GATHER_TABLE_N", 0)

        def boom(*args):
            raise KeyError("boom")

        monkeypatch.setattr(v.rt, "price", boom)
        tree = v.slot_tree()
        with pytest.raises(KeyError, match="boom"):
            frontier_force(v, AsyncEngine(v.rt), 3, v.assigned(3), tree)

    @pytest.mark.parametrize("table_n", [0, 1])
    def test_pieces_beyond_the_charge_table(self, monkeypatch, table_n):
        # the price-store callback prices what the table does not hold
        monkeypatch.setattr(frontier, "GATHER_TABLE_N", table_n)
        v = _at_force_phase("subspace", 16, n123=(2, 8, 4))
        got = _assert_identical(v, monkeypatch)
        assert sum(s.gathers for _, _, s in got) > 0

    def test_force_engine_stat(self):
        cfg = BHConfig(nbodies=128, nsteps=2, warmup_steps=1)
        for variant in ("async", "subspace"):
            res = run_variant(variant, cfg, 4)
            assert res.variant_stats["force_engine"] == frontier.C_ENGINE


def test_force_engine_stat_without_kernel(monkeypatch):
    monkeypatch.setattr("repro.kernels.load_kernel", lambda: None)
    cfg = BHConfig(nbodies=128, nsteps=2, warmup_steps=1)
    res = run_variant("async", cfg, 4)
    assert res.variant_stats["force_engine"] == frontier.PY_ENGINE


def test_source_fractions_cover_every_measured_step(monkeypatch):
    per_step = []
    phase_force = AsyncAgg.phase_force

    def spy(self):
        phase_force(self)
        per_step.append((self.step_index,
                         dict(self.async_engine.source_histogram)))

    monkeypatch.setattr(AsyncAgg, "phase_force", spy)
    cfg = BHConfig(nbodies=256, nsteps=4, warmup_steps=1)
    res = run_variant("async", cfg, 16)
    assert [s for s, _ in per_step] == [0, 1, 2, 3]
    total: Counter = Counter()
    for _, hist in per_step[1:]:  # step 0 is the warm-up
        total.update(hist)
    want = {k: v / sum(total.values()) for k, v in sorted(total.items())}
    assert res.variant_stats["gather_source_fractions"] == want
    # the last step alone (what used to be reported) reads differently
    assert want != source_fractions(per_step[-1][1])


def test_frontier_totals_match_without_kernel(monkeypatch):
    cfg = BHConfig(nbodies=256, nsteps=3, warmup_steps=1)
    got = run_variant("subspace", cfg, 16).variant_stats["frontier"]
    monkeypatch.setattr("repro.kernels.load_kernel", lambda: None)
    res = run_variant("subspace", cfg, 16)
    assert res.variant_stats["force_engine"] == frontier.PY_ENGINE
    assert res.variant_stats["frontier"] == got
    assert sorted(got) == sorted(FrontierStats.FIELDS)
    assert got["gathers"] > 0
