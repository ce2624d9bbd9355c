"""One step's tree at a time: every variant releases its previous tree
before the next build.

Every variant rebuilds its octree each step.  When step ``s + 1``'s
first insertion runs, no ``Cell`` made during step ``s`` (or earlier)
may still be alive: not the variant's ``root``, not the baseline
family's per-thread cell lists or the hook-driven c-of-m's done tokens,
not ``mpi-let``'s global tree, nor any flatten holding the cells.

``Cell`` has ``__slots__`` without ``__weakref__``, so the live cells are
counted with ``gc.get_objects()``, against the ``id`` and step of every
cell the run has made.  An ``id`` names the newest cell made at its
address, and a cell alive since an earlier step cannot share its ``id``
with a later one, so the check is exact; cells that other code made
before the run are not counted.
Every variant runs with and without the compiled kernel
(``REPRO_DISABLE_KERNELS=1``); with it, every fresh tree is built by the
compiled ``insert`` and its cells made from the builder's arrays.

Each step's tree is flattened exactly once, as its build ends
(``record_rows`` with the kernel, ``cell_rows`` without it or for the
merged tree), and every later phase reads that one record: after each
phase that leaves a tree, the variant's ``rows`` are of its ``root``,
count its cells and hold its tree order.

With the kernel, that record is the only copy of the tree the later
phases read: a run whose cells are all poisoned right after the flatten
gives every output of an unpoisoned run, with the guards on too, and
with the frontier variants' Python loop serving the force phase.
"""

from __future__ import annotations

import dataclasses
import gc
import sys

import numpy as np
import pytest

import repro.core.frontier as frontier
import repro.octree.build as octree_build
import repro.octree.flat as octree_flat
from repro import BHConfig, run_variant
from repro.core.variants.base import VariantBase
from repro.core.variants.registry import VARIANTS
from repro.kernels import load_kernel, loader
from repro.octree.cell import NSUB, Cell
from repro.octree.morton import bodies_in_order

CFG = BHConfig(nbodies=256, nsteps=3, warmup_steps=1)


def _callers_of(module, name):
    """Every loaded ``repro`` module that binds ``module.name``."""
    fn = getattr(module, name)
    return [mod for modname, mod in sorted(sys.modules.items())
            if modname.startswith("repro.") and mod is not None
            and getattr(mod, name, None) is fn]


def _kernel(kernel, monkeypatch):
    if kernel == "disabled":
        monkeypatch.setenv("REPRO_DISABLE_KERNELS", "1")
        monkeypatch.setattr(loader, "_KERNEL", "unset")
        monkeypatch.setattr(loader, "_WARNED", True)


@pytest.mark.parametrize("kernel", ["compiled", "disabled"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_previous_tree_is_freed_before_the_next_build(variant, kernel,
                                                      monkeypatch):
    _kernel(kernel, monkeypatch)
    made = {}        # id -> step of every cell the run has made
    state = {}       # the running step
    stale = {}       # step -> cells of earlier steps alive at its build

    cell_init = Cell.__init__

    def counted_init(self, *args, **kwargs):
        cell_init(self, *args, **kwargs)
        made[id(self)] = state["step"]

    step = VariantBase.step

    def counted_step(self, step_index):
        state["step"] = step_index
        return step(self, step_index)

    insert = octree_build.insert

    def checked_insert(*args, **kwargs):
        s = state["step"]
        if s not in stale:
            stale[s] = sum(1 for o in gc.get_objects()
                           if type(o) is Cell and made.get(id(o), s) < s)
        return insert(*args, **kwargs)

    monkeypatch.setattr(Cell, "__init__", counted_init)
    monkeypatch.setattr(VariantBase, "step", counted_step)
    for mod in _callers_of(octree_build, "insert"):
        monkeypatch.setattr(mod, "insert", checked_insert)
    res = run_variant(variant, CFG, nthreads=4)

    assert sorted(stale) == list(range(CFG.nsteps))
    assert stale == dict.fromkeys(range(CFG.nsteps), 0)
    # with the kernel, the fresh trees' cells were made from the compiled
    # builder's arrays: the check above covered them
    compiled = kernel == "compiled" and loader.load_kernel() is not None
    assert res.variant_stats["insert_engine"] == (
        octree_build.C_INSERT if compiled else octree_build.PY_INSERT)


@pytest.mark.parametrize("kernel", ["compiled", "disabled"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_one_flatten_per_tree_read_by_every_phase(variant, kernel,
                                                  monkeypatch):
    _kernel(kernel, monkeypatch)
    state = {"step": None}
    flattens = {}    # step -> the flattens it ran, by name
    checked = []     # (step, phase) after which a tree was checked

    def counted(name):
        fn = getattr(octree_flat, name)

        def wrapper(*args, **kwargs):
            flattens.setdefault(state["step"], []).append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("record_rows", "cell_rows"):
        wrapped = counted(name)
        for mod in _callers_of(octree_flat, name):
            monkeypatch.setattr(mod, name, wrapped)

    def after(v, phase, method):
        def run():
            method()
            if v.root is None:
                assert v.rows is None, phase
                return
            rows = v.rows
            assert rows.cells[0] is v.root, phase
            assert v.ncells == len(rows.cells), phase
            assert np.array_equal(rows.order, bodies_in_order(v.root)), phase
            checked.append((v.step_index, phase))
        return run

    cls = VARIANTS[variant]
    plan = cls.phase_plan

    def checked_plan(self):
        state["step"] = self.step_index
        return [(phase, after(self, phase, method))
                for phase, method in plan(self)]

    monkeypatch.setattr(cls, "phase_plan", checked_plan)
    res = run_variant(variant, CFG, nthreads=4)

    compiled = kernel == "compiled" and loader.load_kernel() is not None
    # the merged tree is flattened from its cells
    name = "record_rows" if compiled \
        and variant not in ("localbuild", "async") else "cell_rows"
    assert flattens == {s: [name] for s in range(CFG.nsteps)}
    assert res.variant_stats["rows_engine"] == (
        "c-tree-rows" if name == "record_rows" else "cell-rows")
    assert {s for s, _ in checked} == set(range(CFG.nsteps))


def _poison(cells, nthreads):
    """Make every field the later phases could read off a cell unusable."""
    nan = float("nan")
    for cell in cells:
        cell.center = (nan, nan, nan)
        cell.size = nan
        cell.mass = nan
        cell.cofm = np.full(3, nan)
        cell.home = nthreads + 7
        cell.children = [None] * NSUB


def _assert_same(a, b, where=""):
    """``a`` equals ``b``, arrays elementwise, containers recursively."""
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), where
        for key in a:
            _assert_same(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), where
    else:
        assert a == b, where


POISON_CASES = [(v, mode) for v in sorted(VARIANTS)
                for mode in ("plain", "guards")] \
    + [(v, "python-frontier") for v in ("async", "subspace")]


@pytest.mark.skipif(load_kernel() is None, reason="no compiled kernel here")
@pytest.mark.parametrize("variant,mode", POISON_CASES,
                         ids=[f"{v}-{m}" for v, m in POISON_CASES])
def test_kernel_path_reads_no_cell_after_flatten(variant, mode,
                                                 monkeypatch):
    cfg = dataclasses.replace(CFG, guards=mode == "guards")
    if mode == "python-frontier":
        # the compiled loop declines its workspace: the Python loop serves
        monkeypatch.setattr(frontier, "C_WORKSPACE_CAP", 1)
    runs = []
    for poisoned in (False, True):
        with monkeypatch.context() as mp:
            if poisoned:
                flatten = VariantBase.flatten

                def poisoning_flatten(self, *args, **kwargs):
                    flatten(self, *args, **kwargs)
                    _poison(self.rows.cells, self.P)

                mp.setattr(VariantBase, "flatten", poisoning_flatten)
            runs.append(run_variant(variant, cfg, nthreads=4))
    want, got = runs
    assert got.variant_stats["force_engine"] in (
        ("frontier",) if mode == "python-frontier"
        else ("c-slot-walk", "c-frontier"))
    for name in ("pos", "vel", "acc"):
        assert np.array_equal(getattr(got.bodies, name),
                              getattr(want.bodies, name)), name
    assert len(got.log.records) == len(want.log.records)
    for a, b in zip(got.log.records, want.log.records):
        assert (a.name, a.step, a.duration) == (b.name, b.step, b.duration)
        assert np.array_equal(a.thread_times, b.thread_times), a.name
        assert np.array_equal(a.nic_times, b.nic_times), a.name
        _assert_same(dict(a.counters._data), dict(b.counters._data), a.name)
    _assert_same(got.variant_stats, want.variant_stats, "variant_stats")
