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
"""

from __future__ import annotations

import gc
import sys

import pytest

import repro.octree.build as octree_build
from repro import BHConfig, run_variant
from repro.core.variants.base import VariantBase
from repro.core.variants.registry import VARIANTS
from repro.kernels import loader
from repro.octree.cell import Cell

CFG = BHConfig(nbodies=256, nsteps=3, warmup_steps=1)


def _callers_of_insert():
    """Every loaded ``repro`` module that calls ``insert`` by name."""
    return [mod for name, mod in sorted(sys.modules.items())
            if name.startswith("repro.") and mod is not None
            and getattr(mod, "insert", None) is octree_build.insert]


@pytest.mark.parametrize("kernel", ["compiled", "disabled"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_previous_tree_is_freed_before_the_next_build(variant, kernel,
                                                      monkeypatch):
    if kernel == "disabled":
        monkeypatch.setenv("REPRO_DISABLE_KERNELS", "1")
        monkeypatch.setattr(loader, "_KERNEL", "unset")
        monkeypatch.setattr(loader, "_WARNED", True)
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
    for mod in _callers_of_insert():
        monkeypatch.setattr(mod, "insert", checked_insert)
    res = run_variant(variant, CFG, nthreads=4)

    assert sorted(stale) == list(range(CFG.nsteps))
    assert stale == dict.fromkeys(range(CFG.nsteps), 0)
    # with the kernel, the fresh trees' cells were made from the compiled
    # builder's arrays: the check above covered them
    compiled = kernel == "compiled" and loader.load_kernel() is not None
    assert res.variant_stats["insert_engine"] == (
        octree_build.C_INSERT if compiled else octree_build.PY_INSERT)
