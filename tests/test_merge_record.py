"""The section-5.4 merge charged from its record vs the hook-driven merge.

``LocalBuild.phase_treebuild`` (``localbuild`` and ``async``) numbers
every cell of the step through one phase-local ``BuildRecord`` and takes
its locks by seq; each global insertion charges the path it descended,
derived after the insertion.  The hook-driven merge it replaced
(``tests/hook_oracle.py``) charged every event as ``insert`` made it and
kept its locks by ``id``.  Run from the same deep-copied state, the two
must agree with ``np.array_equal`` on every thread clock and NIC time,
every counter row and the key set, the shared heap, the lock statistics,
the local/merge sub-phase times, and the merged tree.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from hook_oracle import merge_treebuild_with_hooks
from repro.core.phases import TREEBUILD
from repro.octree.cell import Cell, Leaf
from test_build_replay_c import _assert_same_charges, _at_phase


def _shape(cell: Cell):
    """The tree under ``cell``: each cell's home and slots, leaves as
    their body lists."""
    return (cell.home, tuple(
        None if ch is None
        else tuple(ch.indices) if isinstance(ch, Leaf) else _shape(ch)
        for ch in cell.children))


def _assert_merge_identical(v):
    got = copy.deepcopy(v)
    got.phase_treebuild()
    want = copy.deepcopy(v)
    merge_treebuild_with_hooks(want)
    _assert_same_charges(got, want)
    assert got.lock_stats == want.lock_stats
    (g,), (w,) = got.treebuild_subphases[-1:], want.treebuild_subphases[-1:]
    assert sorted(g) == sorted(w) == ["local", "merge"]
    for key in g:
        assert np.array_equal(g[key], w[key]), key
    assert got.ncells == want.ncells
    assert _shape(got.root) == _shape(want.root)
    return got


MACHINES = ("section5", "section6-tpn4")


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("nthreads", [1, 4, 16, 64, 112])
@pytest.mark.parametrize("variant", ["localbuild", "async"])
def test_merge_charges_equal_the_hooks(variant, nthreads, machine):
    v = _at_phase(variant, nthreads, TREEBUILD, "plummer", machine,
                  nbodies=1024)
    got = _assert_merge_identical(v)
    counters = got.rt._counters
    if nthreads > 1:
        # the merge locked, and walked remote subtrees to insert
        assert got.lock_stats[got.step_index][0] > 0
        assert counters.total("merge_insert_visits") \
            > counters.total("merge_insert_writes") > 0


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("variant", ["localbuild", "async"])
def test_merge_of_a_bucket_spanning_threads(variant, machine):
    v = _at_phase(variant, 16, TREEBUILD, "disk", machine, nbodies=1024,
                  coincident=True)
    # coincident bodies 50..57 (at body 40's position) on threads 2..9
    spread = np.arange(50, 58)
    v.bodies.assign[spread] = v.bodies.store[spread] = spread % 16
    got = _assert_merge_identical(v)
    buckets = [ch for c in got.root.iter_cells() for ch in c.children
               if isinstance(ch, Leaf) and len(ch.indices) > 1]
    assert buckets
    assert any(len(set(got.bodies.assign[b.indices])) > 1 for b in buckets)
