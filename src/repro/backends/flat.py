"""The flat backend: SoA octree + level-synchronous vectorized traversal.

Each step, :meth:`FlatBackend.begin_step` builds a fresh
:class:`~repro.octree.flat.FlatTree` (contiguous numpy arrays) over the
current bodies.  Two build paths exist, selected by
``BHConfig.flat_build``:

* ``"morton"`` (default) -- :func:`~repro.octree.morton_build.build_flat_tree`
  constructs the CSR arrays directly from sorted octant keys, never
  touching ``Cell`` objects; the object tree the variant built for its
  simulated-communication accounting is ignored here.
* ``"insertion"`` -- flatten the variant's freshly built object tree via
  :meth:`FlatTree.from_cell` (the original path; structurally identical,
  kept for A/B checks and for callers that mutate ``Cell`` hooks).

The Morton path needs no object tree at all: when ``begin_step`` is
handed ``root=None`` it derives the root box from the body positions.
The insertion path cannot, and raises instead of silently serving a
``None`` tree (zero forces) as it used to.

:meth:`FlatBackend.accelerations` then runs
:func:`~repro.octree.flat.flat_gravity`, whose Python-level work scales
with tree depth instead of visited nodes.  Forces match the object-tree
engine to float64 round-off (identical interaction sets; only summation
order differs).  Aggregate traversal counters (cell tests/accepts/opens,
leaf interactions, levels) are surfaced through the returned
:class:`~repro.backends.base.ForceResult` and land in the run's
:class:`~repro.upc.stats.StatsLog` under ``backend_*`` keys.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..nbody.bbox import RootBox, compute_root
from ..nbody.bodies import BodySoA
from ..octree.cell import Cell
from ..octree.flat import FlatTree, flat_gravity, prepare_bodies
from ..octree.morton_build import build_flat_tree
from .base import ForceBackend, ForceResult

#: per-step tree-size samples kept for run metrics (bounds memory on
#: long-running simulations; run metrics see at most this many steps)
TREE_NBYTES_HISTORY = 4096


class FlatBackend(ForceBackend):
    """Array-native tree engine (the fast path for real wall-clock work)."""

    name = "flat"
    #: degradation rung: the linked-cell recursion computes the same
    #: physics from the object tree the variant builds anyway
    fallback_name = "object-tree"

    def __init__(self, cfg, tracer=None):
        super().__init__(cfg, tracer=tracer)
        self.tree: Optional[FlatTree] = None
        self._prepared = None
        #: FlatTree memory footprint per step (feeds run metrics; bounded)
        self.tree_nbytes_per_step: "deque[int]" = deque(
            maxlen=TREE_NBYTES_HISTORY)

    @property
    def build_path(self) -> str:
        """Configured tree construction path (see module docstring)."""
        return getattr(self.cfg, "flat_build", "morton")

    def _resolve_box(self, root: Optional[Cell],
                     bodies: BodySoA) -> RootBox:
        """Root box for a Morton-path build.

        With a root cell, reuse its exact floats so the octant keys
        replay the insertion build's midpoint comparisons.  Without one
        (no object tree was built), derive the box from the positions.
        """
        if root is not None:
            return RootBox(center=np.asarray(root.center, dtype=np.float64),
                           rsize=float(root.size))
        return compute_root(bodies.pos,
                            getattr(self.cfg, "initial_rsize", 4.0))

    def _build_tree(self, root: Optional[Cell],
                    bodies: BodySoA) -> FlatTree:
        if self.build_path == "insertion":
            if root is None:
                raise ValueError(
                    "flat_build='insertion' flattens the object tree, but "
                    "begin_step received root=None; build the object tree "
                    "first or use flat_build='morton'")
            return FlatTree.from_cell(root)
        tr = self.tracer
        box = self._resolve_box(root, bodies)
        return build_flat_tree(bodies.pos, bodies.mass, box,
                               costs=bodies.cost,
                               tracer=tr if tr.enabled else None)

    def begin_step(self, root: Optional[Cell], bodies: BodySoA) -> None:
        tr = self.tracer
        traced = tr.enabled
        if traced:
            tr.begin("flat.begin_step", "backend", build=self.build_path)
        self.tree = self._build_tree(root, bodies)
        # body-side arrays are shared by every thread group of the step
        self._prepared = prepare_bodies(bodies.pos, bodies.mass)
        nbytes = self.tree.nbytes
        self.tree_nbytes_per_step.append(nbytes)
        if traced:
            tr.end(tree_cells=self.tree.ncells, tree_nbytes=nbytes)

    def accelerations(self, body_idx: np.ndarray,
                      bodies: BodySoA) -> ForceResult:
        if self.tree is None:
            raise RuntimeError(
                "FlatBackend.accelerations called before begin_step; the "
                "per-step tree has not been built")
        tr = self.tracer
        traced = tr.enabled
        if traced:
            tr.begin("flat.accelerations", "backend", nbodies=len(body_idx))
        acc, work, counters = flat_gravity(
            self.tree, body_idx, bodies.pos, bodies.mass,
            self.cfg.theta, self.cfg.eps,
            open_self_cells=self.cfg.open_self_cells,
            prepared=self._prepared,
            tracer=tr if traced else None,
        )
        if traced:
            tr.end(interactions=float(work.sum()), **counters)
        return ForceResult(acc=acc, work=work, counters=counters)
