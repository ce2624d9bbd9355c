"""The flat backend: SoA octree + level-synchronous vectorized traversal.

Each step, :meth:`FlatBackend.begin_step` builds a fresh
:class:`~repro.octree.flat.FlatTree` (contiguous numpy arrays) over the
current bodies with :func:`~repro.octree.morton_build.build_flat_tree`,
straight from sorted octant keys and without ``Cell`` objects.  Given a
root cell it reuses that cell's exact box floats, so the tree equals the
insertion build's; given ``root=None`` it derives the box from the
positions.

:meth:`FlatBackend.accelerations` then runs
:func:`~repro.octree.flat.flat_gravity`, whose Python-level work scales
with tree depth instead of visited nodes.  Forces match the object-tree
engine to float64 round-off (identical interaction sets; only summation
order differs).  Aggregate traversal counters (cell tests/accepts/opens,
leaf interactions, levels) come back in the
:class:`~repro.backends.base.ForceResult`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nbody.bbox import RootBox, compute_root
from ..nbody.bodies import BodySoA
from ..octree.cell import Cell
from ..octree.flat import FlatTree, flat_gravity, prepare_bodies
from ..octree.morton_build import build_flat_tree
from .base import ForceBackend, ForceResult


class FlatBackend(ForceBackend):
    """Array-native tree engine over a fresh Morton build per step."""

    name = "flat"

    def __init__(self, cfg, tracer=None):
        super().__init__(cfg, tracer=tracer)
        self.tree: Optional[FlatTree] = None
        self._prepared = None

    def _resolve_box(self, root: Optional[Cell],
                     bodies: BodySoA) -> RootBox:
        """Root box of the step's build.

        With a root cell, reuse its exact floats so the octant keys
        replay the insertion build's midpoint comparisons.  Without one
        (no object tree was built), derive the box from the positions.
        """
        if root is not None:
            return RootBox(center=np.asarray(root.center, dtype=np.float64),
                           rsize=float(root.size))
        return compute_root(bodies.pos,
                            getattr(self.cfg, "initial_rsize", 4.0))

    def begin_step(self, root: Optional[Cell], bodies: BodySoA) -> None:
        tr = self.tracer
        traced = tr.enabled
        if traced:
            tr.begin("flat.begin_step", "backend")
        self.tree = build_flat_tree(bodies.pos, bodies.mass,
                                    self._resolve_box(root, bodies),
                                    costs=bodies.cost,
                                    tracer=tr if traced else None)
        # body-side arrays are shared by every thread group of the step
        self._prepared = prepare_bodies(bodies.pos, bodies.mass)
        if traced:
            tr.end(tree_cells=self.tree.ncells, tree_nbytes=self.tree.nbytes)

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
