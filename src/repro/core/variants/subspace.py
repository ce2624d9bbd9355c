"""L6 -- subspace tree building for scalability (paper section 6).

Replaces tree building, partitioning and redistribution with the cost-based
subspace algorithm (see :mod:`repro.core.subspace`); force computation stays
the L5 frontier framework, so this is "all optimizations applied" -- the
configuration of Tables 8/9 and the tail of Figures 5/6/13.

``vector_reduction=False`` reproduces the Figure-10 configuration (one
scalar reduction per subspace instead of one vector reduction per level).
"""

from __future__ import annotations

from ..phases import ADVANCE, FORCE, PARTITION, REDISTRIBUTION, TREEBUILD
from ..subspace import (
    allocate_leaves,
    build_subforest_and_hook,
    exchange_bodies,
    split_subspaces,
)
from .async_agg import AsyncAgg


class Subspace(AsyncAgg):
    """L5 + cost-based subspace tree building."""

    name = "subspace"
    ladder_level = 6
    subspace_build = True

    def __init__(self, rt, bodies, cfg):
        super().__init__(rt, bodies, cfg)
        self._ss_tree = None
        self._ss_body_map = None
        self._ss_owner = None
        #: per-step number of subspaces / levels (figures 10/11 analysis)
        self.subspace_counts = []
        self.level_counts = []

    def phase_plan(self):
        return [
            (TREEBUILD, self.phase_split),
            (PARTITION, self.phase_leaf_alloc),
            (REDISTRIBUTION, self.phase_exchange),
            (TREEBUILD, self.phase_subforest),
            (FORCE, self.phase_force),
            (ADVANCE, self.phase_advance),
        ]

    # ------------------------------------------------------------------ #
    def phase_split(self) -> None:
        # no phase before the subforest build reads the previous tree
        self.release_tree()
        tree, body_map = split_subspaces(
            self.rt, self.bodies.pos, self.bodies.cost, self.bodies.store,
            self.box, self.cfg.alpha, self.cfg.vector_reduction,
        )
        self._ss_tree = tree
        self._ss_body_map = body_map
        self.subspace_counts.append(tree.n_nodes)
        self.level_counts.append(tree.n_levels)

    def phase_leaf_alloc(self) -> None:
        self._ss_owner = allocate_leaves(self.rt, self._ss_tree)

    def phase_exchange(self) -> None:
        frac = exchange_bodies(
            self.rt, self._ss_tree, self._ss_body_map, self._ss_owner,
            self.bodies.assign, self.bodies.store,
        )
        self.migration_fractions.append(frac)

    def phase_subforest(self) -> None:
        self.root = build_subforest_and_hook(
            self, self._ss_tree, self._ss_body_map, self._ss_owner
        )
