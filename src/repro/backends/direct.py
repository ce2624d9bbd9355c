"""Direct O(n^2) summation backend -- the small-N exactness reference.

``begin_step`` evaluates the full pairwise sum once for all bodies;
``accelerations`` serves slices of it, so running P simulated threads does
not multiply the quadratic cost by P.  Useful for validating tree backends
(theta-bounded error) and as the honest engine at tiny N where tree
overhead dominates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nbody.bodies import BodySoA
from ..nbody.direct import direct_acc
from ..octree.cell import Cell
from .base import ForceBackend, ForceResult


class DirectBackend(ForceBackend):
    """All-pairs softened summation (no tree involved)."""

    name = "direct"
    needs_tree = False

    def __init__(self, cfg, tracer=None):
        super().__init__(cfg, tracer=tracer)
        self._acc: Optional[np.ndarray] = None
        self._n = 0

    def begin_step(self, root: Optional[Cell], bodies: BodySoA) -> None:
        tr = self.tracer
        if tr.enabled:
            with tr.span("direct.presum", "backend", nbodies=len(bodies)):
                self._acc = direct_acc(bodies.pos, bodies.mass,
                                       self.cfg.eps)
        else:
            self._acc = direct_acc(bodies.pos, bodies.mass, self.cfg.eps)
        self._n = len(bodies)

    def accelerations(self, body_idx: np.ndarray,
                      bodies: BodySoA) -> ForceResult:
        tr = self.tracer
        if tr.enabled:
            tr.begin("direct.accelerations", "backend",
                     nbodies=len(body_idx))
            try:
                return self._slice(body_idx, len(bodies))
            finally:
                tr.end()
        return self._slice(body_idx, len(bodies))

    def _slice(self, body_idx: np.ndarray, nbodies: int) -> ForceResult:
        # no lazy fallback: positions mutate in place between steps, so a
        # missing begin_step would silently serve stale forces
        if self._acc is None or self._n != nbodies:
            raise RuntimeError(
                "DirectBackend.accelerations requires begin_step() for the "
                "current bodies first")
        idx = np.asarray(body_idx, dtype=np.int64)
        # every body interacts with all n-1 others
        work = np.full(len(idx), float(max(self._n - 1, 0)))
        return ForceResult(acc=self._acc[idx].copy(), work=work,
                           counters={"pairs": float(len(idx) * (self._n - 1))})
