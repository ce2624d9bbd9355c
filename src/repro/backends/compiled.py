"""Compiled force backend: the native tree walk behind the flat engine.

:class:`CompiledFlatBackend` (``flat-c``) subclasses
:class:`~repro.backends.flat.FlatBackend`, so it builds the same
Morton tree.  Only :meth:`accelerations` differs: instead of the numpy
level loop, the per-body walk of :mod:`repro.kernels` runs natively over
the same ``FlatTree`` arrays (bit-exact interaction counts,
float64-roundoff accelerations).

Availability is a *soft* gate: the name is always registered, but on a
box with no compiler the constructor keeps ``kernel = None`` and the
instance serves the inherited numpy engine.  The kernel loader has
already emitted its single :class:`RuntimeWarning` by then; nothing
raises.
"""

from __future__ import annotations

import numpy as np

from ..nbody.bodies import BodySoA
from .base import ForceResult
from .flat import FlatBackend


class CompiledFlatBackend(FlatBackend):
    """Flat engine with the C force walk (``_bh_kernel.c``)."""

    name = "flat-c"

    def __init__(self, cfg, tracer=None):
        super().__init__(cfg, tracer=tracer)
        from ..kernels import load_kernel

        #: bound C kernel, or None (serve the inherited numpy engine)
        self.kernel = load_kernel()

    @property
    def kernel_active(self) -> bool:
        """Whether force calls actually run the native kernel."""
        return self.kernel is not None

    @property
    def served_by(self) -> str:
        return self.name if self.kernel_active else "flat (numpy fallback)"

    def accelerations(self, body_idx: np.ndarray,
                      bodies: BodySoA) -> ForceResult:
        if self.kernel is None:
            return super().accelerations(body_idx, bodies)
        if self.tree is None:
            raise RuntimeError(
                f"{type(self).__name__}.accelerations called before "
                "begin_step; the per-step tree has not been built")
        from ..kernels import kernel_gravity

        tr = self.tracer
        traced = tr.enabled
        if traced:
            tr.begin("flat.accelerations", "backend",
                     nbodies=len(body_idx), kernel="c")
        acc, work, counters = kernel_gravity(
            self.tree, body_idx, bodies.pos, bodies.mass,
            self.cfg.theta, self.cfg.eps,
            open_self_cells=self.cfg.open_self_cells,
            prepared=self._prepared,
            kernel=self.kernel,
        )
        if traced:
            tr.end(interactions=float(work.sum()), **counters)
        return ForceResult(acc=acc, work=work, counters=counters)
