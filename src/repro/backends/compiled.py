"""Compiled force backend: the native tree walk behind the flat engine.

:class:`CompiledFlatBackend` (``flat-c``) subclasses
:class:`~repro.backends.flat.FlatBackend`, so both tree-construction
paths -- Morton-direct and insertion flatten -- are inherited
unchanged.  Only :meth:`accelerations` differs: instead of the numpy
level loop, the per-body walk of :mod:`repro.kernels` runs natively over
the same ``FlatTree`` arrays (bit-exact interaction counts,
float64-roundoff accelerations; the interaction-drift regression gate of
``repro-bench --check`` therefore applies to it identically).

Availability is a *soft* gate: the name is always registered -- so
``BHConfig(force_backend="flat-c")`` validates everywhere -- but on a
box with no compiler the constructor keeps ``kernel = None`` and the
instance serves the inherited numpy engine.  The kernel loader has
already emitted its single :class:`RuntimeWarning` by then; nothing
raises.

It declares ``fallback_name = "flat"``: a faulting kernel call rides
the resilience degradation ladder (``flat-c -> flat -> object-tree ->
direct``) exactly like any other backend fault.

``BHConfig.kernel_threads`` sets the body-chunking width of the C path
(0 = one chunk per CPU); outputs are per-body independent, so every
thread count yields identical arrays.
"""

from __future__ import annotations

import os

import numpy as np

from ..nbody.bodies import BodySoA
from .base import ForceResult
from .flat import FlatBackend


def _auto_threads() -> int:
    return os.cpu_count() or 1


class CompiledFlatBackend(FlatBackend):
    """Flat engine with the C force walk (``_bh_kernel.c``)."""

    name = "flat-c"
    #: degradation rung: the numpy flat engine computes the same physics
    #: from the same tree
    fallback_name = "flat"

    def __init__(self, cfg, tracer=None):
        super().__init__(cfg, tracer=tracer)
        from ..kernels import load_kernel

        #: bound C kernel, or None (serve the inherited numpy engine)
        self.kernel = load_kernel()
        threads = int(getattr(cfg, "kernel_threads", 0) or 0)
        #: body-chunking width of the thread pool
        self.threads = threads if threads > 0 else _auto_threads()

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
                     nbodies=len(body_idx), kernel="c",
                     threads=self.threads)
        acc, work, counters = kernel_gravity(
            self.tree, body_idx, bodies.pos, bodies.mass,
            self.cfg.theta, self.cfg.eps,
            open_self_cells=self.cfg.open_self_cells,
            prepared=self._prepared,
            threads=self.threads,
            kernel=self.kernel,
        )
        if traced:
            tr.end(interactions=float(work.sum()), **counters)
        return ForceResult(acc=acc, work=work, counters=counters)
