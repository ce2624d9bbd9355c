"""Graceful backend degradation: the force-engine fallback ladder.

:class:`ResilientBackend` wraps the variant's primary force engine and,
when a call into it raises, transparently serves the rest of the step
from the next rung of the ladder declared by the backends themselves
(``ForceBackend.fallback_name``)::

    flat  ->  object-tree  ->  direct  ->  (none: structured fault)

The wrapper proxies every attribute to the primary engine -- ``name``
included, so ``VariantBase.backend_force_active`` and the flat-specific
telemetry (``tree_nbytes_per_step``) keeps working -- and
only interposes on ``begin_step`` / ``accelerations``.  The primary is
re-tried at the next step's ``begin_step`` (transient-fault model) until
``BHConfig.max_backend_fallbacks`` degraded steps have been served, after
which the wrapper pins the fallback permanently rather than failing over
every step.  A ladder with no rung left re-raises as a
:class:`~repro.resilience.faults.SimulationFault` (``traversal`` cause),
which the policy engine surfaces with phase/step context.

Fallback engines produce the same physics to float64 round-off, not
bit-identically (summation order differs between engines), so a degraded
step trades exact replay for survival -- by design.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backends.registry import make_backend
from ..nbody.bodies import BodySoA
from ..obs.trace import get_tracer
from .faults import CAUSE_TRAVERSAL, InjectedFault, SimulationFault


class ResilientBackend:
    """Failure-absorbing proxy around one primary force engine."""

    def __init__(self, primary, cfg, tracer=None, manager=None):
        # NOTE: assign ``primary`` first -- ``__getattr__`` proxies to it
        self.primary = primary
        self.cfg = cfg
        self.tracer = tracer if tracer is not None else get_tracer()
        self.manager = manager
        self.max_fallbacks = int(getattr(cfg, "max_backend_fallbacks", 3))
        self.fallback = None
        #: degraded steps served so far; at ``max_fallbacks`` the wrapper
        #: stops re-trying the primary ("permanent" degradation)
        self.fallbacks_served = 0
        self.permanent = False
        self._serving = None
        self._root = None
        self._bodies: Optional[BodySoA] = None

    def __getattr__(self, attr):
        # only reached for attributes the wrapper itself lacks
        return getattr(object.__getattribute__(self, "primary"), attr)

    # ------------------------------------------------------------------ #
    # ForceBackend surface                                               #
    # ------------------------------------------------------------------ #
    @property
    def served_by(self) -> str:
        """The engine serving the current step (a fallback when degraded)."""
        serving = self._serving if self._serving is not None \
            else self.primary
        return serving.served_by

    def begin_step(self, root, bodies: BodySoA) -> None:
        self._root, self._bodies = root, bodies
        if self.permanent:
            self._serving = self._build_fallback(
                RuntimeError("primary permanently degraded"))
            self._serving.begin_step(root, bodies)
            return
        self._serving = self.primary
        try:
            self.primary.begin_step(root, bodies)
        except Exception as exc:
            fb = self._degrade("begin_step", exc)
            fb.begin_step(root, bodies)
            self._serving = fb

    def accelerations(self, body_idx: np.ndarray, bodies: BodySoA):
        serving = self._serving if self._serving is not None \
            else self.primary
        if serving is not self.primary:
            return serving.accelerations(body_idx, bodies)
        try:
            inj = self.manager.injector if self.manager is not None else None
            if inj is not None and inj.take_backend_fault():
                raise InjectedFault(
                    f"backend:{self.primary.name} [{inj.backend_fault_point}]",
                    self.manager.current_step)
            return self.primary.accelerations(body_idx, bodies)
        except Exception as exc:
            fb = self._degrade("accelerations", exc)
            # the fallback missed this step's begin_step; run it now over
            # the same root/bodies so it serves the remaining groups
            fb.begin_step(self._root, self._bodies)
            self._serving = fb
            return fb.accelerations(body_idx, bodies)

    # ------------------------------------------------------------------ #
    # the ladder                                                         #
    # ------------------------------------------------------------------ #
    def _build_fallback(self, exc: BaseException):
        rung = getattr(type(self.primary), "fallback_name", None)
        if rung is None:
            raise SimulationFault(
                CAUSE_TRAVERSAL,
                detail=f"backend {self.primary.name!r} failed and the "
                       f"ladder has no rung below it",
                original=exc) from exc
        if self.fallback is None:
            self.fallback = make_backend(rung, self.cfg,
                                         tracer=self.tracer)
        return self.fallback

    def _degrade(self, point: str, exc: BaseException):
        if isinstance(exc, SimulationFault) and exc.cause == CAUSE_TRAVERSAL:
            raise exc  # already past the bottom of the ladder
        fb = self._build_fallback(exc)
        self.fallbacks_served += 1
        if self.fallbacks_served >= self.max_fallbacks:
            self.permanent = True
        if self.manager is not None:
            self.manager.bump("backend_fallbacks",
                              f"{self.primary.name}->{fb.name}")
        if self.tracer.enabled:
            self.tracer.instant(
                "backend_fallback", "resilience", point=point,
                src=self.primary.name, dst=fb.name,
                error=type(exc).__name__,
                permanent=self.permanent)
        return fb
