"""Numerical-health guards: per-phase validators for the step loop.

Each check is an O(n) vectorized scan (or O(1) on tree aggregates) that
turns silent corruption -- a NaN acceleration poisoning every later
position, an affinity map pointing at a nonexistent thread, a runaway
integration blowing bodies out of the box -- into a structured
:class:`~repro.resilience.faults.SimulationFault` raised at the phase
boundary where it first became observable.  Guards are off by default
(``BHConfig.guards``); when enabled they run after every phase, so the
policy engine can re-execute an idempotent phase whose *output* was
damaged while its inputs are still sound.

Thresholds (window size, drift factor, escape factor) come from
:class:`~repro.core.config.BHConfig`; see ``docs/resilience.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..core.phases import (
    ADVANCE,
    COFM,
    FORCE,
    PARTITION,
    REDISTRIBUTION,
    TREEBUILD,
)
from .faults import (
    CAUSE_BAD_AFFINITY,
    CAUSE_ENERGY_DRIFT,
    CAUSE_ESCAPE,
    CAUSE_NON_FINITE,
    SimulationFault,
)


def _finite(arr: np.ndarray) -> bool:
    # np.isfinite(...).all() over the flat array; one vectorized pass
    return bool(np.isfinite(arr).all())


class HealthGuards:
    """Stateful per-run validator set (one instance per simulation).

    The escape baseline (initial root-box center and size) and the
    kinetic-energy window are captured as the run progresses, so a
    restored simulation re-seeds them from its first post-restore steps
    rather than carrying float history in the checkpoint -- the window
    only *detects* faults, it never feeds back into the trajectory, so
    re-seeding cannot break bit-identical continuation.
    """

    def __init__(self, energy_window: int = 16,
                 energy_factor: float = 16.0,
                 escape_factor: float = 64.0):
        if energy_window < 2:
            raise ValueError("energy_window must be >= 2")
        if energy_factor <= 1.0:
            raise ValueError("energy_factor must be > 1")
        if escape_factor <= 1.0:
            raise ValueError("escape_factor must be > 1")
        self.energy_factor = float(energy_factor)
        self.escape_factor = float(escape_factor)
        self._ke_window: "deque[float]" = deque(maxlen=int(energy_window))
        self._box_center: Optional[np.ndarray] = None
        self._box_rsize: float = 0.0

    # ------------------------------------------------------------------ #
    # individual checks                                                  #
    # ------------------------------------------------------------------ #
    def check_finite(self, arr: np.ndarray, what: str, phase: str,
                     step: int) -> None:
        if not _finite(arr):
            bad = int((~np.isfinite(arr)).sum())
            raise SimulationFault(
                CAUSE_NON_FINITE, phase=phase, step=step,
                detail=f"{bad} non-finite value(s) in {what}")

    def check_affinity(self, arr: np.ndarray, what: str, nthreads: int,
                       phase: str, step: int) -> None:
        if len(arr) and (int(arr.min()) < 0
                         or int(arr.max()) >= nthreads):
            raise SimulationFault(
                CAUSE_BAD_AFFINITY, phase=phase, step=step,
                detail=f"{what} outside [0, {nthreads})"
                       f" (min={int(arr.min())}, max={int(arr.max())})")

    def check_escape(self, pos: np.ndarray, phase: str, step: int) -> None:
        if self._box_center is None:
            return
        limit = self.escape_factor * self._box_rsize
        extent = float(np.abs(pos - self._box_center).max())
        if extent > limit:
            raise SimulationFault(
                CAUSE_ESCAPE, phase=phase, step=step,
                detail=f"body at {extent:.3g} from the initial box center "
                       f"(limit {limit:.3g} = {self.escape_factor:g} x "
                       f"rsize {self._box_rsize:g})")

    def check_energy(self, vel: np.ndarray, mass: np.ndarray, phase: str,
                     step: int) -> None:
        v_sq = np.einsum("ij,ij->i", vel, vel)
        ke = 0.5 * float((mass * v_sq).sum())
        window = self._ke_window
        if len(window) == window.maxlen:
            baseline = float(np.median(np.fromiter(window, dtype=float)))
            if baseline > 0 and ke > self.energy_factor * baseline:
                raise SimulationFault(
                    CAUSE_ENERGY_DRIFT, phase=phase, step=step,
                    detail=f"kinetic energy {ke:.6g} exceeds "
                           f"{self.energy_factor:g} x windowed median "
                           f"{baseline:.6g}")
        window.append(ke)

    # ------------------------------------------------------------------ #
    # phase dispatch                                                     #
    # ------------------------------------------------------------------ #
    def observe_box(self, box) -> None:
        """Capture the escape baseline from the first step's root box."""
        if self._box_center is None and box is not None:
            self._box_center = np.asarray(box.center,
                                          dtype=np.float64).copy()
            self._box_rsize = float(box.rsize)

    def check_phase(self, phase: str, step: int, variant) -> None:
        """Validate the phase's primary output; raise on violation."""
        bodies = variant.bodies
        if phase == FORCE:
            self.check_finite(bodies.acc, "accelerations", phase, step)
        elif phase == ADVANCE:
            self.check_finite(bodies.pos, "positions", phase, step)
            self.check_finite(bodies.vel, "velocities", phase, step)
            self.observe_box(getattr(variant, "box", None))
            self.check_escape(bodies.pos, phase, step)
            self.check_energy(bodies.vel, bodies.mass, phase, step)
        elif phase == PARTITION:
            self.check_affinity(bodies.assign, "assign", variant.P,
                                phase, step)
        elif phase == REDISTRIBUTION:
            self.check_affinity(bodies.store, "store", variant.P,
                                phase, step)
            self.check_affinity(bodies.assign, "assign", variant.P,
                                phase, step)
        elif phase in (TREEBUILD, COFM):
            # row 0 of the tree's record: its geometry, and its c-of-m
            # once a pass has filled it
            rows = getattr(variant, "rows", None)
            if rows is not None:
                agg = [rows.center[0], rows.size[:1]]
                if rows.mass is not None:
                    agg += [rows.mass[:1], rows.cofm[0]]
                self.check_finite(np.concatenate(agg), "root cell aggregates",
                                  phase, step)
