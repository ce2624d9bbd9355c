"""Deterministic fault injection at every phase boundary.

Recovery code that only runs when the universe misbehaves is aspirational
code.  This harness arms *seeded, reproducible* faults at phase
boundaries so the fallback ladder and the guards are exercised in CI on
every change, with bit-identical fault placement across runs.

Spec grammar (``BHConfig.inject`` / ``--inject``, repeatable)::

    PHASE[:STEP[:KIND]]

* ``PHASE`` -- a phase name (``treebuild``, ``cofm``, ``partition``,
  ``redistribution``, ``force``, ``advance``) or ``*`` for any phase.
* ``STEP``  -- 0-based step index, or ``*`` for every step (default 0).
* ``KIND``  -- one of:

  - ``raise``   (default): raise :class:`InjectedFault` at the phase's
    *before* boundary -- the phase body never runs, so a retry replays
    it from pristine inputs (transient-error model);
  - ``corrupt``: after the phase body runs, damage its primary output
    (NaN into ``acc``/``pos``, out-of-range affinity, poisoned root
    aggregates, scrambled Morton splice state) at a seeded index --
    only the numerical-health guards can see this one;
  - ``delay``: sleep a few milliseconds at the before boundary (models
    a stall; must be absorbed with zero trajectory effect);
  - ``backend``: arm a one-shot exception inside the *primary force
    backend's* ``accelerations`` call, so the graceful-degradation
    wrapper (:mod:`repro.resilience.degrade`) must catch it and serve
    the step from the fallback engine.

Each spec fires **once per matching (phase, step) boundary** and never on
retry attempts, so a recovered run re-executes the phase body against the
same inputs an uninjected run saw.  Target indices for ``corrupt`` come
from a ``numpy`` Generator seeded from the config seed; its state is part
of the checkpoint payload, keeping kill-and-resume runs deterministic
even mid-injection-campaign.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.phases import (
    ADVANCE,
    ALL_PHASES,
    COFM,
    FORCE,
    PARTITION,
    REDISTRIBUTION,
    TREEBUILD,
)
from .faults import InjectedFault

KIND_RAISE = "raise"
KIND_CORRUPT = "corrupt"
KIND_DELAY = "delay"
KIND_BACKEND = "backend"
ALL_KINDS = (KIND_RAISE, KIND_CORRUPT, KIND_DELAY, KIND_BACKEND)

#: stall length of a ``delay`` injection (wall clock; trajectory-neutral)
DELAY_SECONDS = 0.002


@dataclass(frozen=True)
class FaultSpec:
    """One parsed injection directive."""

    phase: str            #: phase name or "*"
    step: Optional[int]   #: step index; None = every step
    kind: str

    def matches(self, phase: str, step: int) -> bool:
        if self.phase != "*" and self.phase != phase:
            return False
        return self.step is None or self.step == step

    def __str__(self) -> str:
        step = "*" if self.step is None else str(self.step)
        return f"{self.phase}:{step}:{self.kind}"


def parse_spec(text: str) -> FaultSpec:
    """Parse ``PHASE[:STEP[:KIND]]``; raises ``ValueError`` on nonsense."""
    parts = text.strip().split(":")
    if not 1 <= len(parts) <= 3 or not parts[0]:
        raise ValueError(
            f"bad fault spec {text!r}; expected PHASE[:STEP[:KIND]]")
    phase = parts[0]
    if phase != "*" and phase not in ALL_PHASES:
        raise ValueError(
            f"bad fault spec {text!r}: unknown phase {phase!r} "
            f"(choose from {ALL_PHASES} or '*')")
    step: Optional[int] = 0
    if len(parts) >= 2:
        if parts[1] == "*":
            step = None
        else:
            try:
                step = int(parts[1])
            except ValueError:
                raise ValueError(
                    f"bad fault spec {text!r}: step must be an integer "
                    f"or '*'") from None
            if step < 0:
                raise ValueError(
                    f"bad fault spec {text!r}: step must be >= 0")
    kind = parts[2] if len(parts) == 3 else KIND_RAISE
    if kind not in ALL_KINDS:
        raise ValueError(
            f"bad fault spec {text!r}: unknown kind {kind!r} "
            f"(choose from {list(ALL_KINDS)})")
    return FaultSpec(phase=phase, step=step, kind=kind)


class FaultInjector:
    """Fires parsed :class:`FaultSpec` directives at phase boundaries.

    The manager calls :meth:`before_phase` / :meth:`after_phase` around
    each phase body (first attempt only) and the degradation wrapper
    polls :meth:`take_backend_fault` inside the primary backend call.
    ``fired`` records every delivered injection as ``(spec, phase,
    step)`` strings -- checkpointed so a restored run neither re-fires
    nor forgets a fault.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.fired: Set[str] = set()
        self._backend_armed: bool = False
        self._armed_point: str = ""

    @classmethod
    def from_specs(cls, texts: Sequence[str],
                   seed: int = 0) -> "FaultInjector":
        return cls([parse_spec(t) for t in texts], seed=seed)

    # -- checkpoint support --------------------------------------------- #
    def state(self) -> dict:
        """JSON-able snapshot (fired set + RNG state)."""
        return {
            "specs": [str(s) for s in self.specs],
            "seed": self.seed,
            "fired": sorted(self.fired),
            "rng_state": _jsonable(self.rng.bit_generator.state),
        }

    def restore_state(self, state: dict) -> None:
        self.fired = set(state.get("fired", ()))
        rng_state = state.get("rng_state")
        if rng_state is not None:
            self.rng.bit_generator.state = rng_state

    # -- firing --------------------------------------------------------- #
    def _take(self, phase: str, step: int,
              kinds: Tuple[str, ...]) -> List[FaultSpec]:
        """Matching, not-yet-fired specs of the given kinds; marks fired."""
        hits = []
        for spec in self.specs:
            if spec.kind not in kinds or not spec.matches(phase, step):
                continue
            key = f"{spec}@{phase}:{step}"
            if key in self.fired:
                continue
            self.fired.add(key)
            hits.append(spec)
        return hits

    def before_phase(self, phase: str, step: int) -> None:
        """Fire ``delay``/``backend``/``raise`` points, in that order."""
        for _ in self._take(phase, step, (KIND_DELAY,)):
            time.sleep(DELAY_SECONDS)
        if self._take(phase, step, (KIND_BACKEND,)):
            self._backend_armed = True
            self._armed_point = f"{phase}:{step}"
        for spec in self._take(phase, step, (KIND_RAISE,)):
            raise InjectedFault(f"{phase}.before [{spec}]", step)

    def after_phase(self, phase: str, step: int, variant) -> bool:
        """Fire ``corrupt`` points against the phase's output; True if any
        damage was done (the guards are expected to notice)."""
        corrupted = False
        for _ in self._take(phase, step, (KIND_CORRUPT,)):
            self._corrupt(phase, variant)
            corrupted = True
        return corrupted

    def take_backend_fault(self) -> bool:
        """Consume an armed backend fault (polled by the degradation
        wrapper inside the primary engine's call)."""
        if self._backend_armed:
            self._backend_armed = False
            return True
        return False

    @property
    def backend_fault_point(self) -> str:
        return self._armed_point

    # -- corruption models ---------------------------------------------- #
    def _corrupt(self, phase: str, variant) -> None:
        """Damage the phase's primary output at a seeded location."""
        bodies = variant.bodies
        n = len(bodies)
        i = int(self.rng.integers(0, max(n, 1)))
        if phase == FORCE:
            bodies.acc[i] = np.nan
        elif phase == ADVANCE:
            bodies.pos[i] = np.nan
        elif phase == PARTITION:
            bodies.assign[i] = -1
        elif phase == REDISTRIBUTION:
            bodies.store[i] = variant.P + 7
        elif phase == COFM:
            root = getattr(variant, "root", None)
            if root is None:
                bodies.acc[i] = np.nan
            else:
                root.cofm = np.asarray(root.cofm, dtype=np.float64).copy()
                root.cofm[int(self.rng.integers(0, 3))] = np.nan
        elif phase == TREEBUILD:
            root = getattr(variant, "root", None)
            if root is not None:
                root.center = np.asarray(root.center,
                                         dtype=np.float64).copy()
                root.center[int(self.rng.integers(0, 3))] = np.nan


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays in an RNG state dict."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj
