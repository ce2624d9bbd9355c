"""The retry policy engine behind resilient stepping.

:class:`ResilienceManager` is the single coordination point the step loop
talks to.  :meth:`run_phase` wraps each phase body with, in order: the
fault injector's *before* boundary, the body itself, the injector's
*after* (corruption) boundary, and the numerical-health guards -- then
classifies anything raised into a structured
:class:`~repro.resilience.faults.SimulationFault` and decides whether the
phase may be replayed.

Replay is only sound for **value-idempotent** phases
(:data:`~repro.core.phases.IDEMPOTENT_PHASES`): tree build, c-of-m,
partitioning and force recompute their outputs purely from inputs that
survive the phase, so re-executing them after output damage reproduces
the uninjected values exactly.  ``advance`` and ``redistribution`` mutate
their own inputs in place and are never replayed -- a fault there (after
the body started) surfaces immediately.  A fault raised at the *before*
boundary is retryable for any phase, since the body never ran.  Retries
are bounded by ``BHConfig.max_phase_retries``; exhaustion re-raises the
structured fault.

Every mediation (retry, checkpoint, detected fault) increments
a named counter -- folded into run metrics as ``resilience_*_total`` --
and, when tracing is on, drops a zero-duration ``resilience``-category
marker into the span stream.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..core.phases import FORCE, IDEMPOTENT_PHASES, TREEBUILD
from ..obs.trace import get_tracer
from .checkpoint import CheckpointManager
from .faults import (
    CAUSE_BUILD,
    CAUSE_INJECTED,
    CAUSE_PHASE_ERROR,
    CAUSE_TRAVERSAL,
    InjectedFault,
    SimulationFault,
    SimulationKilled,
)
from .guards import HealthGuards
from .inject import FaultInjector


class ResilienceManager:
    """Owns the guards, injector, and checkpoint writer of one run."""

    def __init__(self, cfg, tracer=None, kill_at_step: Optional[int] = None):
        self.cfg = cfg
        self.tracer = tracer if tracer is not None else get_tracer()
        self.guards: Optional[HealthGuards] = None
        if getattr(cfg, "guards", False):
            self.guards = HealthGuards(
                energy_window=cfg.guard_energy_window,
                energy_factor=cfg.guard_energy_factor,
                escape_factor=cfg.guard_escape_factor)
        self.injector: Optional[FaultInjector] = None
        if getattr(cfg, "inject", ()):
            self.injector = FaultInjector.from_specs(cfg.inject,
                                                     seed=cfg.seed)
        self.checkpoints: Optional[CheckpointManager] = None
        if getattr(cfg, "checkpoint_every", 0) > 0:
            self.checkpoints = CheckpointManager(cfg.checkpoint_dir,
                                                 cfg.checkpoint_every)
        self.max_phase_retries = int(getattr(cfg, "max_phase_retries", 2))
        self.kill_at_step = kill_at_step
        #: (counter name, label) -> total; see :meth:`summary`
        self.counts: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------ #
    # counters                                                           #
    # ------------------------------------------------------------------ #
    def bump(self, name: str, label: str = "", n: float = 1.0) -> None:
        key = (name, label)
        self.counts[key] = self.counts.get(key, 0.0) + n
        if self.tracer.enabled:
            self.tracer.instant(name, "resilience", key=label)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{counter_name: {label: total}}`` for run-metrics folding."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, label), val in sorted(self.counts.items()):
            out.setdefault(name, {})[label] = val
        return out

    # ------------------------------------------------------------------ #
    # the per-phase mediation loop                                       #
    # ------------------------------------------------------------------ #
    def run_phase(self, variant, phase: str, method: Callable[[], None],
                  step: int) -> None:
        """Execute one phase under injection, guards, and bounded retry.

        Runs inside a single ``rt.phase`` context, so the StatsLog keeps
        exactly one record per (step, phase) and retry attempts are
        charged to the phase they repair.
        """
        inj = self.injector
        attempts = 0
        with variant.rt.phase(phase):
            while True:
                body_ran = False
                try:
                    if inj is not None:
                        # one-shot per (spec, phase, step): the fired-set
                        # keeps retry attempts injection-free
                        inj.before_phase(phase, step)
                    body_ran = True
                    method()
                    if inj is not None:
                        if inj.after_phase(phase, step, variant):
                            self.bump("injected_corruptions", phase)
                    if self.guards is not None:
                        self.guards.check_phase(phase, step, variant)
                    return
                except SimulationKilled:
                    raise
                except Exception as exc:
                    fault = self._classify(exc, phase, step)
                    self.bump("faults", fault.cause)
                    retryable = (not body_ran) \
                        or phase in IDEMPOTENT_PHASES
                    if retryable and attempts < self.max_phase_retries:
                        attempts += 1
                        self.bump("phase_retries", phase)
                        continue
                    self.bump("unrecovered_faults", fault.cause)
                    if fault is exc:
                        raise
                    raise fault from exc

    def _classify(self, exc: BaseException, phase: str,
                  step: int) -> SimulationFault:
        """Turn an arbitrary phase exception into a structured fault."""
        if isinstance(exc, SimulationFault):
            if exc.phase is None:
                # raised below the phase loop (e.g. inside a backend)
                # without location context; re-wrap with it
                return SimulationFault(exc.cause, phase=phase, step=step,
                                       detail=exc.detail,
                                       original=exc.original or exc)
            return exc
        if isinstance(exc, InjectedFault):
            return SimulationFault(CAUSE_INJECTED, phase=phase, step=step,
                                   detail=str(exc), original=exc)
        if phase == TREEBUILD:
            cause = CAUSE_BUILD
        elif phase == FORCE:
            cause = CAUSE_TRAVERSAL
        else:
            cause = CAUSE_PHASE_ERROR
        return SimulationFault(cause, phase=phase, step=step,
                               detail=f"{type(exc).__name__}: {exc}",
                               original=exc)

    # ------------------------------------------------------------------ #
    # step boundary                                                      #
    # ------------------------------------------------------------------ #
    def after_step(self, sim, step: int) -> None:
        """Checkpoint when due, then honor a pending kill request.

        Checkpoint-before-kill ordering is what makes the kill-and-resume
        harness meaningful: the restored run resumes from the newest
        interval boundary at or before the kill point.
        """
        if self.checkpoints is not None and self.checkpoints.due(step):
            path = self.checkpoints.save(sim, step)
            self.bump("checkpoints")
            if self.tracer.enabled:
                self.tracer.instant("checkpoint_written", "resilience",
                                    step=step, path=str(path))
        if self.kill_at_step is not None and step == self.kill_at_step:
            self.bump("kills")
            raise SimulationKilled(step)
