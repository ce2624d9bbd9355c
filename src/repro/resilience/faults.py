"""Structured fault taxonomy for resilient stepping.

Every failure the resilience layer detects or mediates is surfaced as a
:class:`SimulationFault` carrying *where* (phase, step) and *why* (a
``cause`` slug from the ``CAUSE_*`` constants below), instead of a bare
``ValueError`` deep inside a numpy kernel or -- worse -- silent NaN
propagation through ten more steps.  The policy engine
(:mod:`repro.resilience.policy`) catches these to drive bounded retries;
anything it cannot recover is re-raised so the caller sees one
well-formed error at the faulting phase boundary.
"""

from __future__ import annotations

from typing import Optional

#: NaN/Inf detected in a physics array (positions, velocities, accels)
CAUSE_NON_FINITE = "non-finite"
#: kinetic energy ran away versus the windowed baseline
CAUSE_ENERGY_DRIFT = "energy-drift"
#: bodies left the initial root box beyond the configured tolerance
CAUSE_ESCAPE = "escape"
#: an affinity map (``assign``/``store``) points outside [0, THREADS)
CAUSE_BAD_AFFINITY = "bad-affinity"
#: tree construction failed
CAUSE_BUILD = "build"
#: the force traversal failed
CAUSE_TRAVERSAL = "traversal"
#: a deterministic injected fault (see :mod:`repro.resilience.inject`)
CAUSE_INJECTED = "injected"
#: any other exception escaping a phase body
CAUSE_PHASE_ERROR = "phase-error"

ALL_CAUSES = (
    CAUSE_NON_FINITE,
    CAUSE_ENERGY_DRIFT,
    CAUSE_ESCAPE,
    CAUSE_BAD_AFFINITY,
    CAUSE_BUILD,
    CAUSE_TRAVERSAL,
    CAUSE_INJECTED,
    CAUSE_PHASE_ERROR,
)


class SimulationFault(RuntimeError):
    """A classified failure at a phase boundary of the step loop.

    Attributes
    ----------
    cause:
        one of the ``CAUSE_*`` slugs (stable strings; telemetry labels).
    phase:
        the phase that was executing (``None`` for step-level faults).
    step:
        the 0-based time-step index.
    detail:
        human-readable specifics (which array, which threshold, ...).
    original:
        the underlying exception when the fault wraps one.
    """

    def __init__(self, cause: str, phase: Optional[str] = None,
                 step: Optional[int] = None, detail: str = "",
                 original: Optional[BaseException] = None):
        self.cause = cause
        self.phase = phase
        self.step = step
        self.detail = detail
        self.original = original
        where = f"phase={phase!r} step={step}"
        msg = f"[{cause}] {where}: {detail}" if detail \
            else f"[{cause}] {where}"
        if original is not None:
            msg += f" (from {type(original).__name__}: {original})"
        super().__init__(msg)


class InjectedFault(RuntimeError):
    """Raised by the fault-injection harness at an armed fault point.

    Deliberately *not* a :class:`SimulationFault`: it models an arbitrary
    transient error (a flaky allocation, a cosmic ray) that the policy
    engine must classify and recover from like any other exception.
    """

    def __init__(self, point: str, step: int):
        self.point = point
        self.step = step
        super().__init__(f"injected fault at {point!r} (step {step})")


class SimulationKilled(RuntimeError):
    """Deliberate mid-run abort (the kill-and-resume harness).

    Raised by the resilience manager after the configured step completes
    (and after any due checkpoint is written), simulating a hard crash at
    a recoverable point.  Never caught by the retry machinery.
    """

    def __init__(self, step: int):
        self.step = step
        super().__init__(
            f"simulation killed after step {step} (kill-and-resume "
            f"harness); restore from the latest checkpoint to continue")
