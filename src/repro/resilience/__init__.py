"""Resilient stepping: checkpoint/restore, health guards, phase retries.

The subsystem has four cooperating parts (see ``docs/resilience.md``):

* :mod:`~repro.resilience.checkpoint` -- versioned, atomic snapshots of
  everything the trajectory depends on; restore is bit-identical.
* :mod:`~repro.resilience.guards` -- per-phase numerical-health
  validators raising a structured :class:`SimulationFault`.
* :mod:`~repro.resilience.policy` -- bounded phase retries.
* :mod:`~repro.resilience.inject` -- deterministic seeded fault points
  at every phase boundary, so all of the above is exercised in CI.

Everything is opt-in through :class:`~repro.core.config.BHConfig`
(``guards``, ``inject``, ``checkpoint_every`` ...); with the defaults the
step loop takes its original no-mediation path and pays nothing.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointManager,
    latest_checkpoint,
    load_checkpoint,
    restore_simulation,
    save_checkpoint,
    snapshot_simulation,
)
from .faults import (
    ALL_CAUSES,
    InjectedFault,
    SimulationFault,
    SimulationKilled,
)
from .guards import HealthGuards
from .inject import ALL_KINDS, FaultInjector, FaultSpec, parse_spec
from .policy import ResilienceManager

__all__ = [
    "ALL_CAUSES",
    "ALL_KINDS",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointManager",
    "FaultInjector",
    "FaultSpec",
    "HealthGuards",
    "InjectedFault",
    "ResilienceManager",
    "SimulationFault",
    "SimulationKilled",
    "latest_checkpoint",
    "load_checkpoint",
    "parse_spec",
    "restore_simulation",
    "save_checkpoint",
    "snapshot_simulation",
]
