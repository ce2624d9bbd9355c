"""The force-backend contract.

A *backend* is a standalone engine that turns the current tree (or the
raw bodies) into accelerations for a set of body indices.  Backends know
nothing of the UPC cost model, and no variant calls them: every variant's
force phase is the UPC-metered slot walk of
:mod:`repro.backends.object_tree`.  The engines serve as test oracles
(``direct`` for accuracy, ``flat``/``flat-c`` for interaction counts that
share no traversal code with the slot walk) and as fast force evaluators
outside the simulated machine.  Each reports aggregate traversal counters
through :class:`ForceResult`.

Lifecycle per time-step::

    backend.begin_step(root, bodies)      # once, after c-of-m
    for each thread t:
        res = backend.accelerations(idx_t, bodies)

``begin_step`` is where a backend does per-step preparation -- the flat
backend flattens the freshly built octree, the direct backend evaluates the
full O(n^2) sum once and serves slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional

import numpy as np

from ..nbody.bodies import BodySoA
from ..obs.trace import get_tracer
from ..octree.cell import Cell


@dataclass
class ForceResult:
    """Accelerations for one group of bodies, plus aggregate counters."""

    acc: np.ndarray    # (k, 3) float64
    work: np.ndarray   # (k,) float64 -- interactions per body (the paper's
    #                    per-body cost feedback for costzones partitioning)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def interactions(self) -> float:
        return float(self.work.sum())


class ForceBackend:
    """Base class for force engines (see module docstring for the contract).

    ``cfg`` is any object carrying ``theta``, ``eps`` and
    ``open_self_cells`` -- in practice a :class:`repro.core.config.BHConfig`.
    """

    #: registry name; subclasses override
    name: ClassVar[str] = "?"
    #: False for engines that ignore the octree entirely (direct summation)
    needs_tree: ClassVar[bool] = True

    def __init__(self, cfg: Any, tracer=None):
        self.cfg = cfg
        #: span sink for per-call telemetry; the ambient (no-op unless a
        #: telemetry session is active) tracer when not given.  Callers may
        #: reassign after construction (BarnesHutSimulation does).
        self.tracer = tracer if tracer is not None else get_tracer()

    @property
    def served_by(self) -> str:
        """The engine that actually computes this backend's forces."""
        return self.name

    def begin_step(self, root: Optional[Cell], bodies: BodySoA) -> None:
        """Per-step preparation; called once after the tree is finished."""

    def accelerations(self, body_idx: np.ndarray,
                      bodies: BodySoA) -> ForceResult:
        """Forces for ``body_idx``; requires a prior :meth:`begin_step`."""
        raise NotImplementedError
