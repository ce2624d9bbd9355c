"""Simulation configuration for the Barnes-Hut application."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..backends.registry import BACKENDS, DEFAULT_BACKEND
from ..nbody.constants import (
    DEFAULT_DT,
    DEFAULT_EPS,
    DEFAULT_NSTEPS,
    DEFAULT_THETA,
    DEFAULT_WARMUP_STEPS,
)


@dataclass(frozen=True)
class BHConfig:
    """Everything one run of the application depends on.

    Defaults follow the paper's section 4.1: SPLASH-2 parameters
    (theta = 1.0, dt = 0.025, Plummer initial conditions), 4 time-steps with
    the last 2 measured.  The body count is scaled down from the paper's
    2M (see DESIGN.md section 2).
    """

    nbodies: int = 4096
    theta: float = DEFAULT_THETA
    eps: float = DEFAULT_EPS
    dt: float = DEFAULT_DT
    nsteps: int = DEFAULT_NSTEPS
    warmup_steps: int = DEFAULT_WARMUP_STEPS
    seed: int = 123
    #: any name in :data:`repro.nbody.distributions.DISTRIBUTIONS`
    distribution: str = "plummer"
    #: force engine (:data:`repro.backends.BACKENDS`): "object-tree" keeps
    #: the slot walk whose open counts the cost model meters; "flat" runs
    #: the vectorized SoA engine; "flat-c" the compiled per-body walk of
    #: :mod:`repro.kernels` (served by "flat" when no C toolchain
    #: exists); "direct" the O(n^2) reference
    force_backend: str = DEFAULT_BACKEND
    #: body-chunking width of the ``flat-c`` kernel: chunks are
    #: dispatched to a Python thread pool with the GIL released;
    #: 0 = one chunk per CPU.  Outputs are per-body independent, so any
    #: value produces bit-identical results
    kernel_threads: int = 0
    #: how the flat backend obtains its per-step :class:`FlatTree`:
    #: "morton" (default) builds CSR arrays directly from sorted octant
    #: keys (no Cell objects; see :mod:`repro.octree.morton_build`);
    #: "insertion" flattens the variant's object tree via ``from_cell``
    flat_build: str = "morton"

    # -- section 5.5 framework parameters (paper: n1 = n2 = n3 = 4) -------
    n1: int = 4  #: working body groups processed concurrently
    n2: int = 4  #: maximum outstanding asynchronous gathers
    n3: int = 4  #: minimum requested cells before a gather is issued

    # -- section 6 subspace algorithm --------------------------------------
    alpha: float = 2.0 / 3.0  #: split threshold factor (tau = alpha*Cost/P)
    vector_reduction: bool = True  #: one vector reduction per level

    # -- section 5.2 redistribution ----------------------------------------
    buffer_factor: float = 2.0  #: double-buffer capacity / (n/THREADS)

    # -- numerics ------------------------------------------------------------
    open_self_cells: bool = False  #: stricter-than-SPLASH-2 opening rule
    initial_rsize: float = 4.0

    # -- resilience (see repro.resilience / docs/resilience.md) ------------
    #: write a checkpoint every N completed steps (0 = off)
    checkpoint_every: int = 0
    #: directory for ``ckpt_step*.npz`` files (required when checkpointing)
    checkpoint_dir: Optional[str] = None
    #: run the numerical-health guards after every phase (off by default:
    #: they are O(n) vectorized scans, kept off the hot path)
    guards: bool = False
    #: kinetic-energy drift window (steps) and trip factor
    guard_energy_window: int = 16
    guard_energy_factor: float = 16.0
    #: escape trip distance, in multiples of the initial root-box rsize
    guard_escape_factor: float = 64.0
    #: bounded replays of a value-idempotent phase per fault
    max_phase_retries: int = 2
    #: degraded steps served before the backend ladder pins the fallback
    max_backend_fallbacks: int = 3
    #: deterministic fault-injection specs, ``PHASE[:STEP[:KIND]]`` each
    #: (see :func:`repro.resilience.inject.parse_spec`)
    inject: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.nbodies < 1:
            raise ValueError("nbodies must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.initial_rsize <= 0:
            raise ValueError("initial_rsize must be positive")
        if self.nsteps < 1:
            raise ValueError("nsteps must be positive")
        if not (0 <= self.warmup_steps < self.nsteps):
            raise ValueError("need 0 <= warmup_steps < nsteps")
        if min(self.n1, self.n2, self.n3) < 1:
            raise ValueError("n1, n2, n3 must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.buffer_factor < 1.0:
            raise ValueError("buffer_factor must be >= 1")
        from ..nbody.distributions import distribution_names

        if self.distribution not in distribution_names():
            raise ValueError(
                f"unknown distribution {self.distribution!r}; "
                f"choose from {list(distribution_names())}"
            )
        if self.force_backend not in BACKENDS:
            raise ValueError(
                f"unknown force backend {self.force_backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )
        if self.flat_build not in ("morton", "insertion"):
            raise ValueError(
                f"unknown flat build path {self.flat_build!r}; "
                "choose from ['insertion', 'morton']"
            )
        if self.kernel_threads < 0:
            raise ValueError("kernel_threads must be >= 0 (0 = auto)")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_every > 0 requires checkpoint_dir")
        if self.guard_energy_window < 2:
            raise ValueError("guard_energy_window must be >= 2")
        if self.guard_energy_factor <= 1.0:
            raise ValueError("guard_energy_factor must be > 1")
        if self.guard_escape_factor <= 1.0:
            raise ValueError("guard_escape_factor must be > 1")
        if self.max_phase_retries < 0:
            raise ValueError("max_phase_retries must be >= 0")
        if self.max_backend_fallbacks < 1:
            raise ValueError("max_backend_fallbacks must be >= 1")
        if self.inject:
            # registry-style validation, same pattern as distributions:
            # reject malformed specs at construction, not mid-run (lazy
            # import keeps config importable without the subsystem)
            from ..resilience.inject import parse_spec

            for text in self.inject:
                parse_spec(text)

    @property
    def resilience_enabled(self) -> bool:
        """Whether any resilience feature asks for step-loop mediation."""
        return bool(self.guards or self.inject or self.checkpoint_every > 0)

    @property
    def measured_steps(self) -> int:
        return self.nsteps - self.warmup_steps

    def with_(self, **kw) -> "BHConfig":
        return replace(self, **kw)
