"""repro -- reproduction of "Optimizing the Barnes-Hut Algorithm in UPC"
(Zhang, Behzad, Snir; 2011).

Layers (``docs/`` has a page per cross-cutting subsystem):

* :mod:`repro.upc`    -- simulated PGAS/UPC runtime (virtual clocks, cost model)
* :mod:`repro.nbody`  -- physics substrate (Plummer, kernels, integrator)
* :mod:`repro.octree` -- tree substrate (build, c-of-m, traversal, costzones)
* :mod:`repro.core`   -- the paper's optimization ladder (L0 baseline .. L6 subspace)
* :mod:`repro.obs`    -- telemetry (span tracing, metrics registry, exporters)
* :mod:`repro.resilience` -- checkpoint/restore, health guards, fault injection
* :mod:`repro.experiments` -- runners for every table and figure in the paper

Quickstart::

    from repro import BHConfig, run_variant
    res = run_variant("subspace", BHConfig(nbodies=4096), nthreads=16)
    print(res.total_time, res.phase_times.as_rows())
"""

from .backends import BACKENDS, ForceBackend, get_backend, make_backend
from .core import (
    BHConfig,
    BarnesHutSimulation,
    OPT_LADDER,
    PhaseTimes,
    RunResult,
    VARIANTS,
    get_variant,
    run_variant,
)
from .obs import MetricsRegistry, Tracer, telemetry_session, use_tracer
from .resilience import (
    SimulationFault,
    SimulationKilled,
    load_checkpoint,
    restore_simulation,
)
from .upc import MachineConfig, UpcRuntime

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "BHConfig",
    "BarnesHutSimulation",
    "ForceBackend",
    "MachineConfig",
    "MetricsRegistry",
    "OPT_LADDER",
    "PhaseTimes",
    "RunResult",
    "SimulationFault",
    "SimulationKilled",
    "Tracer",
    "UpcRuntime",
    "VARIANTS",
    "get_backend",
    "get_variant",
    "load_checkpoint",
    "make_backend",
    "restore_simulation",
    "run_variant",
    "telemetry_session",
    "use_tracer",
    "__version__",
]
