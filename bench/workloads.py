"""The four benchmark workloads and one timed pass over a workload.

A *pass* runs the workload's variant once per thread count ``P``, in
order, each as one ``run_variant`` call on a copy of the same generated
bodies.  Its *outputs* are what the simulator produces for the user: the
exact interaction count and the simulated seconds of every phase, per
``P``.  They are plain floats, so two passes can be compared exactly and
written to JSON without loss (``repr`` round-trips a float).

This module imports nothing from ``repro`` at import time: the set-up
probe in ``worker.py`` times that import itself.
"""

from __future__ import annotations

import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

#: phases of a simulated step, in the paper's table order
PHASES = ("treebuild", "cofm", "partition", "redistribution", "force",
          "advance")

#: RunResult counters carried with each P's outputs
COUNTERS = ("remote_words", "lock_acquire", "cache_hits", "cache_misses")

#: every workload discards its first step, like the paper's tables
WARMUP_STEPS = 1

#: the paper's strong-scaling ladder for Table 2 at bench scale
TABLE2_THREADS = (1, 2, 4, 8, 16, 32, 64, 96, 112)


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    nbodies: int
    distribution: str
    threads: Tuple[int, ...]
    nsteps: int
    backend: str

    def smoke(self) -> "Workload":
        """The same variant, backend and distribution at test size."""
        return replace(self, nbodies=256, threads=(1, 4), nsteps=2)

    @property
    def object_tree(self) -> bool:
        """Whether the paper's accounting path serves the force phase
        (its simulated seconds are then pinned to 1e-12)."""
        return self.backend == "object-tree"


# why each workload exists: BENCHMARK.json and README.md, "Workloads"
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("table2-object", "baseline", 4096, "plummer", TABLE2_THREADS,
             3, "object-tree"),
    Workload("table2-flatc", "baseline", 4096, "plummer", TABLE2_THREADS,
             3, "flat-c"),
    Workload("subspace-object", "subspace", 4096, "plummer", (16, 64), 3,
             "object-tree"),
    Workload("subspace-disk-16k", "subspace", 16384, "disk", (4, 16), 10,
             "flat-c"),
)}


def config(w: Workload, seed: int, backend: str = ""):
    from repro import BHConfig

    return BHConfig(nbodies=w.nbodies, nsteps=w.nsteps,
                    warmup_steps=WARMUP_STEPS, seed=seed,
                    distribution=w.distribution,
                    force_backend=backend or w.backend)


def make_bodies(w: Workload, seed: int):
    from repro.nbody.distributions import make_distribution

    return make_distribution(w.distribution, w.nbodies, seed=seed)


def step0_interactions(result) -> float:
    """Interactions of the first step's force phase (every thread)."""
    return sum(rec.counters.total("interactions") for rec in result.log
               if rec.name == "force" and rec.step == 0)


def outputs_of(result) -> dict:
    """The simulated outputs a user reads from one ``RunResult``."""
    return {
        "interactions": result.counter("interactions"),
        "step0_interactions": step0_interactions(result),
        "sim_s": {p: result.phase_times[p] for p in PHASES},
        "counters": {k: result.counter(k) for k in COUNTERS},
    }


def run_pass(w: Workload, seed: int, bodies=None, backend: str = "",
             on_run=None) -> Tuple[float, Dict[str, dict]]:
    """One pass over ``w.threads``; returns (wall seconds, outputs by P).

    The wall time covers the ``run_variant`` calls only (simulation
    construction included), not body generation.  ``on_run(P)``, when
    given, is a context-manager factory entered around each call with the
    label ``"P=<P>"`` (the traced pass uses it to mark runs in the trace).
    """
    from repro import run_variant
    from repro.upc.params import paper_section5_machine

    cfg = config(w, seed, backend)
    if bodies is None:
        bodies = make_bodies(w, seed)
    outputs: Dict[str, dict] = {}
    wall = 0.0
    for p in w.threads:
        machine = paper_section5_machine()
        t0 = time.perf_counter()
        try:
            with (on_run(f"P={p}") if on_run else nullcontext()):
                res = run_variant(w.variant, cfg, p, machine=machine,
                                  bodies=bodies)
        except Exception as exc:  # counted as a failed run, not fatal
            traceback.print_exc()
            outputs[str(p)] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        finally:
            wall += time.perf_counter() - t0
        outputs[str(p)] = outputs_of(res)
    return wall, outputs


def independent_step0(w: Workload, seed: int, bodies=None) -> float:
    """Step-0 interaction count from the numpy ``flat`` engine, which
    shares no traversal code with the object tree or the C kernel.

    At step 0 every engine sees the same positions, so any correct
    engine must give this count exactly; later steps may drift by
    round-off between engines.
    """
    import numpy as np

    from repro import make_backend

    if bodies is None:
        bodies = make_bodies(w, seed)
    bodies = bodies.copy()
    backend = make_backend("flat", config(w, seed, "flat"))
    backend.begin_step(None, bodies)
    res = backend.accelerations(np.arange(len(bodies)), bodies)
    return float(res.interactions)


#: simulated seconds of the object-tree path are reproducible to this
#: relative tolerance (see README.md, "Correctness")
SIM_REL_TOL = 1e-12


def compare_outputs(got: Dict[str, dict], ref: Dict[str, dict],
                    object_tree: bool) -> Tuple[List[str], float]:
    """Check one pass against reference outputs.

    Returns (the P values that fail, the largest relative difference in
    simulated seconds over every (P, phase) pair).  A P fails when its
    interactions differ at all, or, with ``object_tree``, when a
    simulated phase time differs by more than 1e-12 relative.
    """
    failed: List[str] = []
    worst = 0.0
    for p, out in got.items():
        r = ref.get(p)
        if r is None:
            failed.append(p)
            continue
        err = sim_rel_err(out["sim_s"], r["sim_s"])
        worst = max(worst, err)
        if out["interactions"] != r["interactions"] \
                or (object_tree and err > SIM_REL_TOL):
            failed.append(p)
    return failed, worst


def sim_rel_err(got: Dict[str, float], ref: Dict[str, float]) -> float:
    """Largest |got - ref| / max(|got|, |ref|) over the phases: the usual
    relative error for small differences, and at most 1 when one side
    is 0."""
    worst = 0.0
    for phase, r in ref.items():
        g = got.get(phase, 0.0)
        if g != r:
            worst = max(worst, abs(g - r) / max(abs(g), abs(r)))
    return worst
