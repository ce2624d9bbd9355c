"""Golden simulated outputs, held with exact equality.

Every registered variant runs at P in {1, 4, 16}, on the paper's
section-5 machine (process mode) and a section-6 machine with 4 pthreads
per node.  Per run the golden file pins, for every phase record of both
steps, the simulated duration and the max per-thread busy time, plus the
run's StatsLog totals of the counters in :data:`COUNTERS`.

The file holds one row per (variant, P, machine): the object-tree run,
the only force path of every variant.  ``BHConfig.force_backend`` is read
by no variant, so every name in :data:`repro.backends.BACKENDS` must
reproduce the object-tree row exactly: ``flat`` is checked against every
row, and each other name against one row (:data:`SPOT_ROW`) per variant.

Every row runs with the compiled walks on two workers and again on one
(:mod:`repro.kernels.pool`): no output may depend on the worker count.

The comparison is ``==`` with no tolerance: the UPC accounting path must
keep every float operation in the same order.  A change that reorders
sums on purpose has to regenerate the file and say why::

    PYTHONPATH=src python tests/test_golden_sim.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.backends import BACKENDS
from repro.core.app import run_variant
from repro.core.config import BHConfig
from repro.core.variants.registry import VARIANTS
from repro.upc.params import paper_section5_machine, paper_section6_machine

GOLDEN = Path(__file__).with_name("golden_sim.json")

NBODIES = 192
NSTEPS = 2
#: the backend whose runs the golden file holds
GOLDEN_BACKEND = "object-tree"
THREADS = (1, 4, 16)
MACHINES = {
    "section5": paper_section5_machine,
    "section6-tpn4": lambda: paper_section6_machine(4),
}
COUNTERS = ("interactions", "remote_words", "remote_bytes", "lock_acquire",
            "cells_alloc")


def case_id(variant: str, backend: str, nthreads: int, machine: str) -> str:
    return f"{variant}/{backend}/P{nthreads}/{machine}"


#: the names checked against every row; every other name runs only
#: the (P, machine) of SPOT_ROW
FULL_BACKENDS = (GOLDEN_BACKEND, "flat")
SPOT_ROW = (4, "section6-tpn4")

CASES = [
    (v, b, p, m)
    for v in sorted(VARIANTS)
    for b in sorted(BACKENDS)
    for p in THREADS
    for m in MACHINES
    if b in FULL_BACKENDS or (p, m) == SPOT_ROW
]
#: the cases the golden file holds
GOLDEN_CASES = [c for c in CASES if c[1] == GOLDEN_BACKEND]


def simulate(variant: str, backend: str, nthreads: int,
             machine: str) -> dict:
    """One golden run, reduced to JSON-exact floats."""
    cfg = BHConfig(nbodies=NBODIES, nsteps=NSTEPS, warmup_steps=1,
                   force_backend=backend)
    res = run_variant(variant, cfg, nthreads=nthreads,
                      machine=MACHINES[machine]())
    phases = [
        [r.step, r.name, float(r.duration), float(r.thread_times.max())]
        for r in res.log
    ]
    counters = {k: float(res.counter(k)) for k in COUNTERS}
    return {"phases": phases, "counters": counters}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["runs"]) == sorted(case_id(*c)
                                            for c in GOLDEN_CASES)
    assert golden["nbodies"] == NBODIES and golden["nsteps"] == NSTEPS


PARAMS = pytest.mark.parametrize("variant,backend,nthreads,machine", CASES,
                                 ids=[case_id(*c) for c in CASES])


@pytest.mark.usefixtures("two_walk_workers")
@PARAMS
def test_golden_simulated_outputs(golden, variant, backend, nthreads,
                                  machine):
    want = golden["runs"][case_id(variant, GOLDEN_BACKEND, nthreads,
                                  machine)]
    got = simulate(variant, backend, nthreads, machine)
    assert got["counters"] == want["counters"]
    assert got["phases"] == want["phases"]


@pytest.mark.usefixtures("one_walk_worker")
@PARAMS
def test_golden_simulated_outputs_one_walk_worker(golden, variant, backend,
                                                  nthreads, machine):
    test_golden_simulated_outputs(golden, variant, backend, nthreads,
                                  machine)


def write_golden() -> None:
    runs = {case_id(*c): simulate(*c) for c in GOLDEN_CASES}
    GOLDEN.write_text(json.dumps(
        {"nbodies": NBODIES, "nsteps": NSTEPS, "runs": runs},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_golden()
