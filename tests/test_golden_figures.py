"""Golden outputs of the paper's figure drivers and the ablations, held
with exact equality.

``tests/golden_tables.json`` pins the Table 2-9 drivers; this file pins
the rest of :mod:`repro.experiments`: every driver in ``FIGURE_RUNNERS``
(Figures 5-13) and the five ablation drivers of
:mod:`repro.experiments.ablations`, at ``--scale test``.  Each result's
x axis, series and notes are stored as JSON values (floats round-trip
``repr`` exactly) and compared with ``==``, with the compiled walks on
two workers and again on one.  Figures 10-13 run the
section-6 subspace build.  Regenerate only for an intended change to the
simulated numbers, and say why::

    PYTHONPATH=src python tests/test_golden_figures.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.ablations import (
    run_alpha_ablation,
    run_buffer_ablation,
    run_cache_ablation,
    run_n123_ablation,
    run_source_histogram,
)
from repro.experiments.common import TEST, SeriesResult
from repro.experiments.figures import FIGURE_RUNNERS

GOLDEN = Path(__file__).with_name("golden_figures.json")

ABLATION_RUNNERS = {
    "abl-n123": run_n123_ablation,
    "abl-alpha": run_alpha_ablation,
    "abl-cache": run_cache_ablation,
    "abl-sources": run_source_histogram,
    "abl-buffer": run_buffer_ablation,
}
DRIVERS = {**FIGURE_RUNNERS, **ABLATION_RUNNERS}


def _exact(value):
    """``value`` as JSON-exact data: numbers as int or float, mappings
    with string keys in sorted order, sequences as lists."""
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_exact(v) for v in value]
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def driver_output(driver_id: str):
    """One driver's result at test scale, as JSON-exact values."""
    res = DRIVERS[driver_id](TEST)
    if isinstance(res, SeriesResult):
        return _exact({"x_label": res.x_label, "x": res.x,
                       "series": res.series, "notes": res.notes})
    return _exact(res)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_driver(golden):
    assert sorted(golden["drivers"]) == sorted(DRIVERS)
    assert golden["scale"] == TEST.name


@pytest.mark.usefixtures("two_walk_workers")
@pytest.mark.parametrize("driver_id", sorted(DRIVERS))
def test_golden_driver_output(golden, driver_id):
    assert driver_output(driver_id) == golden["drivers"][driver_id]


@pytest.mark.usefixtures("one_walk_worker")
@pytest.mark.parametrize("driver_id", sorted(DRIVERS))
def test_golden_driver_output_one_walk_worker(golden, driver_id):
    assert driver_output(driver_id) == golden["drivers"][driver_id]


def write_golden() -> None:
    drivers = {did: driver_output(did) for did in DRIVERS}
    GOLDEN.write_text(json.dumps({"scale": TEST.name, "drivers": drivers},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(drivers)} drivers to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_golden()
