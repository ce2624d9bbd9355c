"""Golden rows of the paper's Tables 2-9, held with exact equality.

``tests/golden_sim.json`` pins ``run_variant`` outputs; this file pins
what the table drivers in :mod:`repro.experiments.tables` make of them:
for ``table2``..``table9`` at ``--scale test``, every phase row, the
totals and the thread counts of the :class:`TableResult`.  Floats are
stored as JSON numbers, which round-trip ``repr`` exactly, and compared
with ``==``, with the compiled walks on two workers and again on one.
Regenerate only for an intended change to the simulated numbers, and say
why::

    PYTHONPATH=src python tests/test_golden_tables.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.common import TEST
from repro.experiments.tables import TABLE_RUNNERS

GOLDEN = Path(__file__).with_name("golden_tables.json")

TABLES = tuple(f"table{i}" for i in range(2, 10))


def table_rows(table_id: str) -> dict:
    """One table driver's rows at test scale, as JSON-exact values."""
    res = TABLE_RUNNERS[table_id](TEST)
    return {
        "variant": res.variant,
        "thread_counts": list(res.thread_counts),
        "phases": {ph: [float(v) for v in row]
                   for ph, row in res.phases.items()},
        "totals": [float(v) for v in res.totals],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_table(golden):
    assert sorted(golden["tables"]) == sorted(TABLES)
    assert golden["scale"] == TEST.name


@pytest.mark.usefixtures("two_walk_workers")
@pytest.mark.parametrize("table_id", TABLES)
def test_golden_table_rows(golden, table_id):
    assert table_rows(table_id) == golden["tables"][table_id]


@pytest.mark.usefixtures("one_walk_worker")
@pytest.mark.parametrize("table_id", TABLES)
def test_golden_table_rows_one_walk_worker(golden, table_id):
    assert table_rows(table_id) == golden["tables"][table_id]


def write_golden() -> None:
    tables = {tid: table_rows(tid) for tid in TABLES}
    GOLDEN.write_text(json.dumps({"scale": TEST.name, "tables": tables},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(tables)} tables to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_golden()
