"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BHConfig
from repro.kernels import load_kernel, pool
from repro.nbody.bbox import compute_root
from repro.nbody.plummer import plummer
from repro.octree.build import build_tree
from repro.octree.cofm import compute_cofm
from repro.upc.params import MachineConfig
from repro.upc.runtime import UpcRuntime


@pytest.fixture(scope="session")
def bodies256():
    """A small, deterministic Plummer sphere (session-cached, copy before
    mutating)."""
    return plummer(256, seed=42)


@pytest.fixture()
def bodies(bodies256):
    return bodies256.copy()


@pytest.fixture()
def tree256(bodies256):
    """Canonical octree over the 256-body sphere, c-of-m filled."""
    box = compute_root(bodies256.pos)
    root = build_tree(bodies256.pos, box)
    compute_cofm(root, bodies256.pos, bodies256.mass, bodies256.cost)
    return root


@pytest.fixture()
def rt4():
    """4-thread runtime on the default (process-mode) machine."""
    return UpcRuntime(4, MachineConfig())


@pytest.fixture()
def rt8_pthread():
    """8 threads as 2 nodes x 4 pthreads."""
    return UpcRuntime(8, MachineConfig(threads_per_node=4, mode="pthread"))


@pytest.fixture()
def tiny_cfg():
    """Fast simulation config used across variant tests."""
    return BHConfig(nbodies=192, nsteps=2, warmup_steps=1, seed=7)



@pytest.fixture()
def two_walk_workers(monkeypatch):
    """The compiled walks on two workers (:mod:`repro.kernels.pool`)."""
    monkeypatch.setattr(pool, "_WORKERS", 2)


@pytest.fixture()
def one_walk_worker(monkeypatch):
    """The compiled walks on one worker.  Skips without a kernel: then no
    walk runs on the pool, and the test would only rerun the Python
    engines."""
    if load_kernel() is None:
        pytest.skip("no compiled walks to run on the pool")
    monkeypatch.setattr(pool, "_WORKERS", 1)
