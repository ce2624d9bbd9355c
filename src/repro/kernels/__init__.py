"""Compiled force kernels: native tree walks over ``FlatTree`` arrays.

The numpy ``flat`` engine (:func:`repro.octree.flat.flat_gravity`) pays
Python/numpy dispatch per traversal *level*; these kernels pay nothing
per level -- one C stack walk per body over the exact same contiguous
CSR arrays, so the whole force phase is native code.  The C extension
``_bh_kernel.c`` (see :mod:`.loader` for the build-or-load story) is
bound via ctypes.  The same extension carries the compiled walks of the
paper path (slot walk, frontier walk, build and c-of-m replays, the
flatten of a recorded build; see
``docs/compiled-kernels.md``).

Importing this package never raises on a box without a compiler: the
loader memoizes ``None`` and emits one :class:`RuntimeWarning`; the
``flat-c`` backend then serves the numpy ``flat`` engine unchanged (see
:mod:`repro.backends.compiled`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .loader import (
    NCOUNTERS,
    CKernel,
    kernel_status,
    load_kernel,
    reset_kernel_cache,
)

__all__ = [
    "NCOUNTERS",
    "CKernel",
    "c_kernel_available",
    "kernel_gravity",
    "kernel_status",
    "load_kernel",
    "reset_kernel_cache",
]


def c_kernel_available() -> bool:
    return load_kernel() is not None


def _zero_result(k: int) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    counters = {"cell_tests": 0.0, "cell_accepts": 0.0, "cell_opens": 0.0,
                "leaf_interactions": 0.0, "levels": 0.0}
    return np.zeros((k, 3)), np.zeros(k), counters


def _counters_dict(tests: float, accepts: float, opens: float,
                   leaf: float, maxdepth: float) -> Dict[str, float]:
    # ``levels`` mirrors flat_gravity's frontier-iteration count: the
    # deepest tested pair's depth + 1 (root = depth 0)
    return {"cell_tests": tests, "cell_accepts": accepts,
            "cell_opens": opens, "leaf_interactions": leaf,
            "levels": maxdepth + 1.0 if maxdepth >= 0 else 0.0}


def kernel_gravity(
    tree,
    body_idx: np.ndarray,
    positions: np.ndarray,
    masses: np.ndarray,
    theta: float,
    eps: float,
    open_self_cells: bool = False,
    prepared: Optional[Tuple[np.ndarray, ...]] = None,
    kernel: Optional[CKernel] = None,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    """C-kernel counterpart of :func:`repro.octree.flat.flat_gravity`.

    Same signature contract and counter keys; interaction counts are
    bit-exact vs the numpy traversal, accelerations agree to float64
    round-off (per-body summation order differs).

    Raises :class:`RuntimeError` if no kernel is loaded; callers gate on
    :func:`c_kernel_available` (the backends fall back to numpy).
    """
    if kernel is None:
        kernel = load_kernel()
    if kernel is None:
        raise RuntimeError(
            "kernel_gravity called with no compiled kernel loaded "
            "(see repro.kernels.kernel_status())")
    k = len(body_idx)
    if k == 0 or tree is None or tree.ncells == 0:
        return _zero_result(k)
    ids = np.ascontiguousarray(body_idx, dtype=np.int64)
    if prepared is None:
        from ..octree.flat import prepare_bodies

        prepared = prepare_bodies(positions, masses)
    px, py, pz, gmass = prepared
    theta_sq = float(theta) * float(theta)
    eps_sq = float(eps) * float(eps)
    accx = np.empty(k)
    accy = np.empty(k)
    accz = np.empty(k)
    work = np.empty(k)
    counters = np.empty(NCOUNTERS)
    kernel.force_walk(ids, px, py, pz, gmass, tree,
                      theta_sq, eps_sq, open_self_cells,
                      accx, accy, accz, work, counters)
    acc = np.stack([accx, accy, accz], axis=1)
    return acc, work, _counters_dict(*(float(c) for c in counters))
