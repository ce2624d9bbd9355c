"""Locate, build, and bind the compiled force-walk kernel.

Two artifact sources, tried in order:

1. **Installed extension module** -- ``repro.kernels._bh_kernel`` built by
   ``setup.py``'s (optional) ext-module.  The module is an empty shell;
   its shared object carries the plain-C symbols, which are bound with
   :mod:`ctypes` from the file path so calls release the GIL.
2. **Compile on first use** -- editable installs and plain source
   checkouts have no built artifact, so ``_bh_kernel.c`` is compiled
   with the system C compiler into a per-user cache directory
   (``$REPRO_KERNEL_CACHE``, else ``~/.cache/repro-bh-upc``), keyed on a
   hash of the source + ABI so stale objects are never loaded.

Both paths funnel through :func:`load_kernel`, which returns a bound
:class:`CKernel` or ``None``.  Failure is never an exception: a box with
no compiler gets **one** :class:`RuntimeWarning`; the registry keeps
serving the numpy ``flat`` engine (see
:class:`repro.backends.compiled.CompiledFlatBackend`) and the object-tree
force phase its Python traversal (see :mod:`repro.backends.object_tree`).

Environment knobs (all read at load time):

* ``REPRO_DISABLE_KERNELS=1`` -- skip both paths (the "no toolchain"
  drill used by tests and the CI fallback job);
* ``REPRO_KERNEL_CC`` -- compiler executable for the on-first-use build
  (default: ``cc``, then ``gcc``);
* ``REPRO_KERNEL_CACHE`` -- cache directory for on-first-use objects.

``-ffp-contract=off`` is passed on every build: FMA contraction inside
the opening test could flip a far/near decision against the numpy
traversal and break the bit-exact interaction-count contract, and any
contraction in ``bh_slot_walk`` would break its bit-identity with
``gravity_traversal``.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import List, Optional

import numpy as np

#: ABI this loader binds; must match BH_ABI_VERSION in ``_bh_kernel.c``
ABI_VERSION = 2

#: aggregate-counter slots filled by ``bh_force_walk`` (see the C file)
NCOUNTERS = 5

#: nonzero return codes of ``bh_force_walk`` and ``bh_slot_walk``
ERR_STACK_OVERFLOW = 1

#: flags shared by both build paths (the ext build adds them through
#: ``extra_compile_args`` in setup.py)
COMPILE_FLAGS = ["-O3", "-ffp-contract=off", "-fPIC"]

_SOURCE = Path(__file__).with_name("_bh_kernel.c")

_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_int64)


class KernelUnavailable(Exception):
    """Internal: why a load path was rejected (collected into status)."""


class CKernel:
    """ctypes binding of one loaded ``_bh_kernel`` shared object."""

    def __init__(self, path: str):
        self.path = str(path)
        lib = ctypes.CDLL(self.path)
        try:
            abi = lib.bh_abi_version
            walk = lib.bh_force_walk
            slot = lib.bh_slot_walk
        except AttributeError as exc:
            raise KernelUnavailable(
                f"{path}: missing kernel symbols ({exc})") from None
        abi.restype = ctypes.c_int64
        abi.argtypes = []
        found = int(abi())
        if found != ABI_VERSION:
            raise KernelUnavailable(
                f"{path}: ABI {found} != expected {ABI_VERSION}")
        walk.restype = ctypes.c_int
        walk.argtypes = (
            [ctypes.c_int64, _I64]            # k, ids
            + [_F64] * 4                      # px py pz gmass
            + [_F64] * 9                      # cx cy cz size_sq half ctx cty ctz cgmass
            + [_I64] * 4                      # cell_ptr cell_data lb_ptr lb_data
            + [ctypes.c_double, ctypes.c_double, ctypes.c_int]
            + [_F64] * 5                      # accx accy accz work counters
        )
        self._walk = walk
        slot.restype = ctypes.c_int
        slot.argtypes = (
            [ctypes.c_int64, _I64]            # k, ids
            + [_F64] * 4                      # px py pz gmass
            + [_F64] * 9                      # cx cy cz size_sq half ctx cty ctz cgmass
            + [_I64] * 3                      # child leaf_ptr leaf_bodies
            + [ctypes.c_double, ctypes.c_double, ctypes.c_int]
            + [_F64] * 2 + [_I64]             # acc work opens
        )
        self._slot = slot

    def force_walk(self, ids: np.ndarray,
                   px: np.ndarray, py: np.ndarray, pz: np.ndarray,
                   gmass: np.ndarray, tree,
                   theta_sq: float, eps_sq: float, open_self: bool,
                   accx: np.ndarray, accy: np.ndarray, accz: np.ndarray,
                   work: np.ndarray, counters: np.ndarray) -> None:
        """One chunk: fill ``accx``/``accy``/``accz``/``work`` (length
        ``len(ids)``) and ``counters`` (length :data:`NCOUNTERS`).

        The ctypes call releases the GIL, so concurrent chunk calls from
        a thread pool genuinely overlap.  All array arguments must be
        C-contiguous float64/int64 (the FlatTree arrays already are).
        """
        rc = self._walk(
            len(ids), ids.ctypes.data_as(_I64),
            px.ctypes.data_as(_F64), py.ctypes.data_as(_F64),
            pz.ctypes.data_as(_F64), gmass.ctypes.data_as(_F64),
            tree.cx.ctypes.data_as(_F64), tree.cy.ctypes.data_as(_F64),
            tree.cz.ctypes.data_as(_F64),
            tree.size_sq.ctypes.data_as(_F64),
            tree.half.ctypes.data_as(_F64),
            tree.ctx.ctypes.data_as(_F64), tree.cty.ctypes.data_as(_F64),
            tree.ctz.ctypes.data_as(_F64),
            tree.gmass.ctypes.data_as(_F64),
            tree.cell_ptr.ctypes.data_as(_I64),
            tree.cell_data.ctypes.data_as(_I64),
            tree.lb_ptr.ctypes.data_as(_I64),
            tree.lb_data.ctypes.data_as(_I64),
            theta_sq, eps_sq, int(open_self),
            accx.ctypes.data_as(_F64), accy.ctypes.data_as(_F64),
            accz.ctypes.data_as(_F64), work.ctypes.data_as(_F64),
            counters.ctypes.data_as(_F64),
        )
        _check("bh_force_walk", rc)

    def slot_walk(self, ids: np.ndarray,
                  px: np.ndarray, py: np.ndarray, pz: np.ndarray,
                  gmass: np.ndarray, tree,
                  theta_sq: float, eps_sq: float, open_self: bool,
                  acc: np.ndarray, work: np.ndarray,
                  opens: np.ndarray) -> None:
        """The object-tree walk: fill ``acc`` ((k, 3), C order) and
        ``work`` (k), and add each body's cell opens into ``opens``
        (int64, one slot per FlatTree row)."""
        rc = self._slot(
            len(ids), ids.ctypes.data_as(_I64),
            px.ctypes.data_as(_F64), py.ctypes.data_as(_F64),
            pz.ctypes.data_as(_F64), gmass.ctypes.data_as(_F64),
            tree.cx.ctypes.data_as(_F64), tree.cy.ctypes.data_as(_F64),
            tree.cz.ctypes.data_as(_F64),
            tree.size_sq.ctypes.data_as(_F64),
            tree.half.ctypes.data_as(_F64),
            tree.ctx.ctypes.data_as(_F64), tree.cty.ctypes.data_as(_F64),
            tree.ctz.ctypes.data_as(_F64),
            tree.gmass.ctypes.data_as(_F64),
            tree.child.ctypes.data_as(_I64),
            tree.leaf_ptr.ctypes.data_as(_I64),
            tree.leaf_bodies.ctypes.data_as(_I64),
            theta_sq, eps_sq, int(open_self),
            acc.ctypes.data_as(_F64), work.ctypes.data_as(_F64),
            opens.ctypes.data_as(_I64),
        )
        _check("bh_slot_walk", rc)


def _check(name: str, rc: int) -> None:
    if rc == ERR_STACK_OVERFLOW:
        raise RuntimeError(
            f"{name}: traversal stack overflow (tree deeper than the "
            "MAX_DEPTH bound -- malformed tree)")
    if rc != 0:
        raise RuntimeError(f"{name} failed with code {rc}")


def _built_extension_path() -> Optional[str]:
    """Shared-object path of an installed ``_bh_kernel`` ext module."""
    try:
        spec = importlib.util.find_spec("repro.kernels._bh_kernel")
    except (ImportError, ValueError):
        return None
    if spec is None or spec.origin is None:
        return None
    return spec.origin if os.path.exists(spec.origin) else None


def _compiler() -> Optional[str]:
    override = os.environ.get("REPRO_KERNEL_CC")
    if override:
        return override
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    home = Path.home() if os.environ.get("HOME") else None
    base = home / ".cache" if home else Path(tempfile.gettempdir())
    return base / "repro-bh-upc"


def _compile_on_first_use(notes: List[str]) -> Optional[str]:
    """Build ``_bh_kernel.c`` as a plain shared library; return its path."""
    if not _SOURCE.exists():
        notes.append(f"kernel source missing: {_SOURCE}")
        return None
    cc = _compiler()
    if cc is None:
        notes.append("no C compiler found (cc/gcc/clang, $REPRO_KERNEL_CC)")
        return None
    tag = hashlib.sha256(
        _SOURCE.read_bytes()
        + f"|abi{ABI_VERSION}|{sys.platform}".encode()
    ).hexdigest()[:16]
    suffix = ".dll" if sys.platform == "win32" else ".so"
    cache = _cache_dir()
    out = cache / f"_bh_kernel-{tag}{suffix}"
    if out.exists():
        return str(out)
    try:
        cache.mkdir(parents=True, exist_ok=True)
        tmp = out.with_name(out.name + f".tmp{os.getpid()}")
        cmd = [cc, *COMPILE_FLAGS, "-shared", "-o", str(tmp),
               str(_SOURCE), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            notes.append(
                f"compile failed ({' '.join(cmd)}): "
                f"{(proc.stderr or proc.stdout).strip()[:500]}")
            return None
        os.replace(tmp, out)  # atomic: concurrent builders race safely
        return str(out)
    except (OSError, subprocess.SubprocessError) as exc:
        notes.append(f"compile failed: {exc}")
        return None


#: memoized load result: unset / CKernel / None
_KERNEL: "object" = "unset"
#: human-readable story of the last real load attempt
_STATUS: List[str] = []
_WARNED = False


def kernel_status() -> List[str]:
    """Notes from the last load attempt (diagnostics; empty = loaded)."""
    load_kernel()
    return list(_STATUS)


def reset_kernel_cache() -> None:
    """Forget the memoized load result (tests re-drive the env gates)."""
    global _KERNEL, _WARNED
    _KERNEL = "unset"
    _WARNED = False
    _STATUS.clear()


def load_kernel() -> Optional[CKernel]:
    """The process-wide compiled kernel, or ``None`` (warned once)."""
    global _KERNEL, _WARNED
    if _KERNEL != "unset":
        return _KERNEL  # type: ignore[return-value]
    notes: List[str] = []
    kernel: Optional[CKernel] = None
    if os.environ.get("REPRO_DISABLE_KERNELS"):
        notes.append("disabled via REPRO_DISABLE_KERNELS")
    else:
        for path in (_built_extension_path(),
                     _compile_on_first_use(notes)):
            if path is None:
                continue
            try:
                kernel = CKernel(path)
                break
            except (OSError, KernelUnavailable) as exc:
                notes.append(str(exc))
    _KERNEL = kernel
    _STATUS[:] = notes
    if kernel is None and not _WARNED:
        _WARNED = True
        warnings.warn(
            "compiled force kernel unavailable; the 'flat-c' backend "
            "will serve the numpy 'flat' engine and the object tree "
            "its Python traversal instead "
            f"({'; '.join(notes) or 'no load path succeeded'})",
            RuntimeWarning, stacklevel=2)
    return kernel
