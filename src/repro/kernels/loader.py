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
:class:`repro.backends.compiled.CompiledFlatBackend`), the object-tree
force phase its Python traversal (see :mod:`repro.backends.object_tree`),
the frontier force phase its Python loop (see
:mod:`repro.core.frontier`), the baseline's tree build and c-of-m
phase their Python hooks (see :mod:`repro.core.build_replay`) and the
one-pass c-of-m fill of the subspace, local and LET trees
``compute_cofm`` (see ``VariantBase.fill_cofm``).

Environment knobs (all read at load time):

* ``REPRO_DISABLE_KERNELS=1`` -- skip both paths (the "no toolchain"
  drill used by tests and the CI fallback job);
* ``REPRO_KERNEL_CC`` -- compiler executable for the on-first-use build
  (default: ``cc``, then ``gcc``);
* ``REPRO_KERNEL_CACHE`` -- cache directory for on-first-use objects.

``-ffp-contract=off`` is passed on every build: FMA contraction inside
the opening test could flip a far/near decision against the numpy
traversal and break the bit-exact interaction-count contract, and any
contraction in ``bh_slot_walk`` or ``bh_frontier_walk`` would break
their bit-identity with ``gravity_traversal`` and the frontier loop.
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
ABI_VERSION = 7

#: aggregate-counter slots filled by ``bh_force_walk`` (see the C file)
NCOUNTERS = 5

#: nonzero return codes of the entry points (``BH_ERR_*`` in the C file)
ERR_STACK_OVERFLOW = 1
ERR_DECLINED = 2
ERR_CALLBACK = 3
ERR_DEADLOCK = 4

#: most bodies per ``bh_frontier_walk`` working group (a uint32 bitmask)
FRONTIER_MAX_GROUP = 32

#: flags shared by both build paths (the ext build adds them through
#: ``extra_compile_args`` in setup.py)
COMPILE_FLAGS = ["-O3", "-ffp-contract=off", "-fPIC"]

_SOURCE = Path(__file__).with_name("_bh_kernel.c")

#: array arguments (float64, int64, int32, uint8 elements): the address
#: of a C-contiguous numpy buffer, ``ndarray.ctypes.data``.  The numpy
#: arrays are passed as plain addresses because ``ctypes.data_as`` builds
#: a pointer object in a reference cycle that keeps the array alive until
#: the cyclic collector runs: tens of thousands of them per benchmark
#: pass, holding the walks' arrays
_F64 = _I64 = _I32 = _U8 = ctypes.c_void_p

#: ``bh_charge_fn``: (src, n, nic out) -> complete, NaN on error
CHARGE_FN = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_int64,
                             ctypes.c_int64,
                             ctypes.POINTER(ctypes.c_double))


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
            frontier = lib.bh_frontier_walk
            build = lib.bh_build_replay
            cofm = lib.bh_cofm_replay
            rows = lib.bh_cofm_rows
            tree_rows = lib.bh_tree_rows
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
        frontier.restype = ctypes.c_int
        frontier.argtypes = (
            [ctypes.c_int64, _I64]            # k, ids
            + [ctypes.c_int64] * 3            # tid nthreads group
            + [_F64] * 4                      # px py pz gmass
            + [_F64] * 9                      # cx cy cz size_sq half ctx cty ctz cgmass
            + [ctypes.c_int64] + [_I64] * 3   # ncells child leaf_ptr leaf_bodies
            + [_I32, _I64]                    # home leaf_owner
            + [ctypes.c_double, ctypes.c_double, ctypes.c_int]
            + [_I64] + [ctypes.c_int64] * 3   # words n1 n2 n3
            + [ctypes.c_double] * 4           # local_word interaction factor sync
            + [_F64, _F64]                    # clock stall
            + [ctypes.c_double, _U8, _F64, ctypes.c_int64]
                                              # issue_cost gcls gtab gmax
            + [_I64, ctypes.c_int64, _I64, _F64]  # node_of nic_cap
                                              # nic_node nic_sec
            + [_I64, CHARGE_FN]               # hist charge
            + [ctypes.c_int64, _F64, _F64, _I64]  # ws_cap acc work out
        )
        self._frontier = frontier
        build.restype = ctypes.c_int
        build.argtypes = (
            [ctypes.c_int64, _I64] * 2        # nvisits visits ninserts ins_tid
            + [ctypes.c_int64] * 2            # ncells nthreads
            + [_I64, _U8, _F64]               # node_of classes table
            + [ctypes.c_int64]                # visit_words
            + [ctypes.c_double, _F64, _F64]   # alloc_cost clock nic
            + [_I64] * 3 + [_F64, _I64]       # first acquires contended
                                              # total_wait totals
        )
        self._build = build
        cofm.restype = ctypes.c_int
        cofm.argtypes = (
            [ctypes.c_int64] * 2              # ncells nthreads
            + [_I64] * 3                      # seq home child
            + [ctypes.c_int64] + [_I64] * 2   # nleaves leaf_ptr leaf_bodies
            + [_F64]                          # center
            + [ctypes.c_int64, _I64] + [_F64] * 3     # n store mass pos cost
            + [ctypes.c_int64] * 3            # ptrs_local leaf/child words
            + [ctypes.c_double] * 3           # leaf_word_cost factor cell
            + [_I64, _U8, _F64, _F64, _F64]   # node_of classes table clock nic
            + [_F64] * 2 + [_I64] + [_F64] * 2 + [_I64]
        )
        self._cofm = cofm
        rows.restype = ctypes.c_int
        rows.argtypes = (
            [ctypes.c_int64, _I64]            # ncells child
            + [ctypes.c_int64] + [_I64] * 2   # nleaves leaf_ptr leaf_bodies
            + [_F64]                          # center
            + [ctypes.c_int64] + [_F64] * 3   # n mass pos cost
            + [_F64] * 2 + [_I64, _F64]       # mass cofm nbodies cost
        )
        self._cofm_rows = rows
        tree_rows.restype = ctypes.c_int
        tree_rows.argtypes = (
            [ctypes.c_int64, _I64]            # nevents events
            + [ctypes.c_int64, _I64]          # ncells cell_home
            + [ctypes.c_int64, _F64, ctypes.c_double]  # root center size
            + [ctypes.c_int64] + [_I64] * 3   # nbodies child leaf_ptr
                                              # leaf_bodies
            + [_F64] * 2 + [_I32]             # center size home
            + [_I64] * 3                      # row_seq order counts
        )
        self._tree_rows = tree_rows

    def force_walk(self, ids: np.ndarray,
                   px: np.ndarray, py: np.ndarray, pz: np.ndarray,
                   gmass: np.ndarray, tree,
                   theta_sq: float, eps_sq: float, open_self: bool,
                   accx: np.ndarray, accy: np.ndarray, accz: np.ndarray,
                   work: np.ndarray, counters: np.ndarray) -> None:
        """Fill ``accx``/``accy``/``accz``/``work`` (length ``len(ids)``)
        and ``counters`` (length :data:`NCOUNTERS`).

        All array arguments must be C-contiguous float64/int64 (the
        FlatTree arrays already are).
        """
        rc = self._walk(
            len(ids), ids.ctypes.data,
            px.ctypes.data, py.ctypes.data,
            pz.ctypes.data, gmass.ctypes.data,
            tree.cx.ctypes.data, tree.cy.ctypes.data,
            tree.cz.ctypes.data,
            tree.size_sq.ctypes.data,
            tree.half.ctypes.data,
            tree.ctx.ctypes.data, tree.cty.ctypes.data,
            tree.ctz.ctypes.data,
            tree.gmass.ctypes.data,
            tree.cell_ptr.ctypes.data,
            tree.cell_data.ctypes.data,
            tree.lb_ptr.ctypes.data,
            tree.lb_data.ctypes.data,
            theta_sq, eps_sq, int(open_self),
            accx.ctypes.data, accy.ctypes.data,
            accz.ctypes.data, work.ctypes.data,
            counters.ctypes.data,
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
            len(ids), ids.ctypes.data,
            px.ctypes.data, py.ctypes.data,
            pz.ctypes.data, gmass.ctypes.data,
            tree.cx.ctypes.data, tree.cy.ctypes.data,
            tree.cz.ctypes.data,
            tree.size_sq.ctypes.data,
            tree.half.ctypes.data,
            tree.ctx.ctypes.data, tree.cty.ctypes.data,
            tree.ctz.ctypes.data,
            tree.gmass.ctypes.data,
            tree.child.ctypes.data,
            tree.leaf_ptr.ctypes.data,
            tree.leaf_bodies.ctypes.data,
            theta_sq, eps_sq, int(open_self),
            acc.ctypes.data, work.ctypes.data,
            opens.ctypes.data,
        )
        _check("bh_slot_walk", rc)

    def frontier_walk(self, ids: np.ndarray, tid: int, nthreads: int,
                      group: int, px: np.ndarray, py: np.ndarray,
                      pz: np.ndarray, gmass: np.ndarray, tree,
                      leaf_owner: np.ndarray, theta_sq: float,
                      eps_sq: float, open_self: bool, words: np.ndarray,
                      n1: int, n2: int, n3: int, local_word: float,
                      interaction: float, factor: float, sync_cost: float,
                      clock: np.ndarray, stall: np.ndarray,
                      issue_cost: float, gcls: np.ndarray,
                      gtab: np.ndarray, node_of: np.ndarray,
                      nic_node: np.ndarray, nic_sec: np.ndarray,
                      hist: np.ndarray, charge,
                      acc: np.ndarray, work: np.ndarray, out: np.ndarray,
                      ws_cap: int = 0) -> bool:
        """The section-5.5 frontier loop for thread ``tid``'s bodies.

        Charges ``clock[0]`` (the thread's clock, best a private copy:
        the walk updates it constantly) in place, logs the gathers' NIC
        adds as
        ``(nic_node[i], nic_sec[i])`` in charge order (``out[8]`` of
        them; the arrays hold at most their length), adds waitsync
        stalls to ``stall[0]``, counts gathers by source count into
        ``hist``, accumulates into ``acc`` ((k, 3)) and ``work``, and
        fills ``out`` (9 int64 results, see the C file).
        ``gtab`` ((4, gmax + 1, 2)) holds the gather charges by relation
        class (``gcls``, one per source thread) and element count;
        ``charge`` (a :data:`CHARGE_FN`) prices a larger count.  Returns
        False, having touched nothing, when the kernel declines
        (workspace unavailable or above ``ws_cap`` bytes).
        """
        rc = self._frontier(
            len(ids), ids.ctypes.data, tid, nthreads, group,
            px.ctypes.data, py.ctypes.data,
            pz.ctypes.data, gmass.ctypes.data,
            tree.cx.ctypes.data, tree.cy.ctypes.data,
            tree.cz.ctypes.data,
            tree.size_sq.ctypes.data,
            tree.half.ctypes.data,
            tree.ctx.ctypes.data, tree.cty.ctypes.data,
            tree.ctz.ctypes.data,
            tree.gmass.ctypes.data,
            tree.ncells, tree.child.ctypes.data,
            tree.leaf_ptr.ctypes.data,
            tree.leaf_bodies.ctypes.data,
            tree.home.ctypes.data,
            leaf_owner.ctypes.data,
            theta_sq, eps_sq, int(open_self),
            words.ctypes.data, n1, n2, n3,
            local_word, interaction, factor, sync_cost,
            clock.ctypes.data, stall.ctypes.data,
            issue_cost, gcls.ctypes.data, gtab.ctypes.data,
            gtab.shape[1] - 1, node_of.ctypes.data,
            len(nic_node), nic_node.ctypes.data,
            nic_sec.ctypes.data, hist.ctypes.data, charge,
            ws_cap,
            acc.ctypes.data, work.ctypes.data,
            out.ctypes.data,
        )
        if rc == ERR_DECLINED:
            return False
        _check("bh_frontier_walk", rc)
        return True


    def build_replay(self, visits: np.ndarray, ins_tid: np.ndarray,
                     ncells: int, node_of: np.ndarray, classes: np.ndarray,
                     table: np.ndarray, visit_words: int,
                     alloc_cost: float, clock: np.ndarray, nic: np.ndarray,
                     first: np.ndarray, acquires: np.ndarray,
                     contended: np.ndarray, total_wait: np.ndarray,
                     totals: np.ndarray) -> bool:
        """Replay the baseline insertion build's charges from its visit
        trace (``visits``: ``Cell.seq`` per visit; ``ins_tid``: thread
        per insertion), charging ``clock`` and ``nic`` in place and
        filling the per-cell and per-thread outputs (see the C file).
        Returns False, having touched nothing, when the kernel declines.
        """
        rc = self._build(
            len(visits), visits.ctypes.data,
            len(ins_tid), ins_tid.ctypes.data,
            ncells, len(clock), node_of.ctypes.data,
            classes.ctypes.data, table.ctypes.data,
            visit_words, alloc_cost, clock.ctypes.data,
            nic.ctypes.data, first.ctypes.data,
            acquires.ctypes.data, contended.ctypes.data,
            total_wait.ctypes.data, totals.ctypes.data,
        )
        if rc == ERR_DECLINED:
            return False
        _check("bh_build_replay", rc)
        return True

    def cofm_replay(self, seq: np.ndarray, home: np.ndarray,
                    child: np.ndarray, leaf_ptr: np.ndarray,
                    leaf_bodies: np.ndarray, center: np.ndarray,
                    store: np.ndarray, bmass: np.ndarray, bpos: np.ndarray,
                    bcost: np.ndarray, ptrs_local: bool, leaf_words: int,
                    child_words: int, leaf_word_cost: float, factor: float,
                    cell_cost: float, node_of: np.ndarray,
                    classes: np.ndarray, table: np.ndarray,
                    clock: np.ndarray, nic: np.ndarray,
                    mass: np.ndarray, cofm: np.ndarray, nbodies: np.ndarray,
                    cost: np.ndarray, done_at: np.ndarray,
                    totals: np.ndarray) -> bool:
        """The baseline's c-of-m phase under ``run_waiting``'s schedule
        over the rows of a flattened tree (``seq``: each row's creation
        rank), charging ``clock`` and ``nic`` in place and filling the
        per-cell and per-thread outputs (see the C file).  Returns False,
        having touched nothing, when the kernel declines; raises on a
        deadlock, as ``run_waiting`` does.
        """
        rc = self._cofm(
            len(home), len(clock), seq.ctypes.data,
            home.ctypes.data, child.ctypes.data,
            len(leaf_ptr) - 1, leaf_ptr.ctypes.data,
            leaf_bodies.ctypes.data,
            center.ctypes.data, len(store),
            store.ctypes.data, bmass.ctypes.data,
            bpos.ctypes.data, bcost.ctypes.data,
            int(ptrs_local), leaf_words, child_words, leaf_word_cost,
            factor, cell_cost, node_of.ctypes.data,
            classes.ctypes.data,
            table.ctypes.data, clock.ctypes.data,
            nic.ctypes.data, mass.ctypes.data,
            cofm.ctypes.data, nbodies.ctypes.data,
            cost.ctypes.data,
            done_at.ctypes.data, totals.ctypes.data,
        )
        if rc == ERR_DECLINED:
            return False
        _check("bh_cofm_replay", rc)
        return True

    def cofm_rows(self, child: np.ndarray, leaf_ptr: np.ndarray,
                  leaf_bodies: np.ndarray, center: np.ndarray,
                  bmass: np.ndarray, bpos: np.ndarray, bcost: np.ndarray,
                  mass: np.ndarray, cofm: np.ndarray, nbodies: np.ndarray,
                  cost: np.ndarray) -> bool:
        """``compute_cofm`` over every row of a flattened tree (rows in
        :func:`~repro.octree.flat.cell_rows` order), filling ``mass``,
        ``cofm`` ((C, 3)), ``nbodies`` and ``cost``.  Charges nothing.
        Returns False, having written nothing, when the kernel declines.
        """
        rc = self._cofm_rows(
            len(child), child.ctypes.data, len(leaf_ptr) - 1,
            leaf_ptr.ctypes.data, leaf_bodies.ctypes.data,
            center.ctypes.data, len(bmass),
            bmass.ctypes.data, bpos.ctypes.data,
            bcost.ctypes.data, mass.ctypes.data,
            cofm.ctypes.data, nbodies.ctypes.data,
            cost.ctypes.data,
        )
        if rc == ERR_DECLINED:
            return False
        _check("bh_cofm_rows", rc)
        return True

    def tree_rows(self, events: np.ndarray, cell_home: np.ndarray,
                  root: int, root_center: np.ndarray, root_size: float,
                  nbodies: int, child: np.ndarray, leaf_ptr: np.ndarray,
                  leaf_bodies: np.ndarray, center: np.ndarray,
                  size: np.ndarray, home: np.ndarray, row_seq: np.ndarray,
                  order: np.ndarray, counts: np.ndarray) -> bool:
        """Flatten the tree a build record describes (``events``:
        (n, 3) int64, see the C file; ``cell_home``: each cell's home
        by seq) as :func:`~repro.octree.flat.cell_rows` would: fill
        ``child`` ((ncells, 8)), ``leaf_ptr`` (nbodies + 1),
        ``leaf_bodies`` and ``order`` (nbodies), ``center``
        ((ncells, 3)), ``size``, ``home`` (int32) and ``row_seq``
        (ncells) from the top, and ``counts`` with the rows, leaves and
        leaf bodies written.  Returns False, having written nothing,
        when the kernel declines a malformed record.
        """
        rc = self._tree_rows(
            len(events), events.ctypes.data, len(cell_home),
            cell_home.ctypes.data, root,
            root_center.ctypes.data, root_size, nbodies,
            child.ctypes.data, leaf_ptr.ctypes.data,
            leaf_bodies.ctypes.data, center.ctypes.data,
            size.ctypes.data, home.ctypes.data,
            row_seq.ctypes.data, order.ctypes.data,
            counts.ctypes.data,
        )
        if rc == ERR_DECLINED:
            return False
        _check("bh_tree_rows", rc)
        return True


def _check(name: str, rc: int) -> None:
    if rc == ERR_STACK_OVERFLOW:
        raise RuntimeError(
            f"{name}: traversal stack overflow (tree deeper than the "
            "MAX_DEPTH bound -- malformed tree)")
    if rc == ERR_CALLBACK:
        raise RuntimeError(f"{name}: the gather callback raised")
    if rc == ERR_DEADLOCK:
        raise RuntimeError(f"{name}: deadlock (every live thread blocked)")
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
