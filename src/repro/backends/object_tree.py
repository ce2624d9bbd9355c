"""The object-tree force engine: one slot-order walk per body.

Every variant that meters its force phase on the linked ``Cell``/``Leaf``
tree (baseline through local-build, and mpi-let) computes forces here;
the section-5.5 variants walk the same flattened tree in
:mod:`repro.core.frontier`.
Once per force phase the tree is flattened into a :class:`SlotTree`
(:meth:`FlatTree.from_cell_rows`, keeping the row -> ``Cell`` list);
:func:`slot_walk` then maps a group of bodies to ``(acc, work, opens)``,
where ``opens[r]`` counts the bodies that opened the cell of row ``r``.

Every input of the paper's UPC force accounting follows from ``opens``
and the tree structure: the root is tested by all ``k`` bodies, any other
node by its parent's openers, and a cell accepts ``tests - opens``.  The
variants charge from those counts (``VariantBase.charge_force_walk``).

Two engines serve :func:`slot_walk`, with bit-identical outputs:

* ``"c-slot-walk"`` -- ``bh_slot_walk`` in :mod:`repro.kernels`, a per-body
  stack DFS in the group recursion's pop order with the same float
  operation sequence;
* ``"traversal"`` -- :func:`repro.octree.traverse.gravity_traversal` with
  a policy that records ``opens``, used when no kernel is loaded.

:class:`ObjectTreeBackend` serves the same function behind the uniform
:class:`~repro.backends.base.ForceBackend` interface, for the parity
tests against the standalone engines.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.pool import run_jobs
from ..nbody.bodies import BodySoA
from ..octree.cell import Cell
from ..octree.flat import CellRows, FlatTree, decode_leaf, prepare_bodies
from ..octree.traverse import TraversalPolicy, gravity_traversal
from .base import ForceBackend, ForceResult

#: engine names recorded in ``RunResult.variant_stats["force_engine"]``
C_ENGINE = "c-slot-walk"
PY_ENGINE = "traversal"


@functools.lru_cache(maxsize=None)
def _einsum_order_matches() -> bool:
    """Whether this numpy sums ``np.einsum("ij,ij->i")`` over 3-vectors
    as ``(x*x + z*z) + y*y`` -- the order ``bh_slot_walk`` hard-codes.
    A numpy that reorders it gets the Python traversal instead."""
    d = np.random.default_rng(0).standard_normal((4096, 3))
    x, y, z = d.T
    return bool(np.array_equal(np.einsum("ij,ij->i", d, d),
                               (x * x + z * z) + y * y))


def slot_kernel():
    """The loaded C kernel if it can serve the slot walk, else ``None``."""
    from ..kernels import load_kernel

    kernel = load_kernel()
    return kernel if kernel is not None and _einsum_order_matches() \
        else None


class SlotTree:
    """One force phase's object tree, flattened for :func:`slot_walk`.

    ``flat`` holds the BFS-ordered arrays and ``cells[r]`` the ``Cell`` of
    row ``r``; ``parent[r]`` is the row of its parent (0 for the root) and
    ``leaf_parent[j]`` the row of the cell whose leaf holds
    ``flat.leaf_bodies[j]``.  ``rows`` is :func:`cell_rows` of ``root``
    when the caller already flattened it, and ``fields`` the per-row
    arrays it already holds (:meth:`FlatTree.from_cell_rows`).
    """

    def __init__(self, root: Cell, bodies: BodySoA, cfg,
                 rows: Optional[CellRows] = None,
                 fields: Optional[Dict[str, np.ndarray]] = None):
        self.root = root
        self.flat, self.cells = FlatTree.from_cell_rows(root, rows, fields)
        flat = self.flat
        C = flat.ncells
        self.parent = np.zeros(C, dtype=np.int64)
        self.parent[flat.cell_data] = np.repeat(
            np.arange(C, dtype=np.int64), np.diff(flat.cell_ptr))
        is_leaf = flat.child <= -2
        by_leaf = np.empty(flat.nleaves, dtype=np.int64)
        by_leaf[decode_leaf(flat.child[is_leaf])] = np.nonzero(is_leaf)[0]
        self.leaf_parent = np.repeat(by_leaf, np.diff(flat.leaf_ptr))
        self.positions = bodies.pos
        self.masses = bodies.mass
        self.theta = float(cfg.theta)
        self.eps = float(cfg.eps)
        self.open_self = bool(cfg.open_self_cells)
        self.kernel = slot_kernel()
        self.engine = C_ENGINE if self.kernel is not None else PY_ENGINE
        self._prepared = None
        self._rows = None
        self._kids: Optional[List[List[int]]] = None

    # -- per-cell aggregates derived from ``opens`` ----------------------
    def tests(self, opens: np.ndarray, k: int) -> np.ndarray:
        """Opening tests per cell: the parent's openers (``k`` at the
        root), as float64."""
        tests = opens[self.parent].astype(np.float64)
        tests[0] = k
        return tests

    def leaf_visits(self, opens: np.ndarray) -> np.ndarray:
        """Bodies that reach each leaf body (aligned with
        ``flat.leaf_bodies``), as float64."""
        return opens[self.leaf_parent].astype(np.float64)

    def open_order(self, opens: np.ndarray) -> List[Cell]:
        """The opened cells in the group recursion's first-open order:
        pre-order DFS, children pushed in slot order and popped in
        reverse, over the cells with ``opens > 0``."""
        if self._kids is None:
            data = self.flat.cell_data.tolist()
            ptr = self.flat.cell_ptr.tolist()
            self._kids = [data[a:b] for a, b in zip(ptr, ptr[1:])]
        kids = self._kids
        opened = opens.tolist()
        cells = self.cells
        order: List[Cell] = []
        stack = [0]
        while stack:
            r = stack.pop()
            if opened[r]:
                order.append(cells[r])
                stack.extend(kids[r])
        return order

    def prepared_bodies(self) -> Tuple[np.ndarray, ...]:
        """``prepare_bodies`` of the phase's bodies, computed once."""
        if self._prepared is None:
            self._prepared = prepare_bodies(self.positions, self.masses)
        return self._prepared

    # -- engines ---------------------------------------------------------
    def _walk_c(self, idx: np.ndarray, opens: np.ndarray):
        px, py, pz, gmass = self.prepared_bodies()
        k = len(idx)
        acc = np.empty((k, 3))
        work = np.empty(k)
        self.kernel.slot_walk(
            np.ascontiguousarray(idx, dtype=np.int64), px, py, pz, gmass,
            self.flat, self.theta * self.theta, self.eps * self.eps,
            self.open_self, acc, work, opens)
        return acc, work

    def _walk_py(self, idx: np.ndarray, opens: np.ndarray):
        if self._rows is None:
            self._rows = {id(c): r for r, c in enumerate(self.cells)}
        return gravity_traversal(
            self.root, idx, self.positions, self.masses, self.theta,
            self.eps, _OpenRecorder(self._rows, opens),
            open_self_cells=self.open_self)


class _OpenRecorder(TraversalPolicy):
    """Fills ``opens`` by FlatTree row from the group recursion."""

    def __init__(self, rows: dict, opens: np.ndarray):
        self.rows = rows
        self.opens = opens

    def on_open(self, cell: Cell, n_near: int) -> None:
        self.opens[self.rows[id(cell)]] += n_near


def slot_walks(tree: SlotTree, groups: Sequence[np.ndarray],
               weights: Sequence[float]
               ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`slot_walk` of every group, in order.  The compiled walks
    run side by side (:mod:`repro.kernels.pool`), heaviest ``weights``
    first: they write only their own outputs, so the results are those
    of serial calls."""
    if tree.kernel is None:
        return [slot_walk(tree, idx) for idx in groups]
    tree.prepared_bodies()  # once, before the walks share it
    return run_jobs(functools.partial(slot_walk, tree), groups, weights)


def slot_walk(tree: SlotTree, idx: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(acc, work, opens)`` for the bodies ``idx`` against ``tree``.

    ``acc`` (k, 3) and ``work`` (k,) equal ``gravity_traversal``'s
    bit-for-bit; ``opens`` (int64, one slot per row of ``tree.flat``)
    counts the bodies of ``idx`` that opened each cell.
    """
    opens = np.zeros(tree.flat.ncells, dtype=np.int64)
    if len(idx) == 0:
        return np.zeros((0, 3)), np.zeros(0), opens
    walk = tree._walk_c if tree.kernel is not None else tree._walk_py
    acc, work = walk(idx, opens)
    return acc, work, opens


class ObjectTreeBackend(ForceBackend):
    """The object-tree engine behind the uniform backend interface."""

    name = "object-tree"

    def __init__(self, cfg, tracer=None):
        super().__init__(cfg, tracer=tracer)
        self.tree: Optional[SlotTree] = None

    @property
    def served_by(self) -> str:
        return self.tree.engine if self.tree is not None \
            else self.name

    def begin_step(self, root: Optional[Cell], bodies: BodySoA) -> None:
        self.tree = SlotTree(root, bodies, self.cfg) \
            if root is not None else None

    def accelerations(self, body_idx: np.ndarray,
                      bodies: BodySoA) -> ForceResult:
        k = len(body_idx)
        if self.tree is None:
            return ForceResult(acc=np.zeros((k, 3)), work=np.zeros(k))
        tr = self.tracer
        traced = tr.enabled
        if traced:
            tr.begin("object-tree.accelerations", "backend", nbodies=k)
        acc, work, _ = slot_walk(self.tree, body_idx)
        if traced:
            tr.end(interactions=float(work.sum()))
        return ForceResult(acc=acc, work=work)
