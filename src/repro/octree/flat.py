"""Flat Structure-of-Arrays octree and level-synchronous traversal.

The linked ``Cell``/``Leaf`` tree of :mod:`repro.octree.cell` is ideal for
the paper's communication accounting (every pointer dereference is a place
to charge a remote read), but it pays Python-object overhead on the hottest
path of the real computation.  ``FlatTree`` is the array-native alternative:
the whole tree lives in a handful of contiguous numpy arrays, mirroring the
flattened layouts of FDPS-style and GPU tree codes (Iwasawa et al. 2019;
Lukat & Banerjee 2015), where the tree is rebuilt into arrays each step so
traversal can be vectorized or offloaded.

``flat_gravity`` walks the flat tree *level-synchronously*: instead of
recursing node by node with an active-body set (``gravity_traversal``), it
carries one frontier of (body, cell) pairs per level as index arrays.  The
multipole-acceptance test, the far-cell accumulation, and the leaf
body-body interactions are each a few numpy operations over the whole
frontier, so Python-level work scales with tree *depth* (~15 levels), not
with visited nodes.  All hot arrays are 1-D per component (gathers are
tight C loops, not per-row copies), children are stored compacted (CSR, no
empty-slot filtering on the frontier), and scatter-adds go through
``np.bincount`` on the sorted body rows.  The interaction sets are
identical to the scalar recursion -- only summation order differs, so
accelerations agree to float64 round-off.

Canonical child-slot encoding in ``FlatTree.child`` (int64, ``(C, 8)``):

* ``v >= 0``      -- index of a child cell (row in the cell arrays),
* ``v == EMPTY``  -- empty slot (-1),
* ``v <= -2``     -- leaf holding bodies; leaf id is ``-v - 2``.

Leaf ``i`` holds ``leaf_bodies[leaf_ptr[i]:leaf_ptr[i + 1]]`` -- one body
almost always, several only for the MAX_DEPTH bucket degradation.  The
traversal-side CSR arrays (``cell_ptr``/``cell_data``, and the fused
cell-to-leaf-bodies spans ``lb_ptr``/``lb_data``) are derived from the
canonical arrays on construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nbody.bbox import RootBox
from ..nbody.constants import G
from .build import BuildRecord, build_tree
from .cell import NSUB, Cell, Leaf
from .cofm import compute_cofm
from .morton import bodies_in_order

#: empty child-slot marker
EMPTY = -1


def encode_leaf(leaf_id: int) -> int:
    """Child-slot encoding of leaf ``leaf_id``."""
    return -(leaf_id + 2)


def decode_leaf(value: "int | np.ndarray") -> "int | np.ndarray":
    """Inverse of :func:`encode_leaf` (works elementwise on arrays)."""
    return -value - 2


@dataclass
class TreeRows:
    """One tree, flattened breadth-first: every array a step's later
    phases read, one row per cell (row 0 is the root).

    ``cells[r]`` is the ``Cell`` of row ``r``; ``child`` ((C, 8) int64)
    holds the canonical slot codes, and leaf ``i`` (numbered in row, then
    slot order) holds ``leaf_bodies[leaf_ptr[i]:leaf_ptr[i + 1]]`` in
    ``Leaf.indices`` order.  ``center``, ``size``, ``home`` (int32) and
    ``seq`` (the creation seq) are each row's cell's; ``order`` is the
    leaf bodies in tree order (:func:`~repro.octree.morton.bodies_in_order`).
    The c-of-m arrays (``mass``, ``cofm``, ``nbodies``, ``cost``) are
    None until a c-of-m pass fills them.
    """

    cells: List[Cell]
    child: np.ndarray
    leaf_ptr: np.ndarray
    leaf_bodies: np.ndarray
    center: np.ndarray
    size: np.ndarray
    home: np.ndarray
    seq: np.ndarray
    order: np.ndarray
    mass: Optional[np.ndarray] = None
    cofm: Optional[np.ndarray] = None
    nbodies: Optional[np.ndarray] = None
    cost: Optional[np.ndarray] = None

    def cofm_from_cells(self) -> "TreeRows":
        """Copy the c-of-m fields a pass left in the cells into the
        record; returns it."""
        cells = self.cells
        n = len(cells)
        self.mass = np.fromiter(map(attrgetter("mass"), cells),
                                dtype=np.float64, count=n)
        self.cofm = np.array([c.cofm for c in cells],
                             dtype=np.float64).reshape(n, 3)
        self.nbodies = np.fromiter(map(attrgetter("nbodies"), cells),
                                   dtype=np.int64, count=n)
        self.cost = np.fromiter(map(attrgetter("cost"), cells),
                                dtype=np.float64, count=n)
        return self


def cell_rows(root: Cell) -> TreeRows:
    """The :class:`TreeRows` of a linked tree, read off its cells.  Only
    the cells' structure, geometry, homes and seqs are read, so the
    result stays valid while the tree's shape does."""
    cells = [root]
    codes = []  # the child slot codes, row-major
    leaf_lists = []
    # the loop also visits the cells it appends: a breadth-first walk
    for cell in cells:
        for ch in cell.children:
            if ch is None:
                codes.append(EMPTY)
            elif isinstance(ch, Leaf):
                codes.append(encode_leaf(len(leaf_lists)))
                leaf_lists.append(ch.indices)
            else:
                codes.append(len(cells))
                cells.append(ch)

    n = len(cells)
    counts = np.fromiter(map(len, leaf_lists), dtype=np.int64,
                         count=len(leaf_lists))
    leaf_ptr = np.zeros(len(leaf_lists) + 1, dtype=np.int64)
    np.cumsum(counts, out=leaf_ptr[1:])
    return TreeRows(
        cells=cells,
        child=np.array(codes, dtype=np.int64).reshape(n, NSUB),
        leaf_ptr=leaf_ptr,
        leaf_bodies=np.fromiter(chain.from_iterable(leaf_lists),
                                dtype=np.int64, count=int(leaf_ptr[-1])),
        center=np.array([c.center for c in cells],
                        dtype=np.float64).reshape(n, 3),
        size=np.fromiter(map(attrgetter("size"), cells), dtype=np.float64,
                         count=n),
        home=np.fromiter(map(attrgetter("home"), cells), dtype=np.int32,
                         count=n),
        seq=np.fromiter(map(attrgetter("seq"), cells), dtype=np.int64,
                        count=n),
        order=bodies_in_order(root))


def record_rows(kernel, record: BuildRecord, root: Cell, nbodies: int,
                events: Optional[np.ndarray] = None) -> Optional[TreeRows]:
    """:func:`cell_rows` of ``root`` from the build ``record`` of its
    tree, in one compiled pass (``bh_tree_rows``), without reading a
    ``Cell``: each row's ``center`` and ``size`` are computed with
    ``insert``'s float ops down from the root's geometry.

    ``nbodies`` bounds the body ids; ``events`` is
    :meth:`BuildRecord.event_array` when the caller already made it.
    Returns ``None``, having touched nothing, when the kernel declines.
    """
    ncells = len(record.cells)
    if events is None:
        events = record.event_array()
    child = np.empty((ncells, NSUB), dtype=np.int64)
    leaf_ptr = np.empty(nbodies + 1, dtype=np.int64)
    leaf_bodies = np.empty(nbodies, dtype=np.int64)
    order = np.empty(nbodies, dtype=np.int64)
    center = np.empty((ncells, 3), dtype=np.float64)
    size = np.empty(ncells, dtype=np.float64)
    home = np.empty(ncells, dtype=np.int32)
    seq = np.empty(ncells, dtype=np.int64)
    counts = np.zeros(3, dtype=np.int64)
    if not kernel.tree_rows(
            events, np.array(record.homes, dtype=np.int64), root.seq,
            np.array(root.center, dtype=np.float64), root.size, nbodies,
            child, leaf_ptr, leaf_bodies, center, size, home, seq, order,
            counts):
        return None
    nrows, nleaves, nleaf_bodies = counts.tolist()
    by_seq = record.cells
    return TreeRows(
        cells=[by_seq[s] for s in seq[:nrows].tolist()],
        child=child[:nrows], leaf_ptr=leaf_ptr[:nleaves + 1],
        leaf_bodies=leaf_bodies[:nleaf_bodies], center=center[:nrows],
        size=size[:nrows], home=home[:nrows], seq=seq[:nrows],
        order=order[:nleaf_bodies])


def cofm_rows(kernel, rows: TreeRows, positions: np.ndarray,
              masses: np.ndarray, costs: np.ndarray) -> bool:
    """:func:`compute_cofm` of every cell of a flattened tree, in one
    compiled pass (``bh_cofm_rows``), bit for bit.

    Fills the record's c-of-m arrays; no ``Cell`` is read or written.
    Returns False, having touched nothing, when the kernel declines.
    """
    n = len(rows.cells)
    mass = np.empty(n, dtype=np.float64)
    cofm = np.empty((n, 3), dtype=np.float64)
    nbodies = np.empty(n, dtype=np.int64)
    cost = np.empty(n, dtype=np.float64)
    if not kernel.cofm_rows(
            rows.child, rows.leaf_ptr, rows.leaf_bodies, rows.center,
            np.ascontiguousarray(masses, dtype=np.float64),
            np.ascontiguousarray(positions, dtype=np.float64),
            np.ascontiguousarray(costs, dtype=np.float64),
            mass, cofm, nbodies, cost):
        return False
    rows.mass, rows.cofm, rows.nbodies, rows.cost = mass, cofm, nbodies, cost
    return True


def _ranges(base: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(base[i], base[i] + counts[i])`` spans."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.arange(total, dtype=np.int64)
    csum = np.cumsum(counts)
    out += np.repeat(base - csum + counts, counts)
    return out


@dataclass
class FlatTree:
    """One octree, flattened to contiguous arrays (row 0 is the root)."""

    center: np.ndarray      # (C, 3) float64 -- geometric cell centers
    size: np.ndarray        # (C,)   float64 -- cell side lengths
    mass: np.ndarray        # (C,)   float64
    cofm: np.ndarray        # (C, 3) float64
    nbodies: np.ndarray     # (C,)   int64
    cost: np.ndarray        # (C,)   float64
    home: np.ndarray        # (C,)   int32  -- owning thread (bookkeeping)
    child: np.ndarray       # (C, 8) int64  -- encoded child slots
    leaf_ptr: np.ndarray    # (L+1,) int64  -- leaf body spans
    leaf_bodies: np.ndarray  # (B,)  int64  -- body indices, leaf-major

    # -- traversal-side derived arrays (computed in __post_init__) --------
    cell_ptr: np.ndarray = field(init=False, repr=False)
    cell_data: np.ndarray = field(init=False, repr=False)
    lb_ptr: np.ndarray = field(init=False, repr=False)
    lb_data: np.ndarray = field(init=False, repr=False)
    size_sq: np.ndarray = field(init=False, repr=False)
    half: np.ndarray = field(init=False, repr=False)
    gmass: np.ndarray = field(init=False, repr=False)
    cx: np.ndarray = field(init=False, repr=False)
    cy: np.ndarray = field(init=False, repr=False)
    cz: np.ndarray = field(init=False, repr=False)
    ctx: np.ndarray = field(init=False, repr=False)
    cty: np.ndarray = field(init=False, repr=False)
    ctz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        C = len(self.size)
        # compacted cell children: CSR over rows of ``child``
        cells_mask = self.child >= 0
        ccounts = cells_mask.sum(axis=1, dtype=np.int64)
        self.cell_ptr = np.zeros(C + 1, dtype=np.int64)
        np.cumsum(ccounts, out=self.cell_ptr[1:])
        self.cell_data = self.child[cells_mask]
        # fused cell -> leaf-body spans: for the traversal a leaf child is
        # just a span of body indices, so splice all leaf children of a
        # cell into one contiguous run
        leaf_mask = self.child <= -2
        leaf_rows, _ = np.nonzero(leaf_mask)
        lids = decode_leaf(self.child[leaf_mask])
        nb = self.leaf_ptr[lids + 1] - self.leaf_ptr[lids]
        lb_counts = np.bincount(leaf_rows, weights=nb,
                                minlength=C).astype(np.int64)
        self.lb_ptr = np.zeros(C + 1, dtype=np.int64)
        np.cumsum(lb_counts, out=self.lb_ptr[1:])
        self.lb_data = self.leaf_bodies[_ranges(self.leaf_ptr[lids], nb)]
        # hot scalars per cell, one contiguous 1-D array per component
        self.size_sq = self.size * self.size
        self.half = self.size / 2.0
        self.gmass = G * self.mass
        self.cx = np.ascontiguousarray(self.cofm[:, 0])
        self.cy = np.ascontiguousarray(self.cofm[:, 1])
        self.cz = np.ascontiguousarray(self.cofm[:, 2])
        self.ctx = np.ascontiguousarray(self.center[:, 0])
        self.cty = np.ascontiguousarray(self.center[:, 1])
        self.ctz = np.ascontiguousarray(self.center[:, 2])

    @property
    def ncells(self) -> int:
        return len(self.size)

    @property
    def nleaves(self) -> int:
        return len(self.leaf_ptr) - 1

    @property
    def nbytes(self) -> int:
        """Memory footprint of all arrays (canonical + traversal-derived)."""
        total = 0
        for name in ("center", "size", "mass", "cofm", "nbodies", "cost",
                     "home", "child", "leaf_ptr", "leaf_bodies",
                     "cell_ptr", "cell_data", "lb_ptr", "lb_data",
                     "size_sq", "half", "gmass", "cx", "cy", "cz",
                     "ctx", "cty", "ctz"):
            total += getattr(self, name).nbytes
        return total

    def leaf_slice(self, leaf_id: int) -> np.ndarray:
        """Body indices stored in one leaf."""
        return self.leaf_bodies[self.leaf_ptr[leaf_id]:
                                self.leaf_ptr[leaf_id + 1]]

    # ------------------------------------------------------------------ #
    # construction                                                       #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, rows: TreeRows) -> "FlatTree":
        """The flat tree of a record whose c-of-m arrays are filled."""
        return cls(center=rows.center, size=rows.size, mass=rows.mass,
                   cofm=rows.cofm, nbodies=rows.nbodies, cost=rows.cost,
                   home=rows.home, child=rows.child, leaf_ptr=rows.leaf_ptr,
                   leaf_bodies=rows.leaf_bodies)

    @classmethod
    def from_cell(cls, root: Cell) -> "FlatTree":
        """Flatten a linked tree (c-of-m already computed) breadth-first.

        BFS order puts each level contiguously in memory, which is what
        the level-synchronous traversal touches together.
        """
        return cls.from_rows(cell_rows(root).cofm_from_cells())

    @classmethod
    def from_bodies(cls, positions: np.ndarray, masses: np.ndarray,
                    box: RootBox,
                    costs: Optional[np.ndarray] = None) -> "FlatTree":
        """Build a tree over all bodies via per-body insertion, then
        flatten it (the reference path; see
        :func:`repro.octree.morton_build.build_flat_tree` for the
        vectorized direct construction)."""
        root = build_tree(positions, box)
        compute_cofm(root, positions, masses, costs)
        return cls.from_cell(root)


def check_flat_tree(tree: FlatTree, positions: np.ndarray,
                    masses: Optional[np.ndarray] = None) -> None:
    """Array-level invariants, mirroring
    :func:`repro.octree.validate.check_tree`.

    Checks that every body appears in exactly one leaf, children halve the
    parent and sit at the right offset, and (when ``masses`` is given) cell
    mass/nbodies aggregate their subtrees.  Raises ``AssertionError``.
    """
    C = tree.ncells
    assert tree.child.shape == (C, NSUB)
    cells = tree.child >= 0
    kids = tree.child[cells]
    assert len(np.unique(kids)) == len(kids) == C - 1, \
        "every non-root cell must be referenced exactly once"
    parent_rows, parent_slots = np.nonzero(cells)
    # geometry: child center = parent center +- size/4 per axis, half size
    q = tree.size[parent_rows] / 4.0
    off = np.stack([np.where(parent_slots & 1, q, -q),
                    np.where(parent_slots & 2, q, -q),
                    np.where(parent_slots & 4, q, -q)], axis=1)
    expect = tree.center[parent_rows] + off
    assert np.allclose(tree.center[kids], expect, rtol=0,
                       atol=1e-9 * tree.size[parent_rows, None])
    assert np.allclose(tree.size[kids], tree.size[parent_rows] / 2.0,
                       rtol=1e-12)
    # bodies: each exactly once across leaves, inside their parent cell
    seen = np.sort(tree.leaf_bodies)
    assert len(np.unique(seen)) == len(seen), "body in more than one leaf"
    leaf_mask = tree.child <= -2
    leaf_rows, _ = np.nonzero(leaf_mask)
    leaf_ids = decode_leaf(tree.child[leaf_mask])
    assert np.array_equal(np.sort(leaf_ids), np.arange(tree.nleaves)), \
        "every leaf must be referenced exactly once"
    counts = tree.leaf_ptr[leaf_ids + 1] - tree.leaf_ptr[leaf_ids]
    parent_of_body = np.repeat(leaf_rows, counts)
    bodies = tree.leaf_bodies[_ranges(tree.leaf_ptr[leaf_ids], counts)]
    half = tree.size[parent_of_body, None] / 2.0 * (1 + 1e-9)
    drift = (64 * np.finfo(np.float64).eps
             * (float(np.abs(tree.center[0]).max()) + tree.size[0]))
    assert np.all(np.abs(positions[bodies] - tree.center[parent_of_body])
                  <= half + drift), "body outside its cell"
    if masses is not None:
        assert np.isclose(tree.mass[0], masses[seen].sum(), rtol=1e-9)
        assert int(tree.nbodies[0]) == len(seen)


def prepare_bodies(positions: np.ndarray,
                   masses: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per-step body-side arrays for :func:`flat_gravity`.

    1-D contiguous position components plus premultiplied ``G * mass``.
    These are invariant across the thread groups of one force phase, so
    callers evaluating many groups against the same step (the flat
    backend) compute them once and pass them via ``prepared=``.
    """
    return (np.ascontiguousarray(positions[:, 0]),
            np.ascontiguousarray(positions[:, 1]),
            np.ascontiguousarray(positions[:, 2]),
            G * masses)


class _Scratch:
    """Capacity-keyed reusable temp buffers for the level loop.

    ``flat_gravity`` used to allocate ~a dozen frontier-sized
    temporaries (gathered coordinates, distance components, opening
    masks, interaction weights) with ``np.empty`` *per level per call*;
    this pool hands out slices of buffers that grow geometrically and
    are reused across levels and calls.  Only value-temporaries live
    here -- arrays that escape a level (the next frontier, ``bincount``
    outputs, the returned accumulators) are still freshly allocated.

    One pool per thread (see :func:`_scratch`): concurrent
    ``flat_gravity`` calls never share buffers.
    """

    __slots__ = ("_arrs",)

    def __init__(self) -> None:
        self._arrs: Dict[str, np.ndarray] = {}

    def get(self, key: str, n: int,
            dtype: "np.dtype | type" = np.float64) -> np.ndarray:
        arr = self._arrs.get(key)
        if arr is None or len(arr) < n:
            cap = max(16, 1 << int(max(n - 1, 1)).bit_length())
            arr = np.empty(cap, dtype=dtype)
            self._arrs[key] = arr
        return arr[:n]


_SCRATCH_TLS = threading.local()


def _scratch() -> _Scratch:
    pool = getattr(_SCRATCH_TLS, "pool", None)
    if pool is None:
        pool = _SCRATCH_TLS.pool = _Scratch()
    return pool


def flat_gravity(
    tree: FlatTree,
    body_idx: np.ndarray,
    positions: np.ndarray,
    masses: np.ndarray,
    theta: float,
    eps: float,
    open_self_cells: bool = False,
    prepared: Optional[Tuple[np.ndarray, ...]] = None,
    tracer=None,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    """Accelerations and interaction counts via level-synchronous traversal.

    Semantically identical to
    :func:`repro.octree.traverse.gravity_traversal` (same opening
    criterion, same interaction sets, same ``work`` counts); returns an
    extra dict of aggregate traversal counters:

    * ``cell_tests``  -- (body, cell) opening tests evaluated,
    * ``cell_accepts`` -- far cells used whole,
    * ``cell_opens``  -- (body, cell) pairs expanded to children,
    * ``leaf_interactions`` -- body-body interactions computed,
    * ``levels``      -- frontier iterations (tree depth reached).

    ``tracer`` (a :class:`repro.obs.trace.Tracer`, or ``None``) records one
    ``traversal``-category span per frontier level, carrying the level
    index, frontier size, far-cell accepts, and leaf interactions -- the
    per-level profile the FDPS-style kernel work (arXiv:1907.02289) tunes
    against.  With ``tracer=None`` (the default) the loop body is exactly
    the untraced instruction stream.
    """
    if tracer is not None and not tracer.enabled:
        tracer = None
    k = len(body_idx)
    counters = {"cell_tests": 0.0, "cell_accepts": 0.0, "cell_opens": 0.0,
                "leaf_interactions": 0.0, "levels": 0.0}
    accx = np.zeros(k)
    accy = np.zeros(k)
    accz = np.zeros(k)
    work = np.zeros(k)
    if k == 0 or tree is None or tree.ncells == 0:
        return np.stack([accx, accy, accz], axis=1), work, counters
    ids = np.asarray(body_idx, dtype=np.int64)
    # 1-D per-component position arrays: gathers below are tight C loops
    if prepared is None:
        prepared = prepare_bodies(positions, masses)
    px, py, pz, gmass = prepared
    gx, gy, gz = px[ids], py[ids], pz[ids]
    eps_sq = eps * eps
    theta_sq = theta * theta

    # frontier of (body row, cell row) pairs; every body starts at the
    # root.  ``rows`` stays sorted ascending through every expansion, so
    # the bincount scatter-adds below stream through memory.  All
    # frontier-sized value-temporaries below come from the thread-local
    # scratch pool (same arithmetic sequence as the allocating version,
    # so results are bit-identical).
    rows = np.arange(k, dtype=np.int64)
    nodes = np.zeros(k, dtype=np.int64)
    sc = _scratch()

    while rows.size:
        m = rows.size
        if tracer is not None:
            tracer.begin("level", "traversal",
                         level=int(counters["levels"]),
                         frontier=int(m))
            leaf0 = counters["leaf_interactions"]
        counters["levels"] += 1
        counters["cell_tests"] += m
        gxr = np.take(gx, rows, out=sc.get("gxr", m))
        gyr = np.take(gy, rows, out=sc.get("gyr", m))
        gzr = np.take(gz, rows, out=sc.get("gzr", m))
        dx = np.take(tree.cx, nodes, out=sc.get("dx", m))
        dx -= gxr
        dy = np.take(tree.cy, nodes, out=sc.get("dy", m))
        dy -= gyr
        dz = np.take(tree.cz, nodes, out=sc.get("dz", m))
        dz -= gzr
        dsq = np.multiply(dx, dx, out=sc.get("dsq", m))
        t = sc.get("t", m)
        dsq += np.multiply(dy, dy, out=t)
        dsq += np.multiply(dz, dz, out=t)
        np.multiply(dsq, theta_sq, out=t)
        ssq = np.take(tree.size_sq, nodes, out=sc.get("t2", m))
        far = np.less(ssq, t, out=sc.get("far", m, np.bool_))
        if open_self_cells:
            half = np.take(tree.half, nodes, out=sc.get("t3", m))
            d = np.take(tree.ctx, nodes, out=sc.get("t2", m))
            np.subtract(gxr, d, out=d)
            np.abs(d, out=d)
            inside = np.less_equal(d, half,
                                   out=sc.get("inside", m, np.bool_))
            ib = sc.get("ib", m, np.bool_)
            d = np.take(tree.cty, nodes, out=d)
            np.subtract(gyr, d, out=d)
            np.abs(d, out=d)
            inside &= np.less_equal(d, half, out=ib)
            d = np.take(tree.ctz, nodes, out=d)
            np.subtract(gzr, d, out=d)
            np.abs(d, out=d)
            inside &= np.less_equal(d, half, out=ib)
            np.logical_not(inside, out=inside)
            far &= inside
        n_far = int(far.sum())
        if n_far:
            counters["cell_accepts"] += n_far
            fi = np.flatnonzero(far)
            sel = np.take(rows, fi, out=sc.get("sel", n_far, np.int64))
            dq = np.take(dsq, fi, out=sc.get("dq", n_far))
            dq += eps_sq
            ni = np.take(nodes, fi, out=sc.get("ni", n_far, np.int64))
            inv = np.take(tree.gmass, ni, out=sc.get("inv", n_far))
            ft = sc.get("ft", n_far)
            np.sqrt(dq, out=ft)
            np.multiply(dq, ft, out=ft)
            inv /= ft
            fw = sc.get("fw", n_far)
            np.take(dx, fi, out=fw)
            fw *= inv
            accx += np.bincount(sel, weights=fw, minlength=k)
            np.take(dy, fi, out=fw)
            fw *= inv
            accy += np.bincount(sel, weights=fw, minlength=k)
            np.take(dz, fi, out=fw)
            fw *= inv
            accz += np.bincount(sel, weights=fw, minlength=k)
            work += np.bincount(sel, minlength=k)
        if n_far == m:
            if tracer is not None:
                tracer.end(accepts=n_far, leaf_interactions=0.0)
            break
        near = np.logical_not(far, out=far)
        op_rows = rows[near]
        op_nodes = nodes[near]
        counters["cell_opens"] += op_rows.size

        # leaf children: body-body interactions over the fused spans
        lcounts = tree.lb_ptr[op_nodes + 1] - tree.lb_ptr[op_nodes]
        if lcounts.any():
            rows2 = np.repeat(op_rows, lcounts)
            src = tree.lb_data[_ranges(tree.lb_ptr[op_nodes], lcounts)]
            L = rows2.size
            ldx = np.take(px, src, out=sc.get("ldx", L))
            ldx -= np.take(gx, rows2, out=sc.get("lg", L))
            ldy = np.take(py, src, out=sc.get("ldy", L))
            ldy -= np.take(gy, rows2, out=sc.get("lg", L))
            ldz = np.take(pz, src, out=sc.get("ldz", L))
            ldz -= np.take(gz, rows2, out=sc.get("lg", L))
            ldsq = np.multiply(ldx, ldx, out=sc.get("ldsq", L))
            lt = sc.get("lt", L)
            ldsq += np.multiply(ldy, ldy, out=lt)
            ldsq += np.multiply(ldz, ldz, out=lt)
            ldsq += eps_sq
            inv = np.take(gmass, src, out=sc.get("linv", L))
            np.sqrt(ldsq, out=lt)
            np.multiply(ldsq, lt, out=lt)
            inv /= lt
            lid = np.take(ids, rows2, out=sc.get("lid", L, np.int64))
            eq = np.equal(src, lid, out=sc.get("leq", L, np.bool_))
            n_eq = int(eq.sum())
            if n_eq:
                inv[eq] = 0.0
            counters["leaf_interactions"] += L - n_eq
            lw = sc.get("lw", L)
            np.multiply(ldx, inv, out=lw)
            accx += np.bincount(rows2, weights=lw, minlength=k)
            np.multiply(ldy, inv, out=lw)
            accy += np.bincount(rows2, weights=lw, minlength=k)
            np.multiply(ldz, inv, out=lw)
            accz += np.bincount(rows2, weights=lw, minlength=k)
            work += np.bincount(rows2, minlength=k)
            if n_eq:
                work -= np.bincount(rows2[eq], minlength=k)

        # cell children: the next level's frontier
        ccounts = tree.cell_ptr[op_nodes + 1] - tree.cell_ptr[op_nodes]
        rows = np.repeat(op_rows, ccounts)
        nodes = tree.cell_data[_ranges(tree.cell_ptr[op_nodes], ccounts)]
        if tracer is not None:
            tracer.end(accepts=n_far,
                       leaf_interactions=counters["leaf_interactions"]
                       - leaf0)

    return np.stack([accx, accy, accz], axis=1), work, counters
