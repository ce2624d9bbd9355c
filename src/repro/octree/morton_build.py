"""Vectorized Morton-direct :class:`~repro.octree.flat.FlatTree` construction.

The insertion builder (:mod:`repro.octree.build`) descends the tree once per
body in Python; at n = 16k that per-body loop plus :meth:`FlatTree.from_cell`
flattening dominates the step when the flat traversal does the forces.  This
module builds the *identical* tree directly in CSR form from sorted octant
keys -- the sorted-key domain decomposition of Ferrell & Bertschinger
(astro-ph/9503042), which is also the construction extreme-scale
key-indexed SoA tree codes use (Iwasawa et al., arXiv:1907.02289).  No
``Cell``/``Leaf`` objects exist on this path at all.

The algorithm:

1. **Keys.** :func:`octant_keys` derives each body's 21 octant digits with
   the *same chained-midpoint float arithmetic* the insertion builder uses
   (``p > center`` per axis, child center = parent center +- size/4), packed
   most-significant-first into an int64.  Quantized Morton keys
   (:func:`repro.octree.morton.morton_keys`) encode the same digits but via
   one global scale-and-truncate, which can disagree with the recursive
   midpoint tests within a few ulps of a cell boundary; deriving the digits
   from the midpoint comparisons themselves makes the resulting tree
   *structurally identical by construction*, not just almost always.
2. **Sort.** One ``argsort`` makes every cell of every level a contiguous
   run of the sorted order (a key prefix = a cell).
3. **Levels.** Per level, one round of whole-array ops finds the run
   boundaries (``(group, digit)`` changes between neighbours), classifies
   each run (singleton -> leaf, multi-body -> child cell, multi-body at
   ``MAX_DEPTH`` -> bucket leaf), and emits the level's ``child`` rows,
   centers, and leaf spans.  Runs deeper than the 21 packed digits (bodies
   closer than ~rsize / 2^21 -- near-coincident clusters) continue with
   freshly computed comparison digits until ``MAX_DEPTH``.
4. **Aggregate.** Masses, centers of mass, body counts, and costs are
   filled bottom-up level by level with masked segment sums, folding each
   cell's eight slots in ascending order -- the same association order as
   :func:`repro.octree.cofm.compute_cofm`, so the float results are
   bit-identical on bucket-free trees.

Cell rows come out level-major in ``(parent row, octant)`` scan order and
leaf ids in the same scan order, which is exactly the BFS order
:meth:`FlatTree.from_cell` produces -- on bucket-free inputs the two
builders return byte-identical arrays (buckets only reorder near-coincident
bodies' summation, which the parity tests bound at float64 round-off).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nbody.bbox import RootBox
from .cell import MAX_DEPTH, NSUB
from .flat import EMPTY, FlatTree, decode_leaf, encode_leaf

#: octant digits packed into one int64 key (3 * 21 = 63 bits)
KEY_LEVELS = 21

#: span category for build-phase telemetry (see :mod:`repro.obs.trace`)
CAT_BUILD = "build"


def octant_keys(positions: np.ndarray, box: RootBox,
                levels: int = KEY_LEVELS) -> np.ndarray:
    """Packed octant-digit keys, bit-identical to the insertion builder.

    Digit ``d`` (most significant first) is the octant index body ``i``
    takes at tree depth ``d``:  ``(px > cx) | (py > cy) << 1 | (pz > cz)
    << 2`` against the chained midpoint ``c`` -- the exact comparisons and
    float updates :func:`repro.octree.build.insert` performs, vectorized
    over all bodies.  Sorting by these keys therefore sorts bodies into
    the in-order (Morton) leaf sequence of the insertion-built octree.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = len(pos)
    px = np.ascontiguousarray(pos[:, 0])
    py = np.ascontiguousarray(pos[:, 1])
    pz = np.ascontiguousarray(pos[:, 2])
    cx = np.full(n, float(box.center[0]))
    cy = np.full(n, float(box.center[1]))
    cz = np.full(n, float(box.center[2]))
    size = float(box.rsize)
    keys = np.zeros(n, dtype=np.int64)
    for _ in range(levels):
        q = size / 4.0
        bx = px > cx
        by = py > cy
        bz = pz > cz
        dig = bx.astype(np.int64)
        dig |= by.astype(np.int64) << 1
        dig |= bz.astype(np.int64) << 2
        keys <<= 3
        keys |= dig
        cx = cx + np.where(bx, q, -q)
        cy = cy + np.where(by, q, -q)
        cz = cz + np.where(bz, q, -q)
        size /= 2.0
    return keys


def build_flat_tree(positions: np.ndarray, masses: np.ndarray,
                    box: RootBox, costs: Optional[np.ndarray] = None,
                    tracer=None) -> FlatTree:
    """Construct a :class:`FlatTree` directly from sorted octant keys.

    Produces the same tree as ``build_tree`` + ``compute_cofm`` +
    ``FlatTree.from_cell`` (byte-identical arrays on bucket-free inputs;
    float64-roundoff-equivalent when near-coincident bodies share bucket
    leaves) without creating a single ``Cell`` object.  ``home`` is left 0
    everywhere -- thread affinity is a property of the simulated insertion
    build, not of the tree.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`, or ``None``) records
    ``build``-category spans for the key, sort, per-level structure, and
    aggregation stages.
    """
    if tracer is not None and not tracer.enabled:
        tracer = None
    pos = np.asarray(positions, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    n = len(pos)

    if tracer is not None:
        tracer.begin("morton.keys", CAT_BUILD, nbodies=n)
    keys = octant_keys(pos, box)
    if tracer is not None:
        tracer.end()
        tracer.begin("morton.sort", CAT_BUILD)
    order = np.argsort(keys, kind="stable")
    if tracer is not None:
        tracer.end()

    # ---- structure, level by level ----------------------------------- #
    # Active state at depth d: ``abod`` -- body ids of every cell at this
    # depth, concatenated cell-major (within a cell: key-sorted); ``glen``
    # -- bodies per cell; ``gcx/gcy/gcz`` -- cell centers, chained from
    # the root exactly like Cell.child_center.
    rsize = float(box.rsize)
    cenx_levels: List[np.ndarray] = [np.array([float(box.center[0])])]
    ceny_levels: List[np.ndarray] = [np.array([float(box.center[1])])]
    cenz_levels: List[np.ndarray] = [np.array([float(box.center[2])])]
    size_levels: List[float] = [rsize]
    level_counts: List[int] = [1]
    child_levels: List[np.ndarray] = []
    leaf_chunks: List[np.ndarray] = []
    leaf_count_chunks: List[np.ndarray] = []

    abod = order
    glen = np.array([n], dtype=np.int64)
    gcx, gcy, gcz = cenx_levels[0], ceny_levels[0], cenz_levels[0]
    size = rsize
    row_next = 1
    leaf_next = 0
    d = 0
    while glen.size:
        G = glen.size
        A = abod.size
        if tracer is not None:
            tracer.begin("build.level", CAT_BUILD, level=d, cells=G,
                         bodies=A)
        gid = np.repeat(np.arange(G, dtype=np.int64), glen)
        if d < KEY_LEVELS:
            dig = (keys[abod] >> (3 * (KEY_LEVELS - 1 - d))) & 7
        else:
            # past the packed digits (near-coincident clusters): derive
            # the next digit from the midpoint comparisons and restore
            # the cell-major digit ordering the boundary scan expects
            bx = pos[abod, 0] > gcx[gid]
            by = pos[abod, 1] > gcy[gid]
            bz = pos[abod, 2] > gcz[gid]
            dig = bx.astype(np.int64)
            dig |= by.astype(np.int64) << 1
            dig |= bz.astype(np.int64) << 2
            srt = np.argsort(gid * NSUB + dig, kind="stable")
            abod = abod[srt]
            dig = dig[srt]
        sk = gid * NSUB + dig
        if A:
            brk = np.empty(A, dtype=bool)
            brk[0] = True
            np.not_equal(sk[1:], sk[:-1], out=brk[1:])
            gstart = np.flatnonzero(brk)
        else:
            gstart = np.empty(0, dtype=np.int64)
        gcount = np.diff(np.append(gstart, A))
        pgid = gid[gstart]
        pdig = dig[gstart]
        # an occupied octant becomes a child cell when it holds several
        # bodies and there is depth left; otherwise a (bucket) leaf
        is_cell = (gcount >= 2) & (d < MAX_DEPTH)
        is_leaf = ~is_cell
        ncell_new = int(is_cell.sum())
        nleaf_new = len(gcount) - ncell_new
        childlvl = np.full((G, NSUB), EMPTY, dtype=np.int64)
        childlvl[pgid[is_cell], pdig[is_cell]] = (
            row_next + np.arange(ncell_new, dtype=np.int64))
        childlvl[pgid[is_leaf], pdig[is_leaf]] = encode_leaf(
            leaf_next + np.arange(nleaf_new, dtype=np.int64))
        child_levels.append(childlvl)
        gix = np.repeat(np.arange(len(gcount), dtype=np.int64), gcount)
        body_in_cell = is_cell[gix]
        leaf_chunks.append(abod[~body_in_cell])
        leaf_count_chunks.append(gcount[is_leaf])
        row_next += ncell_new
        leaf_next += nleaf_new
        # next level: surviving runs become cells one level down
        q = size / 4.0
        pc = pgid[is_cell]
        pd = pdig[is_cell]
        gcx = gcx[pc] + np.where(pd & 1, q, -q)
        gcy = gcy[pc] + np.where(pd & 2, q, -q)
        gcz = gcz[pc] + np.where(pd & 4, q, -q)
        abod = abod[body_in_cell]
        glen = gcount[is_cell]
        size /= 2.0
        d += 1
        if tracer is not None:
            tracer.end(new_cells=ncell_new, new_leaves=nleaf_new)
        if glen.size:
            cenx_levels.append(gcx)
            ceny_levels.append(gcy)
            cenz_levels.append(gcz)
            size_levels.append(size)
            level_counts.append(int(glen.size))

    C = row_next
    child = np.concatenate(child_levels, axis=0)
    centerx = np.concatenate(cenx_levels)
    centery = np.concatenate(ceny_levels)
    centerz = np.concatenate(cenz_levels)
    sizes = np.concatenate(
        [np.full(c, s) for c, s in zip(level_counts, size_levels)])
    counts = np.concatenate(leaf_count_chunks) if leaf_count_chunks \
        else np.empty(0, dtype=np.int64)
    leaf_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=leaf_ptr[1:])
    leaf_bodies = np.concatenate(leaf_chunks) if leaf_chunks \
        else np.empty(0, dtype=np.int64)

    mass, cofm, nbodies, cost = _aggregate(
        child, level_counts, centerx, centery, centerz,
        counts, leaf_ptr, leaf_bodies, pos, masses, costs, tracer)

    return FlatTree(
        center=np.stack([centerx, centery, centerz], axis=1),
        size=sizes,
        mass=mass,
        cofm=cofm,
        nbodies=nbodies,
        cost=cost,
        home=np.zeros(C, dtype=np.int32),
        child=child,
        leaf_ptr=leaf_ptr,
        leaf_bodies=leaf_bodies,
    )


def _aggregate(child: np.ndarray, level_counts: "List[int]",
               centerx: np.ndarray, centery: np.ndarray,
               centerz: np.ndarray, counts: np.ndarray,
               leaf_ptr: np.ndarray, leaf_bodies: np.ndarray,
               pos: np.ndarray, masses: np.ndarray,
               costs: Optional[np.ndarray], tracer
               ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Bottom-up mass / c-of-m / counts / cost over finished structure."""
    C = len(centerx)
    if tracer is not None:
        tracer.begin("morton.aggregate", CAT_BUILD, cells=C,
                     leaves=len(counts))
    mass = np.zeros(C)
    cofmx = np.zeros(C)
    cofmy = np.zeros(C)
    cofmz = np.zeros(C)
    nbodies = np.zeros(C, dtype=np.int64)
    cost = np.zeros(C)
    L = len(counts)
    if L:
        lb = leaf_bodies
        lm = masses[lb]
        starts = leaf_ptr[:-1]
        leaf_mass = np.add.reduceat(lm, starts)
        leaf_mx = np.add.reduceat(lm * pos[lb, 0], starts)
        leaf_my = np.add.reduceat(lm * pos[lb, 1], starts)
        leaf_mz = np.add.reduceat(lm * pos[lb, 2], starts)
        leaf_cost = np.add.reduceat(
            np.asarray(costs, dtype=np.float64)[lb], starts) \
            if costs is not None else None
    base = np.concatenate([[0], np.cumsum(level_counts)])
    for lvl in range(len(level_counts) - 1, -1, -1):
        r0, r1 = int(base[lvl]), int(base[lvl + 1])
        ch = child[r0:r1]
        g = r1 - r0
        am = np.zeros(g)
        ax = np.zeros(g)
        ay = np.zeros(g)
        az = np.zeros(g)
        anb = np.zeros(g, dtype=np.int64)
        ac = np.zeros(g)
        # fold the eight slots in ascending order -- the association
        # order of compute_cofm, for bit-equal floats
        for s in range(NSUB):
            v = ch[:, s]
            cm = v >= 0
            if cm.any():
                rows = v[cm]
                m = mass[rows]
                am[cm] += m
                ax[cm] += m * cofmx[rows]
                ay[cm] += m * cofmy[rows]
                az[cm] += m * cofmz[rows]
                anb[cm] += nbodies[rows]
                ac[cm] += cost[rows]
            lmask = v <= -2
            if lmask.any():
                lids = decode_leaf(v[lmask])
                am[lmask] += leaf_mass[lids]
                ax[lmask] += leaf_mx[lids]
                ay[lmask] += leaf_my[lids]
                az[lmask] += leaf_mz[lids]
                anb[lmask] += counts[lids]
                if leaf_cost is not None:
                    ac[lmask] += leaf_cost[lids]
        mass[r0:r1] = am
        occupied = am > 0
        denom = np.where(occupied, am, 1.0)
        cofmx[r0:r1] = np.where(occupied, ax / denom, centerx[r0:r1])
        cofmy[r0:r1] = np.where(occupied, ay / denom, centery[r0:r1])
        cofmz[r0:r1] = np.where(occupied, az / denom, centerz[r0:r1])
        nbodies[r0:r1] = anb
        cost[r0:r1] = ac
    if tracer is not None:
        tracer.end()
    return mass, np.stack([cofmx, cofmy, cofmz], axis=1), nbodies, cost
