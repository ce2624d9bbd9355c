/* Iterative Barnes-Hut force walks over FlatTree arrays, the
 * baseline's tree-build and c-of-m accounting replays, the insertion
 * build itself and the flatten of its record.
 *
 * Eight entry points (one of them in two calls):
 *
 *   - bh_force_walk, the compiled twin of repro.octree.flat.flat_gravity
 *     (the flat-c backend), one stack DFS per body;
 *   - bh_slot_walk, the compiled twin of
 *     repro.octree.traverse.gravity_traversal (the object-tree force
 *     phase): bit-identical to it, plus per-cell open counts;
 *   - bh_frontier_walk, the compiled twin of the section-5.5 frontier
 *     loop in repro.core.frontier: per-group stacks, pooled misses and
 *     outstanding gathers, bit-identical in forces and in every
 *     simulated charge;
 *   - bh_build_replay and bh_cofm_replay, the compiled twins of the
 *     section-4 baseline's build replay (repro.core.build_replay) and
 *     c-of-m spin (repro.core.variants.base): every UPC charge of the
 *     tree build, replayed from the insertion build's record, and the
 *     whole run_waiting schedule of the c-of-m phase, bit-identical in
 *     every clock, NIC time and counter;
 *   - bh_cofm_rows, the compiled twin of repro.octree.cofm.compute_cofm
 *     over every row of a flattened tree (the section-6 subspace
 *     build's one c-of-m pass per step), with bh_cofm_replay's per-cell
 *     combine and no charges;
 *   - bh_tree_rows, the compiled twin of repro.octree.flat.cell_rows
 *     over the record repro.octree.build.insert keeps of its build: the
 *     same breadth-first rows, plus each row's geometry and home;
 *   - bh_insert_build and bh_insert_take, the compiled twin of
 *     repro.octree.build.insert over a batch of empty target cells:
 *     the same cells, leaves, record events and visit counts, as
 *     arrays the Python side turns into Cell and Leaf objects.
 *
 * bh_slot_walk and bh_frontier_walk write only their own outputs and
 * the calling thread's clock (the frontier walk logs its NIC adds
 * instead of making them), so the force phase runs several emulated
 * threads' walks at once, on different OS threads.
 *
 * bh_force_walk walks the same contiguous arrays the numpy level loop reads (per-component cofm and
 * geometric centers, premultiplied size^2 and G*mass, compacted children
 * CSR cell_ptr/cell_data, fused cell->leaf-body spans lb_ptr/lb_data).
 * The opening criterion, the self-exclusion rule, and therefore the
 * visited (body, cell) pair set are identical to the numpy traversal --
 * interaction counts match bit-for-bit, accelerations differ only in
 * floating-point summation order.
 *
 * The file compiles two ways:
 *
 *   - as a setuptools extension module (BH_BUILD_PYEXT defined): the
 *     module body is an empty shell whose only job is to carry these
 *     symbols inside a wheel; the Python side loads them with ctypes
 *     from the extension's shared object, never through the import
 *     system's calling convention;
 *   - as a plain shared library (cc -O3 -fPIC -shared, no Python.h
 *     needed): the load-or-compile-on-first-use path for editable
 *     installs and source checkouts.
 *
 * All entry points are plain C with int64/double arguments, bound by
 * ctypes.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ABI version checked by the loader; bump on any signature change. */
#define BH_ABI_VERSION 9

/* Deepest possible walk: MAX_DEPTH (30) levels, each pushing at most
 * 8 children while popping one -- 4096 is an order of magnitude above
 * the 7 * depth + 1 worst case. */
#define BH_STACK_CAP 4096

/* counters layout (doubles, so Python sums them losslessly with the
 * numpy side's float counters) */
#define BH_C_TESTS 0
#define BH_C_ACCEPTS 1
#define BH_C_OPENS 2
#define BH_C_LEAF 3
#define BH_C_MAXDEPTH 4
#define BH_NCOUNTERS 5

/* error codes */
#define BH_OK 0
#define BH_ERR_STACK_OVERFLOW 1
#define BH_ERR_DECLINED 2
#define BH_ERR_CALLBACK 3
#define BH_ERR_DEADLOCK 4

int64_t bh_abi_version(void) { return BH_ABI_VERSION; }

int64_t bh_ncounters(void) { return BH_NCOUNTERS; }

/* Accelerations, per-body interaction counts, and aggregate traversal
 * counters for k bodies against one tree.
 *
 * ids[k]           body indices to evaluate (rows of the output arrays)
 * px/py/pz[n]      per-component body positions
 * gmass[n]         premultiplied G * body mass
 * cx/cy/cz[C]      per-component cell centers of mass
 * size_sq[C]       squared cell side lengths
 * half[C]          size / 2 (self-cell containment test)
 * ctx/cty/ctz[C]   per-component geometric cell centers
 * cgmass[C]        premultiplied G * cell mass
 * cell_ptr[C+1], cell_data   compacted child-cell CSR
 * lb_ptr[C+1], lb_data       fused cell -> leaf-body spans
 * open_self        nonzero = never accept a cell containing the body
 * accx/accy/accz/work[k]     outputs (overwritten, not accumulated)
 * counters[BH_NCOUNTERS]     aggregate counters (overwritten)
 *
 * Returns BH_OK, or BH_ERR_STACK_OVERFLOW on a malformed tree whose
 * depth exceeds the documented MAX_DEPTH bound.
 */
int bh_force_walk(
    int64_t k, const int64_t *ids,
    const double *px, const double *py, const double *pz,
    const double *gmass,
    const double *cx, const double *cy, const double *cz,
    const double *size_sq, const double *half,
    const double *ctx, const double *cty, const double *ctz,
    const double *cgmass,
    const int64_t *cell_ptr, const int64_t *cell_data,
    const int64_t *lb_ptr, const int64_t *lb_data,
    double theta_sq, double eps_sq, int open_self,
    double *accx, double *accy, double *accz, double *work,
    double *counters)
{
    int64_t stack_node[BH_STACK_CAP];
    int32_t stack_depth[BH_STACK_CAP];
    double tests = 0.0, accepts = 0.0, opens = 0.0, leaf = 0.0;
    int32_t maxdepth = -1;

    for (int64_t c = 0; c < BH_NCOUNTERS; c++)
        counters[c] = 0.0;

    for (int64_t i = 0; i < k; i++) {
        const int64_t id = ids[i];
        const double gx = px[id], gy = py[id], gz = pz[id];
        double ax = 0.0, ay = 0.0, az = 0.0, w = 0.0;
        int64_t sp = 0;
        stack_node[sp] = 0;
        stack_depth[sp] = 0;
        sp++;

        while (sp > 0) {
            sp--;
            const int64_t node = stack_node[sp];
            const int32_t depth = stack_depth[sp];
            tests += 1.0;
            if (depth > maxdepth)
                maxdepth = depth;

            const double dx = cx[node] - gx;
            const double dy = cy[node] - gy;
            const double dz = cz[node] - gz;
            const double dsq = dx * dx + dy * dy + dz * dz;
            int far = size_sq[node] < theta_sq * dsq;
            if (far && open_self) {
                const double h = half[node];
                if (fabs(gx - ctx[node]) <= h &&
                    fabs(gy - cty[node]) <= h &&
                    fabs(gz - ctz[node]) <= h)
                    far = 0;
            }
            if (far) {
                accepts += 1.0;
                const double dq = dsq + eps_sq;
                const double inv = cgmass[node] / (dq * sqrt(dq));
                ax += dx * inv;
                ay += dy * inv;
                az += dz * inv;
                w += 1.0;
                continue;
            }
            opens += 1.0;

            /* leaf children: body-body terms over the fused span */
            for (int64_t j = lb_ptr[node]; j < lb_ptr[node + 1]; j++) {
                const int64_t src = lb_data[j];
                if (src == id)
                    continue;
                const double ldx = px[src] - gx;
                const double ldy = py[src] - gy;
                const double ldz = pz[src] - gz;
                double ldsq = ldx * ldx + ldy * ldy + ldz * ldz;
                ldsq += eps_sq;
                const double linv = gmass[src] / (ldsq * sqrt(ldsq));
                ax += ldx * linv;
                ay += ldy * linv;
                az += ldz * linv;
                w += 1.0;
                leaf += 1.0;
            }

            /* cell children: deeper frontier */
            const int64_t c0 = cell_ptr[node], c1 = cell_ptr[node + 1];
            if (sp + (c1 - c0) > BH_STACK_CAP)
                return BH_ERR_STACK_OVERFLOW;
            for (int64_t j = c0; j < c1; j++) {
                stack_node[sp] = cell_data[j];
                stack_depth[sp] = depth + 1;
                sp++;
            }
        }
        accx[i] = ax;
        accy[i] = ay;
        accz[i] = az;
        work[i] = w;
    }

    counters[BH_C_TESTS] = tests;
    counters[BH_C_ACCEPTS] = accepts;
    counters[BH_C_OPENS] = opens;
    counters[BH_C_LEAF] = leaf;
    counters[BH_C_MAXDEPTH] = (double)maxdepth;
    return BH_OK;
}

/* The object-tree force walk, bit-identical to gravity_traversal.
 *
 * For each body a stack DFS over the canonical child slots: every
 * non-empty slot of an opened cell -- cell (v >= 0) or leaf (v <= -2) --
 * is pushed in slot order 0..7 and popped in reverse.  That is the pop
 * order of gravity_traversal's group stack restricted to one body, so
 * each body's acceleration sums the same terms in the same order.
 *
 * Every float operation mirrors the numpy expression it replaces: a
 * squared distance is summed as (x*x + z*z) + y*y, as gravity_traversal
 * writes it out (repro.octree.traverse.sq_norms; it is also the order of
 * numpy's SIMD np.einsum("ij,ij->i", d, d)), the leaf softening is added
 * after the dot product, and the self term is multiplied by 0.0 rather
 * than skipped, exactly as the numpy mask does.
 *
 * ids[k]                  body indices to evaluate
 * px/py/pz/gmass[n]       per-component positions, G * body mass
 * cx..cgmass[C]           per-cell arrays as in bh_force_walk
 * child[C * 8]            FlatTree.child (EMPTY = -1, leaf = -(id + 2))
 * leaf_ptr[L+1], leaf_bodies   leaf body spans, in Leaf.indices order
 * acc[k * 3]              row-major accelerations (overwritten)
 * work[k]                 interaction counts (overwritten)
 * opens[C]                incremented once per (body, opened cell)
 */
int bh_slot_walk(
    int64_t k, const int64_t *ids,
    const double *px, const double *py, const double *pz,
    const double *gmass,
    const double *cx, const double *cy, const double *cz,
    const double *size_sq, const double *half,
    const double *ctx, const double *cty, const double *ctz,
    const double *cgmass,
    const int64_t *child, const int64_t *leaf_ptr,
    const int64_t *leaf_bodies,
    double theta_sq, double eps_sq, int open_self,
    double *acc, double *work, int64_t *opens)
{
    int64_t stack[BH_STACK_CAP];

    for (int64_t i = 0; i < k; i++) {
        const int64_t id = ids[i];
        const double gx = px[id], gy = py[id], gz = pz[id];
        double ax = 0.0, ay = 0.0, az = 0.0, w = 0.0;
        int64_t sp = 0;
        stack[sp++] = 0;

        while (sp > 0) {
            const int64_t node = stack[--sp];
            if (node < 0) {
                const int64_t leaf = -node - 2;
                for (int64_t j = leaf_ptr[leaf]; j < leaf_ptr[leaf + 1];
                     j++) {
                    const int64_t src = leaf_bodies[j];
                    const double dx = px[src] - gx;
                    const double dy = py[src] - gy;
                    const double dz = pz[src] - gz;
                    const double dsq = ((dx * dx + dz * dz) + dy * dy)
                                       + eps_sq;
                    const double notself = src != id ? 1.0 : 0.0;
                    const double inv =
                        gmass[src] / (dsq * sqrt(dsq)) * notself;
                    ax += dx * inv;
                    ay += dy * inv;
                    az += dz * inv;
                    w += notself;
                }
                continue;
            }

            const double dx = cx[node] - gx;
            const double dy = cy[node] - gy;
            const double dz = cz[node] - gz;
            const double dsq = (dx * dx + dz * dz) + dy * dy;
            int far = size_sq[node] < theta_sq * dsq;
            if (far && open_self) {
                const double h = half[node];
                if (fabs(gx - ctx[node]) <= h &&
                    fabs(gy - cty[node]) <= h &&
                    fabs(gz - ctz[node]) <= h)
                    far = 0;
            }
            if (far) {
                const double dq = dsq + eps_sq;
                const double inv = cgmass[node] / (dq * sqrt(dq));
                ax += dx * inv;
                ay += dy * inv;
                az += dz * inv;
                w += 1.0;
                continue;
            }
            opens[node] += 1;
            if (sp + 8 > BH_STACK_CAP)
                return BH_ERR_STACK_OVERFLOW;
            const int64_t *slots = child + node * 8;
            for (int s = 0; s < 8; s++)
                if (slots[s] != -1)
                    stack[sp++] = slots[s];
        }
        acc[3 * i] = ax;
        acc[3 * i + 1] = ay;
        acc[3 * i + 2] = az;
        work[i] = w;
    }
    return BH_OK;
}

/* ------------------------------------------------------------------ */
/* The section-5.5 frontier loop, bit-identical to frontier._walk_py.   */
/* ------------------------------------------------------------------ */

/* most bodies per working group: an active set is a uint32 bitmask */
#define BH_MAX_GROUP 32
/* stack-item flag on a cell row: ("expand", cell), its children arrived */
#define BH_EXPAND ((int32_t)1 << 30)

/* The walk's only call back into Python, for a gather piece the charge
 * table does not hold (n > gmax): CostModel.gather_ilist(tid, src, n)'s
 * complete time, its nic time stored in *nic.  NaN when Python raised. */
typedef double (*bh_charge_fn)(int64_t src, int64_t n, double *nic);

/* one work item of a group: tree node and its active bodies */
typedef struct { int32_t node; uint32_t mask; } bh_item;
/* one parked item, in its frontier cell's FIFO list */
typedef struct { int32_t slot; uint32_t mask; int32_t next; } bh_park;

typedef struct {
    /* tree, bodies and the thread's assignment */
    int64_t tid, group, cap;
    const int64_t *ids, *child, *leaf_ptr, *leaf_bodies, *leaf_owner;
    const int32_t *home;
    const double *px, *py, *pz, *gmass;
    const double *cx, *cy, *cz, *size_sq, *half, *ctx, *cty, *ctz,
        *cgmass;
    double theta_sq, eps_sq;
    int open_self;
    /* listing 3 and the charges */
    int64_t n2, n3, w_test, w_open, w_leaf;
    double local_word, interaction, factor, sync_cost;
    double *clock, *stall, *acc, *work;
    /* AsyncEngine.memget_vlist_async's charges: issue cost per source,
     * per-source relation class, gtab[class][n] = (complete, nic) for
     * n <= gmax, the log of NIC adds (node, seconds) in charge order,
     * and the histogram of gathers by source count */
    double issue_cost;
    const uint8_t *gcls;
    const double *gtab;
    int64_t gmax;
    const int64_t *node_of;
    int64_t *nic_node;
    double *nic_sec;
    int64_t nic_len, nic_cap;
    int64_t *hist;
    bh_charge_fn charge;
    /* per cell: children local or gathered; parked FIFO (head, tail) */
    uint8_t *open_ok;
    int32_t *park_head, *park_tail;
    bh_park *parks;
    int32_t park_free;
    /* frontier cells in pooling order; a gather is a pool span */
    int32_t *pool, *gath_lo, *gath_hi;
    double *gath_done;
    int64_t pool_head, pool_len, pool_nodes, gath_head, gath_tail;
    int64_t *src_cnt, *src_order;
    /* per working-group slot */
    bh_item *stacks;
    int64_t *sp;
    int32_t *parked, *slot_group;
    /* results */
    int64_t gathers, forced, waits, cells_requested, interactions,
        interaction_adds, stall_adds, elems;
} bh_frontier;

static int fw_nchildren(const bh_frontier *f, int32_t cell)
{
    const int64_t *slots = f->child + (int64_t)cell * 8;
    int n = 0;
    for (int j = 0; j < 8; j++)
        n += slots[j] != -1;
    return n;
}

/* CostModel.compute of an integer count times a unit cost */
static void fw_charge(bh_frontier *f, int64_t count, double unit)
{
    *f->clock += ((double)count * unit) * f->factor;
}

static int fw_push(bh_frontier *f, int64_t s, int32_t node, uint32_t mask)
{
    if (f->sp[s] == f->cap)
        return BH_ERR_STACK_OVERFLOW;
    f->stacks[s * f->cap + f->sp[s]++] = (bh_item){node, mask};
    return BH_OK;
}

static int fw_open(bh_frontier *f, int64_t s, int32_t cell, uint32_t mask)
{
    const int64_t *slots = f->child + (int64_t)cell * 8;
    fw_charge(f, f->w_open * __builtin_popcount(mask), f->local_word);
    for (int j = 0; j < 8; j++)
        if (slots[j] != -1 && fw_push(f, s, (int32_t)slots[j], mask))
            return BH_ERR_STACK_OVERFLOW;
    return BH_OK;
}

static void fw_leaf(bh_frontier *f, int64_t lo, int32_t node,
                    uint32_t mask)
{
    const int64_t leaf = -(int64_t)node - 2;
    const int64_t b0 = f->leaf_ptr[leaf], b1 = f->leaf_ptr[leaf + 1];
    int64_t n_int = 0;
    fw_charge(f, f->w_leaf * __builtin_popcount(mask) * (b1 - b0),
              f->local_word);
    for (int64_t j = b0; j < b1; j++) {
        const int64_t src = f->leaf_bodies[j];
        for (uint32_t m = mask; m; m &= m - 1) {
            const int64_t row = lo + __builtin_ctz(m);
            const int64_t id = f->ids[row];
            const double dx = f->px[src] - f->px[id];
            const double dy = f->py[src] - f->py[id];
            const double dz = f->pz[src] - f->pz[id];
            const double dsq = ((dx * dx + dz * dz) + dy * dy) + f->eps_sq;
            const double notself = src != id ? 1.0 : 0.0;
            const double inv = f->gmass[src] / (dsq * sqrt(dsq)) * notself;
            f->acc[3 * row] += dx * inv;
            f->acc[3 * row + 1] += dy * inv;
            f->acc[3 * row + 2] += dz * inv;
            f->work[row] += notself;
            n_int += src != id;
        }
    }
    fw_charge(f, n_int, f->interaction);
    f->interactions += n_int;
    f->interaction_adds++;
}

/* one popped item (the Python loop's process()) */
static int fw_process(bh_frontier *f, int64_t s, bh_item it)
{
    const int64_t lo = (int64_t)f->slot_group[s] * f->group;
    if (it.node >= BH_EXPAND)
        return fw_open(f, s, it.node - BH_EXPAND, it.mask);
    if (it.node < 0) {
        fw_leaf(f, lo, it.node, it.mask);
        return BH_OK;
    }

    const int32_t c = it.node;
    double dx[BH_MAX_GROUP], dy[BH_MAX_GROUP], dz[BH_MAX_GROUP],
        dsq[BH_MAX_GROUP];
    uint32_t far = 0;
    fw_charge(f, f->w_test * __builtin_popcount(it.mask), f->local_word);
    for (uint32_t m = it.mask; m; m &= m - 1) {
        const int i = __builtin_ctz(m);
        const int64_t id = f->ids[lo + i];
        dx[i] = f->cx[c] - f->px[id];
        dy[i] = f->cy[c] - f->py[id];
        dz[i] = f->cz[c] - f->pz[id];
        dsq[i] = (dx[i] * dx[i] + dz[i] * dz[i]) + dy[i] * dy[i];
        if (f->size_sq[c] < f->theta_sq * dsq[i])
            far |= 1u << i;
    }
    if (f->open_self && far) {
        const double h = f->half[c];
        for (uint32_t m = far; m; m &= m - 1) {
            const int i = __builtin_ctz(m);
            const int64_t id = f->ids[lo + i];
            if (fabs(f->px[id] - f->ctx[c]) <= h &&
                fabs(f->py[id] - f->cty[c]) <= h &&
                fabs(f->pz[id] - f->ctz[c]) <= h)
                far &= ~(1u << i);
        }
    }
    if (far) {
        for (uint32_t m = far; m; m &= m - 1) {
            const int i = __builtin_ctz(m);
            const int64_t row = lo + i;
            const double dq = dsq[i] + f->eps_sq;
            const double inv = f->cgmass[c] / (dq * sqrt(dq));
            f->acc[3 * row] += dx[i] * inv;
            f->acc[3 * row + 1] += dy[i] * inv;
            f->acc[3 * row + 2] += dz[i] * inv;
            f->work[row] += 1.0;
        }
        fw_charge(f, __builtin_popcount(far), f->interaction);
        f->interactions += __builtin_popcount(far);
        f->interaction_adds++;
    }
    const uint32_t near = it.mask & ~far;
    if (!near)
        return BH_OK;
    if (f->open_ok[c])
        return fw_open(f, s, c, near);

    /* frontier cell: park the item, pool the cell on its first park */
    const int32_t r = f->park_free;
    if (r < 0)
        return BH_ERR_STACK_OVERFLOW;
    f->park_free = f->parks[r].next;
    f->parks[r] = (bh_park){(int32_t)s, near, -1};
    if (f->park_head[c] < 0) {
        f->park_head[c] = r;
        f->pool[f->pool_len++] = c;
        f->pool_nodes += fw_nchildren(f, c);
    } else {
        f->parks[f->park_tail[c]].next = r;
    }
    f->park_tail[c] = r;
    f->parked[s]++;
    return BH_OK;
}

static void fw_source(bh_frontier *f, int64_t owner, int64_t *npairs)
{
    if (f->src_cnt[owner]++ == 0)
        f->src_order[(*npairs)++] = owner;
}

/* one bupc_memget_vlist_async over the children of pool[lo:hi]: the
 * sources in first-request order, charged as AsyncEngine's issue does */
static int fw_issue(bh_frontier *f, int64_t lo, int64_t hi, int forced)
{
    int64_t npairs = 0;
    for (int64_t p = lo; p < hi; p++) {
        const int64_t *slots = f->child + (int64_t)f->pool[p] * 8;
        for (int j = 0; j < 8; j++) {
            const int64_t v = slots[j];
            if (v >= 0) {
                if (f->home[v] != f->tid)
                    fw_source(f, f->home[v], &npairs);
            } else if (v <= -2) {
                const int64_t leaf = -v - 2;
                for (int64_t b = f->leaf_ptr[leaf]; b < f->leaf_ptr[leaf + 1];
                     b++)
                    if (f->leaf_owner[b] != f->tid)
                        fw_source(f, f->leaf_owner[b], &npairs);
            }
        }
    }
    double done = *f->clock;
    if (npairs > 0) {
        *f->clock += f->issue_cost * (double)npairs;
        const double now = *f->clock;
        done = now;
        for (int64_t i = 0; i < npairs; i++) {
            const int64_t src = f->src_order[i], n = f->src_cnt[src];
            f->src_cnt[src] = 0;
            double complete, nic;
            if (n <= f->gmax) {
                const double *e =
                    f->gtab + ((int64_t)f->gcls[src] * (f->gmax + 1) + n) * 2;
                complete = e[0];
                nic = e[1];
            } else {
                complete = f->charge(src, n, &nic);
                if (complete != complete)
                    return BH_ERR_CALLBACK;
            }
            const double at = now + complete;
            if (at > done)
                done = at;
            if (nic > 0.0) {
                if (f->nic_len == f->nic_cap)
                    return BH_ERR_STACK_OVERFLOW;
                f->nic_node[f->nic_len] = f->node_of[src];
                f->nic_sec[f->nic_len++] = nic;
            }
            f->elems += n;
        }
        f->hist[npairs]++;
    }
    f->gath_lo[f->gath_tail] = (int32_t)lo;
    f->gath_hi[f->gath_tail] = (int32_t)hi;
    f->gath_done[f->gath_tail++] = done;
    f->gathers++;
    f->cells_requested += hi - lo;
    f->forced += forced;
    return BH_OK;
}

/* issue gathers while >= n3 nodes are pending and < n2 are in flight */
static int fw_issue_ready(bh_frontier *f)
{
    while (f->pool_nodes >= f->n3 && f->gath_tail - f->gath_head < f->n2) {
        const int64_t lo = f->pool_head;
        int64_t cnt = 0;
        while (f->pool_head < f->pool_len && cnt < f->n3)
            cnt += fw_nchildren(f, f->pool[f->pool_head++]);
        f->pool_nodes -= cnt;
        const int rc = fw_issue(f, lo, f->pool_head, 0);
        if (rc)
            return rc;
    }
    return BH_OK;
}

/* the oldest gather arrived: its cells are local, parked items resume */
static int fw_complete(bh_frontier *f)
{
    const int64_t h = f->gath_head++;
    for (int64_t p = f->gath_lo[h]; p < f->gath_hi[h]; p++) {
        const int32_t c = f->pool[p];
        f->open_ok[c] = 1;
        for (int32_t r = f->park_head[c], next; r >= 0; r = next) {
            const int32_t s = f->parks[r].slot;
            next = f->parks[r].next;
            if (fw_push(f, s, c + BH_EXPAND, f->parks[r].mask))
                return BH_ERR_STACK_OVERFLOW;
            f->parked[s]--;
            f->parks[r].next = f->park_free;
            f->park_free = r;
        }
        f->park_head[c] = -1;
    }
    return BH_OK;
}

static void fw_activate(bh_frontier *f, int64_t s, int64_t g, int64_t k)
{
    const int64_t n = k - g * f->group < f->group ? k - g * f->group
                                                  : f->group;
    f->slot_group[s] = (int32_t)g;
    f->parked[s] = 0;
    f->sp[s] = 0;
    fw_push(f, s, 0, n == 32 ? 0xffffffffu : (1u << n) - 1u);
}

/* Listing 3 for k bodies of thread tid, one call (frontier._walk_py).
 *
 * ids[k], px..gmass[n], cx..cgmass[C], child, leaf_ptr, leaf_bodies
 *                      as in bh_slot_walk; child rows in BFS order
 * group                bodies per working group (1..BH_MAX_GROUP)
 * home[C]              FlatTree.home (owning thread of each cell)
 * leaf_owner[B]        bodies.store[leaf_bodies]
 * words[3]             CELL_TEST, CELL_OPEN, BODY_LEAF word counts
 * n1, n2, n3           the section-5.5 parameters
 * local_word, interaction, factor
 *                      unit costs and CostModel's compute factor
 * sync_cost            clock charge of one trysync / waitsync
 * clock                &rt.clock[tid], charged in place
 * stall                in/out running waitsync_stall value
 * issue_cost          CostModel.async_issue (charged per source)
 * gcls[nthreads]       relation class of (tid, src), 0..3
 * gtab[4 * (gmax+1) * 2]  gather (complete, nic) by class and count
 * node_of[nthreads]    the runtime's node map
 * nic_cap, nic_node[nic_cap], nic_sec[nic_cap]
 *                      the walk's NIC adds, (node, seconds) in the
 *                      order the gathers charge them; the caller adds
 *                      them to the runtime's NIC times in that order.
 *                      Every add is one source of one gather, so the
 *                      tree's cells plus its leaf bodies bound them:
 *                      each frontier cell is gathered once
 * hist[nthreads + 1]   += gathers by number of sources (pass zeros)
 * charge               callback for a count above gmax (bh_charge_fn)
 * ws_cap               workspace byte limit, 0 = none
 * acc[k * 3], work[k]  accumulated in place (pass zeros)
 * out[9]               gathers, forced gathers, waits, cells requested,
 *                      interactions, interaction adds, stall adds,
 *                      gathered elements, NIC adds logged
 *
 * Returns BH_ERR_DECLINED, before any side effect, when the workspace
 * cannot be allocated (or exceeds ws_cap) or an input is out of range;
 * the caller then runs the Python loop.  Every buffer is sized up front
 * from the tree depth and its frontier cell count, so no later step
 * allocates.  BH_ERR_CALLBACK (the charge callback raised) and
 * BH_ERR_DEADLOCK are the only other returns after a side effect.
 */
int bh_frontier_walk(
    int64_t k, const int64_t *ids, int64_t tid, int64_t nthreads,
    int64_t group,
    const double *px, const double *py, const double *pz,
    const double *gmass,
    const double *cx, const double *cy, const double *cz,
    const double *size_sq, const double *half,
    const double *ctx, const double *cty, const double *ctz,
    const double *cgmass,
    int64_t ncells, const int64_t *child, const int64_t *leaf_ptr,
    const int64_t *leaf_bodies, const int32_t *home,
    const int64_t *leaf_owner,
    double theta_sq, double eps_sq, int open_self,
    const int64_t *words, int64_t n1, int64_t n2, int64_t n3,
    double local_word, double interaction, double factor,
    double sync_cost, double *clock, double *stall, double issue_cost,
    const uint8_t *gcls, const double *gtab, int64_t gmax,
    const int64_t *node_of, int64_t nic_cap, int64_t *nic_node,
    double *nic_sec, int64_t *hist, bh_charge_fn charge, int64_t ws_cap,
    double *acc, double *work, int64_t *out)
{
    if (k <= 0 || group < 1 || group > BH_MAX_GROUP || n1 < 1 ||
        ncells < 1 || ncells >= BH_EXPAND || gmax < 0 || nic_cap < 0)
        return BH_ERR_DECLINED;
    for (int64_t t = 0; t < nthreads; t++)
        if (gcls[t] > 3)
            return BH_ERR_DECLINED;
    const int64_t ngroups = (k + group - 1) / group;
    const int64_t nact = n1 < ngroups ? n1 : ngroups;

    /* per-cell arrays; park_head holds cell depths until the loop */
    const size_t cell_bytes = (size_t)ncells * (1 + 2 * sizeof(int32_t));
    if (ws_cap > 0 && cell_bytes > (size_t)ws_cap)
        return BH_ERR_DECLINED;
    uint8_t *cell_ws = malloc(cell_bytes);
    if (!cell_ws)
        return BH_ERR_DECLINED;
    int32_t *park_head = (int32_t *)cell_ws;
    int32_t *park_tail = park_head + ncells;
    uint8_t *open_ok = (uint8_t *)(park_tail + ncells);
    int64_t nfront = 0, maxdepth = 0;
    park_head[0] = 0;
    for (int64_t r = 0; r < ncells; r++) {
        const int64_t *slots = child + r * 8;
        uint8_t ok = 1;
        for (int j = 0; j < 8; j++) {
            const int64_t v = slots[j];
            if (v >= 0) {
                park_head[v] = park_head[r] + 1; /* rows are BFS order */
                ok &= home[v] == tid;
            } else if (v <= -2) {
                for (int64_t b = leaf_ptr[-v - 2]; b < leaf_ptr[-v - 1]; b++)
                    ok &= leaf_owner[b] == tid;
            }
        }
        if (park_head[r] > maxdepth)
            maxdepth = park_head[r];
        open_ok[r] = ok;
        nfront += !ok;
    }

    /* a group stack holds its parked resumes plus one DFS: <= 8 per
     * level; a slot parks at most once per frontier cell */
    const int64_t nf = nfront > 0 ? nfront : 1;
    const int64_t cap = nf + 8 * (maxdepth + 2);
    const size_t bytes =
        (size_t)nact * cap * sizeof(bh_item)
        + (size_t)nact * nf * sizeof(bh_park)
        + (size_t)nf * 3 * sizeof(int32_t) + (size_t)nf * sizeof(double)
        + (size_t)nthreads * 2 * sizeof(int64_t)
        + (size_t)nact * (sizeof(int64_t) + 4 * sizeof(int32_t));
    uint8_t *ws = NULL;
    if (ws_cap <= 0 || cell_bytes + bytes <= (size_t)ws_cap)
        ws = malloc(bytes);
    if (!ws) {
        free(cell_ws);
        return BH_ERR_DECLINED;
    }

    bh_frontier F = {
        .tid = tid, .group = group, .cap = cap, .ids = ids, .child = child,
        .leaf_ptr = leaf_ptr, .leaf_bodies = leaf_bodies,
        .leaf_owner = leaf_owner, .home = home,
        .px = px, .py = py, .pz = pz, .gmass = gmass,
        .cx = cx, .cy = cy, .cz = cz, .size_sq = size_sq, .half = half,
        .ctx = ctx, .cty = cty, .ctz = ctz, .cgmass = cgmass,
        .theta_sq = theta_sq, .eps_sq = eps_sq, .open_self = open_self,
        .n2 = n2, .n3 = n3, .w_test = words[0], .w_open = words[1],
        .w_leaf = words[2], .local_word = local_word,
        .interaction = interaction, .factor = factor,
        .sync_cost = sync_cost, .clock = clock, .stall = stall,
        .acc = acc, .work = work, .issue_cost = issue_cost, .gcls = gcls,
        .gtab = gtab, .gmax = gmax, .node_of = node_of,
        .nic_node = nic_node, .nic_sec = nic_sec, .nic_cap = nic_cap,
        .hist = hist, .charge = charge, .open_ok = open_ok,
        .park_head = park_head, .park_tail = park_tail,
    };
    bh_frontier *f = &F;
    uint8_t *w = ws;
    f->stacks = (bh_item *)w;          w += (size_t)nact * cap * sizeof(bh_item);
    f->parks = (bh_park *)w;           w += (size_t)nact * nf * sizeof(bh_park);
    f->gath_done = (double *)w;        w += (size_t)nf * sizeof(double);
    f->src_cnt = (int64_t *)w;         w += (size_t)nthreads * sizeof(int64_t);
    f->src_order = (int64_t *)w;       w += (size_t)nthreads * sizeof(int64_t);
    f->sp = (int64_t *)w;              w += (size_t)nact * sizeof(int64_t);
    f->pool = (int32_t *)w;            w += (size_t)nf * sizeof(int32_t);
    f->gath_lo = (int32_t *)w;         w += (size_t)nf * sizeof(int32_t);
    f->gath_hi = (int32_t *)w;         w += (size_t)nf * sizeof(int32_t);
    f->parked = (int32_t *)w;          w += (size_t)nact * sizeof(int32_t);
    f->slot_group = (int32_t *)w;      w += (size_t)nact * sizeof(int32_t);
    /* active slots in deque order, and a sweep's snapshot of them */
    int32_t *active = (int32_t *)w, *snap = active + nact;
    for (int64_t r = 0; r < ncells; r++)
        park_head[r] = -1;
    for (int64_t r = 0; r < nact * nf; r++)
        f->parks[r].next = r + 1 < nact * nf ? (int32_t)(r + 1) : -1;
    for (int64_t t = 0; t < nthreads; t++)
        f->src_cnt[t] = 0;

    /* groups 0..nact-1 start in slots 0..nact-1 */
    int64_t nactive = nact, next_group = nact, finished = 0;
    int rc = BH_OK;
    for (int64_t s = 0; s < nact; s++) {
        active[s] = (int32_t)s;
        fw_activate(f, s, s, k);
    }
    while (rc == BH_OK && finished < ngroups) {
        int progressed = 0;
        const int64_t nsnap = nactive;
        for (int64_t i = 0; i < nsnap; i++)
            snap[i] = active[i];
        for (int64_t i = 0; i < nsnap && rc == BH_OK; i++) {
            const int64_t s = snap[i];
            while (f->sp[s] > 0 && rc == BH_OK) {
                const bh_item it = f->stacks[s * cap + --f->sp[s]];
                rc = fw_process(f, s, it);
                progressed = 1;
                if (rc == BH_OK)
                    rc = fw_issue_ready(f);
            }
            if (rc != BH_OK || f->parked[s] != 0 || f->sp[s] != 0)
                continue;
            /* group done: leave the deque, the next group queues last */
            finished++;
            int64_t j = 0;
            while (active[j] != s)
                j++;
            for (; j + 1 < nactive; j++)
                active[j] = active[j + 1];
            nactive--;
            if (next_group < ngroups) {
                fw_activate(f, s, next_group++, k);
                active[nactive++] = (int32_t)s;
            }
            progressed = 1;
        }
        /* bupc_trysync on the oldest handles, in order */
        while (rc == BH_OK && f->gath_head < f->gath_tail) {
            *f->clock += f->sync_cost;
            if (!(*f->clock >= f->gath_done[f->gath_head]))
                break;
            rc = fw_complete(f);
            progressed = 1;
        }
        if (rc != BH_OK || progressed)
            continue;
        /* stalled: wait on the oldest handle, else gather the pool */
        if (f->gath_head < f->gath_tail) {
            const double done = f->gath_done[f->gath_head];
            if (done > *f->clock) {
                *f->stall += done - *f->clock;
                f->stall_adds++;
                *f->clock = done;
            }
            *f->clock += f->sync_cost;
            f->waits++;
            rc = fw_complete(f);
        } else if (f->pool_head < f->pool_len) {
            const int64_t lo = f->pool_head;
            f->pool_head = f->pool_len;
            f->pool_nodes = 0;
            rc = fw_issue(f, lo, f->pool_len, 1);
        } else {
            rc = BH_ERR_DEADLOCK;
        }
    }

    out[0] = f->gathers;
    out[1] = f->forced;
    out[2] = f->waits;
    out[3] = f->cells_requested;
    out[4] = f->interactions;
    out[5] = f->interaction_adds;
    out[6] = f->stall_adds;
    out[7] = f->elems;
    out[8] = f->nic_len;
    free(ws);
    free(cell_ws);
    return rc;
}

/* ------------------------------------------------------------------ */
/* The baseline's tree-build and c-of-m accounting, replayed.           */
/* ------------------------------------------------------------------ */

/* Charge kinds of the relation-class tables (UpcRuntime.class_tables):
 * word accesses of 1, 2 and 4 words (runtime.CLASS_WORDS), lock acquire
 * and lock release.  tab[(kind * BH_NCLASSES + class) * 2 + {0, 1}] is
 * the (issuer, nic) pair of CostModel for any (issuer, target) pair of
 * that class, and cls[issuer * nthreads + target] is the pair's class. */
#define BH_K_WORD1 0
#define BH_K_ACQUIRE 3
#define BH_K_RELEASE 4
#define BH_NCLASSES 4

/* the word-access kind of a width, or -1 when no table holds it */
static int rp_word_kind(int64_t words)
{
    switch (words) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    default: return -1;
    }
}

/* per-thread totals of bh_build_replay, in this order */
#define BH_B_VISITS 0
#define BH_B_WRITES 1
#define BH_B_REMOTE 2
#define BH_B_LOCKS 3
#define BH_B_ALLOCS 4
#define BH_B_NTOTALS 5

/* per-thread totals of bh_cofm_replay, in this order */
#define BH_F_SLOTS 0
#define BH_F_BODY 1
#define BH_F_CHILD 2
#define BH_F_REMOTE 3
#define BH_F_NTOTALS 4

typedef struct {
    int64_t nthreads;
    const int64_t *node_of;
    const uint8_t *cls;
    const double *tab;
    double *clock, *nic;
} bh_charges;

static const double *rp_entry(const bh_charges *c, int kind, int64_t t,
                              int64_t target)
{
    return c->tab
        + (kind * BH_NCLASSES + c->cls[t * c->nthreads + target]) * 2;
}

/* UpcRuntime.word_access(t, owner, words, count): the issuer charge,
 * then the NIC add under the same > 0 guard */
static void rp_word(const bh_charges *c, int kind, int64_t t,
                    int64_t owner, double count)
{
    const double *e = rp_entry(c, kind, t, owner);
    c->clock[t] += e[0] * count;
    const double nic = e[1] * count;
    if (nic > 0.0)
        c->nic[c->node_of[owner]] += nic;
}

/* UpcRuntime._add_nic: nothing for a non-positive charge */
static void rp_nic(const bh_charges *c, int64_t owner, double seconds)
{
    if (!(seconds <= 0.0))
        c->nic[c->node_of[owner]] += seconds;
}

/* Event kinds of the build record (octree.build.BuildRecord), three
 * int64 each:
 *
 *   (p, o, b), b >= 0   body b joins slot o of cell p: a new leaf when
 *                       the slot is empty, the leaf's bucket otherwise
 *   (p, o, -2 - s)      cell s is hooked into slot o of cell p; a leaf
 *                       that held the slot is displaced
 *   (s, o, -1)          the leaf displaced by the last hook moves into
 *                       slot o of cell s
 *
 * Cells are named by creation seq (Cell.seq) throughout. */
#define TR_MOVE (-1)

/* Replay the UPC charges of the baseline's insertion build.
 *
 * nevents, events[3 * nevents]
 *                   the build's record (event kinds above), its cells
 *                   numbered in creation order with the root as 0
 * ins_tid[ninserts] inserting thread of each insertion, in order
 * ncells            cells in the tree, root included
 * node_of[P], cls[P * P], tab[5 * 4 * 2]
 *                   the relation-class charge tables (see above)
 * visit_words       CELL_VISIT_WORDS (1, 2 or 4)
 * alloc_cost        CostModel.compute(CELL_COMPUTE)
 * clock[P], nic[N]  rt.clock and rt._nic, charged in place
 * acquires[ncells], contended[ncells], total_wait[ncells]
 *                   per-cell UpcLock statistics, by seq (out)
 * totals[P * 5]     per-thread integer totals: cell visits, cell
 *                   writes, remote words, lock acquires, allocations
 *
 * Every insertion ends with exactly one body event, (p, o, b), into the
 * cell p that received its body, and insert visits depth + 1 cells: its
 * visits are the path from the root down to p.  Along the path, a cell
 * not visited before is one the insertion created.  The events follow:
 * a visit charges visit_words words at the cell's home; before a new
 * cell's visit come its allocation and then a locked 1-word write to
 * the previous cell; every insertion ends with a locked write to p.
 * Each charge does the float operations of the Python replay
 * (mirror_build in repro/core/build_replay.py) in its order.
 *
 * Returns BH_ERR_DECLINED, before any side effect, when an input is
 * malformed (an id or slot out of range, a cell hooked out of creation
 * order, a displaced leaf moved anywhere but into the cell just hooked,
 * an insertion's new cells not the end of its path, a cell created
 * after the last insertion, or counts that disagree) or the workspace
 * cannot be allocated.
 */
int bh_build_replay(
    int64_t nevents, const int64_t *events, int64_t ninserts,
    const int64_t *ins_tid, int64_t ncells, int64_t nthreads,
    const int64_t *node_of, const uint8_t *cls, const double *tab,
    int64_t visit_words, double alloc_cost, double *clock, double *nic,
    int64_t *acquires, int64_t *contended, double *total_wait,
    int64_t *totals)
{
    const int visit_kind = rp_word_kind(visit_words);
    if (ncells < 1 || nthreads < 1 || nevents < 0 || ninserts < 0
        || visit_kind < 0)
        return BH_ERR_DECLINED;
    for (int64_t j = 0; j < ninserts; j++)
        if (ins_tid[j] < 0 || ins_tid[j] >= nthreads)
            return BH_ERR_DECLINED;
    uint8_t *ws = malloc((size_t)ncells
                         * (3 * sizeof(int64_t) + sizeof(double)));
    if (!ws)
        return BH_ERR_DECLINED;
    int64_t *parent = (int64_t *)ws;
    int64_t *depth = parent + ncells;
    int64_t *home = depth + ncells;
    double *free_at = (double *)(home + ncells);

    /* validate the whole record first: no failure after a side effect;
     * made is the first cell the current insertion created */
    parent[0] = -1;
    depth[0] = 0;
    int64_t created = 1, made = 1, inserts = 0, max_depth = 0;
    for (int64_t e = 0; e < nevents; e++) {
        const int64_t p = events[3 * e], o = events[3 * e + 1],
                      c = events[3 * e + 2];
        int ok = o >= 0 && o < 8 && p >= 0 && p < created;
        if (ok && c >= 0) {
            /* the body ends the insertion: its new cells, if any, are
             * a chain from an older cell down to p */
            if (created > made) {
                ok = p == created - 1;
                for (int64_t s = made + 1; ok && s < created; s++)
                    ok = parent[s] == s - 1;
            }
            made = created;
            inserts++;
        } else if (ok && c == TR_MOVE) {
            ok = e > 0 && p == created - 1 && p >= made
                 && events[3 * e - 1] == -2 - p;
        } else if (ok) {
            ok = -2 - c == created && created < ncells;
            if (ok) {
                parent[created] = p;
                depth[created] = depth[p] + 1;
                if (depth[created] > max_depth)
                    max_depth = depth[created];
                created++;
            }
        }
        if (!ok) {
            free(ws);
            return BH_ERR_DECLINED;
        }
    }
    if (created != ncells || made != created || inserts != ninserts) {
        free(ws);
        return BH_ERR_DECLINED;
    }
    /* one insertion's path, root first */
    int64_t *path = malloc((size_t)(max_depth + 1) * sizeof(int64_t));
    if (!path) {
        free(ws);
        return BH_ERR_DECLINED;
    }

    const bh_charges C = {nthreads, node_of, cls, tab, clock, nic};
    const bh_charges *c = &C;
    for (int64_t r = 0; r < ncells; r++) {
        acquires[r] = contended[r] = 0;
        total_wait[r] = free_at[r] = 0.0;
    }
    for (int64_t r = 0; r < nthreads * BH_B_NTOTALS; r++)
        totals[r] = 0;
    home[0] = 0;
    created = 1;
    int64_t ins = 0;
    for (int64_t e = 0; e < nevents; e++) {
        if (events[3 * e + 2] < 0)
            continue;
        const int64_t t = ins_tid[ins++];
        int64_t n = depth[events[3 * e]] + 1;
        for (int64_t k = n - 1, x = events[3 * e]; k >= 0; k--, x = parent[x])
            path[k] = x;
        /* prev is the cell visited last; n + 1 steps: the last one only
         * writes to the receiving cell */
        int64_t prev = -1;
        for (int64_t k = 0; k <= n; k++) {
            const int64_t v = k < n ? path[k] : -1;
            const int new_cell = v == created;
            if (prev >= 0 && (v < 0 || new_cell)) {
                if (new_cell) {
                    /* a created cell: upc_alloc, CELL_COMPUTE, cells_alloc */
                    home[v] = t;
                    created++;
                    clock[t] += alloc_cost;
                    totals[t * BH_B_NTOTALS + BH_B_ALLOCS]++;
                }
                /* a child-slot write to prev: lock, 1-word write, unlock */
                const int64_t h = home[prev];
                const double *acq = rp_entry(c, BH_K_ACQUIRE, t, h);
                const double now = clock[t];
                const double grant =
                    (free_at[prev] > now ? free_at[prev] : now) + acq[0];
                const double wait = grant - now - acq[0];
                acquires[prev]++;
                if (wait > 1e-12) {
                    contended[prev]++;
                    total_wait[prev] += wait;
                }
                if (grant > free_at[prev])
                    free_at[prev] = grant;
                clock[t] = grant;
                rp_nic(c, h, acq[1]);
                rp_word(c, BH_K_WORD1, t, h, 1.0);
                const double *rel = rp_entry(c, BH_K_RELEASE, t, h);
                const double done = clock[t] + rel[0];
                if (done > free_at[prev])
                    free_at[prev] = done;
                clock[t] = done;
                rp_nic(c, h, rel[1]);
                totals[t * BH_B_NTOTALS + BH_B_WRITES]++;
                totals[t * BH_B_NTOTALS + BH_B_LOCKS]++;
                totals[t * BH_B_NTOTALS + BH_B_REMOTE] += h != t;
            }
            if (v < 0)
                break;
            /* a visit: visit_words at the cell's home */
            rp_word(c, visit_kind, t, home[v], 1.0);
            totals[t * BH_B_NTOTALS + BH_B_VISITS]++;
            totals[t * BH_B_NTOTALS + BH_B_REMOTE] +=
                visit_words * (home[v] != t);
            prev = v;
        }
    }
    free(path);
    free(ws);
    return BH_OK;
}

/* One cell's c-of-m combine, shared by bh_cofm_replay and bh_cofm_rows:
 * the partial sums of compute_cofm's per-cell loop, added in its order
 * (a leaf's bodies in index order, a child cell's finished fields), and
 * the finished fields, a massless cell taking its geometric centre. */
typedef struct {
    int64_t nb;
    double mass, cofm[3], cost;
} bh_sums;

static void cf_add_bodies(bh_sums *s, const int64_t *leaf_bodies,
                          int64_t b0, int64_t b1, const double *bmass,
                          const double *bpos, const double *bcost)
{
    for (int64_t j = b0; j < b1; j++) {
        const int64_t b = leaf_bodies[j];
        const double m = bmass[b];
        s->mass += m;
        for (int d = 0; d < 3; d++)
            s->cofm[d] += m * bpos[3 * b + d];
        s->nb++;
        s->cost += bcost[b];
    }
}

static void cf_add_cell(bh_sums *s, int64_t r, const double *mass,
                        const double *cofm, const int64_t *nbodies,
                        const double *cost)
{
    const double m = mass[r];
    s->mass += m;
    for (int d = 0; d < 3; d++)
        s->cofm[d] += m * cofm[3 * r + d];
    s->nb += nbodies[r];
    s->cost += cost[r];
}

static void cf_finish(const bh_sums *s, int64_t r, const double *center,
                      double *mass, double *cofm, int64_t *nbodies,
                      double *cost)
{
    mass[r] = s->mass;
    for (int d = 0; d < 3; d++)
        cofm[3 * r + d] = s->mass > 0 ? s->cofm[d] / s->mass
                                      : center[3 * r + d];
    nbodies[r] = s->nb;
    cost[r] = s->cost;
}

/* one thread's c-of-m worker: its next cell, slot and partial sums */
typedef struct {
    int64_t cell, slot, waiting;
    bh_sums s;
} bh_cofm_worker;

typedef struct {
    bh_charges ch;
    int64_t ptrs_local, leaf_words, child_words;
    int child_kind;
    const int64_t *home, *child, *leaf_ptr, *leaf_bodies, *store;
    const double *center, *bmass, *bpos, *bcost;
    double leaf_word_cost, factor, cell_cost;
    double *mass, *cofm, *cost, *done_at;
    int64_t *nbodies, *totals, *prev_same, *owner_cnt;
    uint8_t *done;
} bh_cofm;

/* A leaf's body reads (charge_body_words of BODY_LEAF_WORDS words, or
 * the single-body shortcut), then its bodies' sums in index order. */
static void cf_leaf(bh_cofm *f, int64_t t, bh_cofm_worker *w, int64_t leaf)
{
    const bh_charges *c = &f->ch;
    const int64_t b0 = f->leaf_ptr[leaf], b1 = f->leaf_ptr[leaf + 1];
    int64_t *tot = f->totals + t * BH_F_NTOTALS;
    if (f->ptrs_local) {
        c->clock[t] += ((double)((b1 - b0) * f->leaf_words)
                        * f->leaf_word_cost) * f->factor;
    } else if (b1 - b0 == 1) {
        const int64_t o = f->store[f->leaf_bodies[b0]];
        rp_word(c, BH_K_WORD1, t, o, (double)f->leaf_words);
        tot[BH_F_BODY] += f->leaf_words;
        tot[BH_F_REMOTE] += f->leaf_words * (o != t);
    } else {
        /* np.bincount over the owners, charged in ascending order */
        for (int64_t j = b0; j < b1; j++)
            f->owner_cnt[f->store[f->leaf_bodies[j]]]++;
        for (int64_t o = 0; o < c->nthreads; o++) {
            const int64_t n = f->owner_cnt[o];
            if (!n)
                continue;
            f->owner_cnt[o] = 0;
            rp_word(c, BH_K_WORD1, t, o, (double)n * (double)f->leaf_words);
            tot[BH_F_BODY] += n * f->leaf_words;
            tot[BH_F_REMOTE] += n * f->leaf_words * (o != t);
        }
    }
    cf_add_bodies(&w->s, f->leaf_bodies, b0, b1, f->bmass, f->bpos,
                  f->bcost);
}

/* Run thread t's worker until it blocks on an unfinished child
 * (returns 1, w->waiting set) or has finished every cell (returns 0). */
static int cf_run(bh_cofm *f, int64_t t, bh_cofm_worker *w)
{
    const bh_charges *c = &f->ch;
    int64_t *tot = f->totals + t * BH_F_NTOTALS;
    while (w->cell >= 0) {
        const int64_t cell = w->cell, h = f->home[cell];
        const int64_t *slots = f->child + cell * 8;
        for (; w->slot < 8; w->slot++) {
            const int64_t code = slots[w->slot];
            if (w->waiting < 0) {
                rp_word(c, BH_K_WORD1, t, h, 1.0);
                tot[BH_F_SLOTS]++;
                tot[BH_F_REMOTE] += h != t;
                if (code == -1)
                    continue;
                if (code <= -2) {
                    cf_leaf(f, t, w, -code - 2);
                    continue;
                }
                if (!f->done[code]) {
                    w->waiting = code; /* spin until the child is done */
                    return 1;
                }
            }
            w->waiting = -1;
            const int64_t ho = f->home[code];
            rp_word(c, f->child_kind, t, ho, 1.0);
            tot[BH_F_CHILD]++;
            tot[BH_F_REMOTE] += f->child_words * (ho != t);
            cf_add_cell(&w->s, code, f->mass, f->cofm, f->nbodies, f->cost);
        }
        c->clock[t] += f->cell_cost;
        cf_finish(&w->s, cell, f->center, f->mass, f->cofm, f->nbodies,
                  f->cost);
        f->done_at[cell] = c->clock[t];
        f->done[cell] = 1;
        /* the next cell down the thread's creation order */
        w->cell = f->prev_same[cell];
        w->slot = 0;
        w->s = (bh_sums){0};
    }
    return 0;
}

/* The baseline's c-of-m phase: every thread's worker over its cells in
 * reverse creation order, under UpcRuntime.run_waiting's schedule.
 *
 * ncells, nthreads       cells (FlatTree rows) and threads
 * seq[C]                 creation rank of each cell (Cell.seq): a
 *                        permutation of 0 .. C-1
 * home[C]                owning (creating) thread of each cell
 * child[C * 8]           FlatTree.child (EMPTY = -1, leaf = -(id + 2))
 * leaf_ptr[L+1], leaf_bodies   leaf body spans, in Leaf.indices order
 * center[C * 3]          geometric centers (the cofm of a massless cell)
 * store[n]               bodies.store (owning thread of each body)
 * bmass[n], bpos[n * 3], bcost[n]   body mass, position, cost
 * ptrs_local             bodies are local and cast (sections 5.2+)
 * leaf_words             BODY_LEAF_WORDS
 * child_words            COFM_CHILD_WORDS (1, 2 or 4)
 * leaf_word_cost, factor machine.local_word_cost, CostModel's factor
 * cell_cost              CostModel.compute(CELL_COMPUTE)
 * node_of, cls, tab, clock, nic   as in bh_build_replay
 * mass[C], cofm[C * 3], nbodies[C], cost[C], done_at[C]   outputs
 * totals[P * 4]          per-thread integer totals: slot reads, body
 *                        words, child reads, remote words
 *
 * The scheduler is run_waiting's: the runnable thread with the least
 * (clock, tid) runs until it blocks or finishes; then every thread
 * blocked on a finished cell wakes at max(clock, done_at).  Each
 * runnable thread is keyed by its own clock, so the order of wakes does
 * not matter.  A worker tests a child's done flag before it yields, so
 * it never resumes on a finished token and no poll cost is charged.
 *
 * Returns BH_ERR_DECLINED, before any side effect, on malformed input
 * or when the workspace cannot be allocated, and BH_ERR_DEADLOCK if
 * every live thread is blocked.
 */
int bh_cofm_replay(
    int64_t ncells, int64_t nthreads, const int64_t *seq,
    const int64_t *home, const int64_t *child, int64_t nleaves,
    const int64_t *leaf_ptr, const int64_t *leaf_bodies, const double *center,
    int64_t nbodies_all, const int64_t *store, const double *bmass,
    const double *bpos, const double *bcost, int64_t ptrs_local,
    int64_t leaf_words, int64_t child_words, double leaf_word_cost,
    double factor, double cell_cost, const int64_t *node_of,
    const uint8_t *cls, const double *tab, double *clock, double *nic,
    double *mass, double *cofm, int64_t *nbodies, double *cost,
    double *done_at, int64_t *totals)
{
    const int child_kind = rp_word_kind(child_words);
    if (ncells < 1 || nthreads < 1 || nleaves < 0 || leaf_ptr[0] != 0
        || child_kind < 0)
        return BH_ERR_DECLINED;
    for (int64_t r = 0; r < ncells; r++) {
        if (home[r] < 0 || home[r] >= nthreads || seq[r] < 0
            || seq[r] >= ncells)
            return BH_ERR_DECLINED;
        for (int j = 0; j < 8; j++) {
            const int64_t v = child[r * 8 + j];
            if (v >= ncells || (v <= -2 && -v - 2 >= nleaves))
                return BH_ERR_DECLINED;
        }
    }
    for (int64_t l = 0; l < nleaves; l++)
        if (leaf_ptr[l] >= leaf_ptr[l + 1])
            return BH_ERR_DECLINED;
    for (int64_t j = 0; j < leaf_ptr[nleaves]; j++) {
        const int64_t b = leaf_bodies[j];
        if (b < 0 || b >= nbodies_all || store[b] < 0 || store[b] >= nthreads)
            return BH_ERR_DECLINED;
    }
    uint8_t *ws = malloc(
        (size_t)ncells * (2 * sizeof(int64_t) + 1)
        + (size_t)nthreads * (sizeof(bh_cofm_worker) + sizeof(int64_t) + 1));
    if (!ws)
        return BH_ERR_DECLINED;
    bh_cofm_worker *workers = (bh_cofm_worker *)ws;
    int64_t *prev_same = (int64_t *)(workers + nthreads);
    int64_t *by_seq = prev_same + ncells;
    int64_t *owner_cnt = by_seq + ncells;
    uint8_t *done = (uint8_t *)(owner_cnt + nthreads);
    uint8_t *runnable = done + ncells;
    /* the cells in creation order; a repeated rank is malformed */
    for (int64_t s = 0; s < ncells; s++)
        by_seq[s] = -1;
    for (int64_t r = 0; r < ncells; r++) {
        if (by_seq[seq[r]] >= 0) {
            free(ws);
            return BH_ERR_DECLINED;
        }
        by_seq[seq[r]] = r;
    }

    bh_cofm F = {
        .ch = {nthreads, node_of, cls, tab, clock, nic},
        .ptrs_local = ptrs_local, .leaf_words = leaf_words,
        .child_words = child_words, .child_kind = child_kind,
        .home = home, .child = child, .leaf_ptr = leaf_ptr,
        .leaf_bodies = leaf_bodies, .store = store, .center = center,
        .bmass = bmass, .bpos = bpos, .bcost = bcost,
        .leaf_word_cost = leaf_word_cost, .factor = factor,
        .cell_cost = cell_cost, .mass = mass, .cofm = cofm, .cost = cost,
        .done_at = done_at, .nbodies = nbodies, .totals = totals,
        .prev_same = prev_same, .owner_cnt = owner_cnt, .done = done,
    };
    for (int64_t t = 0; t < nthreads; t++) {
        workers[t] = (bh_cofm_worker){.cell = -1, .waiting = -1};
        owner_cnt[t] = 0;
        runnable[t] = 1;
    }
    for (int64_t r = 0; r < nthreads * BH_F_NTOTALS; r++)
        totals[r] = 0;
    /* mycelltab[t] is thread t's cells in creation order: walk it back */
    for (int64_t s = 0; s < ncells; s++) {
        const int64_t r = by_seq[s];
        prev_same[r] = workers[home[r]].cell;
        workers[home[r]].cell = r;
        done[r] = 0;
    }

    int64_t live = nthreads;
    int rc = BH_OK;
    while (live > 0) {
        int64_t t = -1;
        for (int64_t u = 0; u < nthreads; u++)
            if (runnable[u] && (t < 0 || clock[u] < clock[t]))
                t = u;
        if (t < 0) {
            rc = BH_ERR_DEADLOCK;
            break;
        }
        runnable[t] = 0;
        if (!cf_run(&F, t, &workers[t]))
            live--;
        for (int64_t u = 0; u < nthreads; u++) {
            const int64_t tok = workers[u].waiting;
            if (runnable[u] || tok < 0 || !done[tok])
                continue;
            if (done_at[tok] > clock[u])
                clock[u] = done_at[tok];
            runnable[u] = 1;
        }
    }
    free(ws);
    return rc;
}

/* compute_cofm over every row of a flattened tree, in one pass.
 *
 * ncells                 cells (FlatTree rows); every child cell's row
 *                        is above its parent's (cell_rows' breadth-first
 *                        order), so a sweep from the last row up finds
 *                        each cell's children finished
 * child[C * 8]           FlatTree.child (EMPTY = -1, leaf = -(id + 2))
 * leaf_ptr[L+1], leaf_bodies   leaf body spans, in Leaf.indices order
 * center[C * 3]          geometric centers (the cofm of a massless cell)
 * bmass[n], bpos[n * 3], bcost[n]   body mass, position, cost
 * mass[C], cofm[C * 3], nbodies[C], cost[C]   outputs
 *
 * Each cell's fields come from bh_cofm_replay's combine, so they are
 * compute_cofm's bit for bit.  Nothing is charged.  Returns
 * BH_ERR_DECLINED, before writing any output, on malformed input.
 */
int bh_cofm_rows(
    int64_t ncells, const int64_t *child, int64_t nleaves,
    const int64_t *leaf_ptr, const int64_t *leaf_bodies,
    const double *center, int64_t nbodies_all, const double *bmass,
    const double *bpos, const double *bcost, double *mass, double *cofm,
    int64_t *nbodies, double *cost)
{
    if (ncells < 1 || nleaves < 0 || leaf_ptr[0] != 0)
        return BH_ERR_DECLINED;
    for (int64_t r = 0; r < ncells; r++)
        for (int j = 0; j < 8; j++) {
            const int64_t v = child[r * 8 + j];
            if ((v >= 0 && (v <= r || v >= ncells))
                || (v <= -2 && -v - 2 >= nleaves))
                return BH_ERR_DECLINED;
        }
    for (int64_t l = 0; l < nleaves; l++)
        if (leaf_ptr[l] >= leaf_ptr[l + 1])
            return BH_ERR_DECLINED;
    for (int64_t j = 0; j < leaf_ptr[nleaves]; j++)
        if (leaf_bodies[j] < 0 || leaf_bodies[j] >= nbodies_all)
            return BH_ERR_DECLINED;
    for (int64_t r = ncells - 1; r >= 0; r--) {
        bh_sums s = {0};
        for (int j = 0; j < 8; j++) {
            const int64_t v = child[r * 8 + j];
            if (v <= -2)
                cf_add_bodies(&s, leaf_bodies, leaf_ptr[-v - 2],
                              leaf_ptr[-v - 1], bmass, bpos, bcost);
            else if (v >= 0)
                cf_add_cell(&s, v, mass, cofm, nbodies, cost);
        }
        cf_finish(&s, r, center, mass, cofm, nbodies, cost);
    }
    return BH_OK;
}

/* ------------------------------------------------------------------ */
/* The built tree flattened from the insertion build's own record.      */
/* ------------------------------------------------------------------ */

/* The tree a build record describes, flattened exactly as
 * repro.octree.flat.cell_rows flattens the linked tree.
 *
 * nevents, events[3 * nevents]   the record, in build order
 * ncells, cell_home[ncells]      cells by seq, and their owning threads
 * root, root_center[3], root_size   the root's seq and geometry
 * nbodies                        body ids are below it; also the
 *                                capacity of leaf_ptr - 1, leaf_bodies
 *                                and order
 * child[ncells * 8]              cell_rows' slot codes (row-major)
 * leaf_ptr, leaf_bodies          leaf spans, in bucket order
 * center[ncells * 3], size[ncells], home[ncells]   per row: the same
 *                                float ops as insert (parent +- size/4,
 *                                size/2 down from the root's)
 * row_seq[ncells]                each row's cell seq
 * order[nbodies]                 the leaf bodies in tree (Morton) order:
 *                                morton.bodies_in_order of the root
 * counts[3]                      rows, leaves and leaf bodies written
 *
 * Cells the root does not reach get no row.  Returns BH_ERR_DECLINED,
 * before writing any output, when the record is malformed (an id out of
 * range, a cell hooked twice or over a cell, a body added where a cell
 * is, a displaced leaf not moved, or more bodies than nbodies).
 */
int bh_tree_rows(
    int64_t nevents, const int64_t *events, int64_t ncells,
    const int64_t *cell_home, int64_t root, const double *root_center,
    double root_size, int64_t nbodies, int64_t *child, int64_t *leaf_ptr,
    int64_t *leaf_bodies, double *center, double *size, int32_t *home,
    int64_t *row_seq, int64_t *order, int64_t *counts)
{
    if (nevents < 0 || ncells < 1 || root < 0 || root >= ncells ||
        nbodies < 0)
        return BH_ERR_DECLINED;
    /* slot codes by seq: -1 empty, a cell seq, or -2 - (leaf id in
     * creation order); a leaf's bodies are a list over the add events */
    const size_t bytes = (size_t)ncells * 8 * sizeof(int64_t)
        + (size_t)ncells
        + (size_t)(nbodies + 1) * 4 * sizeof(int64_t);
    uint8_t *ws = malloc(bytes ? bytes : 1);
    if (!ws)
        return BH_ERR_DECLINED;
    int64_t *slot = (int64_t *)ws;
    int64_t *leaf_first = slot + ncells * 8;
    int64_t *leaf_last = leaf_first + nbodies + 1;
    int64_t *add_next = leaf_last + nbodies + 1;
    int64_t *add_body = add_next + nbodies + 1;
    uint8_t *hooked = (uint8_t *)(add_body + nbodies + 1);
    for (int64_t i = 0; i < ncells * 8; i++)
        slot[i] = -1;
    for (int64_t i = 0; i < ncells; i++)
        hooked[i] = 0;
    hooked[root] = 1;

    int64_t nleaves = 0, nadds = 0, pending = -1;
    int bad = 0;
    for (int64_t e = 0; e < nevents && !bad; e++) {
        const int64_t p = events[3 * e], o = events[3 * e + 1],
            c = events[3 * e + 2];
        if (p < 0 || p >= ncells || o < 0 || o > 7) {
            bad = 1;
            break;
        }
        int64_t *v = slot + p * 8 + o;
        if (c >= 0) {
            if (c >= nbodies || nadds == nbodies || *v >= 0) {
                bad = 1;
                break;
            }
            add_body[nadds] = c;
            add_next[nadds] = -1;
            if (*v == -1) {
                leaf_first[nleaves] = leaf_last[nleaves] = nadds;
                *v = -2 - nleaves++;
            } else {
                const int64_t l = -2 - *v;
                add_next[leaf_last[l]] = nadds;
                leaf_last[l] = nadds;
            }
            nadds++;
        } else if (c == TR_MOVE) {
            if (pending == -1 || *v != -1) {
                bad = 1;
                break;
            }
            *v = pending;
            pending = -1;
        } else {
            const int64_t s = -2 - c;
            if (s >= ncells || hooked[s] || *v >= 0 || pending != -1) {
                bad = 1;
                break;
            }
            hooked[s] = 1;
            pending = *v;
            *v = s;
        }
    }
    if (bad || pending != -1) {
        free(ws);
        return BH_ERR_DECLINED;
    }

    /* breadth-first rows, leaves numbered in row then slot order; the
     * rows' seqs double as the queue */
    int64_t nrows = 1, nl = 0, nb = 0;
    row_seq[0] = root;
    center[0] = root_center[0];
    center[1] = root_center[1];
    center[2] = root_center[2];
    size[0] = root_size;
    leaf_ptr[0] = 0;
    for (int64_t r = 0; r < nrows; r++) {
        const int64_t s = row_seq[r];
        const double cx = center[3 * r], cy = center[3 * r + 1],
            cz = center[3 * r + 2], q = size[r] / 4.0;
        home[r] = (int32_t)cell_home[s];
        for (int j = 0; j < 8; j++) {
            const int64_t v = slot[s * 8 + j];
            int64_t code = -1;
            if (v >= 0) {
                code = nrows;
                row_seq[nrows] = v;
                center[3 * nrows] = j & 1 ? cx + q : cx - q;
                center[3 * nrows + 1] = j & 2 ? cy + q : cy - q;
                center[3 * nrows + 2] = j & 4 ? cz + q : cz - q;
                size[nrows++] = size[r] / 2.0;
            } else if (v <= -2) {
                for (int64_t a = leaf_first[-2 - v]; a >= 0; a = add_next[a])
                    leaf_bodies[nb++] = add_body[a];
                leaf_ptr[++nl] = nb;
                code = -1 - nl;
            }
            child[r * 8 + j] = code;
        }
    }

    /* tree order: depth first, children in slot order; a stack entry is
     * a slot code, and every row and leaf is pushed once */
    int64_t *stack = slot, sp = 0, no = 0;
    stack[sp++] = 0;
    while (sp > 0) {
        const int64_t v = stack[--sp];
        if (v <= -2) {
            for (int64_t j = leaf_ptr[-v - 2]; j < leaf_ptr[-v - 1]; j++)
                order[no++] = leaf_bodies[j];
            continue;
        }
        for (int j = 7; j >= 0; j--)
            if (child[v * 8 + j] != -1)
                stack[sp++] = child[v * 8 + j];
    }
    counts[0] = nrows;
    counts[1] = nl;
    counts[2] = nb;
    free(ws);
    return BH_OK;
}

/* ------------------------------------------------------------------ */
/* The insertion build itself (repro.octree.build.insert), by batch.   */
/* ------------------------------------------------------------------ */

/* A batch built by bh_insert_build and handed over by bh_insert_take.
 * Cells are the jobs' targets (0 .. njobs - 1, in job order), then the
 * cells the insertions create, in creation order; a slot holds -1
 * (empty), a cell, or -2 - l for leaf l (leaves in creation order).
 * Insertion i is the i-th body of the batch and the i-th body to join a
 * leaf: a leaf's bucket is a chain of insertions. */
typedef struct {
    int64_t njobs, nins, base, ncells, cap, nleaves, nevents;
    const int64_t *job_seq;
    int64_t *slot;       /* [cap * 8] */
    double *center;      /* [cap * 3] */
    double *size;        /* [cap] */
    int64_t *home;       /* [cap] */
    int64_t *events;     /* [3 * (nins + 2 * cap)] */
    int64_t *body;       /* [nins] body of each insertion */
    int64_t *leaf_first; /* [nins] first and last insertion of a leaf */
    int64_t *leaf_last;
    int64_t *add_next;   /* [nins] next insertion in the same bucket */
    int64_t *visits;     /* [njobs] */
    int64_t *made;       /* [njobs] */
} bh_insert;

static void ib_free(bh_insert *b)
{
    if (!b)
        return;
    free(b->slot);
    free(b->center);
    free(b->size);
    free(b->home);
    free(b->events);
    free(b->body);
    free(b->leaf_first);
    free(b->leaf_last);
    free(b->add_next);
    free(b->visits);
    free(b->made);
    free(b);
}

/* Room for cap cells and their events; 0 when memory ran out. */
static int ib_reserve(bh_insert *b, int64_t cap)
{
    void *p;
    if ((p = realloc(b->slot, (size_t)cap * 8 * sizeof(int64_t))) == NULL)
        return 0;
    b->slot = p;
    if ((p = realloc(b->center, (size_t)cap * 3 * sizeof(double))) == NULL)
        return 0;
    b->center = p;
    if ((p = realloc(b->size, (size_t)cap * sizeof(double))) == NULL)
        return 0;
    b->size = p;
    if ((p = realloc(b->home, (size_t)cap * sizeof(int64_t))) == NULL)
        return 0;
    b->home = p;
    if ((p = realloc(b->events,
                     (size_t)3 * (b->nins + 2 * cap) * sizeof(int64_t)))
        == NULL)
        return 0;
    b->events = p;
    b->cap = cap;
    return 1;
}

static inline int64_t ib_seq(const bh_insert *b, int64_t k)
{
    return k < b->njobs ? b->job_seq[k] : b->base + k - b->njobs;
}

static inline void ib_event(bh_insert *b, int64_t p, int64_t o, int64_t c)
{
    int64_t *e = b->events + 3 * b->nevents++;
    e[0] = p;
    e[1] = o;
    e[2] = c;
}

/* Insert a batch of bodies into empty cells, as repro.octree.build.insert
 * does, job after job and body after body.
 *
 * njobs, job_seq[njobs], job_center[njobs * 3], job_size[njobs]
 *                   each job's target: an empty cell, its seq in the
 *                   record (below base) and its geometry
 * job_start[njobs + 1]   job j inserts bodies[job_start[j] ..
 *                   job_start[j + 1]) in order
 * bodies[nins], homes[nins]   each insertion's body and the home of
 *                   the cells it creates
 * npos, pos[npos * 3]    body positions (body ids are below npos)
 * base              the seq of the first cell created (the record's
 *                   length)
 * max_depth         MAX_DEPTH: below it, a leaf met is split; at or
 *                   beyond it (counted from the job's target) the body
 *                   joins the leaf's bucket
 * ctx (out)         the built batch, for bh_insert_take
 * counts[2] (out)   cells created, leaves created
 *
 * The float ops are insert's: octant bits from px > cx (and y, z), a
 * child's centre cx +- size / 4.0 per axis, its size size / 2.0; a
 * split moves the leaf by its first body's octant in the new cell.
 * Events are the record's (see TR_MOVE above), in insert's order.
 *
 * Returns BH_ERR_DECLINED, having allocated and written nothing, when
 * an input is malformed (a count or offset out of order, a body id out
 * of range, a target seq not below base) or memory runs out.
 */
int bh_insert_build(
    int64_t njobs, const int64_t *job_seq, const double *job_center,
    const double *job_size, const int64_t *job_start, const int64_t *bodies,
    const int64_t *homes, int64_t npos, const double *pos, int64_t base,
    int64_t max_depth, void **ctx, int64_t *counts)
{
    if (njobs < 0 || base < 0 || npos < 0 || job_start[0] != 0)
        return BH_ERR_DECLINED;
    for (int64_t j = 0; j < njobs; j++)
        if (job_start[j + 1] < job_start[j] || job_seq[j] < 0 ||
            job_seq[j] >= base)
            return BH_ERR_DECLINED;
    const int64_t nins = job_start[njobs];
    for (int64_t i = 0; i < nins; i++)
        if (bodies[i] < 0 || bodies[i] >= npos)
            return BH_ERR_DECLINED;

    bh_insert *b = calloc(1, sizeof(bh_insert));
    if (!b)
        return BH_ERR_DECLINED;
    b->njobs = njobs;
    b->nins = nins;
    b->base = base;
    b->job_seq = job_seq;
    const size_t n1 = (size_t)(nins ? nins : 1),
        j1 = (size_t)(njobs ? njobs : 1);
    b->body = malloc(n1 * sizeof(int64_t));
    b->leaf_first = malloc(n1 * sizeof(int64_t));
    b->leaf_last = malloc(n1 * sizeof(int64_t));
    b->add_next = malloc(n1 * sizeof(int64_t));
    b->visits = malloc(j1 * sizeof(int64_t));
    b->made = malloc(j1 * sizeof(int64_t));
    /* about one cell per two bodies in a tree; grown by half when short */
    if (!b->body || !b->leaf_first || !b->leaf_last || !b->add_next ||
        !b->visits || !b->made ||
        !ib_reserve(b, njobs + nins / 2 + nins / 8 + 16)) {
        ib_free(b);
        return BH_ERR_DECLINED;
    }
    for (int64_t j = 0; j < njobs; j++) {
        for (int o = 0; o < 8; o++)
            b->slot[8 * j + o] = -1;
        b->center[3 * j] = job_center[3 * j];
        b->center[3 * j + 1] = job_center[3 * j + 1];
        b->center[3 * j + 2] = job_center[3 * j + 2];
        b->size[j] = job_size[j];
        b->home[j] = 0;
    }
    b->ncells = njobs;

    for (int64_t j = 0; j < njobs; j++) {
        const int64_t made_before = b->ncells;
        int64_t visits = 0;
        for (int64_t i = job_start[j]; i < job_start[j + 1]; i++) {
            const int64_t body = bodies[i];
            const double px = pos[3 * body], py = pos[3 * body + 1],
                pz = pos[3 * body + 2];
            b->body[i] = body;
            b->add_next[i] = -1;
            int64_t cur = j, depth = 0;
            for (;;) {
                const double cx = b->center[3 * cur],
                    cy = b->center[3 * cur + 1], cz = b->center[3 * cur + 2];
                const int o = (px > cx ? 1 : 0) | (py > cy ? 2 : 0)
                    | (pz > cz ? 4 : 0);
                const int64_t v = b->slot[8 * cur + o];
                if (v == -1 || (v <= -2 && depth >= max_depth)) {
                    if (v == -1) {
                        b->leaf_first[b->nleaves] = i;
                        b->leaf_last[b->nleaves] = i;
                        b->slot[8 * cur + o] = -2 - b->nleaves++;
                    } else {
                        const int64_t l = -2 - v;
                        b->add_next[b->leaf_last[l]] = i;
                        b->leaf_last[l] = i;
                    }
                    ib_event(b, ib_seq(b, cur), o, body);
                    visits += depth + 1;
                    break;
                }
                if (v <= -2) {
                    if (b->ncells == b->cap &&
                        !ib_reserve(b, b->cap + b->cap / 2)) {
                        ib_free(b);
                        return BH_ERR_DECLINED;
                    }
                    const int64_t s = b->ncells++;
                    const double q = b->size[cur] / 4.0;
                    const double sx = o & 1 ? cx + q : cx - q,
                        sy = o & 2 ? cy + q : cy - q,
                        sz = o & 4 ? cz + q : cz - q;
                    b->center[3 * s] = sx;
                    b->center[3 * s + 1] = sy;
                    b->center[3 * s + 2] = sz;
                    b->size[s] = b->size[cur] / 2.0;
                    b->home[s] = homes[i];
                    const int64_t first = b->body[b->leaf_first[-2 - v]];
                    const int moved = (pos[3 * first] > sx ? 1 : 0)
                        | (pos[3 * first + 1] > sy ? 2 : 0)
                        | (pos[3 * first + 2] > sz ? 4 : 0);
                    for (int k = 0; k < 8; k++)
                        b->slot[8 * s + k] = -1;
                    b->slot[8 * s + moved] = v;
                    b->slot[8 * cur + o] = s;
                    ib_event(b, ib_seq(b, cur), o, -2 - ib_seq(b, s));
                    ib_event(b, ib_seq(b, s), moved, TR_MOVE);
                    cur = s;
                } else {
                    cur = v;
                }
                depth++;
            }
        }
        b->visits[j] = visits;
        b->made[j] = b->ncells - made_before;
    }
    b->job_seq = NULL;
    counts[0] = b->ncells - njobs;
    counts[1] = b->nleaves;
    *ctx = b;
    return BH_OK;
}

/* Hand over a batch bh_insert_build made, and free it (only free it
 * when events is NULL).  Each internal array is freed once copied, so
 * that the batch is not held twice over.
 *
 * events[3 * nevents]    the record's events, nevents = nins + 2 * cells
 *                        created
 * center[3 * m], size[m], home[m]   the m created cells' geometry and
 *                        homes, in creation order
 * node[(njobs + m) * 8]  every cell's slots, the targets first, as
 *                        indices into [empty, leaves..., cells...]: 0
 *                        empty, 1 + l leaf l, 1 + nleaves + k cell k
 *                        (k < njobs: job k's target, else created cell
 *                        k - njobs)
 * leaf_ptr[nleaves + 1], leaf_bodies[nins]   each leaf's bucket, in the
 *                        order its bodies joined
 * visits[njobs], made[njobs]   per job, the cells its insertions
 *                        visited and the cells they created
 */
void bh_insert_take(void *ctx, int64_t *events, double *center,
                    double *size, int64_t *home, int64_t *node,
                    int64_t *leaf_ptr, int64_t *leaf_bodies,
                    int64_t *visits, int64_t *made)
{
    bh_insert *b = ctx;
    if (!b)
        return;
    if (events) {
        const int64_t nj = b->njobs, m = b->ncells - nj;
        for (int64_t k = 0; k < 3 * b->nevents; k++)
            events[k] = b->events[k];
        free(b->events);
        b->events = NULL;
        for (int64_t k = 0; k < 3 * m; k++)
            center[k] = b->center[3 * nj + k];
        free(b->center);
        b->center = NULL;
        for (int64_t k = 0; k < m; k++) {
            size[k] = b->size[nj + k];
            home[k] = b->home[nj + k];
        }
        for (int64_t k = 0; k < 8 * b->ncells; k++) {
            const int64_t v = b->slot[k];
            node[k] = v >= 0 ? 1 + b->nleaves + v : -1 - v;
        }
        free(b->slot);
        b->slot = NULL;
        int64_t nb = 0;
        leaf_ptr[0] = 0;
        for (int64_t l = 0; l < b->nleaves; l++) {
            for (int64_t a = b->leaf_first[l]; a >= 0; a = b->add_next[a])
                leaf_bodies[nb++] = b->body[a];
            leaf_ptr[l + 1] = nb;
        }
        for (int64_t j = 0; j < nj; j++) {
            visits[j] = b->visits[j];
            made[j] = b->made[j];
        }
    }
    ib_free(b);
}

#ifdef BH_BUILD_PYEXT
/* Shell module: carries the symbols above in a wheel; Python loads them
 * with ctypes from this shared object's file path (see loader.py). */
#include <Python.h>

static struct PyModuleDef bh_module = {
    PyModuleDef_HEAD_INIT,
    "_bh_kernel",
    "Compiled Barnes-Hut force-walk symbols (loaded via ctypes; the "
    "module itself is an empty shell).",
    -1,
    NULL,
};

PyMODINIT_FUNC PyInit__bh_kernel(void)
{
    return PyModule_Create(&bh_module);
}
#endif
