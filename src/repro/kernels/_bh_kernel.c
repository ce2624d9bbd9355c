/* Iterative Barnes-Hut force walks over FlatTree arrays.
 *
 * Two entry points, one stack DFS per body each:
 *
 *   - bh_force_walk, the compiled twin of repro.octree.flat.flat_gravity
 *     (the flat-c backend);
 *   - bh_slot_walk, the compiled twin of
 *     repro.octree.traverse.gravity_traversal (the object-tree force
 *     phase): bit-identical to it, plus per-cell open counts.
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
 * All entry points are plain C with int64/double arguments so ctypes
 * calls release the GIL, letting the Python-side thread pool chunk
 * bodies across cores.
 */

#include <math.h>
#include <stdint.h>

/* ABI version checked by the loader; bump on any signature change. */
#define BH_ABI_VERSION 2

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
 * Every float operation mirrors the numpy expression it replaces:
 * np.einsum("ij,ij->i", d, d) sums a 3-vector as (x*x + z*z) + y*y
 * (numpy's SIMD sum-of-products loop; repro.backends.object_tree checks the
 * running numpy at first use), the leaf softening is added after the
 * dot product, and the self term is multiplied by 0.0 rather than
 * skipped, exactly as the numpy mask does.
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
