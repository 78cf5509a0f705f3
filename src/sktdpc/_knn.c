/* The k-d tree of kdtree.py: its build, and its two searches, exact k
   nearest neighbours and, with a rank filter, the nearest point of smaller
   rank (the dependent-point search of Ex-DPC, Amagata & Hara, SIGMOD 2021).

   The build takes the points presorted once per dimension and partitions
   those orders down the tree, node by node, so it sorts nothing itself:
   the balanced build in O(dim * n log n) (Friedman, Bentley & Finkel, ACM
   TOMS 1977; Brown, "Building a Balanced k-d Tree in O(kn log n) Time",
   JCGT 4(1), 2015).

   Each query runs the depth-first search of Friedman, Bentley & Finkel
   (ACM TOMS 1977), near child first, one query after another.  A subtree's
   cell carries the squared gap from the target to it in each dimension s:
   fl(p[s] - x[s])^2 of the deepest ancestor split on s whose far side the
   cell lies on, else 0.  The near child keeps its node's gaps; the far
   child's replace the split dimension's with fl(plane * plane), plane the
   difference between the split value and the target's coordinate.  At an
   internal node, reach, the square root of the far cell's gaps summed from
   0.0 in dimension order (the bounds-overlap-ball test of Friedman,
   Bentley & Finkel), bounds both the node's point (which lies on the plane
   and in the node's cell) and the far subtree.  Rounded subtraction,
   squaring, addition and square root are monotone, and each point of the
   cell lies at least a gap away in every dimension, so reach never
   exceeds the computed distance of a point it bounds, underflow included.
   On the target's own descent, where no far child was taken and every gap
   is 0, the sum is not taken: reach is sqrt(plane * plane), bit for bit.  The far
   child is pushed with bound reach only when reach is at most the k-th
   best distance, and tested again when it is popped, after the near
   subtree.  The search keeps one gap vector, that of the cell it is in,
   and a trail of the gaps it replaced on its way down (Arya & Mount's
   incremental distance, DCC 1993, without the running sum, which would
   not be summed in order): a popped far child undoes the trail back to
   its push, then sets its own gap, so no entry copies a vector.  Once k
   are kept, the node's point is evaluated on the spot under the same
   test.  While fewer are kept (the k-th best is inf), it is deferred
   instead: it is pushed as its own entry with bound reach, below the near
   subtree, so it is popped after that subtree and skipped when reach
   exceeds the k-th best by then.  The points near the root lie farthest
   from most targets, and a query no longer evaluates them before it keeps
   any neighbour, so it evaluates O(1) points in fixed dimension, as the
   bottom-up search of Bentley ("K-d trees for semidynamic point sets",
   SoCG 1990) does.  A leaf has no plane, and its point is always
   evaluated.  A k-NN pair serves both its ends, as in the local join of
   NN-Descent (Dong, Charikar & Li, WWW 2011), here only to seed an exact
   search: a query offers each distance it evaluates to the other point's
   row when that point's query is still to run, and a query skips the
   points its row holds.  IEEE subtraction rounds symmetrically, so the
   offered distance has the bits that row's query would compute; a seeded
   row holds true distances, so its k-th best bounds the search from the
   first pop and the answer stays exact.  On uniform 2-D points at k = 7 a
   distinct pair is written about 1.08 times, 1.58 unseeded.  Both
   searches compute every distance they evaluate, squares summed from 0.0
   dimension by dimension as baseline.full_matrix sums them, so every
   distance has its bits, and write the pair's key: lo * n + hi for k-NN,
   target first for the rank filter.  In both modes a call stops before a
   query that might not fit in the key buffer, and the caller resumes it
   there.  The kernel calls back into nothing; it reads and writes only the
   arrays it is given.  Build without -ffast-math, -Ofast or FMA
   contraction: any of them changes those bits, and the build's variances
   too. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* A search step pushes at most two entries (far child, deferred point) and
   goes on to the near child, so each node on the path from the root to
   the one searched leaves at most two, and each far child on it one trail
   entry: a search stack never holds more than 2 * depth entries, nor its
   trail more than depth, with depth = floor(log2 n) + 1 <= 63.  The build
   pushes at most two spans (node, start, size, parent's split dimension)
   a pop and holds at most depth + 1. */
#define STACK 128

/* Fills the preorder arrays point, split_dim, left and right (-1: a leaf's
   split_dim, an absent child) of the tree over the n points, one node at a
   time.  Row d of the (dim, n) array order holds the points in
   (coordinate, index) order of dimension d; spare has n slots and side n
   bytes.  A span holds node v's m points at the same offset in every row,
   each row's part in that row's order.  Each dimension's mean and variance
   are summed down them in (coordinate, index) order of the parent's split
   dimension, index order at the root, as numpy's var(axis=0) sums them.
   In the first dimension s of maximum variance, the point of rank
   ceil(m/2) is v's, those before it form node v + 1 and those after it
   node v + ceil(m/2): row s already lists them so, and every other row's
   span is partitioned stably, through spare, into the same three parts, so
   each child's span is again in each row's order.  At the root, spare
   holds the index order until the root's partition overwrites it. */
void build_tree(int64_t n, int64_t dim, const double *points, int64_t *point,
                int64_t *split_dim, int64_t *left, int64_t *right,
                int64_t *order, int64_t *spare, unsigned char *side)
{
    /* a span's points, and the row giving their summing order (-1: spare) */
    struct span { int64_t node, start, size, parent_dim; } stack[STACK] = {{0, 0, n, -1}};
    int h = 1;
    for (int64_t i = 0; i < n; i++)
        spare[i] = i;
    while (h) {
        struct span top = stack[--h];
        int64_t v = top.node, m = top.size, s = 0;
        const int64_t *it = top.parent_dim < 0 ? spare : order + top.parent_dim * n + top.start;
        double widest = -1.0;
        for (int64_t d = 0; d < dim; d++) {
            double mean = 0.0, var = 0.0;
            for (int64_t r = 0; r < m; r++)
                mean += points[it[r] * dim + d];
            mean /= (double)m;
            for (int64_t r = 0; r < m; r++) {
                double e = points[it[r] * dim + d] - mean;
                var += e * e;
            }
            var /= (double)m;
            if (var > widest) {
                widest = var;
                s = d;
            }
        }
        int64_t low = (m + 1) / 2 - 1, high = m / 2; /* the pivot has rank ceil(m/2) */
        const int64_t *ranked = order + s * n + top.start;
        point[v] = ranked[low];
        split_dim[v] = m > 1 ? s : -1;
        left[v] = low ? v + 1 : -1;
        right[v] = high ? v + 1 + low : -1;
        if (m == 1)
            continue;
        for (int64_t r = 0; r < m; r++) /* 0 left, 1 the pivot, 2 right */
            side[ranked[r]] = (unsigned char)((r >= low) + (r > low));
        for (int64_t d = 0; d < dim; d++) {
            if (d == s)
                continue;
            int64_t *o = order + d * n + top.start, l = 0, g = 0;
            for (int64_t r = 0; r < m; r++) { /* no branch: the sides are random */
                int64_t i = o[r];
                unsigned char c = side[i];
                o[l] = i; /* l <= r: o[r] is read */
                spare[g] = i;
                l += c == 0;
                g += c == 2;
            }
            o[low] = point[v];
            memcpy(o + low + 1, spare, (size_t)high * sizeof *o);
        }
        if (high)
            stack[h++] = (struct span){v + 1 + low, top.start + low + 1, high, s};
        if (low)
            stack[h++] = (struct span){v + 1, top.start, low, s};
    }
}

/* Keeps (dist, j) in the row best_i, best_d of k if it is among the k best
   by (distance, index). */
static inline void keep(int64_t *best_i, double *best_d, int64_t k, double dist, int64_t j)
{
    int64_t c = k - 1;
    if (dist < best_d[c] || (dist == best_d[c] && j < best_i[c])) {
        while (c > 0 && (dist < best_d[c - 1] ||
                         (dist == best_d[c - 1] && j < best_i[c - 1]))) {
            best_d[c] = best_d[c - 1];
            best_i[c] = best_i[c - 1];
            c--;
        }
        best_d[c] = dist;
        best_i[c] = j;
    }
}

/* One query's state: target t at x, its k best so far in best_i and
   best_d, every row in indices and distances with the rows after row
   `after` open to its offers, where the keys of the pairs it evaluates
   go, and the rank filter, if any. */
struct query {
    int64_t n, dim, k, t, after;
    const double *x;
    int64_t *best_i, *indices;
    double *best_d, *distances;
    const int64_t *row;
    void *keys;
    int wide;
    int64_t count;
    const int64_t *rank;
};

/* Evaluates node v's point j, at p, from q's target, writes the pair's
   key (k-NN: lo * n + hi; the rank filter: target first, t * n + j) and
   keeps j if it is among the k best by (distance, index); k-NN also offers
   (dist, t) to the row of v's point when that row comes after row
   `after`. */
static void evaluate(struct query *q, int64_t v, int64_t j, const double *p)
{
    double dist = 0.0;
    for (int64_t d = 0; d < q->dim; d++) {
        double e = p[d] - q->x[d];
        dist += e * e;
    }
    dist = sqrt(dist);
    int64_t key = j < q->t && !q->rank ? j * q->n + q->t : q->t * q->n + j;
    if (q->wide)
        ((int64_t *)q->keys)[q->count++] = key;
    else
        ((int32_t *)q->keys)[q->count++] = (int32_t)key;
    if (!q->rank && q->row[v] > q->after)
        keep(q->indices + q->row[v] * q->k, q->distances + q->row[v] * q->k, q->k, dist, q->t);
    keep(q->best_i, q->best_d, q->k, dist, j);
}

/* Searches targets[done], targets[done + 1], ... and returns the position
   of the first one not searched: m when all are, earlier when fewer than
   n - 1 key slots are free before a query (a query evaluates each other
   point at most once, on the spot or deferred).  Node v's point is
   point[v] with coordinates coords[v * dim : (v + 1) * dim]; split_dim[v]
   is -1 at a leaf, and left[v], right[v] are -1 for no child.  A stack
   entry is the root or a far child v >= 0, or ~v for node v's deferred
   point; gap holds dim doubles, the caller's workspace for the gaps of the
   cell searched.
   Query q's neighbours go to row q of the (m, k) arrays indices and
   distances, ascending by (distance, index); the caller fills every row
   with (inf, n) before the first call, and unfilled columns stay so.  The
   key lo * n + hi of every pair evaluated is appended to keys, int64 when
   wide, else int32, at slot *n_keys, which ends past the last one
   written; the rank filter writes t * n + j instead, target first.
   For k-NN, row[v] is the row of node v's point (-1: none), node[j] is
   point j's node, and stamp holds n int64s, none yet equal to a query's
   position, kept by the caller across calls.  When query q evaluates node
   v's point and row[v] > q, it also offers (distance, its target) to row
   row[v], if q is the row of its target's node (a repeated target offers
   from that query alone, so no row holds a point twice).  At its start,
   query q stamps with q the nodes of the points its row holds, and it
   skips a stamped node: it neither evaluates that point again nor writes
   a second key for it.
   The rank filter (rank, min_rank) is NULL for k-NN, and with it row,
   node and stamp are unused.  With it, node v is skipped when
   min_rank[v], the smallest rank in its subtree, is not below rank[t];
   only points of smaller rank are evaluated or deferred, and nothing is
   offered to another row.  Both modes check capacity alike. */
int64_t knn_search(int64_t n, int64_t dim, int64_t k, const double *coords,
                   const int64_t *point, const int64_t *split_dim,
                   const int64_t *left, const int64_t *right,
                   const double *points, const int64_t *targets, int64_t m,
                   int64_t done, int64_t *indices, double *distances,
                   const int64_t *row, const int64_t *node, int64_t *stamp,
                   void *keys, int wide, int64_t capacity, int64_t *n_keys,
                   const int64_t *rank, const int64_t *min_rank, double *gap)
{
    /* a stack entry: its node, its bound, the trail height at its push,
       and, for a far child, the gap it sets (split dimension and square) */
    int64_t stack[STACK], set_dim[STACK];
    double bound[STACK], set_square[STACK];
    int mark[STACK];
    /* the trail: each gap a far child set, with the value it replaced */
    int64_t trail_dim[STACK];
    double trail_gap[STACK];
    struct query q = {n, dim, k, 0, m, NULL, NULL, indices, NULL, distances, row,
                      keys, wide, *n_keys, rank};
    for (; done < m && capacity - q.count >= n - 1; done++) {
        int64_t t = q.t = targets[done];
        const double *x = q.x = points + t * dim;
        int64_t *best_i = q.best_i = indices + done * k;
        double *best_d = q.best_d = distances + done * k;
        if (!rank) {
            q.after = row[node[t]] == done ? done : m; /* m: offers to no row */
            for (int64_t c = 0; c < k && best_i[c] < n; c++)
                stamp[node[best_i[c]]] = done; /* offered by an earlier query */
        }
        for (int64_t d = 0; d < dim; d++)
            gap[d] = 0.0; /* the root's cell is all space */
        int h = 1, trail = 0;
        stack[0] = 0;
        bound[0] = -INFINITY;
        mark[0] = 0;
        set_dim[0] = -1;
        while (h) {
            h--;
            int64_t v = stack[h];
            if (!(bound[h] <= best_d[k - 1]))
                continue;
            if (v < 0) { /* node ~v's point, tested like a leaf's */
                evaluate(&q, ~v, point[~v], coords + ~v * dim);
                continue;
            }
            while (trail > mark[h]) { /* back to the gaps of v's parent */
                trail--;
                gap[trail_dim[trail]] = trail_gap[trail];
            }
            if (set_dim[h] >= 0) {
                trail_dim[trail] = set_dim[h];
                trail_gap[trail] = gap[set_dim[h]];
                trail++;
                gap[set_dim[h]] = set_square[h];
            }
            for (;;) { /* down v's near children, which keep its cell's gaps */
                if (rank && min_rank[v] >= rank[t])
                    break;
                const double *p = coords + v * dim;
                int64_t s = split_dim[v], j = point[v];
                int wanted = j != t && (rank ? rank[j] < rank[t] : stamp[v] != done);
                if (s < 0) { /* a leaf has no plane */
                    if (wanted)
                        evaluate(&q, v, j, p);
                    break;
                }
                double plane = p[s] - x[s], square = plane * plane, reach = 0.0;
                if (trail) { /* the far cell's gaps, summed as a distance is */
                    double kept = gap[s];
                    gap[s] = square;
                    for (int64_t d = 0; d < dim; d++)
                        reach += gap[d];
                    gap[s] = kept;
                    reach = sqrt(reach);
                } else { /* all other gaps are 0 */
                    reach = sqrt(square);
                }
                int inside = reach <= best_d[k - 1];
                int defer = wanted && best_i[k - 1] == n; /* fewer than k kept */
                if (wanted && inside && !defer)
                    evaluate(&q, v, j, p);
                int64_t near = left[v], far = right[v];
                if (plane < 0.0) { /* the target lies beyond the split value */
                    near = right[v];
                    far = left[v];
                }
                if (far >= 0 && inside) {
                    stack[h] = far;
                    bound[h] = reach;
                    mark[h] = trail;
                    set_dim[h] = s;
                    set_square[h] = square;
                    h++;
                }
                if (defer) {
                    stack[h] = ~v;
                    bound[h] = reach;
                    h++;
                }
                if (near < 0)
                    break;
                v = near;
            }
        }
    }
    *n_keys = q.count;
    return done;
}
