/* The k-d tree of kdtree.py: its build, and its two searches, exact k
   nearest neighbours and, with a rank filter, the nearest point of smaller
   rank (the dependent-point search of Ex-DPC, Amagata & Hara, SIGMOD 2021).

   Each query runs the depth-first search of Friedman, Bentley & Finkel
   (ACM TOMS 1977), near child first, one query after another.  At an
   internal node, reach = sqrt(plane * plane) of the difference between the
   split value and the target's coordinate bounds both the node's point
   (which lies on the plane) and the far subtree: the far child is pushed
   with bound reach only when reach is at most the k-th best distance, and
   tested again when it is popped, after the near subtree.  Once k are
   kept, the node's point is evaluated on the spot under the same test.
   While fewer are kept (the k-th best is inf), it is deferred instead: it
   is pushed as its own entry with bound reach, between the far child and
   the near child, so it is popped after the near subtree and skipped when
   reach exceeds the k-th best by then.  The points near the root lie
   farthest from most targets, and a query no longer evaluates them before
   it keeps any neighbour, so it evaluates O(1) points in fixed dimension,
   as the bottom-up search of Bentley ("K-d trees for semidynamic point
   sets", SoCG 1990) does.  A leaf has no plane, and its point is always
   evaluated.  Squares are summed from 0.0 dimension by dimension, as
   baseline.full_matrix sums them, so every distance has its bits.  Build
   without -ffast-math, -Ofast or FMA contraction: any of them changes
   those bits, and the build's variances too. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* A search pop pushes at most three entries (far child, deferred point,
   near child) and the near child is popped next, so each node on the path
   to the one popped leaves at most two: a search stack never holds more
   than 2 * depth + 1 entries, with depth = floor(log2 n) + 1 <= 63.  The
   build pushes at most two spans a pop and holds at most depth + 1. */
#define STACK 128

/* A point of the node being built: its coordinate in the node's split
   dimension, and its index. */
struct item { double x; int64_t i; };

/* (coordinate, index) order; the points are finite, so no NaN. */
static int by_coordinate(const void *a, const void *b)
{
    const struct item *p = a, *q = b;
    int c = (p->x > q->x) - (p->x < q->x);
    return c ? c : (p->i > q->i) - (p->i < q->i);
}

/* Fills the preorder arrays point, split_dim, left and right (-1: a leaf's
   split_dim, an absent child) of the tree over the n points, one node at a
   time; items has n slots.  Node v's m points arrive in (coordinate, index)
   order of its parent's split dimension, index order at the root, and each
   dimension's mean and variance are summed down them in that order, as
   numpy's var(axis=0) sums them.  In the first dimension of maximum
   variance, the point of rank ceil(m/2) is v's, those before it form node
   v + 1 and those after it node v + ceil(m/2). */
void build_tree(int64_t n, int64_t dim, const double *points, int64_t *point,
                int64_t *split_dim, int64_t *left, int64_t *right,
                struct item *items)
{
    struct span { int64_t node, start, size; } stack[STACK] = {{0, 0, n}}; /* the root */
    int h = 1;
    for (int64_t i = 0; i < n; i++)
        items[i].i = i;
    while (h) {
        struct span top = stack[--h];
        int64_t v = top.node, m = top.size, s = 0;
        struct item *it = items + top.start;
        double widest = -1.0;
        for (int64_t d = 0; d < dim; d++) {
            double mean = 0.0, var = 0.0;
            for (int64_t r = 0; r < m; r++)
                mean += points[it[r].i * dim + d];
            mean /= (double)m;
            for (int64_t r = 0; r < m; r++) {
                double e = points[it[r].i * dim + d] - mean;
                var += e * e;
            }
            var /= (double)m;
            if (var > widest) {
                widest = var;
                s = d;
            }
        }
        for (int64_t r = 0; r < m; r++)
            it[r].x = points[it[r].i * dim + s];
        qsort(it, (size_t)m, sizeof *it, by_coordinate);
        int64_t low = (m + 1) / 2 - 1, high = m / 2; /* the pivot has rank ceil(m/2) */
        point[v] = it[low].i;
        split_dim[v] = m > 1 ? s : -1;
        left[v] = low ? v + 1 : -1;
        right[v] = high ? v + 1 + low : -1;
        if (high)
            stack[h++] = (struct span){v + 1 + low, top.start + low + 1, high};
        if (low)
            stack[h++] = (struct span){v + 1, top.start, low};
    }
}

/* Searches targets[done], targets[done + 1], ... and returns the position
   of the first one not searched: m when all are, earlier when fewer than
   n - 1 key slots are free before a query (a query evaluates each other
   point at most once, on the spot or deferred).  Node v's point is
   point[v] with coordinates coords[v * dim : (v + 1) * dim]; split_dim[v]
   is -1 at a leaf, and left[v], right[v] are -1 for no child.  A stack
   entry is a node v >= 0, or ~v for node v's deferred point.  Query q's
   neighbours go to row q of the (m, k) arrays indices and distances,
   ascending by (distance, index), unfilled columns (inf, n).  The key
   lo * n + hi of every pair evaluated is appended to keys, int64 when
   wide, else int32, at slot *n_keys, which ends past the last one
   written.  The rank filter (rank, min_rank, read) is NULL for k-NN.  With
   it, node v is skipped when min_rank[v], the smallest rank in its
   subtree, is not below rank[t]; only points of smaller rank are evaluated
   or deferred, each evaluated by read(t, j), no key is written and
   capacity is not checked; a NaN read returns -1 at once. */
int64_t knn_search(int64_t n, int64_t dim, int64_t k, const double *coords,
                   const int64_t *point, const int64_t *split_dim,
                   const int64_t *left, const int64_t *right,
                   const double *points, const int64_t *targets, int64_t m,
                   int64_t done, int64_t *indices, double *distances,
                   void *keys, int wide, int64_t capacity, int64_t *n_keys,
                   const int64_t *rank, const int64_t *min_rank,
                   double (*read)(int64_t, int64_t))
{
    int64_t stack[STACK];
    double bound[STACK];
    int64_t count = *n_keys;
    for (; done < m && (rank || capacity - count >= n - 1); done++) {
        int64_t t = targets[done];
        const double *x = points + t * dim;
        int64_t *best_i = indices + done * k;
        double *best_d = distances + done * k;
        for (int64_t c = 0; c < k; c++) {
            best_d[c] = INFINITY;
            best_i[c] = n;
        }
        int h = 1;
        stack[0] = 0; /* the root */
        bound[0] = -INFINITY;
        while (h) {
            h--;
            int64_t v = stack[h];
            double worst = best_d[k - 1];
            if (!(bound[h] <= worst))
                continue;
            int deferred = v < 0; /* node ~v's point, tested like a leaf's */
            if (deferred)
                v = ~v;
            else if (rank && min_rank[v] >= rank[t])
                continue;
            const double *p = coords + v * dim;
            int64_t s = deferred ? -1 : split_dim[v];
            double plane = 0.0, reach = 0.0;
            if (s >= 0) {
                plane = p[s] - x[s];
                reach = sqrt(plane * plane);
            }
            int inside = reach <= worst; /* a leaf has no plane: reach 0 */
            int64_t j = point[v];
            int wanted = j != t && (!rank || rank[j] < rank[t]);
            int defer = wanted && s >= 0 && best_i[k - 1] == n; /* fewer than k kept */
            if (wanted && inside && !defer) {
                double dist = 0.0;
                if (rank) {
                    if (isnan(dist = read(t, j)))
                        return -1;
                } else {
                    for (int64_t d = 0; d < dim; d++) {
                        double e = p[d] - x[d];
                        dist += e * e;
                    }
                    dist = sqrt(dist);
                    int64_t key = j < t ? j * n + t : t * n + j;
                    if (wide)
                        ((int64_t *)keys)[count++] = key;
                    else
                        ((int32_t *)keys)[count++] = (int32_t)key;
                }
                if (dist < worst || (dist == worst && j < best_i[k - 1])) {
                    int64_t c = k - 1;
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
            if (s < 0)
                continue;
            int64_t near = left[v], far = right[v];
            if (plane < 0.0) { /* the target lies beyond the split value */
                near = right[v];
                far = left[v];
            }
            if (far >= 0 && inside) {
                stack[h] = far;
                bound[h] = reach;
                h++;
            }
            if (defer) {
                stack[h] = ~v;
                bound[h] = reach;
                h++;
            }
            if (near >= 0) {
                stack[h] = near;
                bound[h] = -INFINITY;
                h++;
            }
        }
    }
    *n_keys = count;
    return done;
}
