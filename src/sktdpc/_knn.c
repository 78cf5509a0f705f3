/* Exact k nearest neighbours over the preorder k-d tree of kdtree.py.

   Each query runs the depth-first search of Friedman, Bentley & Finkel
   (ACM TOMS 1977), near child first, one query after another.  At an
   internal node, reach = sqrt(plane * plane) of the difference between the
   split value and the target's coordinate bounds both the node's point
   (which lies on the plane) and the far subtree: the point is evaluated,
   and the far child pushed with bound reach, only when reach is at most the
   k-th best distance (inf until k are kept).  The far child is tested again
   when it is popped, after the near subtree.  A leaf has no plane, and its
   point is always evaluated.  Squares are summed from 0.0 dimension by
   dimension, as baseline.full_matrix sums them, so every distance has its
   bits.  Build without -ffast-math, -Ofast or FMA contraction: any of them
   changes those bits. */

#include <math.h>
#include <stdint.h>

/* A pop pushes at most two children, so a query's stack never holds more
   than the tree's depth, floor(log2 n) + 1 <= 63, entries. */
#define STACK 64

/* Searches targets[done], targets[done + 1], ... and returns the position
   of the first one not searched: m when all are, earlier when fewer than n
   key slots are free before a query (one query evaluates at most n - 1
   pairs).  Node v's point is point[v] with coordinates
   coords[v * dim : (v + 1) * dim]; split_dim[v] is -1 at a leaf, and
   left[v], right[v] are -1 for no child.  Query q's neighbours go to row q
   of the (m, k) arrays indices and distances, ascending by (distance,
   index), unfilled columns (inf, n).  The key lo * n + hi of every pair
   evaluated is appended to keys, int64 when wide, else int32, at slot
   *n_keys, which ends past the last one written. */
int64_t knn_search(int64_t n, int64_t dim, int64_t k, const double *coords,
                   const int64_t *point, const int64_t *split_dim,
                   const int64_t *left, const int64_t *right,
                   const double *points, const int64_t *targets, int64_t m,
                   int64_t done, int64_t *indices, double *distances,
                   void *keys, int wide, int64_t capacity, int64_t *n_keys)
{
    int64_t stack[STACK];
    double bound[STACK];
    int64_t count = *n_keys;
    for (; done < m && capacity - count >= n; done++) {
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
            const double *p = coords + v * dim;
            int64_t s = split_dim[v];
            double plane = 0.0, reach = 0.0;
            if (s >= 0) {
                plane = p[s] - x[s];
                reach = sqrt(plane * plane);
            }
            int inside = reach <= worst; /* a leaf has no plane: reach 0 */
            int64_t j = point[v];
            if (j != t && inside) {
                double sq = 0.0;
                for (int64_t d = 0; d < dim; d++) {
                    double e = p[d] - x[d];
                    sq += e * e;
                }
                double dist = sqrt(sq);
                int64_t key = j < t ? j * n + t : t * n + j;
                if (wide)
                    ((int64_t *)keys)[count++] = key;
                else
                    ((int32_t *)keys)[count++] = (int32_t)key;
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
