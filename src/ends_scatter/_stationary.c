/* The stationary energies of dynamics.stationary_point, see
 * dynamics._stationary_rows.
 *
 * Row i holds a cone radius: h = half[i], the half-length (r - r1) / 2 of
 * [r1, r], and q1 at the m Gauss nodes of [r1, r], q1[i stride + j], with
 * the weights w[j].  The row stride is m for one row of samples per
 * radius, or 0 where q1 is one constant (a tail-free end): every radius
 * then reads the one row, and gets the bits it would get from its own
 * copy of it.  At the energy lam, with x_j = 2 (lam - q1_j),
 *
 *     T(lam)  =  h sum_j w_j x_j^{-1/2}     the travel time int_{r1}^r 1 / b,
 *     T'(lam) = -h sum_j w_j x_j^{-3/2},
 *     B(lam)  =  h sum_j w_j x_j^{1/2}      int_{r1}^r b,
 *
 * come out of one pass over the row, with one sqrt and one division per
 * sample.
 *
 * Each row solves T(lam) = t by its own safeguarded Newton iteration from
 * start[i].  T is a sum of convex decreasing functions of lam with
 * positive weights, so it is convex and decreasing: its tangent lies below
 * it, a Newton step from below the root never passes the root, and one
 * from above lands below it.  So the iterates rise to the root from the
 * first one below it on, and no upper bracket has to be searched for: the
 * bracket (lo, hi) starts as (lam_lo, +inf), the cone guaranteeing
 * T(lam_lo) > t, and after each pass lo moves up to an lam with T > t and
 * hi down to one with T < t.  A step that leaves the bracket or is not
 * finite is replaced by its midpoint, or by lo while hi is still infinite.
 * The row stops at the lam where |T - t| <= rtol t and the Newton
 * correction -(T - t) / T' is at most 4 eps |lam|, or T is within 4 eps t
 * of t, closer than the correction can bring it where lam is small next
 * to lam - q1 (lam is then converged to roundoff, whatever the other rows
 * hold), or after max_iter steps; lam and T, T', B there are written, and
 * passes[i] counts the passes over the row (the steps taken plus one).
 * max_iter = 0 evaluates T, T' and B at start.  Compile with
 * -ffp-contract=off so that no product is fused into a sum.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

/* two samples of a row side by side, even j in lane 0 and odd j in lane 1:
 * each sum runs in two chains of half the length, with one vector divide */
typedef double lanes __attribute__((vector_size(16)));

static inline lanes lanes_sqrt(lanes x)
{
#ifdef __SSE2__
    /* one sqrtpd; the two sqrt calls below keep libm's errno path, which
     * the compiler may not drop without -fno-math-errno.  Both round
     * correctly (IEEE 754), so the lanes get the same bits */
    return __builtin_ia32_sqrtpd(x);
#else
    lanes r = {sqrt(x[0]), sqrt(x[1])};
    return r;
#endif
}

/* sum_j w_j x_j^{-1/2}, sum_j w_j x_j^{-3/2} and sum_j w_j x_j^{1/2} of
 * the m samples q at lam, into sums[0..2].  Each lane sums its samples in
 * order and the lanes are added last; an odd last sample goes to lane 0. */
static void travel_sums(int64_t m, const double *q, const double *w,
                        double lam, double *sums)
{
    const lanes lv = {lam, lam};
    lanes st = {0.0, 0.0}, sd = st, sb = st;
    int64_t j = 0;
    for (; j + 2 <= m; j += 2) {
        const lanes qj = {q[j], q[j + 1]}, wj = {w[j], w[j + 1]};
        const lanes s = lanes_sqrt(2.0 * (lv - qj));
        const lanes inv = 1.0 / s;
        st += wj * inv;
        sd += wj * (inv * inv * inv);
        sb += wj * s;
    }
    if (j < m) {
        const double s = sqrt(2.0 * (lam - q[j]));
        const double inv = 1.0 / s;
        st[0] += w[j] * inv;
        sd[0] += w[j] * (inv * inv * inv);
        sb[0] += w[j] * s;
    }
    sums[0] = st[0] + st[1];
    sums[1] = sd[0] + sd[1];
    sums[2] = sb[0] + sb[1];
}

void stationary_solve(int64_t n, int64_t m, int64_t stride,
                      const double *half, const double *q1, const double *w,
                      const double *start,
                      double t, double lam_lo, double rtol, int64_t max_iter,
                      double *lam, double *tt, double *dt, double *b,
                      int64_t *passes)
{
    for (int64_t i = 0; i < n; i++) {
        const double h = half[i];
        double l = start[i], lo = lam_lo, hi = INFINITY, sums[3];
        int64_t k = 0;
        for (;;) {
            travel_sums(m, q1 + stride * i, w, l, sums);
            k++;
            const double f = h * sums[0] - t;
            const double step = f / (h * sums[1]);
            if (k > max_iter
                || (fabs(f) <= rtol * t
                    && (fabs(step) <= 4.0 * DBL_EPSILON * fabs(l)
                        || fabs(f) <= 4.0 * DBL_EPSILON * t)))
                break;
            if (f > 0.0 && l > lo)
                lo = l;
            if (f < 0.0 && l < hi)
                hi = l;
            const double next = l + step;
            l = (next > lo && next < hi) ? next
                : isinf(hi) ? lo : 0.5 * (lo + hi);
        }
        lam[i] = l;
        tt[i] = h * sums[0];
        dt[i] = -(h * sums[1]);
        b[i] = h * sums[2];
        passes[i] = k;
    }
}
