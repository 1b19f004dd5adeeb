/* Steps of the factored Pade(2,2) propagator, see propagator.py.
 *
 * One Cayley factor maps x <- x + g .* (A B)^-1 (x + floor), with A and B
 * unit triangular of bandwidth 2: factor 0 is an LU (A lower, B upper),
 * factor 1 a UL (A upper, B lower).  Each triangular solve is one sweep
 * over the rows, up (ascending) for a lower factor and down for an upper
 * one, and the first sweep of a factor adds the floor as it reads x.
 * A sweep's coefficients are packed two complex numbers per row, (a2, a1),
 * in the order the sweep reads them: row i of an up sweep holds
 * (A[i, i-2], A[i, i-1]), row i of a down sweep (A[i, i+2], A[i, i+1]),
 * zero where the column lies outside the matrix.  Each sweep keeps its
 * two previous solution entries in registers and subtracts as BLAS ztbsv
 * does, the farther column first: (z_i - a2 z_{i-2}) - a1 z_{i-1} going
 * up, the same with z_{i+2} and z_{i+1} going down.
 *
 * The same-direction sweeps of a step run in one pass over the rows, so
 * that the core overlaps their two dependency chains:
 *   down pass: factor 0's upper sweep, which adds g0 .* its solution to x,
 *              then at the same row factor 1's upper sweep of the new x;
 *   up pass:   factor 1's lower sweep, which adds g1 .* its solution to x,
 *              then at the same row factor 0's lower sweep of the next step.
 * Each pass reads w_i before it overwrites it.  The first up pass runs
 * factor 0's half only and the last up pass factor 1's half only, so the
 * arithmetic of every row is the same however the steps are split into
 * calls.
 *
 * Complex numbers are (re, im) pairs in a 2-double vector; the complex
 * product is the one helper with a body per instruction set.  Compile
 * with -ffp-contract=off so that no product is fused into a subtraction.
 */

#include <stdint.h>
#include <string.h>

typedef double cplx __attribute__((vector_size(16)));

/* Added to the real part of x as the first sweep of a factor reads it,
 * this floor keeps the solves' evanescent tails normal: without it, 30
 * steps from a compact packet on 28 211 nodes left 23 899 subnormal
 * entries and a step took 24x as long.  Adding -0.0 to the imaginary part
 * leaves it as it is, signed zeros included. */
static const cplx TAIL_FLOOR = {1e-250, -0.0};

#ifdef __SSE3__
#include <pmmintrin.h>

/* (ar yr - ai yi, ar yi + ai yr): the same two roundings per part as the
 * plain-C body, in half the instructions */
static inline cplx mul(cplx a, cplx y)
{
    return _mm_addsub_pd(_mm_movedup_pd(a) * y,
                         _mm_unpackhi_pd(a, a) * _mm_shuffle_pd(y, y, 1));
}
#else
static inline cplx mul(cplx a, cplx y)
{
    cplx p = {a[0] * y[0] - a[1] * y[1], a[0] * y[1] + a[1] * y[0]};
    return p;
}
#endif

static inline cplx load(const double *p)
{
    cplx v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, cplx v)
{
    memcpy(p, &v, sizeof v);
}

/* one row of a sweep: z = (v - a2 p2) - a1 p1, then (p2, p1) = (p1, z) */
static inline cplx solve(const double *a, cplx v, cplx *p2, cplx *p1)
{
    cplx z = v - mul(load(a), *p2) - mul(load(a + 2), *p1);
    *p2 = *p1;
    *p1 = z;
    return z;
}

static void down(int64_t n, const double *down0, const double *gain0,
                 const double *down1, double *x, double *w)
{
    cplx q2 = {0.0, 0.0}, q1 = q2, r2 = q2, r1 = q2;
    for (int64_t i = n - 1; i >= 0; i--) {
        cplx z = solve(down0 + 4 * i, load(w + 2 * i), &q2, &q1);
        cplx xi = load(x + 2 * i) + mul(load(gain0 + 2 * i), z);
        store(x + 2 * i, xi);
        store(w + 2 * i, solve(down1 + 4 * i, xi + TAIL_FLOOR, &r2, &r1));
    }
}

/* Factor 1's lower sweep, then factor 0's lower sweep of the next step
 * at the same row; the first up pass of a call has no factor 1 half
 * (``up1`` NULL) and the last no factor 0 half (``up0`` NULL). */
static void up(int64_t n, const double *up1, const double *gain1,
               const double *up0, double *x, double *w)
{
    cplx q2 = {0.0, 0.0}, q1 = q2, r2 = q2, r1 = q2;
    for (int64_t i = 0; i < n; i++) {
        cplx xi = load(x + 2 * i);
        if (up1) {
            cplx z = solve(up1 + 4 * i, load(w + 2 * i), &r2, &r1);
            xi += mul(load(gain1 + 2 * i), z);
            store(x + 2 * i, xi);
        }
        if (up0)
            store(w + 2 * i, solve(up0 + 4 * i, xi + TAIL_FLOOR, &q2, &q1));
    }
}

/* ``steps`` steps in place on x (n complex entries); w is n complex
 * entries of scratch.  up0, down0 (n x 2) and gain0 (n) are factor 0,
 * down1, up1 and gain1 factor 1, each sweep's rows packed as above. */
void pade_steps(int64_t n, int64_t steps,
                const double *up0, const double *down0, const double *gain0,
                const double *down1, const double *up1, const double *gain1,
                double *x, double *w)
{
    if (steps <= 0)
        return;
    up(n, NULL, NULL, up0, x, w);
    for (int64_t s = 0; s < steps; s++) {
        down(n, down0, gain0, down1, x, w);
        up(n, up1, gain1, s + 1 < steps ? up0 : NULL, x, w);
    }
}
