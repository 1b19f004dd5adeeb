/* Factors and steps of the factored Pade(2,2) propagator, see
 * propagator.py.
 *
 * pade_factor factors z - beta, z = i dt H, as L V D without pivoting: L
 * unit lower and V unit upper of bandwidth 2, D diagonal.  It reads H as
 * the five rows of its LAPACK band, row k, column j holding H[j + k - 2, j]
 * (zero outside the matrix), and writes the sweeps and the gain that
 * pade_steps reads: L as an up sweep, V as a down sweep and 2 beta / D.
 * z - beta has hermitian part -Re(beta) I = 3 I, so every pivot has real
 * part at least 3 and no row needs swapping (Golub & Van Loan, LAA 28,
 * 1979).  Row i of the Doolittle recurrence needs only rows i - 1 and
 * i - 2 of U = V D, and the columns of V at row i wait for the pivot of
 * row i: V[i-1, i] and V[i-2, i] are written once it is known.
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
 * In the steps complex numbers are (re, im) pairs in a 2-double vector,
 * and the complex product is the one helper with a body per instruction
 * set; pade_factor, which runs once per Propagator, uses C99's double
 * complex.  Compile with -ffp-contract=off so that no product is fused
 * into a subtraction.
 */

#include <complex.h>
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

/* L V D = z - beta for the band ``band`` of H (5 x n, rows as above):
 * up and down (n x 2 each) receive L and V packed as the sweeps above,
 * gain (n) receives 2 beta / D. */
void pade_factor(int64_t n, const double *band, double dt, double beta_re,
                 double beta_im, double complex *up, double complex *down,
                 double complex *gain)
{
    const double complex beta = beta_re + beta_im * I;
    const double *h0 = band, *h1 = band + n, *h2 = band + 2 * n,
                 *h3 = band + 3 * n, *h4 = band + 4 * n;
    /* rows i - 2 and i - 1 of U: the pivot d, then U[r, r+1] and
     * U[r, r+2]; the rows above the matrix are those of the identity */
    double complex d2 = 1.0, e2 = 0.0, f2 = 0.0, d1 = 1.0, e1 = 0.0, f1 = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double complex l2 = i >= 2 ? I * (dt * h4[i - 2]) / d2 : 0.0;
        double complex l1 = i >= 1 ? (I * (dt * h3[i - 1]) - l2 * e2) / d1
                                   : 0.0;
        double complex d = (I * (dt * h2[i]) - beta) - l2 * f2 - l1 * e1;
        double complex e = i + 1 < n ? I * (dt * h1[i + 1]) - l1 * f1 : 0.0;
        double complex f = i + 2 < n ? I * (dt * h0[i + 2]) : 0.0;
        up[2 * i] = l2;
        up[2 * i + 1] = l1;
        down[2 * i] = down[2 * i + 1] = 0.0;
        if (i >= 1)
            down[2 * i - 1] = e1 / d;
        if (i >= 2)
            down[2 * i - 4] = f2 / d;
        gain[i] = 2.0 * beta / d;
        d2 = d1;
        e2 = e1;
        f2 = f1;
        d1 = d;
        e1 = e;
        f1 = f;
    }
}
