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
 * pade_steps steps one state or two: a row of the state then holds one
 * entry per lane, and every coefficient read for a row multiplies each
 * lane alike, so that each lane is bit for bit the same state stepped
 * alone.  wave_operator steps an increment's two halves this way.  The
 * sweep recurrence has one source, PADE_BODY, expanded once per body:
 * one lane in a 128-bit vector, and, where the build has SSE3 (x86-64),
 * two lanes in one 256-bit vector, a function compiled for AVX that runs
 * when the CPU running the process has AVX, at the micro-ops per row of
 * one lane.  Elsewhere the one-lane body steps the two lanes one after
 * the other, reading every second complex entry.  Complex numbers in the
 * steps are (re, im) pairs in vectors, and the complex product is the
 * one helper with a body per instruction set (plain C, SSE3 and AVX),
 * each rounding as the plain-C one; pade_factor, which runs once per
 * Propagator, uses C99's double complex.  Compile with -ffp-contract=off
 * so that no product is fused into a subtraction.
 */

#include <complex.h>
#include <stdint.h>
#include <string.h>

/* a complex number as a vector, and two side by side */
typedef double cplx __attribute__((vector_size(16)));
typedef double cplx2 __attribute__((vector_size(32)));

/* Added to the real part of every lane of x as the first sweep of a
 * factor reads it, this floor keeps the solves' evanescent tails normal:
 * without it, 30 steps from a compact packet on 28 211 nodes left 23 899
 * subnormal entries and a step took 24x as long.  Adding -0.0 to the
 * imaginary part leaves it as it is, signed zeros included.  A vector of
 * either width reads it from the start. */
static const double TAIL_FLOOR[4] = {1e-250, -0.0, 1e-250, -0.0};

/* The complex product a y of the coefficient at a with every lane of the
 * vector y: (ar yr - ai yi, ar yi + ai yr) per lane, with two roundings
 * per part in every body. */
#ifdef __SSE3__
#include <pmmintrin.h>

static inline cplx mul1(const double *a, cplx y)
{
    cplx c = _mm_loadu_pd(a);
    return _mm_addsub_pd(_mm_movedup_pd(c) * y,
                         _mm_unpackhi_pd(c, c) * _mm_shuffle_pd(y, y, 1));
}

/* two lanes, the coefficient broadcast: the micro-ops of one lane of
 * mul1, on 256-bit vectors.  The builtins are those behind
 * _mm256_addsub_pd and _mm256_permute_pd: <immintrin.h>, which declares
 * those, takes longer to compile than all the kernels without it. */
__attribute__((target("avx")))
static inline cplx2 mul2(const double *a, cplx2 y)
{
    cplx2 re = {a[0], a[0], a[0], a[0]}, im = {a[1], a[1], a[1], a[1]};
    return __builtin_ia32_addsubpd256(re * y,
                                      im * __builtin_ia32_vpermilpd256(y, 5));
}
#else
static inline cplx mul1(const double *a, cplx y)
{
    cplx p = {a[0] * y[0] - a[1] * y[1], a[0] * y[1] + a[1] * y[0]};
    return p;
}
#endif

/* The sweep recurrence and the steps of one call on vectors V multiplied
 * by MUL, every function with the attributes ATTR: the one source of the
 * steps, expanded below once per body.  Entry i of x and w starts at
 * i * row doubles: row 2 is one state, and a row of 4 interleaves two,
 * stepped as two lanes of one V or, a V of one lane, as two calls. */
#define PADE_BODY(NAME, V, MUL, ATTR)                                        \
ATTR static inline V NAME##_load(const double *p)                            \
{                                                                            \
    V v;                                                                     \
    memcpy(&v, p, sizeof v);                                                 \
    return v;                                                                \
}                                                                            \
                                                                             \
ATTR static inline void NAME##_store(double *p, V v)                         \
{                                                                            \
    memcpy(p, &v, sizeof v);                                                 \
}                                                                            \
                                                                             \
/* one row of a sweep: z = (v - a2 p2) - a1 p1, then (p2, p1) = (p1, z) */   \
ATTR static inline V NAME##_solve(const double *a, V v, V *p2, V *p1)        \
{                                                                            \
    V z = v - MUL(a, *p2) - MUL(a + 2, *p1);                                 \
    *p2 = *p1;                                                               \
    *p1 = z;                                                                 \
    return z;                                                                \
}                                                                            \
                                                                             \
ATTR static void NAME##_down(int64_t n, const double *down0,                 \
                             const double *gain0, const double *down1,       \
                             double *x, double *w, int64_t row)              \
{                                                                            \
    const V tail = NAME##_load(TAIL_FLOOR);                                  \
    V q2 = {0.0}, q1 = q2, r2 = q2, r1 = q2;                                 \
    for (int64_t i = n - 1; i >= 0; i--) {                                   \
        V z = NAME##_solve(down0 + 4 * i, NAME##_load(w + row * i), &q2,     \
                           &q1);                                             \
        V xi = NAME##_load(x + row * i) + MUL(gain0 + 2 * i, z);             \
        NAME##_store(x + row * i, xi);                                       \
        NAME##_store(w + row * i,                                            \
                     NAME##_solve(down1 + 4 * i, xi + tail, &r2, &r1));      \
    }                                                                        \
}                                                                            \
                                                                             \
/* Factor 1's lower sweep, then factor 0's lower sweep of the next step at  \
 * the same row; the first up pass of a call has no factor 1 half (up1      \
 * NULL) and the last no factor 0 half (up0 NULL). */                        \
ATTR static void NAME##_up(int64_t n, const double *up1,                     \
                           const double *gain1, const double *up0,           \
                           double *x, double *w, int64_t row)                \
{                                                                            \
    const V tail = NAME##_load(TAIL_FLOOR);                                  \
    V q2 = {0.0}, q1 = q2, r2 = q2, r1 = q2;                                 \
    for (int64_t i = 0; i < n; i++) {                                        \
        V xi = NAME##_load(x + row * i);                                     \
        if (up1) {                                                           \
            V z = NAME##_solve(up1 + 4 * i, NAME##_load(w + row * i), &r2,   \
                               &r1);                                         \
            xi += MUL(gain1 + 2 * i, z);                                     \
            NAME##_store(x + row * i, xi);                                   \
        }                                                                    \
        if (up0)                                                             \
            NAME##_store(w + row * i,                                        \
                         NAME##_solve(up0 + 4 * i, xi + tail, &q2, &q1));    \
    }                                                                        \
}                                                                            \
                                                                             \
ATTR static void NAME##_steps(int64_t n, int64_t steps, const double *up0,   \
                              const double *down0, const double *gain0,      \
                              const double *down1, const double *up1,        \
                              const double *gain1, double *x, double *w,     \
                              int64_t row)                                   \
{                                                                            \
    NAME##_up(n, NULL, NULL, up0, x, w, row);                                \
    for (int64_t s = 0; s < steps; s++) {                                    \
        NAME##_down(n, down0, gain0, down1, x, w, row);                      \
        NAME##_up(n, up1, gain1, s + 1 < steps ? up0 : NULL, x, w, row);     \
    }                                                                        \
}

/* one lane, and two lanes as one 256-bit vector */
PADE_BODY(one, cplx, mul1, )
#ifdef __SSE3__
PADE_BODY(avx, cplx2, mul2, __attribute__((target("avx"))))
#endif

/* ``steps`` steps in place on x, n rows of ``lanes`` (1 or 2) complex
 * entries, each lane a state of its own; w is as large, scratch.  up0,
 * down0 (n x 2) and gain0 (n) are factor 0, down1, up1 and gain1 factor 1,
 * each sweep's rows packed as above.  Two lanes run the AVX body where
 * it is built and the CPU has AVX, and one lane after the other
 * elsewhere. */
void pade_steps(int64_t n, int64_t lanes, int64_t steps,
                const double *up0, const double *down0, const double *gain0,
                const double *down1, const double *up1, const double *gain1,
                double *x, double *w)
{
    if (steps <= 0)
        return;
    if (lanes == 1)
        one_steps(n, steps, up0, down0, gain0, down1, up1, gain1, x, w, 2);
#ifdef __SSE3__
    else if (__builtin_cpu_supports("avx"))
        avx_steps(n, steps, up0, down0, gain0, down1, up1, gain1, x, w, 4);
#endif
    else
        for (int k = 0; k < 2; k++)
            one_steps(n, steps, up0, down0, gain0, down1, up1, gain1,
                      x + 2 * k, w + 2 * k, 4);
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
