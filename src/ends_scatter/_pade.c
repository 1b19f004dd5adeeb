/* Steps of the factored Pade(2,2) propagator, see propagator.py.
 *
 * One Cayley factor maps x <- x + g .* (L U)^-1 (x + floor), with L unit
 * lower and U unit upper triangular of bandwidth 2, both stored in LAPACK
 * band layout as Fortran (3, n) complex arrays (real and imaginary parts
 * interleaved): L[j + d, j] = lower[d, j] and U[j - d, j] = upper[2 - d, j];
 * the diagonal rows are not read.  The forward sweep adds the floor as it
 * reads x and writes w; the backward sweep reads w and adds g .* (its
 * solution) to x as it goes.  Both keep the two previous solution entries
 * in registers and subtract as BLAS ztbsv does, the farther column first:
 * (z_i - a_2 z_{i-2}) - a_1 z_{i-1} going up, the same with z_{i+2} and
 * z_{i+1} going down.  Compile with -ffp-contract=off so that no product
 * is fused into a subtraction.
 */

#include <stdint.h>

/* Added to the real part of x as the forward sweep reads it, this floor
 * keeps the solves' evanescent tails normal: without it, 30 steps from a
 * compact packet on 28 211 nodes left 23 899 subnormal entries and a step
 * took 24x as long. */
#define TAIL_FLOOR 1e-250

/* (zr, zi) -= (ar, ai) * (yr, yi) */
#define SUB_PRODUCT(zr, zi, ar, ai, yr, yi)      \
    do {                                          \
        zr -= (ar) * (yr) - (ai) * (yi);          \
        zi -= (ar) * (yi) + (ai) * (yr);          \
    } while (0)

static void forward(int64_t n, const double *lower, const double *x,
                    double *w)
{
    double p1r = 0.0, p1i = 0.0, p2r = 0.0, p2i = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double zr = x[2 * i] + TAIL_FLOOR, zi = x[2 * i + 1];
        if (i >= 2) {
            const double *a = lower + 6 * (i - 2) + 4;  /* lower[2, i - 2] */
            SUB_PRODUCT(zr, zi, a[0], a[1], p2r, p2i);
        }
        if (i >= 1) {
            const double *a = lower + 6 * (i - 1) + 2;  /* lower[1, i - 1] */
            SUB_PRODUCT(zr, zi, a[0], a[1], p1r, p1i);
        }
        w[2 * i] = zr;
        w[2 * i + 1] = zi;
        p2r = p1r;
        p2i = p1i;
        p1r = zr;
        p1i = zi;
    }
}

static void backward(int64_t n, const double *upper, const double *gain,
                     const double *w, double *x)
{
    double p1r = 0.0, p1i = 0.0, p2r = 0.0, p2i = 0.0;
    for (int64_t i = n - 1; i >= 0; i--) {
        double zr = w[2 * i], zi = w[2 * i + 1];
        if (i + 2 < n) {
            const double *a = upper + 6 * (i + 2);      /* upper[0, i + 2] */
            SUB_PRODUCT(zr, zi, a[0], a[1], p2r, p2i);
        }
        if (i + 1 < n) {
            const double *a = upper + 6 * (i + 1) + 2;  /* upper[1, i + 1] */
            SUB_PRODUCT(zr, zi, a[0], a[1], p1r, p1i);
        }
        const double gr = gain[2 * i], gi = gain[2 * i + 1];
        x[2 * i] += gr * zr - gi * zi;
        x[2 * i + 1] += gr * zi + gi * zr;
        p2r = p1r;
        p2i = p1i;
        p1r = zr;
        p1i = zi;
    }
}

/* ``steps`` steps in place on x (n complex entries); w is n complex
 * entries of scratch.  The factors are applied in the order given. */
void pade_steps(int64_t n, int64_t steps,
                const double *lower0, const double *upper0, const double *gain0,
                const double *lower1, const double *upper1, const double *gain1,
                double *x, double *w)
{
    for (int64_t s = 0; s < steps; s++) {
        forward(n, lower0, x, w);
        backward(n, upper0, gain0, w, x);
        forward(n, lower1, x, w);
        backward(n, upper1, gain1, w, x);
    }
}
