/* Rows of the comparison amplitude, see dynamics._amplitude_factors.
 *
 * For each energy lam of ``lam`` the row
 *
 *     A(lam, r) = e^{i sign psi_lam(r)} / (2 |lam - q1(r)|)^{1/4},
 *     psi_lam(r) = int_{r0}^r eta (sqrt(max(2 (lam - q1), 0)) - b_lam) ds,
 *     b_lam = sqrt(2 (lam - lam0)),
 *
 * at the radii r = s[at[i]].  The integral is the trapezoid rule over the
 * sorted nodes s (r0 among them, at index at_r0), with the arithmetic of
 * geometry.integral_from_r0: each increment is d (y_k + y_{k-1}) / 2.0
 * with d = s_k - s_{k-1}, the running sum is taken in order as numpy's
 * cumsum takes it (its first entry is the first increment), and the value
 * at r0 is subtracted.  The row is then what numpy computes for
 * np.exp(1j * sign * psi) / w, w = sqrt(sqrt(2 |lam - q1|)): the
 * exponent's real part is a zero, so the exponential is (cos, sin) of its
 * imaginary part, and dividing by the real-valued complex w multiplies
 * each part by 1 / w.  Compile with -ffp-contract=off so that no product
 * is fused into a sum.
 */

#include <math.h>
#include <stdint.h>

/* ``n_lam`` rows of ``n_live`` complex entries, (re, im) pairs, into out;
 * acc is n doubles of scratch.  s, eta and q1 are the n nodes, the cutoff
 * and q1 there; q1_live is q1 at the radii s[at[i]]. */
void amplitude_rows(int64_t n, const double *s, const double *eta,
                    const double *q1, int64_t at_r0, int64_t n_live,
                    const int64_t *at, const double *q1_live,
                    int64_t n_lam, const double *lam, double lam0,
                    int64_t sign, double *acc, double *out)
{
    for (int64_t j = 0; j < n_lam; j++) {
        const double l = lam[j];
        const double b = sqrt(2.0 * (l - lam0));
        double v = 2.0 * (l - q1[0]);
        double prev = eta[0] * (sqrt(v < 0.0 ? 0.0 : v) - b);
        double sum = 0.0;
        acc[0] = 0.0;
        for (int64_t k = 1; k < n; k++) {
            v = 2.0 * (l - q1[k]);
            const double y = eta[k] * (sqrt(v < 0.0 ? 0.0 : v) - b);
            const double inc = (s[k] - s[k - 1]) * (y + prev) / 2.0;
            sum = k == 1 ? inc : sum + inc;
            acc[k] = sum;
            prev = y;
        }
        const double base = acc[at_r0];
        double *row = out + 2 * n_live * j;
        for (int64_t i = 0; i < n_live; i++) {
            const double psi = acc[at[i]] - base;
            /* the imaginary part of 1j * sign * psi in numpy, where 1j * sign
             * is (0.0, 1.0) or (-0.0, -1.0): signed zeros included */
            const double arg = sign > 0 ? 0.0 + psi : -psi;
            const double inv = 1.0 / sqrt(sqrt(2.0 * fabs(l - q1_live[i])));
            row[2 * i] = cos(arg) * inv;
            row[2 * i + 1] = sin(arg) * inv;
        }
    }
}
