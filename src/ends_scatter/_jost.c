/* The two Jost marches of resolvent.jost_pair, see resolvent._march.
 *
 * Cell k of the march nodes x runs from x[k] to x[k + 1], h = x[k + 1] -
 * x[k], and w[2k], w[2k + 1] are W_m at its two Gauss nodes.  With
 * q = 2 (W_m - lam) the fourth-order Magnus step for y' = [[0, 1], [q, 0]] y
 * across the cell is exp(Omega),
 *
 *     Omega = [[alpha, h], [h qbar, -alpha]],  qbar = (q1 + q2) / 2,
 *     alpha = (sqrt(3) / 12) h^2 (q1 - q2),
 *
 * and Omega is traceless, so exp(Omega) = c + s Omega with mu^2 = alpha^2 +
 * h^2 qbar: c = cosh(mu), s = sinh(mu) / mu where mu^2 > 0, and c = cos(mu),
 * s = sin(mu) / mu (1 at mu = 0) of mu = sqrt(|mu^2|) otherwise.  Every
 * such matrix is real with unit determinant, so its inverse is its
 * adjugate.
 *
 * The left solution is launched at x[0] and marched up through the
 * matrices, the right one at x[n - 1] and marched down through their
 * inverses.  A solution is complex and the matrices are real: its real
 * and imaginary parts are two real recurrences through the same matrices,
 * each state (u, u') <- (a u + b u', c u + d u') going up and
 * (d u - b u', a u' - c u) going down.  Negating the launch data of one
 * recurrence negates every state it reaches, bit for bit, so a conjugated
 * launch gives the conjugate solution.  Compile with -ffp-contract=off so
 * that no product is fused into a sum.
 */

#include <math.h>
#include <stdint.h>

/* The Magnus matrix [[a, b], [c, d]] of the cell of width h with W_m
 * samples w1, w2, written to m. */
static void magnus_cell(double h, double w1, double w2, double lam, double *m)
{
    const double q1 = 2.0 * (w1 - lam);
    const double q2 = 2.0 * (w2 - lam);
    const double qbar = 0.5 * (q1 + q2);
    const double alpha = sqrt(3.0) / 12.0 * (h * h) * (q1 - q2);
    const double mu2 = alpha * alpha + (h * h) * qbar;
    const double mu = sqrt(fabs(mu2));
    double c, s;
    if (mu2 > 0.0) {
        c = cosh(mu);
        s = sinh(mu) / mu;
    } else {
        c = cos(mu);
        s = mu > 0.0 ? sin(mu) / mu : 1.0;
    }
    m[0] = c + s * alpha;
    m[1] = s * h;
    m[2] = s * h * qbar;
    m[3] = c - s * alpha;
}

/* Both solutions at the nodes x[at[j]], at increasing, into out: four rows
 * of n_out complex entries, (re, im) pairs, holding u and u' of the left
 * solution, then u and u' of the right one.  launch holds (u, u') of the
 * left solution at x[0], then of the right one at x[n - 1], as complex
 * (re, im) pairs; mats is 4 (n - 1) doubles of scratch for the matrices. */
void jost_march(int64_t n, const double *x, const double *w, double lam,
                const double *launch, int64_t n_out, const int64_t *at,
                double *mats, double *out)
{
    double *u_left = out, *du_left = out + 2 * n_out;
    double *u_right = out + 4 * n_out, *du_right = out + 6 * n_out;

    /* the real and imaginary parts of u and u' */
    double ur = launch[0], ui = launch[1], dr = launch[2], di = launch[3];
    int64_t j = 0;
    for (int64_t k = 0;; k++) {
        if (j < n_out && at[j] == k) {
            u_left[2 * j] = ur;
            u_left[2 * j + 1] = ui;
            du_left[2 * j] = dr;
            du_left[2 * j + 1] = di;
            j++;
        }
        if (k == n - 1)
            break;
        double *m = mats + 4 * k;
        magnus_cell(x[k + 1] - x[k], w[2 * k], w[2 * k + 1], lam, m);
        const double vr = m[0] * ur + m[1] * dr, vi = m[0] * ui + m[1] * di;
        dr = m[2] * ur + m[3] * dr;
        di = m[2] * ui + m[3] * di;
        ur = vr;
        ui = vi;
    }

    ur = launch[4], ui = launch[5], dr = launch[6], di = launch[7];
    j = n_out - 1;
    for (int64_t k = n - 1;; k--) {
        if (j >= 0 && at[j] == k) {
            u_right[2 * j] = ur;
            u_right[2 * j + 1] = ui;
            du_right[2 * j] = dr;
            du_right[2 * j + 1] = di;
            j--;
        }
        if (k == 0)
            break;
        const double *m = mats + 4 * (k - 1);
        const double vr = m[3] * ur - m[1] * dr, vi = m[3] * ui - m[1] * di;
        dr = m[0] * dr - m[2] * ur;
        di = m[0] * di - m[2] * ui;
        ur = vr;
        ui = vi;
    }
}
