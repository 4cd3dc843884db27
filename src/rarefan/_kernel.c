/* rarefan.solver.rhs of a conserved stack, in one call.

   rk_rhs checks the density (returning 1 if some cell has rho <= 0),
   fills the ghost-ringed state from the conserved stack U, checks the
   temperature (returning 2 if some ring cell has theta <= 0) and forms
   the pressure and sound speed of every ring cell; then, axis by axis,
   the Rusanov flux, viscous stress (with the cross differences) and heat
   term at the faces and the flux divergence into the tendency; and the
   net inflow through the two x1 boundaries.

   The fill follows the ghost ring of the allocating reference in
   tests/test_solver.py.  Each interior cell's primitives come first, in
   FieldSet.primitives' order: u = m / rho,
   theta = (E / rho - ((u1 u1 + u2 u2) + u3 u3) 0.5) cth with the one
   constant cth = (gamma - 1) / R, then its conserved values.  Then each
   active axis in turn, x1 first, wraps over the whole ring: its ghost
   planes 0 and n + 1 copy planes n and 1, so corner cells are
   wrap-of-wrap.  Given ghost columns, x1 does not wrap; its two ghost
   planes take the columns after the transverse wraps.

   Each formula performs the operations of its plain numpy expression in
   that reference, in that order and with its signed-zero steps (the
   divergence is 0 - d, a stress entry with no cross term dn + 0.0), so the
   tendency equals the reference bit for bit.  Two rules are the kernel's
   own, and the reference follows them: a face's theta^alpha is sqrt at
   alpha = 0.5, which is also numpy's ** 0.5, and libm's pow otherwise; and
   each x1 end plane is summed in order over its transverse cells.
   rarefan.solver compiles this file with -ffp-contract=off and without
   -ffast-math, so that no product and sum fuse into one rounding and no
   operation is reordered.

   The ring is flat, N cells with strides (r2 r3, r3, 1) for ring extents
   (r1, r2, r3); an active axis carries one ghost cell at each end, an
   inactive one is a single cell.  Along an axis of stride s face j lies
   between cells j and j + s.  The faces of an axis are the ring positions
   0..n along it and the interior positions along the other axes; only
   those are computed. */

#include <math.h>
#include <stdint.h>

typedef struct {
    int64_t n[3];        /* cells per axis */
    int64_t stride[3];   /* ring strides */
    int64_t active[3];   /* 1 on an axis with a ghost ring, else 0 */
    int64_t N;           /* ring cells */
    double *state;       /* (10, N): rho, u1, u2, u3, theta, then rho, m1, m2, m3, E */
    double *p, *c;       /* (N,): pressure and sound speed */
    double *F;           /* (5, N): the current axis's face fluxes */
} rk_work;

/* the loops of a pass over axis a's faces, or over the interior cells
   (a = -1): [lo, hi) and stride of each active axis, the innermost last, its
   stride 1; the unused outer loops run once at offset 0 */
typedef struct {
    int64_t lo[3], hi[3], st[3];
} box;

static box span(const rk_work *w, int a)
{
    box b = {{0, 0, 0}, {1, 1, 1}, {0, 0, 0}};
    for (int d = 2, k = 2; d >= 0; d--)
        if (w->active[d]) {
            b.lo[k] = d == a ? 0 : 1;
            b.hi[k] = 1 + w->n[d];
            b.st[k--] = w->stride[d];
        }
    return b;
}

/* np.maximum */
static double maximum(double x, double y)
{
    return (x >= y || x != x) ? x : y;
}

/* the faces of axis a into F.  Inlined with a constant a, so that each
   axis's component loops unroll */
static inline __attribute__((always_inline)) void
faces(const rk_work *w, const int a, const double dx[3], double mu1, double lambda1,
      double kappa1, double alpha, double visc)
{
    const int64_t N = w->N, s = w->stride[a];
    const double *u[3], *U[5], *th = w->state + 4 * N, *p = w->p, *c = w->c;
    double *F = w->F;
    for (int k = 0; k < 3; k++)
        u[k] = w->state + (1 + k) * N;
    for (int k = 0; k < 5; k++)
        U[k] = w->state + (5 + k) * N;
    const box b = span(w, a);
    for (int64_t i0 = b.lo[0]; i0 < b.hi[0]; i0++)
        for (int64_t i1 = b.lo[1]; i1 < b.hi[1]; i1++) {
            const int64_t row = i0 * b.st[0] + i1 * b.st[1];
            for (int64_t L = row + b.lo[2]; L < row + b.hi[2]; L++) {
                const int64_t R = L + s;
                const double unL = u[a][L], unR = u[a][R];
                /* F = 0.5 (f(L) + f(R)) - 0.5 max(|un| + c) (U(R) - U(L)) */
                const double sf = maximum(fabs(unL) + c[L], fabs(unR) + c[R]) * 0.5;
                double f[5];
                f[0] = (U[1 + a][L] + U[1 + a][R]) * 0.5 - (U[0][R] - U[0][L]) * sf;
                for (int k = 0; k < 3; k++) {
                    double fL = U[1 + k][L] * unL, fR = U[1 + k][R] * unR;
                    if (k == a) {
                        fL += p[L];
                        fR += p[R];
                    }
                    f[1 + k] = (fL + fR) * 0.5 - (U[1 + k][R] - U[1 + k][L]) * sf;
                }
                f[4] = ((U[4][L] + p[L]) * unL + (U[4][R] + p[R]) * unR) * 0.5
                       - (U[4][R] - U[4][L]) * sf;

                if (visc > 0.0) {
                    /* tau = mu (dn_u + dc_ua) + lambda div u on a, dc_ua =
                       d u_a / d x_c: dn_ua on a, the face average of central
                       differences on the other active axes, 0 on the inactive */
                    const double thF = (th[L] + th[R]) * 0.5;
                    const double pwf = alpha == 0.5 ? sqrt(thF) : pow(thF, alpha);
                    double uF[3], dn[3], tau[3];
                    for (int k = 0; k < 3; k++) {
                        uF[k] = (u[k][L] + u[k][R]) * 0.5;
                        dn[k] = (u[k][R] - u[k][L]) / dx[a];
                    }
                    double divu = dn[a];
                    for (int k = 0; k < 3; k++) {
                        if (k == a) {
                            tau[k] = dn[k] + dn[k];
                        } else if (w->active[k]) {
                            const int64_t sb = w->stride[k];
                            const double h2 = 2.0 * dx[k];
                            const double da = ((u[a][L + sb] - u[a][L - sb]) / h2
                                               + (u[a][R + sb] - u[a][R - sb]) / h2) * 0.5;
                            const double db = ((u[k][L + sb] - u[k][L - sb]) / h2
                                               + (u[k][R + sb] - u[k][R - sb]) / h2) * 0.5;
                            tau[k] = dn[k] + da;
                            divu += db;
                        } else {
                            tau[k] = dn[k] + 0.0;
                        }
                    }
                    const double mu = mu1 * pwf;
                    for (int k = 0; k < 3; k++)
                        tau[k] *= mu;
                    tau[a] += divu * (lambda1 * pwf);
                    const double dthdn = (th[R] - th[L]) / dx[a] * (kappa1 * pwf);
                    const double heat = (uF[0] * tau[0] + uF[1] * tau[1]) + uF[2] * tau[2] + dthdn;
                    for (int k = 0; k < 3; k++)
                        f[1 + k] -= tau[k] * visc;
                    f[4] -= heat * visc;
                }
                for (int k = 0; k < 5; k++)
                    F[k * N + L] = f[k];
            }
        }
}

/* out = 0 - (F(i) - F(i - s)) / dx on the first axis, out - that on the
   others, over the interior cells i */
static void divergence(const rk_work *w, int a, double dx, int first, double *out)
{
    const int64_t N = w->N, s = w->stride[a];
    const box b = span(w, -1);
    for (int k = 0; k < 5; k++) {
        const double *F = w->F + k * N;
        for (int64_t i0 = b.lo[0]; i0 < b.hi[0]; i0++)
            for (int64_t i1 = b.lo[1]; i1 < b.hi[1]; i1++) {
                const int64_t row = i0 * b.st[0] + i1 * b.st[1];
                if (first)
                    for (int64_t i = row + b.lo[2]; i < row + b.hi[2]; i++)
                        *out++ = 0.0 - (F[i] - F[i - s]) / dx;
                else
                    for (int64_t i = row + b.lo[2]; i < row + b.hi[2]; i++, out++)
                        *out -= (F[i] - F[i - s]) / dx;
            }
    }
}

/* bflux = 0 + (first - last) area, first and last the x1 faces of F at
   ring x1 positions 0 and n1, each plane summed in order over the interior
   transverse cells */
static void boundary_flux(const rk_work *w, double area, double *bflux)
{
    const int64_t end = w->n[0] * w->stride[0];
    for (int k = 0; k < 5; k++) {
        const double *F = w->F + k * w->N;
        double first = 0.0, last = 0.0;
        for (int64_t i1 = w->active[1]; i1 < w->active[1] + w->n[1]; i1++)
            for (int64_t i2 = w->active[2]; i2 < w->active[2] + w->n[2]; i2++) {
                first += F[i1 * w->stride[1] + i2];
                last += F[end + i1 * w->stride[1] + i2];
            }
        bflux[k] = 0.0 + (first - last) * area;
    }
}

/* the ring of U (5, n1, n2, n3) in C order.  ghosts, (10, 2) columns of
   primitives over conserved values, pins the x1 ghost planes; NULL wraps x1 */
static void fill(const rk_work *w, const double *U, const double *ghosts, double cth)
{
    const int64_t N = w->N, cells = w->n[0] * w->n[1] * w->n[2];
    double *st = w->state;
    const box b = span(w, -1);
    int64_t j = 0;
    for (int64_t i0 = b.lo[0]; i0 < b.hi[0]; i0++)
        for (int64_t i1 = b.lo[1]; i1 < b.hi[1]; i1++) {
            const int64_t row = i0 * b.st[0] + i1 * b.st[1];
            for (int64_t i = row + b.lo[2]; i < row + b.hi[2]; i++, j++) {
                const double rho = U[j];
                double u[3];
                for (int k = 0; k < 3; k++)
                    u[k] = U[(1 + k) * cells + j] / rho;
                st[i] = rho;
                for (int k = 0; k < 3; k++)
                    st[(1 + k) * N + i] = u[k];
                st[4 * N + i] = (U[4 * cells + j] / rho
                                 - ((u[0] * u[0] + u[1] * u[1]) + u[2] * u[2]) * 0.5) * cth;
                for (int k = 0; k < 5; k++)
                    st[(5 + k) * N + i] = U[k * cells + j];
            }
        }
    for (int a = ghosts ? 1 : 0; a < 3; a++) {
        if (!w->active[a])
            continue;
        const int64_t s = w->stride[a], n = w->n[a];
        for (int64_t o = 0; o < N; o += (n + 2) * s)
            for (int k = 0; k < 10; k++) {
                double *x = st + k * N + o;
                for (int64_t i = 0; i < s; i++) {
                    x[i] = x[n * s + i];
                    x[(n + 1) * s + i] = x[s + i];
                }
            }
    }
    if (ghosts) {
        const int64_t s = w->stride[0], last = (w->n[0] + 1) * s;
        for (int k = 0; k < 10; k++)
            for (int64_t i = 0; i < s; i++) {
                st[k * N + i] = ghosts[2 * k];
                st[k * N + last + i] = ghosts[2 * k + 1];
            }
    }
}

/* 1 if some cell of U has rho <= 0, 2 if some ring cell has theta <= 0;
   else 0 once the tendency (5, n1, n2, n3) is in out and the boundary flux
   (5,) in bflux */
int rk_rhs(const rk_work *w, const double *U, const double *ghosts, double *out, double *bflux,
           double dx0, double dx1, double dx2, double R, double gR, double cth, double mu1,
           double lambda1, double kappa1, double alpha, double visc, double area)
{
    const int64_t N = w->N, cells = w->n[0] * w->n[1] * w->n[2];
    for (int64_t j = 0; j < cells; j++)
        if (U[j] <= 0.0)
            return 1;
    fill(w, U, ghosts, cth);
    const double *rho = w->state, *th = w->state + 4 * N;
    for (int64_t j = 0; j < N; j++)
        if (th[j] <= 0.0)
            return 2;
    for (int64_t j = 0; j < N; j++) {
        w->p[j] = R * rho[j] * th[j];
        w->c[j] = sqrt(gR * th[j]);
    }
    const double dx[3] = {dx0, dx1, dx2};
    faces(w, 0, dx, mu1, lambda1, kappa1, alpha, visc);
    boundary_flux(w, area, bflux);
    divergence(w, 0, dx0, 1, out);
    if (w->active[1]) {
        faces(w, 1, dx, mu1, lambda1, kappa1, alpha, visc);
        divergence(w, 1, dx1, 0, out);
    }
    if (w->active[2]) {
        faces(w, 2, dx, mu1, lambda1, kappa1, alpha, visc);
        divergence(w, 2, dx2, 0, out);
    }
    return 0;
}
