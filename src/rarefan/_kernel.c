/* rarefan.solver's rhs, stable_dt and SSP-RK3 stages of a conserved stack,
   and rarefan.analysis's central differences of a field.

   Three entries serve the solver.  rk_rhs checks the density (returning 1 if some cell has
   rho <= 0), fills the ghost-ringed state from the conserved stack U,
   checks the temperature (returning 2 if some ring cell has theta <= 0)
   and forms the pressure and sound speed of every ring cell; then, axis by
   axis, the Rusanov flux, viscous stress (with the cross differences) and
   heat term at the faces and the flux divergence into the tendency; and
   the net inflow through the two x1 boundaries.  rk_dt reduces U's cells
   to stable_dt's limits: each axis's max(|u_a| + c) and the largest
   diffusivity.  rk_stage forms one SSP-RK3 stage state from step's
   registers, adds that stage's share of the boundary flux, and on the last
   stage writes the result and, in one pass over it, reduces its
   stable_dt limits, its min rho, min theta and whether its rho and E rows
   are finite: the reduction of rk_dt, so the next step's stable_dt need
   not run it.  Each entry takes the work area's layout w, filled once per
   grid shape, which also holds the addresses of the limits and minima, and
   the run's constants q, filled once per grid, gas and solver config;
   beside them a call passes only the addresses of its arrays and, to
   rk_stage, the stage and dt.

   Every primitive comes from one helper, theta() after u = m / rho, in
   FieldSet.primitives' order: theta = (E / rho - ((u1 u1 + u2 u2) + u3 u3)
   0.5) cth with the one constant cth = (gamma - 1) / R.  The fill follows
   the ghost ring of the allocating reference in tests/test_solver.py.
   Each interior cell's primitives come first, then its conserved values.
   Then each active axis in turn, x1 first, wraps over the whole ring: its
   ghost planes 0 and n + 1 copy planes n and 1, so corner cells are
   wrap-of-wrap.  Given ghost columns, x1 does not wrap; its two ghost
   planes take the columns after the transverse wraps.

   Each formula performs the operations of its plain numpy expression in
   that reference, in that order and with its signed-zero steps (the
   divergence is 0 - d, a stress entry with no cross term dn + 0.0), so the
   tendency equals the reference bit for bit.  The stages keep step's
   order: U1 = k1 dt + U0, U2 = 0.75 U0 + (k2 dt + U1) 0.25, U3 = ((k3 dt
   + U2) 2 + U0) / 3, and the boundary flux b1 (w1 dt) + 0.0, then +=
   b_i (w_i dt).  Maxima and minima are np.maximum's and np.minimum's
   selects, which carry a NaN through; they are exact in any order, so
   the reductions run lane by lane and fold the lanes last.  Two rules are
   the kernel's own, and the reference follows them: theta^alpha is sqrt
   at alpha = 0.5, which is also numpy's ** 0.5, and libm's pow otherwise;
   and each x1 end plane is summed in order over its transverse cells.

   One entry serves rarefan.analysis, on a field f of extents (n0, n1, n2)
   in C order.  an_derivs writes f's gradient into rows 0-2 of the caller's
   work block; at level 2 then the Frobenius |grad^2 f|^2 into row 6, from
   each component's gradient in rows 3-5 in turn; at level >= 1 last
   |grad f|^2 into row 0.  Its rule keeps the bits of the numpy forms it
   replaced (tests/test_analysis.py holds them): along an axis of n >= 2
   cells of width h a cell's derivative is (f(i + 1) - f(i - 1)) / (2.0 h),
   a difference and then a division by the product, with the neighbours
   wrapped at the ends; pinned x1 ends take np.gradient's uniform
   edge_order=2 formulas in its order, ((-1.5 / h) f(0) + (2.0 / h) f(1)) +
   (-0.5 / h) f(2) and ((0.5 / h) f(n - 3) + (-2.0 / h) f(n - 2)) +
   (1.5 / h) f(n - 1); along an axis of one cell it is 0.  Squares are
   summed (x x + y y) + z z, and the Hessian sum adds component b's summed
   squares for b = 0, 1, 2 in turn.  An axis's differences are one flat
   difference of the field shifted by the axis's stride, whose end rows,
   which take the wrong neighbours, are then overwritten.

   The face, fill, stage and reduction passes and the derivative rows are
   vectorized, and the rule that keeps them so is: the innermost loop of a
   pass is a row function, a loop over the cells or faces of one row with
   no branch in its body, whose every row is its own restrict parameter and
   whose axis, active axes and kind are compile-time constants, so that the
   pass picks its instance once.
   GCC drops the restrict of an inlined function's parameters, so the
   function a row function is inlined into takes the rows as restrict
   parameters of its own.  rarefan.solver compiles this file with -O3
   -march=native -fno-math-errno -ffp-contract=off, for the vectors of the
   host CPU, whatever their width.  -ffp-contract=off and the absence of
   -ffast-math keep every bit at any width: each vector lane performs the
   scalar IEEE operation, sqrt included (-fno-math-errno only lets it skip
   errno, which nothing reads), no product and sum fuse into one rounding,
   even where the CPU has FMA, and no operation is reordered: GCC may load
   an end plane in vectors, but sums it in order.  libm's pow has no vector
   form without -ffast-math, so the pow instances stay scalar.

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
    double *k, *r;       /* (5, cells): step's registers, the tendency and the stage state */
    double *b, *sum;     /* (5,): rk_rhs's boundary flux and step's weighted sum of them */
    double *lim, *mins;  /* (4,) and (2,): stable_dt's limits and the last stage's minima */
} rk_work;

/* the run's constants, filled once per grid, gas and solver config: the
   spacing, the x1 end-face area, R, gamma R, cth = (gamma - 1) / R, the
   transport prefactors, alpha, the viscous multiplier, and stable_dt's
   longitudinal coefficient and gamma - 1 */
typedef struct {
    double dx[3], area, R, gR, cth, mu1, lambda1, kappa1, alpha, visc, lon, gm1;
} coeffs;

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

/* np.maximum and np.minimum, as selects */
static inline double maximum(double x, double y)
{
    return (x >= y) | (x != x) ? x : y;
}

static inline double minimum(double x, double y)
{
    return (x <= y) | (x != x) ? x : y;
}

/* the temperature of a cell of energy E, density r and velocity v */
static inline double theta(double E, double r, double v1, double v2, double v3, double cth)
{
    return (E / r - ((v1 * v1 + v2 * v2) + v3 * v3) * 0.5) * cth;
}

/* the rows a face pass reads (the state's u, theta and conserved rows, p
   and c), then the five flux rows it writes */
#define FACE_ROWS                                                                       \
    const double *restrict u1, const double *restrict u2, const double *restrict u3,    \
        const double *restrict th, const double *restrict U0, const double *restrict U1, \
        const double *restrict U2, const double *restrict U3, const double *restrict U4, \
        const double *restrict p, const double *restrict c, double *restrict F0,        \
        double *restrict F1, double *restrict F2, double *restrict F3, double *restrict F4
#define FACE_ARGS u1, u2, u3, th, U0, U1, U2, U3, U4, p, c, F0, F1, F2, F3, F4

/* the faces [lo, hi) of one row of axis a, on a grid whose active axes are
   the bits of m (x1 is bit 0), with viscosity if vis, theta^alpha by sqrt
   if sq */
static inline __attribute__((always_inline)) void
face_row(const int64_t lo, const int64_t hi, const int a, const int m, const int vis,
         const int sq, const int64_t stride[3], const coeffs *q, FACE_ROWS)
{
    const double *const u[3] = {u1, u2, u3}, *const U[5] = {U0, U1, U2, U3, U4};
    double *const F[5] = {F0, F1, F2, F3, F4};
    /* read before the loop: the stores to F could alias q and stride */
    const int64_t s = stride[a], sb[3] = {stride[0], stride[1], stride[2]};
    const double dx[3] = {q->dx[0], q->dx[1], q->dx[2]}, mu1 = q->mu1, lambda1 = q->lambda1,
                 kappa1 = q->kappa1, alpha = q->alpha, visc = q->visc;
    for (int64_t L = lo; L < hi; L++) {
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

        if (vis) {
            /* tau = mu (dn_u + dc_ua) + lambda div u on a, dc_ua =
               d u_a / d x_c: dn_ua on a, the face average of central
               differences on the other active axes, 0 on the inactive */
            const double thF = (th[L] + th[R]) * 0.5;
            const double pwf = sq ? sqrt(thF) : pow(thF, alpha);
            double uF[3], dn[3], tau[3];
            for (int k = 0; k < 3; k++) {
                uF[k] = (u[k][L] + u[k][R]) * 0.5;
                dn[k] = (u[k][R] - u[k][L]) / dx[a];
            }
            double divu = dn[a];
            for (int k = 0; k < 3; k++) {
                if (k == a) {
                    tau[k] = dn[k] + dn[k];
                } else if (m >> k & 1) {
                    const int64_t b = sb[k];
                    const double h2 = 2.0 * dx[k];
                    const double da = ((u[a][L + b] - u[a][L - b]) / h2
                                       + (u[a][R + b] - u[a][R - b]) / h2) * 0.5;
                    const double db = ((u[k][L + b] - u[k][L - b]) / h2
                                       + (u[k][R + b] - u[k][R - b]) / h2) * 0.5;
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
            F[k][L] = f[k];
    }
}

/* the faces of axis a into F, row by row */
static inline __attribute__((always_inline)) void
faces(const rk_work *w, const int a, const int m, const int vis, const int sq, const coeffs *q,
      FACE_ROWS)
{
    const box b = span(w, a);
    for (int64_t i0 = b.lo[0]; i0 < b.hi[0]; i0++)
        for (int64_t i1 = b.lo[1]; i1 < b.hi[1]; i1++) {
            const int64_t row = i0 * b.st[0] + i1 * b.st[1];
            face_row(row + b.lo[2], row + b.hi[2], a, m, vis, sq, w->stride, q, FACE_ARGS);
        }
}

/* the face pass of axis a on a grid of active axes m, its kind (viscosity,
   and sqrt or pow) picked once */
#define FACES(a, m)                                                                    \
    static void faces_##a##_##m(const rk_work *w, const coeffs *q, FACE_ROWS)          \
    {                                                                                  \
        if (!(q->visc > 0.0))                                                          \
            faces(w, a, m, 0, 0, q, FACE_ARGS);                                        \
        else if (q->alpha == 0.5)                                                      \
            faces(w, a, m, 1, 1, q, FACE_ARGS);                                        \
        else                                                                           \
            faces(w, a, m, 1, 0, q, FACE_ARGS);                                        \
    }
FACES(0, 1) FACES(0, 3) FACES(0, 5) FACES(0, 7) FACES(1, 3) FACES(1, 7) FACES(2, 5) FACES(2, 7)

/* the face pass of axis a by the active axes m, for the (a, m) a grid can have */
static void (*const face_pass[3][8])(const rk_work *, const coeffs *, FACE_ROWS) = {
    {[1] = faces_0_1, [3] = faces_0_3, [5] = faces_0_5, [7] = faces_0_7},
    {[3] = faces_1_3, [7] = faces_1_7},
    {[5] = faces_2_5, [7] = faces_2_7},
};

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

/* the primitives and conserved values of n cells: the five rows of U in,
   the state's ten rows out */
static inline __attribute__((always_inline)) void
fill_row(const int64_t n, const double cth, const double *restrict U0,
         const double *restrict U1, const double *restrict U2, const double *restrict U3,
         const double *restrict U4, double *restrict rho, double *restrict u1,
         double *restrict u2, double *restrict u3, double *restrict th, double *restrict V0,
         double *restrict V1, double *restrict V2, double *restrict V3, double *restrict V4)
{
    for (int64_t i = 0; i < n; i++) {
        const double r = U0[i], v1 = U1[i] / r, v2 = U2[i] / r, v3 = U3[i] / r;
        rho[i] = r;
        u1[i] = v1;
        u2[i] = v2;
        u3[i] = v3;
        th[i] = theta(U4[i], r, v1, v2, v3, cth);
        V0[i] = r;
        V1[i] = U1[i];
        V2[i] = U2[i];
        V3[i] = U3[i];
        V4[i] = U4[i];
    }
}

/* the interior cells of the ring from U (5, n1, n2, n3) in C order, row by
   row; S0..S9 are the state's rows */
static void fill(const rk_work *w, const double cth, const double *restrict U0,
                 const double *restrict U1, const double *restrict U2,
                 const double *restrict U3, const double *restrict U4, double *restrict S0,
                 double *restrict S1, double *restrict S2, double *restrict S3,
                 double *restrict S4, double *restrict S5, double *restrict S6,
                 double *restrict S7, double *restrict S8, double *restrict S9)
{
    const box b = span(w, -1);
    const int64_t n = b.hi[2] - b.lo[2];
    int64_t j = 0;
    for (int64_t i0 = b.lo[0]; i0 < b.hi[0]; i0++)
        for (int64_t i1 = b.lo[1]; i1 < b.hi[1]; i1++, j += n) {
            const int64_t i = i0 * b.st[0] + i1 * b.st[1] + b.lo[2];
            fill_row(n, cth, U0 + j, U1 + j, U2 + j, U3 + j, U4 + j, S0 + i, S1 + i, S2 + i,
                     S3 + i, S4 + i, S5 + i, S6 + i, S7 + i, S8 + i, S9 + i);
        }
}

/* the ghost ring around the filled interior.  ghosts, (10, 2) columns of
   primitives over conserved values, pins the x1 ghost planes; NULL wraps x1 */
static void ring(const rk_work *w, const double *ghosts)
{
    const int64_t N = w->N;
    double *st = w->state;
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
   (5,) in the work area's b */
int rk_rhs(const rk_work *w, const coeffs *q, const double *U, const double *ghosts, double *out)
{
    const int64_t N = w->N, cells = w->n[0] * w->n[1] * w->n[2];
    for (int64_t j = 0; j < cells; j++)
        if (U[j] <= 0.0)
            return 1;
    double *st = w->state;
    fill(w, q->cth, U, U + cells, U + 2 * cells, U + 3 * cells, U + 4 * cells, st, st + N,
         st + 2 * N, st + 3 * N, st + 4 * N, st + 5 * N, st + 6 * N, st + 7 * N, st + 8 * N,
         st + 9 * N);
    ring(w, ghosts);
    const double *rho = st, *th = st + 4 * N;
    for (int64_t j = 0; j < N; j++)
        if (th[j] <= 0.0)
            return 2;
    /* read before the loop: the stores to p and c could alias q */
    const double R = q->R, gR = q->gR;
    for (int64_t j = 0; j < N; j++) {
        w->p[j] = R * rho[j] * th[j];
        w->c[j] = sqrt(gR * th[j]);
    }
    const int m = (int)(w->active[0] | w->active[1] << 1 | w->active[2] << 2);
    double *F = w->F;
    for (int a = 0; a < 3; a++) {
        if (!w->active[a])
            continue;
        face_pass[a][m](w, q, st + N, st + 2 * N, st + 3 * N, st + 4 * N, st + 5 * N,
                        st + 6 * N, st + 7 * N, st + 8 * N, st + 9 * N, w->p, w->c, F, F + N,
                        F + 2 * N, F + 3 * N, F + 4 * N);
        if (a == 0)
            boundary_flux(w, q->area, w->b);
        divergence(w, a, q->dx[a], a == 0, out);
    }
    return 0;
}

/* the reductions run over blocks of LANES cells, a lane per cell */
#define LANES 16

/* fold n <= LANES cells into the lanes: each axis's |u_a| + c, c =
   sqrt(max(theta, 0) gamma R), into s0, s1 and s2; with viscosity (vis) the
   diffusivity max(lon pw, kappa1 pw (gamma - 1) / R) visc / rho into d, pw =
   theta^alpha by sqrt if sq; rho into mr, theta into mt, and (rho - rho) +
   (E - E), 0 while both are finite and NaN after, into nf */
static inline __attribute__((always_inline)) void
lanes(const int64_t n, const int vis, const int sq, const coeffs *q, const double *restrict U0,
      const double *restrict U1, const double *restrict U2, const double *restrict U3,
      const double *restrict U4, double *restrict s0, double *restrict s1, double *restrict s2,
      double *restrict d, double *restrict mr, double *restrict mt, double *restrict nf)
{
    const double gR = q->gR, cth = q->cth, lon = q->lon, kappa1 = q->kappa1, gm1 = q->gm1,
                 R = q->R, alpha = q->alpha, visc = q->visc;
    for (int64_t i = 0; i < n; i++) {
        const double r = U0[i], v1 = U1[i] / r, v2 = U2[i] / r, v3 = U3[i] / r;
        const double th = theta(U4[i], r, v1, v2, v3, cth), c = sqrt(maximum(th, 0.0) * gR);
        s0[i] = maximum(s0[i], fabs(v1) + c);
        s1[i] = maximum(s1[i], fabs(v2) + c);
        s2[i] = maximum(s2[i], fabs(v3) + c);
        if (vis) {
            const double pw = sq ? sqrt(th) : pow(th, alpha);
            d[i] = maximum(d[i], maximum(lon * pw, kappa1 * pw * gm1 / R) * visc / r);
        }
        mr[i] = minimum(mr[i], r);
        mt[i] = minimum(mt[i], th);
        nf[i] += (r - r) + (U4[i] - U4[i]);
    }
}

static double fold_max(const double *x)
{
    double m = x[0];
    for (int j = 1; j < LANES; j++)
        m = maximum(m, x[j]);
    return m;
}

static double fold_min(const double *x)
{
    double m = x[0];
    for (int j = 1; j < LANES; j++)
        m = minimum(m, x[j]);
    return m;
}

/* the limits of the cells of U's rows into lim and their min rho and min
   theta into mins, block by block; 1 if the rho and E rows are finite,
   else 0 */
static inline __attribute__((always_inline)) int
blocks(const int64_t cells, const int vis, const int sq, const coeffs *q,
       const double *restrict U0, const double *restrict U1, const double *restrict U2,
       const double *restrict U3, const double *restrict U4, double *restrict lim,
       double *restrict mins)
{
    double s[7][LANES];
    for (int j = 0; j < LANES; j++) {
        s[0][j] = s[1][j] = s[2][j] = s[3][j] = -INFINITY;
        s[4][j] = s[5][j] = INFINITY;
        s[6][j] = 0.0;
    }
    int64_t j = 0;
    for (; j + LANES <= cells; j += LANES)
        lanes(LANES, vis, sq, q, U0 + j, U1 + j, U2 + j, U3 + j, U4 + j, s[0], s[1], s[2], s[3],
              s[4], s[5], s[6]);
    lanes(cells - j, vis, sq, q, U0 + j, U1 + j, U2 + j, U3 + j, U4 + j, s[0], s[1], s[2], s[3],
          s[4], s[5], s[6]);
    for (int a = 0; a < 4; a++)
        lim[a] = fold_max(s[a]);
    mins[0] = fold_min(s[4]);
    mins[1] = fold_min(s[5]);
    double bad = 0.0;
    for (int i = 0; i < LANES; i++)
        bad += s[6][i];
    return bad == 0.0;
}

/* the limits, minima and finiteness of the conserved stack U (5, n1, n2,
   n3) in C order, by kind (no viscosity, sqrt or pow), picked once:
   lim[a] = max(|u_a| + c) for a = 0, 1, 2 and, if visc > 0, lim[3] = the
   largest diffusivity */
static int reduce(const rk_work *w, const coeffs *q, const double *U, double *lim, double *mins)
{
    const int64_t cells = w->n[0] * w->n[1] * w->n[2];
    const double *U1 = U + cells, *U2 = U + 2 * cells, *U3 = U + 3 * cells, *U4 = U + 4 * cells;
    if (!(q->visc > 0.0))
        return blocks(cells, 0, 0, q, U, U1, U2, U3, U4, lim, mins);
    if (q->alpha == 0.5)
        return blocks(cells, 1, 1, q, U, U1, U2, U3, U4, lim, mins);
    return blocks(cells, 1, 0, q, U, U1, U2, U3, U4, lim, mins);
}

/* stable_dt's limits of the conserved stack U into the work area's lim.
   No work array is written */
void rk_dt(const rk_work *w, const coeffs *q, const double *U)
{
    double mins[2];
    reduce(w, q, U, w->lim, mins);
}

/* stage s of n state entries: U1 = k dt + U0 into r (s = 1), U2 = 0.75 U0
   + (k dt + U1) 0.25 over U1 in r (s = 2), U3 = ((k dt + U2) 2 + U0) / 3
   into out (s = 3) */
static inline __attribute__((always_inline)) void
stage_row(const int64_t n, const int s, const double dt, const double *restrict U0,
          const double *restrict k, double *restrict r, double *restrict out)
{
    for (int64_t i = 0; i < n; i++) {
        const double kdt = k[i] * dt;
        if (s == 1)
            r[i] = kdt + U0[i];
        else if (s == 2)
            r[i] = 0.75 * U0[i] + (kdt + r[i]) * 0.25;
        else
            out[i] = ((kdt + r[i]) * 2.0 + U0[i]) / 3.0;
    }
}

/* the stage pass, its stage picked once */
static void stage_pass(const int64_t n, const int s, const double dt, const double *restrict U0,
                       const double *restrict k, double *restrict r, double *restrict out)
{
    if (s == 1)
        stage_row(n, 1, dt, U0, k, r, out);
    else if (s == 2)
        stage_row(n, 2, dt, U0, k, r, out);
    else
        stage_row(n, 3, dt, U0, k, r, out);
}

/* stage s (1, 2 or 3) of an SSP-RK3 step of size dt from the conserved
   stack U0, over the registers k (this stage's tendency) and r, and this
   stage's share of the boundary flux b into sum.  The last stage writes the
   result into out, its stable_dt limits into the work area's lim and its
   min rho and min theta into mins, and returns 1 if its rho and E rows are
   finite, else 0; the others return 1 */
int rk_stage(const rk_work *w, const coeffs *q, int s, const double *U0, double *out, double dt)
{
    static const double weight[3] = {1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0};
    const double wdt = weight[s - 1] * dt;
    for (int k = 0; k < 5; k++)
        w->sum[k] = s == 1 ? w->b[k] * wdt + 0.0 : w->sum[k] + w->b[k] * wdt;
    stage_pass(5 * w->n[0] * w->n[1] * w->n[2], s, dt, U0, w->k, w->r, out);
    if (s < 3)
        return 1;
    return reduce(w, q, out, w->lim, w->mins);
}

/* rarefan.analysis's central differences of a field f, C-ordered over
   extents (n0, n1, n2); see the header */

/* o = (hi - lo) / h2 over n entries */
static inline __attribute__((always_inline)) void
diff_row(const int64_t n, const double h2, const double *restrict lo, const double *restrict hi,
         double *restrict o)
{
    for (int64_t i = 0; i < n; i++)
        o[i] = (hi[i] - lo[i]) / h2;
}

/* o = (c0 a + c1 b) + c2 c over n entries */
static inline __attribute__((always_inline)) void
end_row(const int64_t n, const double c0, const double c1, const double c2,
        const double *restrict a, const double *restrict b, const double *restrict c,
        double *restrict o)
{
    for (int64_t i = 0; i < n; i++)
        o[i] = (c0 * a[i] + c1 * b[i]) + c2 * c[i];
}

/* o = (x x + y y) + z z over n entries, o + that if acc */
static inline __attribute__((always_inline)) void
square_row(const int64_t n, const int acc, const double *restrict x, const double *restrict y,
           const double *restrict z, double *restrict o)
{
    for (int64_t i = 0; i < n; i++) {
        const double q = (x[i] * x[i] + y[i] * y[i]) + z[i] * z[i];
        o[i] = acc ? o[i] + q : q;
    }
}

/* x = (x x + y y) + z z over n entries */
static inline __attribute__((always_inline)) void
norm_row(const int64_t n, double *restrict x, const double *restrict y, const double *restrict z)
{
    for (int64_t i = 0; i < n; i++)
        x[i] = (x[i] * x[i] + y[i] * y[i]) + z[i] * z[i];
}

/* the end rows of an axis of n >= 2 cells of stride s and width h, f at
   the axis's cell 0: cell 0's row into o0, cell n - 1's into o1; wrapped,
   or np.gradient's closure if pin (then n >= 3) */
static void end_rows(const int64_t n, const int64_t s, const double h, const int pin,
                     const double *restrict f, double *restrict o0, double *restrict o1)
{
    const double *last = f + (n - 1) * s;
    if (pin) {
        end_row(s, -1.5 / h, 2.0 / h, -0.5 / h, f, f + s, f + 2 * s, o0);
        end_row(s, 0.5 / h, -2.0 / h, 1.5 / h, last - 2 * s, last - s, last, o1);
    } else {
        diff_row(s, 2.0 * h, last, f + s, o0);
        diff_row(s, 2.0 * h, last - s, f, o1);
    }
}

/* d f / d x along an axis of n cells of stride s and width h, at every cell
   of outer consecutive blocks of n s entries, into o: one difference of
   the flat field shifted by s, whose end rows, which pick up the wrong
   neighbours, end_rows then overwrites, wrapped or by np.gradient's
   closure if pin; 0 if n is 1 */
static void axis_pass(const int64_t outer, const int64_t n, const int64_t s, const double h,
                      const int pin, const double *restrict f, double *restrict o)
{
    const int64_t len = n * s;
    if (n == 1) {
        for (int64_t i = 0; i < outer * len; i++)
            o[i] = 0.0;
        return;
    }
    diff_row(outer * len - 2 * s, 2.0 * h, f, f + 2 * s, o + s);
    for (int64_t k = 0; k < outer * len; k += len)
        end_rows(n, s, h, pin, f + k, o + k, o + k + len - s);
}

/* the gradient of f, (n0, n1, n2) cells of widths dx, into o0, o1 and o2;
   np.gradient's closure at the x1 ends if pin */
static void grad(const int64_t n0, const int64_t n1, const int64_t n2, const double dx[3],
                 const int pin, const double *restrict f, double *restrict o0,
                 double *restrict o1, double *restrict o2)
{
    axis_pass(1, n0, n1 * n2, dx[0], pin, f, o0);
    axis_pass(n0, n1, n2, dx[1], 0, f, o1);
    axis_pass(n0 * n1, n2, 1, dx[2], 0, f, o2);
}

/* f's gradient, (n0, n1, n2) cells of widths dx0, dx1 and dx2, into rows
   0-2 of work, (rows, n0, n1, n2); with level 2 its Frobenius |grad^2 f|^2
   into row 6, each component's gradient in rows 3-5 in turn, and with
   level >= 1 then |grad f|^2 into row 0.  pin takes np.gradient's closure
   at the x1 ends (then n0 != 2) */
void an_derivs(int64_t n0, int64_t n1, int64_t n2, double dx0, double dx1, double dx2, int pin,
               int level, const double *f, double *work)
{
    const int64_t N = n0 * n1 * n2;
    const double dx[3] = {dx0, dx1, dx2};
    double *g[7];
    for (int k = 0; k < (level == 2 ? 7 : 3); k++)
        g[k] = work + k * N;
    grad(n0, n1, n2, dx, pin, f, g[0], g[1], g[2]);
    if (level == 2)
        for (int b = 0; b < 3; b++) {
            grad(n0, n1, n2, dx, pin, g[b], g[3], g[4], g[5]);
            if (b == 0)
                square_row(N, 0, g[3], g[4], g[5], g[6]);
            else
                square_row(N, 1, g[3], g[4], g[5], g[6]);
        }
    if (level >= 1)
        norm_row(N, g[0], g[1], g[2]);
}
