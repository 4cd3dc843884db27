"""Explicit finite-volume integrator for viscous compressible flow.

Convection uses a local Lax-Friedrichs (Rusanov) flux, robust next to the
near-vacuum cut-off state; viscous and heat fluxes are 2nd-order central with
temperature-dependent coefficients evaluated at face-averaged temperature.
Time stepping is 3-stage SSP Runge-Kutta.  The energy equation is integrated
in conserved total-energy form; temperature is always a derived view.

Each grid shape has one work area (the ghost-ringed state, its pressure,
sound speed and Euler flux, and the face terms of each axis pass), allocated
on the first rhs and reused by every stage of every step, so that a run does
not hand its temporaries to the allocator and fault them in again each
stage.  rhs fills it in place and returns a new tendency and boundary flux
that the caller owns; step forms each SSP-RK3 stage in place on the tendency
it got for it.  The work area makes rhs unsafe to call from concurrent
threads on grids of one shape.

rhs builds no index and no view per call: the work area binds, once, every
view rhs reads or writes, since on the 1-D sweep lines a call costs its numpy
dispatches more than its arithmetic.  The ring is flat, (rows, N) over its N
cells, with strides (r2 r3, r3, 1) for ring extents (r1, r2, r3): along an
axis of stride s face j lies between cells j and j + s, so each face pair is
the contiguous slice pair [:N - s], [s:], not a view of short runs.  Pairs
across a row end or on a transverse ghost are computed and never read.  The
face terms of (u1, u2, u3, theta) are the rows state[1:5], so their face
average and normal difference are one operation each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gas import GasParams
from .fields import FieldSet, SlabGrid, conserved

# SSP-RK3 expands to a convex combination of Euler steps with these weights
_RK3_WEIGHTS = (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0)

# SSP-RK3 is stable on the negative real axis down to -2.5127..., the real
# root of 1 + z + z^2/2 + z^3/6 = -1 (Gottlieb, Shu & Tadmor, SIAM Rev. 43
# (2001) 89-112); the viscous dt keeps this fraction of that limit
_RK3_REAL_LIMIT = 2.5127453266183286
_VISC_FRACTION = 0.8

# Courant number of the convective step
_CFL = 0.4

# a run that has not reached its horizon after this many steps aborts
_MAX_STEPS = 10_000_000

# smallest step taken; a sample or horizon time counts as reached within this
# gap, so landing on it never asks for a smaller step
_DT_MIN = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Run-level numerical parameters."""

    eps: float = 1.0
    floor_rho: float = 1e-10
    floor_theta: float = 1e-10
    scaled: bool = False               # tau/y variables: unit viscous multiplier

    def __post_init__(self):
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")

    @property
    def visc_mult(self) -> float:
        """Viscous-term multiplier: 1 in scaled (tau, y) variables, eps otherwise."""
        return 1.0 if self.scaled else self.eps


@dataclass
class StepDiagnostics:
    dt: float
    max_speed: float
    min_rho: float
    min_theta: float
    boundary_flux: np.ndarray  # (5,) net inflow through x1 boundaries this step


class RunAbort(RuntimeError):
    """Raised when positivity floors are hit or the step size underflows."""

    def __init__(self, message: str, diagnostics: StepDiagnostics | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics


# ghost_source(t) -> (10, 2) array whose columns are the left and right x1
# ghost cells: primitives (rho, u1, u2, u3, theta) over conserved values.
# It is the one x1 boundary input of rhs, step and run: a source pins the x1
# ghosts to its columns, None wraps x1 like the transverse axes
GhostSource = Callable[[float], np.ndarray]


def _ghost_columns(g: GasParams, rho, u1, theta) -> np.ndarray:
    """Ghost columns of planar (rho, u1, theta) pairs, conserved part from fields.conserved."""
    prim = np.zeros((5, 2))
    prim[0], prim[1], prim[4] = rho, u1, theta
    return np.concatenate([prim, conserved(g, prim[0], prim[1:4], prim[4])])


def profile_ghost_source(spec, grid: SlabGrid) -> GhostSource:
    """Pin ghost cells to the smooth wave w(t, .) at the ghost centers.

    While the tanh transition zone stays clear of the boundaries the profile
    there equals the end states to round-off, so the evaluation short-circuits
    to the cached constants.
    """
    from .waves import smooth_profile

    xg = np.array([-grid.L - 0.5 * grid.dx1, grid.L + 0.5 * grid.dx1])
    lstate, rstate = spec.left_state(), spec.right
    const = _ghost_columns(spec.g, (lstate.rho, rstate.rho), (lstate.u1, rstate.u1),
                           (lstate.theta, rstate.theta))
    const.flags.writeable = False
    margin = 15.0 * spec.delta

    def source(t: float) -> np.ndarray:
        if (xg[0] - spec.w_minus * t < -margin) and (xg[1] - spec.w_plus * t > margin):
            return const
        pr = smooth_profile(spec, t, xg)
        return _ghost_columns(spec.g, pr.rho, pr.u1, pr.theta)

    return source


def _active_axes(shape: tuple[int, int, int]) -> tuple[int, ...]:
    return (0,) + tuple(ax for ax in (1, 2) if shape[ax] > 1)


def _along(ax: int, index) -> tuple:
    """Index of a stacked array picking index on spatial axis ax and everything elsewhere."""
    out = [slice(None)] * 3
    out[ax] = index
    return (Ellipsis, *out)


class _CrossWork:
    """Views of one transverse pair (ax, bx) of an axis pass: d u_c / d x_bx at the faces
    along ax for the two components c = ax, bx that the stress column reads.

    The rows are the stepped slice lo:hi+1:hi-lo of (u1, u2, u3), a view.  cd
    is central in bx on cells [sb, N - sb); its face average covers faces
    [sb, N - sa - sb), which hold every face of the grid.
    """

    def __init__(self, ax: int, bx: int, sa: int, sb: int, uP: np.ndarray, take,
                 divu: np.ndarray, dc_uax: np.ndarray):
        n = uP.shape[1] - 2 * sb              # the cells with both bx neighbours
        lo, hi = min(ax, bx), max(ax, bx)
        rows = uP[lo:hi + 1:hi - lo]
        self.bx = bx
        self.plus, self.minus = rows[:, 2 * sb:], rows[:, :n]
        self.cd, self.face = cd, face = take("cd", n), take("cd_face", n - sa)
        self.cd_lo, self.cd_hi = cd[:, :n - sa], cd[:, sa:]
        self.d_bx, self.d_ax = face[int(bx > ax)], face[int(ax > bx)]  # d u_bx, d u_ax / d x_bx
        self.divu, self.dc_bx = divu[sb:sb + n - sa], dc_uax[bx, sb:sb + n - sa]


class _AxisWork:
    """Work arrays of one axis pass of rhs, and every view of them and of the
    ring that the pass reads or writes, bound once.

    Face arrays hold the N - s faces j between flat cells j and j + s.  q holds
    the face averages of the four rows (u1, u2, u3, theta), dq their normal
    differences; coef holds one of the face coefficients mu, lambda, kappa at
    a time.
    """

    FACE = {"F": 5, "dU": 5, "s": 1, "q": 4, "dq": 4, "coef": 1, "tau": 3, "divu": 1,
            "heat": 1, "cd": 2, "cd_face": 2}

    def __init__(self, ax: int, ws: "_Workspace", take):
        self.ax = ax
        s, s0, N = ws.stride[ax], ws.stride[0], ws.state.shape[1]
        nf = N - s
        vars(self).update({name: take(name, nf) for name in self.FACE})
        state, flux, U, uP = ws.state, ws.flux, ws.state[5:], ws.state[1:4]

        # Euler flux on the ring: f[0] = U[1+ax], f[1:4] = U[1:4] un with p
        # added on row 1+ax, f[4] = (U[4] + p) un
        self.un = state[1 + ax]
        self.f_mass, self.U_normal = flux[0], U[1 + ax]
        self.f_mom, self.U_mom, self.f_ax = flux[1:4], U[1:4], flux[1 + ax]
        self.f_E, self.U_E = flux[4], U[4]

        # the two cells of every face
        self.FL, self.FR = flux[:, :nf], flux[:, s:]
        self.UL, self.UR = U[:, :nf], U[:, s:]
        self.aL, self.aR = ws.speed[:nf], ws.speed[s:]
        self.qL, self.qR = state[1:5, :nf], state[1:5, s:]
        self.uF, self.pw = self.q[:3], self.q[3]
        self.dn_u, self.dthdn, self.dn_uax = self.dq[:3], self.dq[3], self.dq[ax]
        self.F_mom, self.F_E, self.tau_ax = self.F[1:4], self.F[4], self.tau[ax]
        # the faces i - s and i of the x1-interior cells i in [s0, N - s0)
        self.F_lo = self.F[:, s0 - s:N - s0 - s].reshape(ws.slab_shape)
        self.F_hi = self.F[:, s0:N - s0].reshape(ws.slab_shape)
        if ax == 0:   # the first and last x1 faces, summed from a contiguous copy
            n1, n2, n3 = ws.tend_shape[1:]
            self.F_ends = self.F.reshape((5, n1 + 1) + ws.slab_shape[2:])[:, ::n1][ws.slab_in]
            self.ends_in = np.empty((5, 2, n2 * n3))
            self.ends_copy = self.ends_in.reshape(5, 2, n2, n3)
            self.ends = np.empty((5, 2))                # their sums
            self.ends_first, self.ends_last = self.ends[:, 0], self.ends[:, 1]

        # d u_ax / d x_c has its own array: rows of inactive axes stay zero
        self.dc_uax = np.zeros((3, nf))
        self.dc_ax = self.dc_uax[ax]
        self.cross = [_CrossWork(ax, bx, s, ws.stride[bx], uP, take, self.divu, self.dc_uax)
                      for bx in ws.active if bx != ax]


class _Workspace:
    """The arrays rhs and step fill on one grid, allocated once per grid shape,
    with the views rhs reads and writes, bound once.

    The ring-sized arrays are flat and filled through a (rows,) + ring view.
    The divergence runs over the x1-interior cells [s0, N - s0), accumulated
    in T (the tendency itself in 1-D) whose transverse ghosts are never read.
    Each face-sized array of _AxisWork is a view of one flat buffer sized for
    the widest axis: the axes take turns on it, so an axis pass writes every
    entry it reads.
    """

    def __init__(self, shape: tuple[int, int, int]):
        self.tend_shape = (5,) + shape
        self.active = active = _active_axes(shape)
        ring = tuple(n + 2 if ax in active else n for ax, n in enumerate(shape))
        N = math.prod(ring)
        self.stride = (ring[1] * ring[2], ring[2], 1)
        self.state = np.empty((10, N))
        self.p, self.c, self.speed = np.empty(N), np.empty(N), np.empty(N)
        self.flux = np.empty((5, N))
        self.slab_shape = (5, shape[0]) + ring[1:]
        inner = tuple(slice(1, -1) if ax in active else slice(None) for ax in range(3))
        self.slab_in = (slice(None), slice(None)) + inner[1:]   # a slab's interior
        state = self.state.reshape((10,) + ring)
        self.prim_in, self.U_in = state[(slice(0, 5),) + inner], state[(slice(5, 10),) + inner]
        self.rhoP, self.thP = self.state[0], self.state[4]
        # ghost planes 0 and n + 1 of each active axis and their periodic
        # sources n and 1, as one stepped view each
        self.wraps = [(state[_along(ax, slice(0, None, n + 1))],
                       state[_along(ax, slice(n, 0, 1 - n))])
                      for ax, n in ((ax, shape[ax]) for ax in active)]
        # the x1 ghost planes 0 and n1 + 1 as (..., 10, 2) ghost columns
        self.x1_columns = state[:, ::shape[0] + 1].transpose(2, 3, 0, 1)

        widest = N - min(self.stride[ax] for ax in active)
        pools = {name: np.empty(k * widest) for name, k in _AxisWork.FACE.items()}

        def take(name, n):
            k = _AxisWork.FACE[name]
            flat = pools[name][:k * n]
            return flat.reshape(k, n) if k > 1 else flat

        self.axes = [_AxisWork(ax, self, take) for ax in active]
        self.T = None
        if len(active) > 1:   # ddx shares dU's buffer, free once an axis pass has formed F
            self.T = np.empty(self.slab_shape)
            self.ddx = take("dU", N - 2 * self.stride[0]).reshape(self.slab_shape)
            self.T_inner, self.ddx_inner = self.T[self.slab_in], self.ddx[self.slab_in]


@functools.lru_cache(maxsize=8)
def _workspace(shape: tuple[int, int, int]) -> _Workspace:
    return _Workspace(shape)


def _ringed_state(ws: _Workspace, fs: FieldSet, g: GasParams,
                  ghost_source: GhostSource | None, t: float) -> None:
    """Fill ws.state with primitives (rho, u, theta) over U, one ghost ring on active axes.

    Transverse directions wrap.  x1 carries the ghost columns supplied by
    ghost_source, or wraps too when it is None.  Axes are filled in order over
    the full ring, so corner cells are wrap-of-wrap on the torus and x1 ghost
    values on pinned runs.  Inactive axes stay single-cell wide.  The interior
    of the last five rows is fs.U.  Every entry is written, so whatever state
    held before does not matter.
    """
    ws.prim_in[...] = fs.primitives(g)
    ws.U_in[...] = fs.U
    for ghosts, source in (ws.wraps if ghost_source is None else ws.wraps[1:]):
        ghosts[...] = source
    if ghost_source is not None:
        ws.x1_columns[...] = ghost_source(t)


def rhs(fs: FieldSet, g: GasParams, cfg: SolverConfig,
        ghost_source: GhostSource | None = None,
        t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete tendency of the stacked conserved fields.

    Returns (tendency(5, n1, n2, n3), boundary_flux(5,)) where boundary_flux is
    the instantaneous net inflow rate through the two x1 boundaries, so that
    d/dt of each conserved total equals the matching entry on pinned runs.
    ghost_source pins the x1 ghosts at time t; None wraps x1 (a torus run).
    Both are new arrays the caller owns; the work arrays are the grid's.
    """
    tt = fs.time if t is None else t
    grid = fs.grid
    if (fs.rho <= 0.0).any():
        raise RunAbort("nonpositive density entering rhs")
    ws = _workspace(grid.shape)
    _ringed_state(ws, fs, g, ghost_source, tt)
    thP = ws.thP
    if (thP <= 0.0).any():
        raise RunAbort("nonpositive temperature entering rhs")
    pP = np.multiply(g.R, ws.rhoP, out=ws.p)
    pP *= thP
    cP = np.multiply(g.gamma * g.R, thP, out=ws.c)
    np.sqrt(cP, out=cP)
    aP = ws.speed

    visc = cfg.visc_mult
    spacing = grid.spacing
    tend = np.empty(ws.tend_shape)
    T = tend if ws.T is None else ws.T
    bflux = np.zeros(5)

    # each in-place sequence below performs its formula's operations in the
    # order the plain expression would, so the work arrays change no bit
    for w in ws.axes:
        dx = spacing[w.ax]

        # cell fluxes and signal speeds once on the ringed array, then per face:
        # F = 0.5 (FP[L] + FP[R]) - 0.5 s (UP[R] - UP[L])
        w.f_mass[...] = w.U_normal
        np.multiply(w.U_mom, w.un, out=w.f_mom)
        w.f_ax += pP
        np.add(w.U_E, pP, out=w.f_E)
        w.f_E *= w.un
        np.abs(w.un, out=aP)
        aP += cP
        s = np.maximum(w.aL, w.aR, out=w.s)
        s *= 0.5
        F = np.add(w.FL, w.FR, out=w.F)
        F *= 0.5
        dU = np.subtract(w.UR, w.UL, out=w.dU)
        dU *= s
        F -= dU

        if visc > 0.0:
            # face average and normal difference of (u1, u2, u3, theta) at once:
            # uF, thF ** alpha and dn_u = d u_c / d x_ax, dthdn are their rows
            q = np.add(w.qL, w.qR, out=w.q)
            q *= 0.5
            pw = w.pw
            pw **= g.alpha
            dq = np.subtract(w.qR, w.qL, out=w.dq)
            dq /= dx

            # velocity gradient at the face: exact normal difference,
            # averaged central differences in the transverse directions;
            # derivatives along inactive axes vanish identically
            divu = w.divu                            # dc_uax: d u_ax / d x_c
            divu[...] = w.dn_uax
            w.dc_ax[...] = w.dn_uax
            for c in w.cross:   # central in bx, averaged across the face
                cd = np.subtract(c.plus, c.minus, out=c.cd)
                cd /= 2.0 * spacing[c.bx]
                np.add(c.cd_lo, c.cd_hi, out=c.face)
                c.face *= 0.5
                c.divu += c.d_bx
                c.dc_bx[...] = c.d_ax
            # stress column T[:, ax] = mu (dn_u + dc_uax), plus lambda divu on ax
            tau = np.add(w.dn_u, w.dc_uax, out=w.tau)
            coef = np.multiply(g.mu1, pw, out=w.coef)
            tau *= coef
            np.multiply(g.lambda1, pw, out=coef)
            divu *= coef
            w.tau_ax += divu
            dthdn = w.dthdn
            np.multiply(g.kappa1, pw, out=coef)
            dthdn *= coef

            # F[4] -= visc (sum_c uF_c tau_c + kappa dthdn); F[1:4] -= visc tau
            uF = w.uF
            uF *= tau
            heat = np.add.reduce(uF, axis=0, out=w.heat)
            heat += dthdn
            heat *= visc
            w.F_E -= heat
            tau *= visc
            w.F_mom -= tau

        # tend -= np.diff(F) / dx along ax, from tend = 0, summed on the slab T
        # whose interior the last axis writes into tend.  The first axis takes
        # 0 - np.diff(F) / dx, which keeps the +0 that (F_lo - F_hi) / dx would
        # turn into -0 where F_lo = -0 meets F_hi = +0
        ddx = np.subtract(w.F_hi, w.F_lo, out=T if w.ax == 0 else ws.ddx)
        ddx /= dx
        if w.ax == 0:
            np.subtract(0.0, T, out=T)
            w.ends_copy[...] = w.F_ends
            np.add.reduce(w.ends_in, axis=2, out=w.ends)
            bflux += (w.ends_first - w.ends_last) * (grid.cell_volume / dx)
        elif w.ax == ws.active[-1]:
            np.subtract(ws.T_inner, ws.ddx_inner, out=tend)
        else:
            T -= ddx

    return tend, bflux


def stable_dt(fs: FieldSet, g: GasParams, cfg: SolverConfig) -> tuple[float, float]:
    """(dt, max wave speed): min of the CFL step and the per-axis SSP-RK3 viscous step."""
    grid = fs.grid
    prim = fs.primitives(g)
    u, theta = prim[1:4], prim[4]
    c = np.maximum(theta, 0.0)
    c *= g.gamma * g.R
    np.sqrt(c, out=c)
    active = _active_axes(grid.shape)
    spacing = grid.spacing

    max_speed = 0.0
    dt_conv = np.inf
    speed = np.empty_like(c)
    for ax in active:
        np.abs(u[ax], out=speed)
        speed += c
        sp = float(speed.max())
        max_speed = max(max_speed, sp)
        if sp > 0.0:
            dt_conv = min(dt_conv, _CFL * spacing[ax] / sp)

    # Viscous/heat symbol at the largest theta^alpha/rho, with q_a = 4/h_a^2, y_a =
    # sin^2(k_a h_a/2), s_a = sin(k_a h_a)/h_a, c = mu + lambda: velocity mu S I +
    # c (diag(q_a y_a^2) + s s^T), S = sum q_a y_a; theta kappa (gamma-1)/R S.  At
    # y = 1 (s = 0) entry a is ((2 mu + lambda) f_a + mu (1 - f_a)) sum q, f_a =
    # q_a / sum q, largest on the finest axis; the cross terms lift it by at most
    # max(1, d c / (2c + d mu)), > 1 only in 3-D with lambda > 2 mu (README proof).
    dt_visc = np.inf
    if cfg.visc_mult > 0.0:
        inv_h2 = sum(spacing[ax] ** -2 for ax in active)
        f = min(spacing[ax] for ax in active) ** -2 / inv_h2
        d, c = len(active), g.mu1 + g.lambda1
        longitudinal = max(1.0, d * c / (2.0 * c + d * g.mu1)) * (
            (2.0 * g.mu1 + g.lambda1) * f + g.mu1 * (1.0 - f))
        # diff = visc max(longitudinal pw, kappa pw (gamma - 1) / R) / rho
        pw = theta ** g.alpha
        diff = np.multiply(longitudinal, pw, out=speed)
        heat = np.multiply(g.kappa1, pw, out=pw)
        heat *= g.gamma - 1.0
        heat /= g.R
        np.maximum(diff, heat, out=diff)
        diff *= cfg.visc_mult
        diff /= fs.rho
        dmax = float(diff.max())
        if dmax > 0.0:
            dt_visc = _VISC_FRACTION * _RK3_REAL_LIMIT / (4.0 * dmax * inv_h2)

    return min(dt_conv, dt_visc), max_speed


def step(fs: FieldSet, g: GasParams, cfg: SolverConfig,
         ghost_source: GhostSource | None = None,
         dt: float | None = None,
         dt_cap: float | None = None) -> tuple[FieldSet, StepDiagnostics]:
    """One SSP-RK3 step; dt may be forced (paired-run tests), else from stable_dt.

    Each stage is formed in place on the tendency rhs returned for it and
    wrapped in a FieldSet, so each computes its primitives once; the result's
    primitives feed the diagnostics here and the next step's stable_dt and
    first rhs.  The in-place forms evaluate U0 + dt k1,
    0.75 U0 + 0.25 (U1 + dt k2) and (U0 + 2 (U2 + dt k3)) / 3 operation by
    operation in that order.
    """
    auto_dt, max_speed = stable_dt(fs, g, cfg)
    if dt is None:
        dt = auto_dt if dt_cap is None else min(auto_dt, dt_cap)
    if dt < _DT_MIN:
        raise RunAbort(f"time step underflow: dt = {dt:.3e}")

    t0 = fs.time
    U0 = fs.U
    bflux = np.zeros(5)

    U1, b1 = rhs(fs, g, cfg, ghost_source, t=t0)
    U1 *= dt
    U1 += U0
    U2, b2 = rhs(FieldSet(fs.grid, U1, t0 + dt), g, cfg, ghost_source, t=t0 + dt)
    U2 *= dt
    U2 += U1
    U2 *= 0.25
    np.multiply(0.75, U0, out=U1)  # U1 is spent: it now holds 0.75 U0
    U2 += U1
    U3, b3 = rhs(FieldSet(fs.grid, U2, t0 + 0.5 * dt), g, cfg, ghost_source, t=t0 + 0.5 * dt)
    U3 *= dt
    U3 += U2
    U3 *= 2.0
    U3 += U0
    U3 /= 3.0

    for w, b in zip(_RK3_WEIGHTS, (b1, b2, b3)):
        bflux += w * dt * b

    out = FieldSet(fs.grid, U3, t0 + dt)
    diag = StepDiagnostics(
        dt=dt, max_speed=max_speed, min_rho=float(out.rho.min()),
        min_theta=float(out.primitives(g)[4].min()), boundary_flux=bflux)
    if not np.isfinite(U3[::4]).all():    # rows rho and E
        raise RunAbort("non-finite state after step", diag)
    if diag.min_rho < cfg.floor_rho or diag.min_theta < cfg.floor_theta:
        raise RunAbort(
            f"positivity floor hit: min rho {diag.min_rho:.3e}, min theta {diag.min_theta:.3e}",
            diag)
    return out, diag


def run(initial: FieldSet, g: GasParams, cfg: SolverConfig, horizon: float,
        observers: dict[str, Callable[[FieldSet, GasParams], dict]] | None = None,
        ghost_source: GhostSource | None = None,
        sample_dt: float | None = None) -> tuple[FieldSet, list[dict]]:
    """Advance to the horizon, sampling diagnostics every sample_dt time units.

    Steps are capped so that every sample lands on its time t0 + k sample_dt
    and the last on the horizon.  ghost_source pins the x1 ghosts; None
    wraps x1, as on the torus.  Each record carries the base diagnostic
    columns plus whatever the observer callbacks return; records are plain
    dicts ready for CSV emission.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    observers = observers or {}
    fs = initial.copy()
    records: list[dict] = []

    def record(diag: StepDiagnostics | None):
        row = {"tau": fs.time,
               "dt": diag.dt if diag else 0.0,
               "min_rho": float(np.min(fs.rho)),
               "min_theta": float(np.min(fs.primitives(g)[4]))}
        row.update(fs.totals())
        for name, fn in observers.items():
            out = fn(fs, g)
            if isinstance(out, dict):
                row.update({f"{name}.{k}" if k else name: v for k, v in out.items()})
            else:
                row[name] = out
        records.append(row)

    record(None)
    if horizon == 0.0:
        return fs, records

    t0 = fs.time
    t_end = t0 + horizon
    n_sample = 1
    next_sample = t0 + sample_dt if sample_dt else np.inf
    for _ in range(_MAX_STEPS):
        # land on the next sample or the horizon; a gap left open here exceeds
        # _DT_MIN, so the cap never forces a step below the underflow limit
        target = min(t_end, next_sample)
        fs, diag = step(fs, g, cfg, ghost_source, dt_cap=target - fs.time)
        if next_sample - fs.time <= _DT_MIN:
            record(diag)
            n_sample += 1
            next_sample = t0 + n_sample * sample_dt
        if t_end - fs.time <= _DT_MIN:
            if records[-1]["tau"] < fs.time:
                record(diag)
            return fs, records
    raise RunAbort(f"{_MAX_STEPS} steps exhausted before reaching horizon")
