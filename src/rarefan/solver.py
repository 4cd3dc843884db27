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

# smallest step taken; a sample or horizon time counts as reached within this
# gap, so landing on it never asks for a smaller step
_DT_MIN = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Run-level numerical parameters."""

    eps: float = 1.0
    cfl: float = 0.4
    floor_rho: float = 1e-10
    floor_theta: float = 1e-10
    boundary: str = "pinned-profile"   # or "fully-periodic"
    scaled: bool = False               # tau/y variables: unit viscous multiplier

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must be in (0, 1)")
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")
        if self.boundary not in ("pinned-profile", "fully-periodic"):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

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
    totals: dict[str, float]
    boundary_flux: np.ndarray  # (5,) net inflow through x1 boundaries this step


class RunAbort(RuntimeError):
    """Raised when positivity floors are hit or the step size underflows."""

    def __init__(self, message: str, diagnostics: StepDiagnostics | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics


# ghost_source(t) -> (10, 2) array whose columns are the left and right x1
# ghost cells: primitives (rho, u1, u2, u3, theta) over conserved values
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


def _active_axes(grid: SlabGrid) -> list[int]:
    return [0] + [ax for ax, n in ((1, grid.n2), (2, grid.n3)) if n > 1]


def _face_index(ax: int, active: tuple[int, ...]) -> tuple[tuple, tuple]:
    """(left, right) indices of the two cells of every face along ax.

    They apply to the spatial axes of any ghost-ringed array: the ax axis keeps
    its ghost extent so there is one pair per face (n_ax + 1 of them); other
    ringed axes are cut to the interior.
    """
    lo = [slice(1, -1) if sp in active else slice(None) for sp in range(3)]
    hi = list(lo)
    lo[ax] = slice(0, -1)
    hi[ax] = slice(1, None)
    return (Ellipsis, *lo), (Ellipsis, *hi)


class _AxisWork:
    """Work arrays and indices of one axis pass of rhs.

    Shapes: faces along ax are (n_ax + 1) wide on ax and interior elsewhere;
    cd keeps the ghost ring on ax only.  coef holds one of the face
    coefficients mu, lambda, kappa at a time.
    """

    FACE = {"F": 5, "dU": 5, "s": 1, "pw": 1, "coef": 1, "uF": 3, "dn_u": 3,
            "dc_uax": 3, "tau": 3, "divu": 1, "dthdn": 1, "heat": 1, "cd_face": 3}

    def __init__(self, ax: int, active: tuple[int, ...], arrays: dict[str, np.ndarray]):
        self.L, self.R = _face_index(ax, active)
        along = [slice(None)] * 3        # lo, hi: all but the last, the first entry along ax
        along[ax] = slice(0, -1)
        self.lo = (Ellipsis, *along)
        along[ax] = slice(1, None)
        self.hi = (Ellipsis, *along)
        self.cross = {}                  # bx -> (plus, minus) cells of the central difference
        for bx in active:
            if bx != ax:
                plus = [slice(1, -1) if sp in active else slice(None) for sp in range(3)]
                plus[ax] = slice(None)
                minus = list(plus)
                plus[bx], minus[bx] = slice(2, None), slice(0, -2)
                self.cross[bx] = (Ellipsis, *plus), (Ellipsis, *minus)
        vars(self).update(arrays)


class _Workspace:
    """The arrays rhs and step fill on one grid, allocated once per grid shape.

    Ring-sized arrays hold the ghost-ringed state and its cell quantities.
    Each face-sized array of _AxisWork is a view of one flat buffer sized for
    the widest axis: the axes take turns on it, so an axis pass writes every
    entry it reads.
    """

    def __init__(self, shape: tuple[int, int, int], active: tuple[int, ...]):
        ring = tuple(n + 2 if ax in active else n for ax, n in enumerate(shape))
        self.state = np.empty((10,) + ring)
        self.p, self.c, self.speed = np.empty(ring), np.empty(ring), np.empty(ring)
        self.flux = np.empty((5,) + ring)
        self.ddx = np.empty((5,) + shape)

        def along(ax, extra):
            return tuple(n + extra if sp == ax else n for sp, n in enumerate(shape))

        def views(k, shapes):
            flat = np.empty(k * max(math.prod(sh) for sh in shapes.values()))
            return {ax: flat[:k * math.prod(sh)].reshape(((k,) if k > 1 else ()) + sh)
                    for ax, sh in shapes.items()}

        faces = {ax: along(ax, 1) for ax in active}
        pools = {name: views(k, faces) for name, k in _AxisWork.FACE.items()}
        pools["cd"] = views(3, {ax: along(ax, 2) for ax in active})
        self.axes = {ax: _AxisWork(ax, active, {name: v[ax] for name, v in pools.items()})
                     for ax in active}


@functools.lru_cache(maxsize=8)
def _workspace(shape: tuple[int, int, int], active: tuple[int, ...]) -> _Workspace:
    return _Workspace(shape, active)


def _ringed_state(state: np.ndarray, fs: FieldSet, g: GasParams, cfg: SolverConfig,
                  ghost_source: GhostSource | None, t: float,
                  active: tuple[int, ...]) -> np.ndarray:
    """Fill state with primitives (rho, u, theta) over U, one ghost ring on active axes.

    Transverse directions wrap; x1 wraps on fully-periodic runs and otherwise
    carries the ghost columns supplied by ghost_source (edge copy without
    one).  Axes are filled in order over the full ring, so corner cells are
    wrap-of-wrap on the torus and x1 ghost values on pinned runs.  Inactive
    axes stay single-cell wide.  The interior of the last five rows is fs.U.
    Every entry is written, so whatever state held before does not matter.
    """
    inner = tuple(slice(1, -1) if ax in active else slice(None) for ax in range(3))
    state[(slice(0, 5),) + inner] = fs.primitives(g)
    state[(slice(5, 10),) + inner] = fs.U
    periodic = active if cfg.boundary == "fully-periodic" else active[1:]
    for ax in periodic:
        planes = np.moveaxis(state, 1 + ax, 0)  # a view: ghost planes at 0 and -1
        planes[0], planes[-1] = planes[-2], planes[1]
    if cfg.boundary == "fully-periodic":
        return state
    if ghost_source is None:
        state[:, 0] = state[:, 1]
        state[:, -1] = state[:, -2]
    else:
        ghosts = ghost_source(t)
        state[:, 0] = ghosts[:, 0, None, None]
        state[:, -1] = ghosts[:, 1, None, None]
    return state


def _euler_flux(f: np.ndarray, U: np.ndarray, un: np.ndarray, p: np.ndarray,
                ax: int) -> np.ndarray:
    """Fill f with the stacked Euler flux along ax of U with normal velocity un, pressure p."""
    f[0] = U[1 + ax]
    np.multiply(U[1:4], un, out=f[1:4])
    f[1 + ax] += p
    np.add(U[4], p, out=f[4])
    f[4] *= un
    return f


def _face_cross_diff(w: _AxisWork, uP: np.ndarray, bx: int, dxb: float) -> np.ndarray:
    """d u / d x_b at the faces of w's axis: central in b, averaged across the face."""
    plus, minus = w.cross[bx]
    cd = np.subtract(uP[plus], uP[minus], out=w.cd)
    cd /= 2.0 * dxb
    out = np.add(cd[w.lo], cd[w.hi], out=w.cd_face)
    out *= 0.5
    return out


def rhs(fs: FieldSet, g: GasParams, cfg: SolverConfig,
        ghost_source: GhostSource | None = None,
        t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete tendency of the stacked conserved fields.

    Returns (tendency(5, n1, n2, n3), boundary_flux(5,)) where boundary_flux is
    the instantaneous net inflow rate through the two x1 boundaries, so that
    d/dt of each conserved total equals the matching entry on pinned runs.
    Both are new arrays the caller owns; the work arrays are the grid's.
    """
    tt = fs.time if t is None else t
    grid = fs.grid
    if np.any(fs.rho <= 0.0):
        raise RunAbort("nonpositive density entering rhs")
    active = tuple(_active_axes(grid))
    ws = _workspace(grid.shape, active)
    state = _ringed_state(ws.state, fs, g, cfg, ghost_source, tt, active)
    rhoP, uP, thP, UP = state[0], state[1:4], state[4], state[5:]
    if np.any(thP <= 0.0):
        raise RunAbort("nonpositive temperature entering rhs")
    pP = np.multiply(g.R, rhoP, out=ws.p)
    pP *= thP
    cP = np.multiply(g.gamma * g.R, thP, out=ws.c)
    np.sqrt(cP, out=cP)

    visc = cfg.visc_mult
    spacing = grid.spacing
    tend = np.zeros((5,) + grid.shape)
    bflux = np.zeros(5)

    # each in-place sequence below performs its formula's operations in the
    # order the plain expression would, so the work arrays change no bit
    for ax in active:
        dx = spacing[ax]
        w = ws.axes[ax]
        L, R = w.L, w.R

        # cell fluxes and signal speeds once on the ringed array, then per face:
        # F = 0.5 (FP[L] + FP[R]) - 0.5 s (UP[R] - UP[L])
        FP = _euler_flux(ws.flux, UP, uP[ax], pP, ax)
        aP = np.abs(uP[ax], out=ws.speed)
        aP += cP
        s = np.maximum(aP[L], aP[R], out=w.s)
        s *= 0.5
        F = np.add(FP[L], FP[R], out=w.F)
        F *= 0.5
        dU = np.subtract(UP[R], UP[L], out=w.dU)
        dU *= s
        F -= dU

        if visc > 0.0:
            thL, thR = thP[L], thP[R]
            uL, uR = uP[L], uP[R]
            pw = np.add(thL, thR, out=w.pw)          # thF ** alpha
            pw *= 0.5
            pw **= g.alpha
            uF = np.add(uL, uR, out=w.uF)
            uF *= 0.5

            # velocity gradient at the face: exact normal difference,
            # averaged central differences in the transverse directions;
            # derivatives along inactive axes vanish identically
            dn_u = np.subtract(uR, uL, out=w.dn_u)   # d u_c / d x_ax
            dn_u /= dx
            divu, dc_uax = w.divu, w.dc_uax          # dc_uax: d u_ax / d x_c
            divu[...] = dn_u[ax]
            dc_uax[ax] = dn_u[ax]
            for bx in range(3):
                if bx in w.cross:
                    cd = _face_cross_diff(w, uP, bx, spacing[bx])  # d u_c / d x_bx
                    divu += cd[bx]
                    dc_uax[bx] = cd[ax]
                elif bx != ax:
                    dc_uax[bx] = 0.0
            # stress column T[:, ax] = mu (dn_u + dc_uax), plus lambda divu on ax
            tau = np.add(dn_u, dc_uax, out=w.tau)
            coef = np.multiply(g.mu1, pw, out=w.coef)
            tau *= coef
            np.multiply(g.lambda1, pw, out=coef)
            divu *= coef
            tau[ax] += divu
            dthdn = np.subtract(thR, thL, out=w.dthdn)
            dthdn /= dx
            np.multiply(g.kappa1, pw, out=coef)
            dthdn *= coef

            # F[4] -= visc (sum_c uF_c tau_c + kappa dthdn); F[1:4] -= visc tau
            uF *= tau
            heat = np.sum(uF, axis=0, out=w.heat)
            heat += dthdn
            heat *= visc
            F[4] -= heat
            tau *= visc
            F[1:4] -= tau

        ddx = np.subtract(F[w.hi], F[w.lo], out=ws.ddx)   # np.diff along ax
        ddx /= dx
        tend -= ddx

        if ax == 0:
            face_area = grid.cell_volume / dx
            bflux += (F[:, 0].reshape(5, -1).sum(axis=1)
                      - F[:, -1].reshape(5, -1).sum(axis=1)) * face_area

    return tend, bflux


def stable_dt(fs: FieldSet, g: GasParams, cfg: SolverConfig) -> tuple[float, float]:
    """(dt, max wave speed): min of the CFL step and the per-axis SSP-RK3 viscous step."""
    grid = fs.grid
    prim = fs.primitives(g)
    u, theta = prim[1:4], prim[4]
    c = np.sqrt(g.gamma * g.R * np.maximum(theta, 0.0))
    active = _active_axes(grid)
    spacing = grid.spacing

    max_speed = 0.0
    dt_conv = np.inf
    for ax in active:
        sp = float(np.max(np.abs(u[ax]) + c))
        max_speed = max(max_speed, sp)
        if sp > 0.0:
            dt_conv = min(dt_conv, cfg.cfl * spacing[ax] / sp)

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
        pw = theta ** g.alpha
        diff = cfg.visc_mult * np.maximum(
            longitudinal * pw, g.kappa1 * pw * (g.gamma - 1.0) / g.R) / fs.rho
        dmax = float(np.max(diff))
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
        dt=dt, max_speed=max_speed,
        min_rho=float(np.min(out.rho)), min_theta=float(np.min(out.primitives(g)[4])),
        totals=out.totals(), boundary_flux=bflux)
    if not np.isfinite(out.rho).all() or not np.isfinite(out.E).all():
        raise RunAbort("non-finite state after step", diag)
    if diag.min_rho < cfg.floor_rho or diag.min_theta < cfg.floor_theta:
        raise RunAbort(
            f"positivity floor hit: min rho {diag.min_rho:.3e}, min theta {diag.min_theta:.3e}",
            diag)
    return out, diag


def run(initial: FieldSet, g: GasParams, cfg: SolverConfig, horizon: float,
        observers: dict[str, Callable[[FieldSet, GasParams], dict]] | None = None,
        ghost_source: GhostSource | None = None,
        sample_dt: float | None = None,
        max_steps: int = 10_000_000) -> tuple[FieldSet, list[dict]]:
    """Advance to the horizon, sampling diagnostics every sample_dt time units.

    Steps are capped so that every sample lands on its time t0 + k sample_dt
    and the last on the horizon.  Each record carries the base diagnostic
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
    for _ in range(max_steps):
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
    raise RunAbort(f"max_steps={max_steps} exhausted before reaching horizon")
