"""Explicit finite-volume integrator for viscous compressible flow.

Convection uses a local Lax-Friedrichs (Rusanov) flux, robust next to the
near-vacuum cut-off state; viscous and heat fluxes are 2nd-order central with
temperature-dependent coefficients evaluated at face-averaged temperature.
Time stepping is 3-stage SSP Runge-Kutta.  The energy equation is integrated
in conserved total-energy form; temperature is always a derived view.
"""

from __future__ import annotations

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


def profile_ghost_source(spec, grid: SlabGrid, shift: bool = True) -> GhostSource:
    """Pin ghost cells to the time-dependent smooth wave at the ghost centers.

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
        tb = (1.0 + t) if shift else t
        if (xg[0] - spec.w_minus * tb < -margin) and (xg[1] - spec.w_plus * tb > margin):
            return const
        pr = smooth_profile(spec, t, xg, shift=shift)
        return _ghost_columns(spec.g, pr.rho, pr.u1, pr.theta)

    return source


def _active_axes(grid: SlabGrid) -> list[int]:
    return [0] + [ax for ax, n in ((1, grid.n2), (2, grid.n3)) if n > 1]


def _ringed_state(fs: FieldSet, g: GasParams, cfg: SolverConfig,
                  ghost_source: GhostSource | None, t: float,
                  active: list[int]) -> np.ndarray:
    """Primitives (rho, u, theta) stacked over U, with one ghost ring on active axes.

    Transverse directions wrap; x1 wraps on fully-periodic runs and otherwise
    carries the ghost columns supplied by ghost_source (edge copy without
    one).  Axes are filled in order over the full ring, so corner cells are
    wrap-of-wrap on the torus and x1 ghost values on pinned runs.  Inactive
    axes stay single-cell wide.  The interior of the last five rows is fs.U.
    """
    ring = [1 if ax in active else 0 for ax in range(3)]
    shape = fs.grid.shape
    state = np.empty((10,) + tuple(n + 2 * r for n, r in zip(shape, ring)))
    inner = tuple(slice(r, n + r) for n, r in zip(shape, ring))
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


def _face_index(ax: int, active: list[int]) -> tuple[tuple, tuple]:
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


def _euler_flux(U: np.ndarray, un: np.ndarray, p: np.ndarray, ax: int) -> np.ndarray:
    """Stacked Euler flux along ax of conserved U with normal velocity un, pressure p."""
    f = np.empty_like(U)
    f[0] = U[1 + ax]
    np.multiply(U[1:4], un, out=f[1:4])
    f[1 + ax] += p
    f[4] = (U[4] + p) * un
    return f


def _face_cross_diff(uP: np.ndarray, ax: int, bx: int, dxb: float, padded: list[int]):
    """d u / d x_b at the faces along ax: central in b, averaged across the face."""
    idx_p = [slice(None)] * 4
    for sp in padded:
        if sp not in (ax, bx):
            idx_p[1 + sp] = slice(1, -1)
    idx_m = list(idx_p)
    idx_p[1 + bx] = slice(2, None)
    idx_m[1 + bx] = slice(0, -2)
    cd = (uP[tuple(idx_p)] - uP[tuple(idx_m)]) / (2.0 * dxb)
    idx_l = [slice(None)] * 4
    idx_r = [slice(None)] * 4
    idx_l[1 + ax] = slice(0, -1)
    idx_r[1 + ax] = slice(1, None)
    return 0.5 * (cd[tuple(idx_l)] + cd[tuple(idx_r)])


def rhs(fs: FieldSet, g: GasParams, cfg: SolverConfig,
        ghost_source: GhostSource | None = None,
        t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete tendency of the stacked conserved fields.

    Returns (tendency(5, n1, n2, n3), boundary_flux(5,)) where boundary_flux is
    the instantaneous net inflow rate through the two x1 boundaries, so that
    d/dt of each conserved total equals the matching entry on pinned runs.
    """
    tt = fs.time if t is None else t
    grid = fs.grid
    if np.any(fs.rho <= 0.0):
        raise RunAbort("nonpositive density entering rhs")
    active = _active_axes(grid)
    state = _ringed_state(fs, g, cfg, ghost_source, tt, active)
    rhoP, uP, thP, UP = state[0], state[1:4], state[4], state[5:]
    if np.any(thP <= 0.0):
        raise RunAbort("nonpositive temperature entering rhs")
    pP = g.R * rhoP * thP
    cP = np.sqrt(g.gamma * g.R * thP)

    visc = cfg.visc_mult
    spacing = grid.spacing
    tend = np.zeros((5,) + grid.shape)
    bflux = np.zeros(5)

    for ax in active:
        dx = spacing[ax]
        L, R = _face_index(ax, active)

        # cell fluxes and signal speeds once on the ringed array, then per face
        FP = _euler_flux(UP, uP[ax], pP, ax)
        aP = np.abs(uP[ax]) + cP
        s = np.maximum(aP[L], aP[R])
        F = 0.5 * (FP[L] + FP[R]) - 0.5 * s * (UP[R] - UP[L])

        if visc > 0.0:
            thL, thR = thP[L], thP[R]
            uLall, uRall = uP[L], uP[R]
            thF = 0.5 * (thL + thR)
            pw = thF ** g.alpha
            muF, lamF, kapF = g.mu1 * pw, g.lambda1 * pw, g.kappa1 * pw
            uF = 0.5 * (uLall + uRall)

            # velocity gradient at the face: exact normal difference,
            # averaged central differences in the transverse directions;
            # derivatives along inactive axes vanish identically
            dn_u = (uRall - uLall) / dx              # d u_c / d x_ax
            cross = {bx: _face_cross_diff(uP, ax, bx, spacing[bx], active)
                     for bx in active if bx != ax}   # d u_c / d x_bx
            divu = dn_u[ax]
            dc_uax = np.zeros_like(dn_u)             # d u_ax / d x_c
            dc_uax[ax] = dn_u[ax]
            for bx, cd in cross.items():
                divu = divu + cd[bx]
                dc_uax[bx] = cd[ax]
            tau = muF * (dn_u + dc_uax)              # stress column T[:, ax]
            tau[ax] += lamF * divu
            dthdn = (thR - thL) / dx

            F[1:4] -= visc * tau
            F[4] -= visc * (np.sum(uF * tau, axis=0) + kapF * dthdn)

        tend -= np.diff(F, axis=1 + ax) / dx

        if ax == 0:
            face_area = grid.cell_volume / dx
            bflux += (F[:, 0].reshape(5, -1).sum(axis=1)
                      - F[:, -1].reshape(5, -1).sum(axis=1)) * face_area

    return tend, bflux


def stable_dt(fs: FieldSet, g: GasParams, cfg: SolverConfig) -> tuple[float, float]:
    """(dt, max wave speed) from the convective CFL and SSP-RK3 viscous limits."""
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

    # the central viscous/heat operator with diffusivity D has spectral radius
    # at most 4 D_max sum_ax h_ax^-2
    dt_visc = np.inf
    if cfg.visc_mult > 0.0:
        pw = theta ** g.alpha
        diff = cfg.visc_mult * np.maximum(
            (2.0 * g.mu1 + g.lambda1) * pw,
            g.kappa1 * pw * (g.gamma - 1.0) / g.R) / fs.rho
        dmax = float(np.max(diff))
        if dmax > 0.0:
            inv_h2 = sum(spacing[ax] ** -2 for ax in active)
            dt_visc = _VISC_FRACTION * _RK3_REAL_LIMIT / (4.0 * dmax * inv_h2)

    return min(dt_conv, dt_visc), max_speed


def step(fs: FieldSet, g: GasParams, cfg: SolverConfig,
         ghost_source: GhostSource | None = None,
         dt: float | None = None,
         dt_cap: float | None = None) -> tuple[FieldSet, StepDiagnostics]:
    """One SSP-RK3 step; dt may be forced (paired-run tests), else from stable_dt.

    The stages are FieldSets over fresh stacked arrays, so each computes its
    primitives once; the result's primitives feed the diagnostics here and
    the next step's stable_dt and first rhs.
    """
    auto_dt, max_speed = stable_dt(fs, g, cfg)
    if dt is None:
        dt = auto_dt if dt_cap is None else min(auto_dt, dt_cap)
    if dt < _DT_MIN:
        raise RunAbort(f"time step underflow: dt = {dt:.3e}")

    t0 = fs.time
    U0 = fs.U
    bflux = np.zeros(5)

    k1, b1 = rhs(fs, g, cfg, ghost_source, t=t0)
    U1 = U0 + dt * k1
    k2, b2 = rhs(FieldSet(fs.grid, U1, t0 + dt), g, cfg, ghost_source, t=t0 + dt)
    U2 = 0.75 * U0 + 0.25 * (U1 + dt * k2)
    k3, b3 = rhs(FieldSet(fs.grid, U2, t0 + 0.5 * dt), g, cfg, ghost_source, t=t0 + 0.5 * dt)
    U3 = (U0 + 2.0 * (U2 + dt * k3)) / 3.0

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
