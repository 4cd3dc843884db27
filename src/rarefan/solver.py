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


@dataclass(frozen=True)
class SolverConfig:
    """Run-level numerical parameters."""

    eps: float = 1.0
    cfl: float = 0.4
    visc_safety: float = 0.4
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


# ghost_source(t) -> (left, right), each a 5-tuple (rho, u1, u2, u3, theta)
GhostSource = Callable[[float], tuple[tuple, tuple]]


def profile_ghost_source(spec, grid: SlabGrid, shift: bool = True) -> GhostSource:
    """Pin ghost cells to the time-dependent smooth wave at the ghost centers.

    While the tanh transition zone stays clear of the boundaries the profile
    there equals the end states to round-off, so the evaluation short-circuits
    to the cached constants.
    """
    from .waves import smooth_profile

    xg = np.array([-grid.L - 0.5 * grid.dx1, grid.L + 0.5 * grid.dx1])
    lstate = spec.left_state()
    left_const = (lstate.rho, lstate.u1, 0.0, 0.0, lstate.theta)
    right_const = (spec.right.rho, spec.right.u1, 0.0, 0.0, spec.right.theta)

    def source(t: float):
        tb = (1.0 + t) if shift else t
        margin = 15.0 * spec.delta
        if (xg[0] - spec.w_minus * tb < -margin) and (xg[1] - spec.w_plus * tb > margin):
            return left_const, right_const
        pr = smooth_profile(spec, t, xg, shift=shift)
        left = (pr.rho[0], pr.u1[0], 0.0, 0.0, pr.theta[0])
        right = (pr.rho[1], pr.u1[1], 0.0, 0.0, pr.theta[1])
        return left, right

    return source


def _active_axes(grid: SlabGrid) -> list[int]:
    return [0] + [ax for ax, n in ((1, grid.n2), (2, grid.n3)) if n > 1]


def _pad_primitives(fs: FieldSet, g: GasParams, cfg: SolverConfig,
                    ghost_source: GhostSource | None, t: float,
                    active: list[int]) -> np.ndarray:
    """Stacked primitives (rho, u, theta) with one ghost ring on active axes.

    Transverse directions wrap; x1 wraps on fully-periodic runs and otherwise
    carries the ghost values supplied by ghost_source (edge copy without one).
    Inactive axes stay single-cell wide.
    """
    grid = fs.grid
    prim = np.empty((5,) + grid.shape)
    prim[0] = fs.rho
    prim[1:4] = fs.velocity()
    prim[4] = fs.temperature(g)

    if cfg.boundary == "fully-periodic":
        pads = [(0, 0)] + [(1, 1) if ax in active else (0, 0) for ax in range(3)]
        return np.pad(prim, pads, mode="wrap")

    tpads = [(0, 0), (0, 0)] + [(1, 1) if ax in active else (0, 0) for ax in (1, 2)]
    prim = np.pad(prim, tpads, mode="wrap")
    prim = np.pad(prim, [(0, 0), (1, 1), (0, 0), (0, 0)], mode="edge")
    if ghost_source is not None:
        left, right = ghost_source(t)  # (rho, u1, u2, u3, theta), matching prim
        for c in range(5):
            prim[c, 0] = left[c]
            prim[c, -1] = right[c]
    return prim


def _face_views(arr: np.ndarray, ax: int, padded: list[int]):
    """(left, right) cell views across all faces along ax.

    The ax axis keeps its ghost extent so there is one view pair per face
    (n_ax + 1 of them); other padded axes are cut to the interior.
    """
    off = arr.ndim - 3  # leading component axes of vector/stacked arrays
    idx_l = [slice(None)] * arr.ndim
    for sp in padded:
        if sp != ax:
            idx_l[off + sp] = slice(1, -1)
    idx_r = list(idx_l)
    idx_l[off + ax] = slice(0, -1)
    idx_r[off + ax] = slice(1, None)
    return arr[tuple(idx_l)], arr[tuple(idx_r)]


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
    prim = _pad_primitives(fs, g, cfg, ghost_source, tt, active)
    rhoP, uP, thP = prim[0], prim[1:4], prim[4]
    if np.any(thP <= 0.0):
        raise RunAbort("nonpositive temperature entering rhs")
    UP = conserved(g, rhoP, uP, thP)
    pP = g.R * rhoP * thP
    cP = np.sqrt(g.gamma * g.R * thP)

    visc = cfg.visc_mult
    spacing = grid.spacing
    tend = np.zeros((5,) + grid.shape)
    bflux = np.zeros(5)

    for ax in active:
        dx = spacing[ax]

        UL, UR = _face_views(UP, ax, active)
        uLall, uRall = _face_views(uP, ax, active)
        thL, thR = _face_views(thP, ax, active)
        pL, pR = _face_views(pP, ax, active)
        cL, cR = _face_views(cP, ax, active)
        uL, uR = uLall[ax], uRall[ax]

        def euler_flux(U, un, p):
            f = np.empty_like(U)
            f[0] = U[1 + ax]
            for c in range(3):
                f[1 + c] = U[1 + c] * un
            f[1 + ax] = f[1 + ax] + p
            f[4] = (U[4] + p) * un
            return f

        s = np.maximum(np.abs(uL) + cL, np.abs(uR) + cR)
        F = 0.5 * (euler_flux(UL, uL, pL) + euler_flux(UR, uR, pR)) - 0.5 * s * (UR - UL)

        if visc > 0.0:
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
            divu = dn_u[ax].copy()
            for bx, cd in cross.items():
                divu += cd[bx]
            tau = np.empty((3,) + thF.shape)  # stress column T[:, ax]
            for c in range(3):
                if c == ax:
                    dc_uax = dn_u[ax]
                elif c in cross:
                    dc_uax = cross[c][ax]
                else:
                    dc_uax = 0.0
                tau[c] = muF * (dn_u[c] + dc_uax)
            tau[ax] += lamF * divu
            dthdn = (thR - thL) / dx

            for c in range(3):
                F[1 + c] -= visc * tau[c]
            F[4] -= visc * (np.sum(uF * tau, axis=0) + kapF * dthdn)

        lo = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[1 + ax] = slice(0, -1)
        hi[1 + ax] = slice(1, None)
        tend -= (F[tuple(hi)] - F[tuple(lo)]) / dx

        if ax == 0:
            face_area = grid.cell_volume / dx
            first = [slice(None)] * 4
            last = [slice(None)] * 4
            first[1] = 0
            last[1] = -1
            bflux += (F[tuple(first)].reshape(5, -1).sum(axis=1)
                      - F[tuple(last)].reshape(5, -1).sum(axis=1)) * face_area

    return tend, bflux


def stable_dt(fs: FieldSet, g: GasParams, cfg: SolverConfig) -> tuple[float, float]:
    """(dt, max wave speed) from the convective CFL and diffusive limits."""
    grid = fs.grid
    u = fs.velocity()
    theta = fs.temperature(g)
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

    dt_visc = np.inf
    if cfg.visc_mult > 0.0:
        pw = theta ** g.alpha
        diff = cfg.visc_mult * np.maximum(
            (2.0 * g.mu1 + g.lambda1) * pw,
            g.kappa1 * pw * (g.gamma - 1.0) / g.R) / fs.rho
        dmax = float(np.max(diff))
        if dmax > 0.0:
            hmin = min(spacing[ax] for ax in active)
            dt_visc = cfg.visc_safety * hmin ** 2 / (2.0 * len(active) * dmax)

    return min(dt_conv, dt_visc), max_speed


def step(fs: FieldSet, g: GasParams, cfg: SolverConfig,
         ghost_source: GhostSource | None = None,
         dt: float | None = None,
         dt_cap: float | None = None) -> tuple[FieldSet, StepDiagnostics]:
    """One SSP-RK3 step; dt may be forced (paired-run tests), else from stable_dt."""
    auto_dt, max_speed = stable_dt(fs, g, cfg)
    if dt is None:
        dt = auto_dt if dt_cap is None else min(auto_dt, dt_cap)
    if dt < 1e-12:
        raise RunAbort(f"time step underflow: dt = {dt:.3e}")

    t0 = fs.time
    U0 = fs.stacked()
    bflux = np.zeros(5)

    k1, b1 = rhs(fs, g, cfg, ghost_source, t=t0)
    U1 = U0 + dt * k1
    f1 = FieldSet.from_stacked(fs.grid, U1, t0 + dt)
    k2, b2 = rhs(f1, g, cfg, ghost_source, t=t0 + dt)
    U2 = 0.75 * U0 + 0.25 * (U1 + dt * k2)
    f2 = FieldSet.from_stacked(fs.grid, U2, t0 + 0.5 * dt)
    k3, b3 = rhs(f2, g, cfg, ghost_source, t=t0 + 0.5 * dt)
    U3 = (U0 + 2.0 * (U2 + dt * k3)) / 3.0

    for w, b in zip(_RK3_WEIGHTS, (b1, b2, b3)):
        bflux += w * dt * b

    out = FieldSet.from_stacked(fs.grid, U3, t0 + dt)
    theta = out.temperature(g)
    diag = StepDiagnostics(
        dt=dt, max_speed=max_speed,
        min_rho=float(np.min(out.rho)), min_theta=float(np.min(theta)),
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

    Each record carries the base diagnostic columns plus whatever the observer
    callbacks return; records are plain dicts ready for CSV emission.
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
               "min_theta": float(np.min(fs.temperature(g)))}
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

    next_sample = fs.time + sample_dt if sample_dt else np.inf
    t_end = fs.time + horizon
    for _ in range(max_steps):
        fs, diag = step(fs, g, cfg, ghost_source, dt_cap=t_end - fs.time)
        if fs.time >= next_sample - 1e-12:
            record(diag)
            next_sample += sample_dt
        if fs.time >= t_end - 1e-12:
            if not records or records[-1]["tau"] < fs.time:
                record(diag)
            return fs, records
    raise RunAbort(f"max_steps={max_steps} exhausted before reaching horizon")
