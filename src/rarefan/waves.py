"""Exact, cut-off and smooth planar 3-rarefaction waves with one-sided vacuum.

The exact wave connects the vacuum state (0, u1m, 0) on the left to a
non-vacuum right state through a self-similar fan in xi = x1/t.  The cut-off
wave truncates the fan at a small density nu along the wave curve, replacing
the vacuum by the constant state (nu, u1nu, theta_nu).  The smooth wave is
generated from the cut-off end speeds through the Burgers equation with
tanh-smoothed data of width delta, solved by the method of characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate

from .gas import GasParams, PrimState, VACUUM_RHO, sound_speed, pressure


@dataclass(frozen=True)
class WaveSpec:
    """Parameters pinning one wave family: right state, cut-off density, smoothing width."""

    right: PrimState
    g: GasParams
    nu: float = 0.0
    delta: float = 0.1

    def __post_init__(self):
        if self.right.rho <= 0.0 or self.right.theta <= 0.0:
            raise ValueError("right state must be non-vacuum")
        if not 0.0 <= self.nu < self.right.rho:
            raise ValueError(f"nu must satisfy 0 <= nu < right.rho, got {self.nu}")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")

    # the derived constants below are cached per spec: the characteristic
    # solve reads the end speeds in every bisection and Newton step

    @cached_property
    def s_plus(self) -> float:
        return self.right.entropy(self.g)

    @cached_property
    def r31_plus(self) -> float:
        r31, _ = riemann_invariants(self.g, self.right)
        return r31

    @property
    def u1_vacuum(self) -> float:
        """Velocity u1m of the vacuum edge: R31(0, u1m, 0) = R31 of the right state."""
        return self.r31_plus

    def left_state(self) -> PrimState:
        """Cut-off left state (nu, u1nu, e^S nu^(gamma-1)) on the 3-wave curve."""
        if self.nu <= 0.0:
            return PrimState(0.0, self.u1_vacuum, 0.0)
        g = self.g
        theta_nu = np.exp(self.s_plus) * self.nu ** (g.gamma - 1.0)
        c_nu = sound_speed(g, theta_nu)
        u1_nu = self.r31_plus + 2.0 * c_nu / (g.gamma - 1.0)
        return PrimState(self.nu, u1_nu, theta_nu)

    @cached_property
    def w_plus(self) -> float:
        """Fast wave speed at the right state."""
        return self.right.u1 + sound_speed(self.g, self.right.theta)

    @cached_property
    def w_minus(self) -> float:
        """Fast wave speed at the left (cut-off or vacuum) state."""
        left = self.left_state()
        return left.u1 + sound_speed(self.g, left.theta)


@dataclass
class WaveTable:
    """Vectorized wave evaluation over a xi grid."""

    xi: np.ndarray
    rho: np.ndarray
    u1: np.ndarray
    theta: np.ndarray
    m: np.ndarray
    n: np.ndarray
    branch: np.ndarray  # -1 left, 0 fan, +1 right


def riemann_invariants(g: GasParams, state: PrimState) -> tuple[float, float]:
    """3-family Riemann invariants (R31, S) of a primitive state.

    R31 = u1 - 2c/(gamma-1); at vacuum the limit R31 = u1 is returned and S is
    nan (the undefined flag).
    """
    if state.is_vacuum:
        return state.u1, float("nan")
    c = sound_speed(g, state.theta)
    return state.u1 - 2.0 * c / (g.gamma - 1.0), state.entropy(g)


def _fan_state(g: GasParams, xi, r31: float, s: float):
    """Closed-form fan inversion: lambda3(state) = xi along the invariant curve."""
    c = (np.asarray(xi, dtype=float) - r31) * (g.gamma - 1.0) / (g.gamma + 1.0)
    theta = c * c / (g.gamma * g.R)
    rho = (theta * np.exp(-s)) ** (1.0 / (g.gamma - 1.0))
    u1 = np.asarray(xi, dtype=float) - c
    return rho, u1, theta


def sample_exact(spec: WaveSpec, xi) -> WaveTable:
    """Exact vacuum-attached 3-rarefaction wave on a xi = x1/t grid."""
    g = spec.g
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    r31, s = spec.r31_plus, spec.s_plus
    u1m, lam3p = spec.u1_vacuum, spec.w_plus

    rho_f, u1_f, th_f = _fan_state(g, np.clip(xi, u1m, lam3p), r31, s)
    left = xi < u1m
    right = xi > lam3p
    rho = np.where(left, 0.0, np.where(right, spec.right.rho, rho_f))
    u1 = np.where(left, u1m, np.where(right, spec.right.u1, u1_f))
    theta = np.where(left, 0.0, np.where(right, spec.right.theta, th_f))
    # momentum and internal energy vanish identically at vacuum
    vac = rho < VACUUM_RHO
    m = np.where(vac, 0.0, rho * u1)
    n = np.where(vac, 0.0, rho * theta)
    branch = np.where(left, -1, np.where(right, 1, 0))
    return WaveTable(xi, rho, u1, theta, m, n, branch)


def sample_cutoff(spec: WaveSpec, xi) -> WaveTable:
    """Cut-off 3-rarefaction wave: constant left state below lambda3(left)."""
    if spec.nu <= 0.0:
        raise ValueError("cutoff wave requires nu > 0")
    g = spec.g
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    leftst = spec.left_state()
    lam3m, lam3p = spec.w_minus, spec.w_plus
    r31, s = spec.r31_plus, spec.s_plus

    rho_f, u1_f, th_f = _fan_state(g, np.clip(xi, lam3m, lam3p), r31, s)
    left = xi < lam3m
    right = xi > lam3p
    rho = np.where(left, leftst.rho, np.where(right, spec.right.rho, rho_f))
    u1 = np.where(left, leftst.u1, np.where(right, spec.right.u1, u1_f))
    theta = np.where(left, leftst.theta, np.where(right, spec.right.theta, th_f))
    branch = np.where(left, -1, np.where(right, 1, 0))
    return WaveTable(xi, rho, u1, theta, rho * u1, rho * theta, branch)


def cutoff_exact_distance(spec: WaveSpec, n: int = 4001, pad: float = 1.0) -> dict[str, float]:
    """Sup over xi of the componentwise (rho, m, n) gap between cut-off and exact wave."""
    lo = min(spec.u1_vacuum, spec.w_minus) - pad
    hi = spec.w_plus + pad
    xi = np.linspace(lo, hi, n)
    # the gap is extremal at the wave corners; pin them into the grid
    xi = np.unique(np.concatenate([xi, [spec.u1_vacuum, spec.w_minus, spec.w_plus]]))
    ex, cu = sample_exact(spec, xi), sample_cutoff(spec, xi)
    return {
        "rho": float(np.max(np.abs(cu.rho - ex.rho))),
        "m": float(np.max(np.abs(cu.m - ex.m))),
        "n": float(np.max(np.abs(cu.n - ex.n))),
    }


# ---------------------------------------------------------------------------
# Burgers profile by the method of characteristics
# ---------------------------------------------------------------------------

def burgers_data(spec: WaveSpec, x1):
    """tanh initial datum ramping from w_minus to w_plus over width delta."""
    wm, wp = spec.w_minus, spec.w_plus
    return 0.5 * (wp + wm) + 0.5 * (wp - wm) * np.tanh(np.asarray(x1, dtype=float) / spec.delta)


def _sech2(z):
    with np.errstate(over="ignore"):
        return (1.0 / np.cosh(np.asarray(z, dtype=float))) ** 2


def _burgers_data_d1(spec: WaveSpec, x0):
    wm, wp = spec.w_minus, spec.w_plus
    return 0.5 * (wp - wm) / spec.delta * _sech2(np.asarray(x0, dtype=float) / spec.delta)


def _burgers_data_d2(spec: WaveSpec, x0):
    wm, wp = spec.w_minus, spec.w_plus
    x0 = np.asarray(x0, dtype=float)
    return -(wp - wm) / spec.delta ** 2 * _sech2(x0 / spec.delta) * np.tanh(x0 / spec.delta)


def _burgers_base_point(spec: WaveSpec, t: float, x1: np.ndarray,
                        tol: float = 1e-13, max_bisect: int = 200) -> np.ndarray:
    """Characteristic base point x0 with x0 + w0(x0) t = x1.

    w0 is strictly increasing, so f(x0) = x0 + w0(x0) t - x1 is strictly
    increasing and has a unique root in [x1 - w_plus t, x1 - w_minus t].
    Bracketed bisection followed by a Newton polish, vectorized over x1.
    """
    x1 = np.asarray(x1, dtype=float)
    if t == 0.0:
        return x1.copy()
    lo = x1 - spec.w_plus * t
    hi = x1 - spec.w_minus * t

    def f(x0):
        return x0 + burgers_data(spec, x0) * t - x1

    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        lo = np.where(fm < 0.0, mid, lo)
        hi = np.where(fm >= 0.0, mid, hi)
        if np.max(hi - lo) < 1e-9:
            break
    x0 = 0.5 * (lo + hi)
    for _ in range(8):
        res = f(x0)
        x0 = x0 - res / (1.0 + t * _burgers_data_d1(spec, x0))
        if np.max(np.abs(res)) < tol * max(1.0, float(np.max(np.abs(x1))) + abs(t)):
            break
    res = np.abs(f(x0))
    scale = max(1.0, float(np.max(np.abs(x1))) + abs(t))
    if np.max(res) > 1e3 * tol * scale:
        worst = int(np.argmax(res))
        raise RuntimeError(
            f"Burgers characteristic solve failed: residual {res.flat[worst]:.3e} "
            f"at x1={x1.flat[worst]:.6g}, t={t:.6g}")
    return x0


def burgers_smooth(spec: WaveSpec, t: float, x1):
    """Smooth Burgers solution w(t, x1) of the tanh initial-value problem."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    scalar = np.isscalar(x1) or np.asarray(x1).ndim == 0
    x1v = np.atleast_1d(np.asarray(x1, dtype=float))
    x0 = _burgers_base_point(spec, t, x1v)
    w = burgers_data(spec, x0)
    return float(w[0]) if scalar else w


@dataclass
class SmoothProfile:
    """Smooth-wave fields and x1-derivatives on a grid at one time."""

    x1: np.ndarray
    w: np.ndarray
    rho: np.ndarray
    u1: np.ndarray
    theta: np.ndarray
    du1: np.ndarray     # d(u1)/dx1
    drho: np.ndarray
    dtheta: np.ndarray
    d2u1: np.ndarray    # d2(u1)/dx1^2
    t: float = 0.0


def smooth_profile(spec: WaveSpec, t: float, x1, shift: bool = True) -> SmoothProfile:
    """Smooth approximate rarefaction profile at time t on an x1 grid.

    With shift=True the Burgers solution is evaluated at time 1 + t (the
    convention used when the profile serves as an ansatz background, so the
    initial profile is already spread); with shift=False at time t.
    All derivatives come from differentiating the implicit characteristic
    relation analytically, not from nested differencing.
    """
    if spec.nu <= 0.0:
        raise ValueError("smooth profile requires nu > 0")
    g = spec.g
    x1v = np.atleast_1d(np.asarray(x1, dtype=float))
    tb = (1.0 + t) if shift else t
    x0 = _burgers_base_point(spec, tb, x1v)
    w = burgers_data(spec, x0)
    w0p = _burgers_data_d1(spec, x0)
    w0pp = _burgers_data_d2(spec, x0)

    rho, u1, theta = _fan_state(g, w, spec.r31_plus, spec.s_plus)
    dw = w0p / (1.0 + tb * w0p)
    d2w = w0pp / (1.0 + tb * w0p) ** 3
    du1 = 2.0 / (g.gamma + 1.0) * dw
    d2u1 = 2.0 / (g.gamma + 1.0) * d2w
    # Riemann-invariant constancy ties the other slopes to du1
    drho = rho ** ((3.0 - g.gamma) / 2.0) / np.sqrt(g.gamma * g.R * np.exp(spec.s_plus)) * du1
    dtheta = (g.gamma - 1.0) / np.sqrt(g.gamma * g.R) * np.sqrt(theta) * du1
    return SmoothProfile(x1v, w, rho, u1, theta, du1, drho, dtheta, d2u1, t=t)


def profile_lp_norm(spec: WaveSpec, t: float, p: float, shift: bool = True) -> float:
    """L^p(R) norm of d(u1)/dx1 of the smooth profile at time t.

    Substituting the characteristic base point x0 turns the integral into
    int w0'(x0)^p (1 + T w0'(x0))^(1-p) dx0 over the fixed tanh transition
    zone, which adaptive quadrature resolves independently of t.
    """
    if spec.nu <= 0.0:
        raise ValueError("profile norms require nu > 0")
    g = spec.g
    tb = (1.0 + t) if shift else t
    fac = 2.0 / (g.gamma + 1.0)
    if np.isinf(p):
        # integrand is increasing in w0', so the sup sits at the tanh midpoint
        s0 = _burgers_data_d1(spec, 0.0)
        return fac * s0 / (1.0 + tb * s0)
    if p < 1:
        raise ValueError("p must be >= 1")

    def integrand(x0):
        s = _burgers_data_d1(spec, x0)
        return (fac * s) ** p * (1.0 + tb * s) ** (1.0 - p)

    lim = 45.0 * spec.delta
    val, _ = integrate.quad(integrand, -lim, lim, limit=200,
                            points=[-spec.delta, 0.0, spec.delta])
    return val ** (1.0 / p)


def velocity_span(spec: WaveSpec) -> float:
    """Total variation of the monotone velocity profile, u1(+inf) - u1(-inf)."""
    return spec.right.u1 - spec.left_state().u1


def smooth_cutoff_distance(spec: WaveSpec, t: float, n: int = 4001,
                           shift: bool = False, pad: float = 1.0) -> dict[str, float]:
    """Sup over x1 of |smooth profile(t) - cutoff wave(x1/t)| per component.

    Compared in the w(t, .) convention by default: with the ansatz 1+t shift
    the fan positions of the two waves are offset by one Burgers time unit and
    the gap is O(1/t) independently of delta.
    """
    if t <= 0.0:
        raise ValueError("distance to the self-similar wave needs t > 0")
    lo = spec.w_minus * t - pad - 50.0 * spec.delta
    hi = spec.w_plus * t + pad + 50.0 * spec.delta
    x1 = np.linspace(lo, hi, n)
    pr = smooth_profile(spec, t, x1, shift=shift)
    cu = sample_cutoff(spec, x1 / t)
    return {
        "rho": float(np.max(np.abs(pr.rho - cu.rho))),
        "u1": float(np.max(np.abs(pr.u1 - cu.u1))),
        "theta": float(np.max(np.abs(pr.theta - cu.theta))),
    }


def planar_wave_residual(spec: WaveSpec, t: float, x1, h: float,
                         shift: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual of the inviscid planar-wave equations on the smooth profile.

    Central differences of width h in both t and x1; the profile solves the
    system exactly, so the residual measures only the stencil error O(h^2).
    """
    if t - h < 0.0:
        raise ValueError("need t >= h for the central time difference")
    x1v = np.atleast_1d(np.asarray(x1, dtype=float))
    g = spec.g

    def fields(tt, xx):
        pr = smooth_profile(spec, tt, xx, shift=shift)
        return pr.rho, pr.u1, pr.theta

    rho, u1, theta = fields(t, x1v)
    rho_tp, u1_tp, th_tp = fields(t + h, x1v)
    rho_tm, u1_tm, th_tm = fields(t - h, x1v)
    rho_xp, u1_xp, th_xp = fields(t, x1v + h)
    rho_xm, u1_xm, th_xm = fields(t, x1v - h)

    d_t = lambda fp, fm: (fp - fm) / (2.0 * h)
    d_x = lambda fp, fm: (fp - fm) / (2.0 * h)

    p = pressure(g, rho, theta)
    p_xp, p_xm = pressure(g, rho_xp, th_xp), pressure(g, rho_xm, th_xm)
    r1 = d_t(rho_tp, rho_tm) + d_x(rho_xp * u1_xp, rho_xm * u1_xm)
    r2 = rho * d_t(u1_tp, u1_tm) + rho * u1 * d_x(u1_xp, u1_xm) + d_x(p_xp, p_xm)
    r3 = rho * d_t(th_tp, th_tm) + rho * u1 * d_x(th_xp, th_xm) + p * d_x(u1_xp, u1_xm)
    return r1, r2, r3
