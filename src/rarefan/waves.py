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

from .gas import GasParams, PrimState, VACUUM_RHO, sound_speed


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

    rho: np.ndarray
    u1: np.ndarray
    theta: np.ndarray
    m: np.ndarray
    n: np.ndarray


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


def _sample(spec: WaveSpec, xi, left: PrimState, lo: float) -> WaveTable:
    """The wave on a xi grid: the constant left state below the fan edge lo,
    the fan from lo to w_plus, the right state above it. The vacuum mask on m
    and n acts only on a vacuum left state: a cut-off one has rho >= nu."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    hi, right = spec.w_plus, spec.right
    rho_f, u1_f, th_f = _fan_state(spec.g, np.clip(xi, lo, hi), spec.r31_plus, spec.s_plus)
    below = xi < lo
    above = xi > hi
    rho = np.where(below, left.rho, np.where(above, right.rho, rho_f))
    u1 = np.where(below, left.u1, np.where(above, right.u1, u1_f))
    theta = np.where(below, left.theta, np.where(above, right.theta, th_f))
    # momentum and internal energy vanish identically at vacuum
    vac = rho < VACUUM_RHO
    m = np.where(vac, 0.0, rho * u1)
    n = np.where(vac, 0.0, rho * theta)
    return WaveTable(rho, u1, theta, m, n)


def sample_exact(spec: WaveSpec, xi) -> WaveTable:
    """Exact vacuum-attached 3-rarefaction wave on a xi = x1/t grid."""
    return _sample(spec, xi, PrimState(0.0, spec.u1_vacuum, 0.0), spec.u1_vacuum)


def sample_cutoff(spec: WaveSpec, xi) -> WaveTable:
    """Cut-off 3-rarefaction wave: constant left state below lambda3(left)."""
    if spec.nu <= 0.0:
        raise ValueError("cutoff wave requires nu > 0")
    return _sample(spec, xi, spec.left_state(), spec.w_minus)


def _sup_gaps(a, b, names) -> dict[str, float]:
    """Sup over the grid of |a.f - b.f| for each field name f."""
    return {f: float(np.max(np.abs(getattr(a, f) - getattr(b, f)))) for f in names}


def cutoff_exact_distance(spec: WaveSpec) -> dict[str, float]:
    """Sup over xi of the componentwise (rho, m, n) gap between cut-off and exact wave,
    on 4001 points reaching one past the wave's ends."""
    lo = min(spec.u1_vacuum, spec.w_minus) - 1.0
    hi = spec.w_plus + 1.0
    xi = np.linspace(lo, hi, 4001)
    # the gap is extremal at the wave corners; pin them into the grid (a
    # duplicate point cannot change a sup, and np.unique would load numpy.ma)
    xi = np.sort(np.concatenate([xi, [spec.u1_vacuum, spec.w_minus, spec.w_plus]]))
    return _sup_gaps(sample_cutoff(spec, xi), sample_exact(spec, xi), ("rho", "m", "n"))


# ---------------------------------------------------------------------------
# Burgers profile by the method of characteristics
# ---------------------------------------------------------------------------

# the characteristic solve's relative residual target, and its bisection cap
_BURGERS_TOL = 1e-13
_MAX_BISECT = 200


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


def _burgers_base_point(spec: WaveSpec, t: float, x1: np.ndarray) -> np.ndarray:
    """Characteristic base point x0 with x0 + w0(x0) t = x1.

    w0 is strictly increasing, so f(x0) = x0 + w0(x0) t - x1 is strictly
    increasing and has a unique root in [x1 - w_plus t, x1 - w_minus t].
    Bracketed bisection followed by a Newton polish, vectorized over x1.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    x1 = np.asarray(x1, dtype=float)
    if t == 0.0:
        return x1.copy()
    lo = x1 - spec.w_plus * t
    hi = x1 - spec.w_minus * t

    def f(x0):
        return x0 + burgers_data(spec, x0) * t - x1

    for _ in range(_MAX_BISECT):
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
        if np.max(np.abs(res)) < _BURGERS_TOL * max(1.0, float(np.max(np.abs(x1))) + abs(t)):
            break
    res = np.abs(f(x0))
    scale = max(1.0, float(np.max(np.abs(x1))) + abs(t))
    if np.max(res) > 1e3 * _BURGERS_TOL * scale:
        worst = int(np.argmax(res))
        raise RuntimeError(
            f"Burgers characteristic solve failed: residual {res.flat[worst]:.3e} "
            f"at x1={x1.flat[worst]:.6g}, t={t:.6g}")
    return x0


@dataclass
class SmoothProfile:
    """Smooth-wave fields and x1-derivatives on a grid at one time."""

    w: np.ndarray
    rho: np.ndarray
    u1: np.ndarray
    theta: np.ndarray
    du1: np.ndarray     # d(u1)/dx1
    drho: np.ndarray
    dtheta: np.ndarray
    d2u1: np.ndarray    # d2(u1)/dx1^2


def smooth_profile(spec: WaveSpec, t: float, x1) -> SmoothProfile:
    """Smooth approximate rarefaction profile at Burgers time t on an x1 grid.

    All derivatives come from differentiating the implicit characteristic
    relation analytically, not from nested differencing.
    """
    if spec.nu <= 0.0:
        raise ValueError("smooth profile requires nu > 0")
    g = spec.g
    x1v = np.atleast_1d(np.asarray(x1, dtype=float))
    x0 = _burgers_base_point(spec, t, x1v)
    w = burgers_data(spec, x0)
    w0p = _burgers_data_d1(spec, x0)
    w0pp = _burgers_data_d2(spec, x0)

    rho, u1, theta = _fan_state(g, w, spec.r31_plus, spec.s_plus)
    dw = w0p / (1.0 + t * w0p)
    d2w = w0pp / (1.0 + t * w0p) ** 3
    du1 = 2.0 / (g.gamma + 1.0) * dw
    d2u1 = 2.0 / (g.gamma + 1.0) * d2w
    # Riemann-invariant constancy ties the other slopes to du1
    drho = rho ** ((3.0 - g.gamma) / 2.0) / np.sqrt(g.gamma * g.R * np.exp(spec.s_plus)) * du1
    dtheta = (g.gamma - 1.0) / np.sqrt(g.gamma * g.R) * np.sqrt(theta) * du1
    return SmoothProfile(w, rho, u1, theta, du1, drho, dtheta, d2u1)


def profile_lp_norm(spec: WaveSpec, t: float, p: float) -> float:
    """L^p(R) norm of d(u1)/dx1 of the smooth profile at Burgers time t.

    Substituting the characteristic base point x0 turns the integral into
    int (fac w0'(x0))^p (1 + t w0'(x0))^(1-p) dx0 over the fixed tanh
    transition zone, with w0' proportional to sech^2(x0/delta), so the grid
    need not follow t.  The integrand is analytic in the strip
    |Im x0| < pi delta/2 and decays like exp(-2p|x0|/delta), so the uniform
    trapezoid rule of step h converges exponentially, with error about
    exp(-pi^2 delta/h) (Trefethen & Weideman, SIAM Rev. 56 (2014) 385-458).
    At h = delta/8 over |x0| <= 45 delta that is e^-79 relative, and the cut
    tails e^-90p: the sum is exact to round-off for every p >= 1, t >= 0.
    """
    if spec.nu <= 0.0:
        raise ValueError("profile norms require nu > 0")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    g = spec.g
    fac = 2.0 / (g.gamma + 1.0)
    if np.isinf(p):
        # integrand is increasing in w0', so the sup sits at the tanh midpoint
        s0 = float(_burgers_data_d1(spec, 0.0))
        return fac * s0 / (1.0 + t * s0)
    if p < 1:
        raise ValueError("p must be >= 1")

    h = spec.delta / 8.0
    s = _burgers_data_d1(spec, h * np.arange(-360, 361))
    f = (fac * s) ** p * (1.0 + t * s) ** (1.0 - p)
    val = h * (f.sum() - 0.5 * (f[0] + f[-1]))
    return float(val) ** (1.0 / p)


def velocity_span(spec: WaveSpec) -> float:
    """Total variation of the monotone velocity profile, u1(+inf) - u1(-inf)."""
    return spec.right.u1 - spec.left_state().u1


def smooth_cutoff_distance(spec: WaveSpec, t: float) -> dict[str, float]:
    """Sup over x1 of |smooth profile(t) - cutoff wave(x1/t)| per component, on 4001
    points reaching 1 + 50 delta past the fan."""
    if t <= 0.0:
        raise ValueError("distance to the self-similar wave needs t > 0")
    lo = spec.w_minus * t - 1.0 - 50.0 * spec.delta
    hi = spec.w_plus * t + 1.0 + 50.0 * spec.delta
    x1 = np.linspace(lo, hi, 4001)
    return _sup_gaps(smooth_profile(spec, t, x1), sample_cutoff(spec, x1 / t),
                     ("rho", "u1", "theta"))
