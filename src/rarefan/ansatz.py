"""Periodic perturbations, initial-data assembly, background evolution, and
the interpolated-background ansatz with its asymptotic-system error terms.

The ansatz carries the far-field oscillation of a periodically perturbed run:
smooth wave plus the deviations of the two constant-state periodic solutions,
blended by weights that ramp across the wave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gas import GasParams, PrimState
from .fields import FieldSet, SlabGrid, conserved
from .waves import WaveSpec, smooth_profile
from .solver import SolverConfig, run
from .analysis import fit_rate


@dataclass(frozen=True)
class PerturbationSpec:
    """Zero-mean trigonometric perturbation: amplitude, bandwidth, seed."""

    eta: float
    mode_cap: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.eta < 0.0:
            raise ValueError("eta must be nonnegative")
        if self.mode_cap < 1:
            raise ValueError("mode_cap must be at least 1")


def _mode_lattice(mode_cap: int, dims: int, modes: str = "all"):
    """Half-lattice of wave vectors up to mode_cap, one per (k, -k) pair.

    modes: "all" for the full band; "transverse" keeps only x'-dependent
    vectors (k1 = 0); "planar" keeps only x1-dependent ones (k' = 0), the
    control configuration whose non-zero mode must vanish identically.
    """
    if modes not in ("all", "transverse", "planar"):
        raise ValueError(f"unknown mode filter {modes!r}")
    rng1 = range(-mode_cap, mode_cap + 1)
    ks = []
    for k1 in ([0] if modes == "transverse" else rng1):
        for k2 in (rng1 if dims >= 2 and modes != "planar" else [0]):
            for k3 in (rng1 if dims >= 3 and modes != "planar" else [0]):
                k = (k1, k2, k3)
                if k == (0, 0, 0):
                    continue
                nz = next(v for v in k if v != 0)
                if nz < 0:
                    continue  # the mirrored vector generates the same basis pair
                ks.append(k)
    if not ks:
        raise ValueError(f"mode filter {modes!r} leaves no admissible modes on this grid")
    return ks


def make_perturbation(pspec: PerturbationSpec, grid: SlabGrid,
                      modes: str = "all") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random band-limited periodic fields (V0, W0, Z0) with exact zero mean.

    Every retained mode has a nonzero wave vector, so the mean over the
    periodic cell vanishes by construction; the joint discrete H^2 proxy norm
    (via the spectral coefficients, exact for trigonometric polynomials) is
    normalized to eta.
    """
    per = grid.period
    for n_ax, name in ((grid.n2, "n2"), (grid.n3, "n3")):
        if n_ax > 1 and pspec.mode_cap >= n_ax / 2:
            raise ValueError(f"mode_cap {pspec.mode_cap} at or beyond Nyquist for {name}={n_ax}")
    if modes != "transverse":
        wavelength = per / pspec.mode_cap
        if wavelength / grid.dx1 < 4.0:
            raise ValueError("x1 spacing too coarse for the requested mode_cap")

    ks = _mode_lattice(pspec.mode_cap, grid.dims, modes)
    rng = np.random.default_rng(pspec.seed)
    ncomp = 5  # V0, three W0 components, Z0
    a = rng.normal(size=(ncomp, len(ks)))
    b = rng.normal(size=(ncomp, len(ks)))

    # Parseval: ||f||_{H^2}^2 = (vol/2) sum (1 + |w|^2 + |w|^4)(a^2 + b^2)
    vol = per ** grid.dims
    w2 = np.array([sum((2.0 * np.pi * k_i / per) ** 2 for k_i in k) for k in ks])
    weight = 1.0 + w2 + w2 ** 2
    h2sq = 0.5 * vol * float(np.sum(weight[None, :] * (a ** 2 + b ** 2)))
    scale = pspec.eta / np.sqrt(h2sq) if h2sq > 0.0 else 0.0
    a *= scale
    b *= scale

    X1, X2, X3 = grid.meshgrid()
    fields = np.zeros((ncomp,) + grid.shape)
    for j, k in enumerate(ks):
        phase = 2.0 * np.pi * (k[0] * X1 + k[1] * X2 + k[2] * X3) / per
        cosp, sinp = np.cos(phase), np.sin(phase)
        for c in range(ncomp):
            fields[c] += a[c, j] * cosp + b[c, j] * sinp
    v0 = fields[0]
    w0 = fields[1:4]
    z0 = fields[4]
    return v0, w0, z0


def x1_window(grid: SlabGrid, margin: float, width: float) -> np.ndarray:
    """Smooth envelope that is 1 in the bulk and 0 within margin of the x1 ends.

    Pinned runs need the perturbation to vanish where ghost cells are written
    from the plain profile; tanh ramps keep the data smooth.
    """
    x = grid.x1()
    w = 0.25 * (1.0 + np.tanh((x + grid.L - margin) / width)) \
             * (1.0 + np.tanh((grid.L - margin - x) / width))
    return w[:, None, None]


def _add_perturbation(fs: FieldSet, pspec: PerturbationSpec, modes: str,
                      window: np.ndarray | None) -> FieldSet:
    """Add the (optionally x1-windowed) perturbation of pspec to fs in place."""
    if pspec.eta > 0.0:
        v0, w0, z0 = make_perturbation(pspec, fs.grid, modes=modes)
        if window is not None:
            v0 = v0 * window
            w0 = w0 * window
            z0 = z0 * window
        fs.rho = fs.rho + v0
        fs.m = fs.m + w0
        fs.E = fs.E + z0
    return fs


def wave_conserved(spec: WaveSpec, grid: SlabGrid, g: GasParams, t: float,
                   shift: bool = True) -> FieldSet:
    """Smooth-wave conserved fields sampled at cell centers."""
    pr = smooth_profile(spec, t, grid.x1(), shift=shift)
    rho = np.broadcast_to(pr.rho[:, None, None], grid.shape)
    u = np.zeros((3,) + grid.shape)
    u[0] = np.broadcast_to(pr.u1[:, None, None], grid.shape)
    theta = np.broadcast_to(pr.theta[:, None, None], grid.shape)
    fs = FieldSet.from_primitives(grid, g, rho, u, theta, time=t)
    return fs


def assemble_initial(spec: WaveSpec, pspec: PerturbationSpec, grid: SlabGrid,
                     g: GasParams, shift: bool = True,
                     window: np.ndarray | None = None,
                     modes: str = "all") -> FieldSet:
    """Initial data: smooth-wave conserved fields plus the periodic perturbation.

    An optional x1 window tapers the perturbation to zero at the pinned ends.
    Positivity of the resulting (rho, theta) is checked cell by cell.
    """
    fs = _add_perturbation(wave_conserved(spec, grid, g, 0.0, shift=shift), pspec,
                           modes, window)
    theta = fs.temperature(g)
    if np.any(fs.rho <= 0.0) or np.any(theta <= 0.0):
        worst = np.unravel_index(int(np.argmin(np.minimum(fs.rho, theta))), grid.shape)
        raise ValueError(
            f"perturbation breaks positivity at cell {tuple(int(i) for i in worst)}: "
            f"rho={fs.rho[worst]:.3e}, theta={theta[worst]:.3e}")
    return fs


# ---------------------------------------------------------------------------
# periodic background solutions
# ---------------------------------------------------------------------------

def constant_conserved(state: PrimState, g: GasParams) -> np.ndarray:
    """Stacked conserved values (rho, m1, m2, m3, E) of a constant state."""
    return conserved(g, state.rho, (state.u1, 0.0, 0.0), state.theta)


def perturbed_constant_state(state: PrimState, pspec: PerturbationSpec,
                             grid: SlabGrid, g: GasParams) -> FieldSet:
    """Constant state plus the periodic perturbation of pspec, unwindowed."""
    u = np.array([state.u1, 0.0, 0.0])[:, None, None, None]
    return _add_perturbation(FieldSet.from_primitives(grid, g, state.rho, u, state.theta),
                             pspec, "all", None)


@dataclass
class BackgroundReport:
    taus: np.ndarray
    dev_sup: np.ndarray        # (nt,) max over the 5 conserved deviations
    mean_drift: float           # worst cell-average drift of any deviation
    rate: float
    r2: float
    final: FieldSet


def evolve_periodic_background(state: PrimState, pspec: PerturbationSpec,
                               g: GasParams, cfg: SolverConfig, grid: SlabGrid,
                               horizon: float, n_samples: int = 40) -> BackgroundReport:
    """Evolve constant state + periodic perturbation on one torus cell.

    Tracks the sup norm and the cell averages of the conserved deviations;
    the decay rate is a semilog fit over the second half of the samples.
    """
    if cfg.boundary != "fully-periodic":
        raise ValueError("background evolution must run on the torus")
    base = constant_conserved(state, g)
    fs = perturbed_constant_state(state, pspec, grid, g)

    taus, sups, means = [], [], []

    def observe(f: FieldSet, gg: GasParams) -> dict:
        dev = f.stacked() - base[:, None, None, None]
        taus.append(f.time)
        sups.append(float(np.max(np.abs(dev))))
        means.append(np.abs(dev.mean(axis=(1, 2, 3))))
        return {}

    sample_dt = horizon / n_samples
    final, _ = run(fs, g, cfg, horizon, observers={"bg": observe}, sample_dt=sample_dt)

    taus_a = np.array(taus)
    sups_a = np.array(sups)
    mean_drift = float(np.max(means)) if means else 0.0
    rate, r2 = float("nan"), float("nan")
    tail = taus_a > taus_a[-1] / 2.0
    if pspec.eta > 0.0 and np.count_nonzero(tail) >= 3 and np.all(sups_a[tail] > 0.0):
        rate, r2 = fit_rate(taus_a[tail], sups_a[tail], model="exponential")
    return BackgroundReport(taus_a, sups_a, mean_drift, rate, r2, final)


def tile_deviation(torus_fs: FieldSet, base: np.ndarray, slab_grid: SlabGrid) -> np.ndarray:
    """Deviation of a torus solution from its constant state, tiled onto a slab.

    Requires the slab x1 spacing to match the torus spacing and the period to
    be an integer number of cells, so tiling is an exact index map.
    """
    tg = torus_fs.grid
    if abs(tg.dx1 - slab_grid.dx1) > 1e-12 * tg.dx1:
        raise ValueError("torus and slab x1 spacings must match for exact tiling")
    if slab_grid.n2 != tg.n2 or slab_grid.n3 != tg.n3:
        raise ValueError("transverse cell counts must match")
    dev = torus_fs.stacked() - base[:, None, None, None]
    offsets = (slab_grid.x1() - tg.x1()[0]) / tg.dx1
    if np.max(np.abs(offsets - np.round(offsets))) > 1e-6:
        raise ValueError("slab cell centers do not land on torus cell centers")
    idx = np.round(offsets).astype(int) % tg.n1
    return dev[:, idx, :, :]


# ---------------------------------------------------------------------------
# ansatz and its asymptotic-system errors
# ---------------------------------------------------------------------------

def build_ansatz(spec: WaveSpec, grid: SlabGrid, g: GasParams, t: float,
                 dev_plus: np.ndarray | None = None,
                 dev_minus: np.ndarray | None = None,
                 shift: bool = True) -> FieldSet:
    """Smooth wave plus weight-blended background deviations.

    dev_plus/dev_minus are stacked conserved deviations ((5, n1, n2, n3),
    already tiled on the grid) of the +/- periodic solutions from their
    constant states; the weights ramp each conserved component between its
    cut-off left and right values across the wave.
    """
    wave = wave_conserved(spec, grid, g, t, shift=shift)
    if dev_plus is None and dev_minus is None:
        return wave
    zeros = np.zeros((5,) + grid.shape)
    dp = zeros if dev_plus is None else np.asarray(dev_plus, dtype=float)
    dm = zeros if dev_minus is None else np.asarray(dev_minus, dtype=float)

    left = constant_conserved(spec.left_state(), g)
    right = constant_conserved(spec.right, g)
    U = wave.stacked()
    out = np.empty_like(U)
    # weight components: rho from rho, all m from m1, E from E
    widx = [0, 1, 1, 1, 4]
    for c in range(5):
        wc = widx[c]
        den = right[wc] - left[wc]
        if den == 0.0:
            raise ValueError(f"degenerate weight: component {wc} equal at both end states")
        eta_w = (U[wc] - left[wc]) / den
        out[c] = U[c] + (1.0 - eta_w) * dm[c] + eta_w * dp[c]
    fs = FieldSet.from_stacked(grid, out, time=t)
    if np.any(fs.rho <= 0.0) or np.any(fs.temperature(g) <= 0.0):
        raise ValueError("ansatz left the positive cone")
    return fs


def ansatz_weights(spec: WaveSpec, grid: SlabGrid, g: GasParams, t: float,
                   shift: bool = True) -> np.ndarray:
    """The three blending weights (rho, m, E channels) on the grid."""
    wave = wave_conserved(spec, grid, g, t, shift=shift)
    left = constant_conserved(spec.left_state(), g)
    right = constant_conserved(spec.right, g)
    U = wave.stacked()
    return np.stack([(U[c] - left[c]) / (right[c] - left[c]) for c in (0, 1, 4)], axis=0)


def ansatz_errors(prev: FieldSet, now: FieldSet, nxt: FieldSet,
                  g: GasParams, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Error fields (e0, e, e4) of the asymptotic system on an ansatz triple.

    The ansatz at three consecutive times gives the centered time derivative;
    spatial derivatives are central (periodic transverse, one-sided at the
    pinned x1 ends).  e0 is the continuity defect; e collects the momentum
    defect with the e0 u correction; e4 the thermal defect with the u . e and
    e0 corrections, all in the unscaled variables where the viscous terms
    carry the explicit factor eps.
    """
    from .analysis import gradient

    grid = now.grid
    dt = 0.5 * (nxt.time - prev.time)
    if dt <= 0.0:
        raise ValueError("ansatz snapshots must be time-ordered")

    def prim(fs: FieldSet):
        return fs.rho, fs.velocity(), fs.temperature(g)

    rho_p, u_p, th_p = prim(prev)
    rho, u, th = prim(now)
    rho_n, u_n, th_n = prim(nxt)

    d_t = lambda fn, fp: (fn - fp) / (nxt.time - prev.time)
    rho_t = d_t(rho_n, rho_p)
    u_t = d_t(u_n, u_p)
    th_t = d_t(th_n, th_p)

    grad_rho = gradient(rho, grid)
    grad_th = gradient(th, grid)
    grad_u = np.stack([gradient(u[c], grid) for c in range(3)], axis=0)  # [c, b] = d u_c / d x_b
    divu = grad_u[0, 0] + grad_u[1, 1] + grad_u[2, 2]
    p = g.R * rho * th
    grad_p = g.R * (grad_rho * th[None] + rho[None] * grad_th)

    mu = g.mu1 * th ** g.alpha
    lam = g.lambda1 * th ** g.alpha
    kap = g.kappa1 * th ** g.alpha

    # e0 = rho_t + div(rho u)
    m = rho[None] * u
    div_m = sum(gradient(m[c], grid)[c] for c in range(3))
    e0 = rho_t + div_m

    # stress tensor T[c, b] = mu (d_b u_c + d_c u_b) + lam divu delta
    tau = np.empty((3, 3) + grid.shape)
    for c in range(3):
        for b in range(3):
            tau[c, b] = mu * (grad_u[c, b] + grad_u[b, c])
        tau[c, c] += lam * divu
    div_tau = np.stack([sum(gradient(tau[c, b], grid)[b] for b in range(3))
                        for c in range(3)], axis=0)

    conv_u = np.stack([sum(u[b] * grad_u[c][b] for b in range(3)) for c in range(3)], axis=0)
    mom_defect = rho[None] * u_t + rho[None] * conv_u + grad_p - eps * div_tau
    evec = mom_defect + e0[None] * u

    heat = sum(gradient(kap * grad_th[b], grid)[b] for b in range(3))
    shear_sq = np.zeros(grid.shape)
    for c in range(3):
        for b in range(3):
            shear_sq += (grad_u[c, b] + grad_u[b, c]) ** 2
    conv_th = sum(u[b] * grad_th[b] for b in range(3))
    th_defect = (rho * th_t + rho * conv_th + p * divu - eps * heat
                 - 0.5 * eps * mu * shear_sq - eps * lam * divu ** 2)
    usq = np.sum(u * u, axis=0)
    e4 = th_defect + np.sum(u * evec, axis=0) - e0 * (0.5 * usq - th)
    return e0, evec, e4
