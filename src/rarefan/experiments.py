"""Experiment drivers: batch studies with CSV/JSON reporting.

Each driver measures one family of claims (cut-off error law, profile decay
laws, vanishing-viscosity trend, non-zero-mode decay, periodic-background
decay, interpolation-inequality scaling) and returns a StudyReport whose
PASS/FAIL checks are recomputable from the emitted rows alone.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .gas import GasParams
from .fields import FieldSet, SlabGrid, save_fields
from .waves import (WaveSpec, cutoff_exact_distance, profile_lp_norm, velocity_span,
                    smooth_cutoff_distance, sample_exact, sample_cutoff, smooth_profile)
from .solver import RunAbort, run, profile_ghost_source
from .analysis import (decompose, sup_distance, fit_rate, gn_check, GN_CASES,
                       nonzero_mode_energy)
from .ansatz import (PerturbationSpec, assemble_initial, x1_window,
                     evolve_periodic_background)
from .config import ExperimentConfig, ConfigError, git_commit


@dataclass
class StudyReport:
    """Rows plus named PASS/FAIL checks and provenance."""

    kind: str
    rows: list[dict]
    checks: dict[str, bool]
    config_hash: str
    seed: int
    wall_time: float
    config: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.checks = {k: bool(v) for k, v in self.checks.items()}

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def summary(self) -> str:
        lines = [f"{self.kind}: {'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.rows)} rows, {self.wall_time:.1f}s)"]
        for name, ok in self.checks.items():
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)

    def emit(self, out_dir: str) -> str:
        """Write <kind>.csv (schema 1) and a JSON sidecar with the full config."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{self.kind.replace('-', '_')}.csv")
        cols: list[str] = []
        for row in self.rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        with open(path, "w") as fh:
            fh.write("# schema=1\n")
            fh.write(f"# kind={self.kind}\n")
            fh.write(f"# config_hash={self.config_hash}\n")
            fh.write(f"# commit={git_commit()}\n")
            fh.write(f"# seed={self.seed}\n")
            fh.write(",".join(cols) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(row.get(c)) for c in cols) + "\n")
            for name, ok in self.checks.items():
                fh.write(f"# check:{name}={'PASS' if ok else 'FAIL'}\n")
        side = os.path.join(out_dir, f"{self.kind.replace('-', '_')}.config.json")
        with open(side, "w") as fh:
            json.dump({"config": self.config, "config_hash": self.config_hash,
                       "checks": self.checks, "notes": self.notes}, fh, indent=2)
        return path


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _band_ok(values, factor: float) -> bool:
    vals = [v for v in values if np.isfinite(v)]
    if not vals:
        return False
    lo, hi = min(vals), max(vals)
    return lo > 0.0 and hi / lo <= factor


# ---------------------------------------------------------------------------
# cut-off error law
# ---------------------------------------------------------------------------

def run_cutoff_study(cfg: ExperimentConfig) -> StudyReport:
    """Sup distance between cut-off and exact wave across a nu halving sweep.

    The density gap is exactly nu at the vacuum corner, so its fitted power is
    the clean instance of the O(nu) law; the momentum/energy components carry
    state-dependent prefactors that stay inside the constant band.
    """
    t0 = time.time()
    nus = list(cfg.experiment.sweep) or [0.1, 0.05, 0.025, 0.0125]
    delta = cfg.delta if cfg.delta is not None else 0.1
    rows = []
    for nu in nus:
        spec = WaveSpec(cfg.right, cfg.gas, nu=nu, delta=delta)
        tic = time.time()
        d = cutoff_exact_distance(spec)
        dmax = max(d.values())
        rows.append({"nu": nu, "dist_rho": d["rho"], "dist_m": d["m"],
                     "dist_n": d["n"], "dist_max": dmax, "ratio": dmax / nu,
                     "config_hash": cfg.config_hash(), "wall_time": time.time() - tic})
    rows.sort(key=lambda r: -r["nu"])
    power_rho, r2_rho = fit_rate([r["nu"] for r in rows], [r["dist_rho"] for r in rows], "power")
    power_max, _ = fit_rate([r["nu"] for r in rows], [r["dist_max"] for r in rows], "power")
    for r in rows:
        r["power_rho"] = power_rho
        r["power_max"] = power_max
        r["r2"] = r2_rho
    dist_sorted = [r["dist_max"] for r in rows]  # descending nu
    checks = {
        "ratio_within_band": _band_ok([r["ratio"] for r in rows], cfg.experiment.band_factor),
        "rho_power_is_one": abs(power_rho - 1.0) <= cfg.experiment.exp_tol,
        "distance_monotone_in_nu": all(a >= b - 1e-14 for a, b in zip(dist_sorted, dist_sorted[1:])),
    }
    return StudyReport("cutoff-study", rows, checks, cfg.config_hash(),
                       cfg.experiment.seed, time.time() - t0, cfg.as_dict(),
                       notes=[f"max-component fitted power {power_max:.3f} "
                              "(prefactor drifts with the cut state at desk scale)"])


# ---------------------------------------------------------------------------
# profile decay laws
# ---------------------------------------------------------------------------

def run_profile_study(cfg: ExperimentConfig) -> StudyReport:
    """L^p laws of the velocity slope and the smooth-vs-cut-off distance.

    Uses the unshifted Burgers convention w(t, .), where (delta + t)^(-1+1/p)
    is the tight envelope and the distance to the self-similar wave carries
    the delta |log delta| scaling.
    """
    t0 = time.time()
    nu, delta = cfg.resolve_nu_delta(cfg.solver.eps)
    spec = WaveSpec(cfg.right, cfg.gas, nu=nu, delta=delta)
    ts = list(cfg.experiment.sweep) or [0.0, 1.0, 2.0, 4.0, 8.0]
    span = velocity_span(spec)
    w_span = spec.w_plus - spec.w_minus
    fac = (cfg.gas.gamma + 1.0) / 2.0

    rows = []
    l1_errs, w1_errs, linf_band = [], [], []
    for t in ts:
        tic = time.time()
        l1 = profile_lp_norm(spec, t, 1, shift=False)
        l2 = profile_lp_norm(spec, t, 2, shift=False)
        linf = profile_lp_norm(spec, t, np.inf, shift=False)
        l1_errs.append(abs(l1 - span))
        w1_errs.append(abs(fac * l1 - w_span))
        linf_band.append(linf * (delta + t))
        rows.append({"t": t, "L1": l1, "L2": l2, "Linf": linf,
                     "L1_minus_span": l1 - span,
                     "Linf_times_env": linf * (delta + t),
                     "L2_times_env": l2 * (delta + t) ** 0.5,
                     "config_hash": cfg.config_hash(), "wall_time": time.time() - tic})

    # smooth-vs-cut-off distance under delta halving at fixed t
    t_dist = 2.0
    dist_rows = []
    for k in range(4):
        dk = delta / 2 ** k
        sp = WaveSpec(cfg.right, cfg.gas, nu=nu, delta=dk)
        dist = max(smooth_cutoff_distance(sp, t_dist).values())
        env = dk * (np.log(1.0 + t_dist) + abs(np.log(dk))) / t_dist
        dist_rows.append({"t": t_dist, "delta": dk, "dist": dist, "envelope": env,
                          "dist_over_env": dist / env,
                          "config_hash": cfg.config_hash(), "wall_time": 0.0})
    rows.extend(dist_rows)

    checks = {
        "L1_equals_velocity_span": max(l1_errs) <= 1e-8,
        "burgers_L1_equals_w_span": max(w1_errs) <= 1e-8,
        "Linf_envelope_band": _band_ok(linf_band, cfg.experiment.band_factor),
        "delta_log_delta_scaling": _band_ok([r["dist_over_env"] for r in dist_rows],
                                            cfg.experiment.band_factor),
    }
    return StudyReport("profile-study", rows, checks, cfg.config_hash(),
                       cfg.experiment.seed, time.time() - t0, cfg.as_dict())


# ---------------------------------------------------------------------------
# vanishing-viscosity sweep
# ---------------------------------------------------------------------------

def sweep_grid(spec: WaveSpec, cfg: ExperimentConfig, horizon: float,
               n1: int | None = None) -> SlabGrid:
    """Slab wide enough that the fan plus tanh tails stay away from the pins."""
    if cfg.grid.L is not None:
        L = cfg.grid.L
    else:
        L = max(abs(spec.w_minus), abs(spec.w_plus)) * (horizon + 1.0) \
            + 15.0 * spec.delta + 0.5
    return SlabGrid(L=L, n1=n1 or cfg.grid.n1, period=cfg.grid.period,
                    n2=cfg.grid.n2, n3=cfg.grid.n3, dims=cfg.grid.dims)


def _pinned_window(spec: WaveSpec, grid: SlabGrid) -> np.ndarray:
    """x1 window keeping the perturbation clear of the pinned ghost cells."""
    return x1_window(grid, margin=10.0 * spec.delta + 0.5, width=max(0.1, 5.0 * grid.dx1))


def _distance_observer(spec: WaveSpec, g: GasParams, h: float):
    def obs(fs: FieldSet, gg: GasParams) -> dict:
        return sup_distance(fs, spec, gg, exclude_t_below=h)
    return obs


def _eps_sweep_point(cfg: ExperimentConfig, eps: float, n1: int | None = None,
                     eta: float = 0.0) -> dict:
    """One sweep run: evolve from the smooth profile and take sup_{h<=t} distance."""
    tic = time.time()
    g = cfg.gas
    spec = cfg.wave_spec(eps)
    horizon, h = cfg.experiment.horizon, cfg.experiment.h
    grid = sweep_grid(spec, cfg, horizon, n1)
    scfg = cfg.solver.solver_config(eps=eps, boundary="pinned-profile", scaled=False)
    window = _pinned_window(spec, grid) if eta > 0.0 else None
    pspec = PerturbationSpec(eta=eta, mode_cap=cfg.experiment.mode_cap,
                             seed=cfg.experiment.seed)
    initial = assemble_initial(spec, pspec, grid, g, shift=False, window=window)
    ghost = profile_ghost_source(spec, grid, shift=False)
    obs = {"dist": _distance_observer(spec, g, h)}
    final, records = run(initial, g, scfg, horizon, observers=obs,
                         ghost_source=ghost, sample_dt=max((horizon - h) / 3.0, h / 2.0))
    dists = [r["dist.max"] for r in records if np.isfinite(r.get("dist.max", np.nan))]
    if not dists:
        raise RuntimeError("no samples at t >= h; lower sample_dt or h")
    return {"eps": eps, "nu": spec.nu, "delta": spec.delta, "n1": grid.n1,
            "distance": float(max(dists)), "distance_final": float(dists[-1]),
            "min_rho": float(np.min(final.rho)), "eta": eta,
            "wall_time": time.time() - tic}


def _eps_sweep_point_safe(cfg: ExperimentConfig, eps: float, n1: int | None = None,
                          eta: float = 0.0) -> dict:
    """Worker-pool-safe sweep point: a solver abort becomes a failure row."""
    try:
        return _eps_sweep_point(cfg, eps, n1=n1, eta=eta)
    except (RunAbort, RuntimeError) as exc:
        return {"eps": eps, "distance": float("nan"), "failed": str(exc),
                "wall_time": 0.0}


def run_viscosity_sweep(cfg: ExperimentConfig, jobs: int = 1) -> StudyReport:
    """Sup-distance to the exact wave for a decreasing viscosity sequence.

    The cut-off density and smoothing width shrink with eps through the
    configured desk-scale links, mirroring the coupled scalings' structure;
    the distance floor sits at nu, so fixed nu would flatten the trend.
    A refinement pre-check validates the grid at the stiffest eps.
    """
    t0 = time.time()
    eps_list = sorted(cfg.experiment.sweep or (0.04, 0.02, 0.01), reverse=True)

    coarse = _eps_sweep_point_safe(cfg, eps_list[0])
    fine = _eps_sweep_point_safe(cfg, eps_list[0], n1=2 * cfg.grid.n1)
    ok_pair = np.isfinite(coarse["distance"]) and np.isfinite(fine["distance"])
    refine_rel = (abs(coarse["distance"] - fine["distance"]) / coarse["distance"]
                  if ok_pair else float("inf"))

    rows = [dict(coarse)]
    points = eps_list[1:]
    if jobs > 1 and points:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows.extend(ex.map(_eps_sweep_point_safe, [cfg] * len(points), points))
    else:
        rows.extend(_eps_sweep_point_safe(cfg, e) for e in points)
    rows.sort(key=lambda r: -r["eps"])

    failures = [r for r in rows if not np.isfinite(r["distance"])]
    dvals = [r["distance"] for r in rows if np.isfinite(r["distance"])]
    if len(dvals) >= 3:
        exponent, r2 = fit_rate([r["eps"] for r in rows if np.isfinite(r["distance"])],
                                dvals, "power_log")
    else:
        exponent, r2 = float("nan"), 0.0
    rows.append({"eps": eps_list[0], "n1": 2 * cfg.grid.n1, "distance": fine["distance"],
                 "refinement_rel_change": refine_rel, "wall_time": fine["wall_time"]})

    checks = {
        "no_run_failures": not failures,
        "grid_prevalidated": refine_rel <= 0.25,
        "distance_strictly_decreasing": bool(dvals)
        and all(a > b for a, b in zip(dvals, dvals[1:]))
        and not failures,
        "power_log_exponent_positive": exponent > 0.0,
    }
    notes = [f"power_log exponent {exponent:.3f} (R^2 {r2:.3f})"]

    if cfg.experiment.eta > 0.0:
        mid = eps_list[len(eps_list) // 2]
        paired = _eps_sweep_point(cfg, mid, eta=cfg.experiment.eta)
        base = next(r for r in rows if r["eps"] == mid and r.get("eta", 0.0) == 0.0)
        paired["distance_gap_vs_unperturbed"] = abs(paired["distance"] - base["distance"])
        rows.append(paired)
        checks["perturbation_influence_bounded"] = (
            paired["distance_gap_vs_unperturbed"] <= 10.0 * cfg.experiment.eta
            + 0.05 * base["distance"])

    for r in rows:
        r.setdefault("config_hash", cfg.config_hash())
        r["fit_exponent"] = exponent
        r["fit_r2"] = r2
    return StudyReport("eps-sweep", rows, checks, cfg.config_hash(),
                       cfg.experiment.seed, time.time() - t0, cfg.as_dict(), notes)


# ---------------------------------------------------------------------------
# non-zero-mode decay
# ---------------------------------------------------------------------------

def _smooth_background(spec: WaveSpec, fs: FieldSet):
    """(rho, u1, theta) of the unshifted smooth wave at fs.time, broadcast to the grid."""
    grid = fs.grid
    pr = smooth_profile(spec, fs.time, grid.x1(), shift=False)
    return tuple(np.broadcast_to(f[:, None, None], grid.shape)
                 for f in (pr.rho, pr.u1, pr.theta))


def energy_observer(spec: WaveSpec, g: GasParams):
    """Observer emitting EnergyReport rows against the smooth-wave background."""
    from .analysis import energy_report

    def obs(fs: FieldSet, gg: GasParams) -> dict:
        rho_bar, u1_bar, th_bar = _smooth_background(spec, fs)
        psi = fs.velocity()
        psi[0] -= u1_bar
        rep = energy_report(fs.rho - rho_bar, psi, fs.temperature(gg) - th_bar,
                            rho_bar, th_bar, fs.grid, gg, tau=fs.time)
        row = rep.as_row()
        row.pop("tau", None)  # the base record already carries the time
        return row
    return obs


def _dneq_observer(spec: WaveSpec, g: GasParams):
    def obs(fs: FieldSet, gg: GasParams) -> dict:
        grid = fs.grid
        u = fs.velocity()
        theta = fs.temperature(gg)
        d_rho = decompose(fs.rho, grid).nonzero
        d_u = max(float(np.max(np.abs(decompose(u[c], grid).nonzero))) for c in range(3))
        d_th = decompose(theta, grid).nonzero
        rho_bar, _, th_bar = _smooth_background(spec, fs)
        h_energy = nonzero_mode_energy(fs.rho - rho_bar, u, theta - th_bar,
                                       rho_bar, th_bar, grid, gg)
        return {"rho": float(np.max(np.abs(d_rho))), "u": d_u,
                "theta": float(np.max(np.abs(d_th))), "H": h_energy}
    return obs


def _decay_run(cfg: ExperimentConfig, modes: str) -> tuple[list[dict], SlabGrid]:
    g = cfg.gas
    spec = cfg.wave_spec(cfg.solver.eps)
    horizon = cfg.experiment.horizon
    grid = sweep_grid(spec, cfg, horizon)
    if grid.dims < 2:
        raise ConfigError("non-zero-mode decay needs a transverse direction (grid.dims >= 2)")
    scfg = cfg.solver.solver_config(boundary="pinned-profile")
    window = _pinned_window(spec, grid)
    pspec = PerturbationSpec(eta=cfg.experiment.eta, mode_cap=cfg.experiment.mode_cap,
                             seed=cfg.experiment.seed)
    initial = assemble_initial(spec, pspec, grid, g, shift=False, window=window,
                               modes=modes)
    ghost = profile_ghost_source(spec, grid, shift=False)
    obs = {"dneq": _dneq_observer(spec, g), "dist": _distance_observer(spec, g, cfg.experiment.h)}
    _, records = run(initial, g, scfg, horizon, observers=obs,
                     ghost_source=ghost, sample_dt=horizon / 24.0)
    return records, grid


def run_nonzero_decay(cfg: ExperimentConfig) -> StudyReport:
    """Exponential decay of the transverse-oscillatory modes on a slab run,
    with a planar control run that must stay transversally exact."""
    t0 = time.time()
    if cfg.experiment.eta <= 0.0:
        raise ConfigError("decay experiment needs experiment.eta > 0")
    records, grid = _decay_run(cfg, modes="all")
    control, _ = _decay_run(cfg, modes="planar")

    rows = []
    for r in records:
        rows.append({"tau": r["tau"], "dneq_rho": r["dneq.rho"], "dneq_u": r["dneq.u"],
                     "dneq_theta": r["dneq.theta"], "H": r["dneq.H"],
                     "dist_max": r.get("dist.max", float("nan")),
                     "run": "perturbed", "config_hash": cfg.config_hash(),
                     "wall_time": time.time() - t0})
    control_max = max(max(r["dneq.rho"], r["dneq.u"], r["dneq.theta"]) for r in control)
    rows.append({"tau": control[-1]["tau"], "dneq_rho": control_max,
                 "run": "planar-control", "config_hash": cfg.config_hash(),
                 "wall_time": time.time() - t0})

    taus = np.array([r["tau"] for r in records])
    vals = np.array([r["dneq.rho"] for r in records])
    tail = taus >= taus[-1] / 3.0
    fits = {}
    for name in ("rho", "u", "theta", "H"):
        v = np.array([r[f"dneq.{name}"] for r in records])[tail]
        if np.all(v > 0.0):
            fits[name] = fit_rate(taus[tail], v, "exponential")
        else:
            fits[name] = (float("nan"), 0.0)
    rate, r2 = fits["rho"]
    for r in rows:
        r["fit_rate_rho"] = rate
        r["fit_r2_rho"] = r2
    checks = {
        "planar_control_exact": control_max < 1e-12,
        "dneq_rho_decays": rate < 0.0,
        "dneq_rho_fit_r2": r2 >= cfg.experiment.r2_min,
    }
    notes = [f"rates: " + ", ".join(f"{k}={v[0]:.3g} (R2 {v[1]:.3f})" for k, v in fits.items())]
    return StudyReport("decay", rows, checks, cfg.config_hash(),
                       cfg.experiment.seed, time.time() - t0, cfg.as_dict(), notes)


# ---------------------------------------------------------------------------
# periodic-background decay
# ---------------------------------------------------------------------------

def run_background_decay(cfg: ExperimentConfig) -> StudyReport:
    """Torus run: deviations from the constant state decay exponentially and
    their cell averages are conserved; onset amplitude is linear in eta."""
    t0 = time.time()
    if cfg.experiment.eta <= 0.0:
        raise ConfigError("background experiment needs experiment.eta > 0")
    g = cfg.gas
    grid = SlabGrid.torus(cfg.grid.period, cfg.grid.n1, cfg.grid.n2, cfg.grid.n3,
                          dims=max(cfg.grid.dims, 2))
    scfg = cfg.solver.solver_config(boundary="fully-periodic")
    etas = list(cfg.experiment.sweep) or [cfg.experiment.eta, cfg.experiment.eta / 2.0]
    rows = []
    for eta in etas:
        pspec = PerturbationSpec(eta=eta, mode_cap=cfg.experiment.mode_cap,
                                 seed=cfg.experiment.seed)
        rep = evolve_periodic_background(cfg.right, pspec, g, scfg, grid,
                                         cfg.experiment.horizon)
        rows.append({"eta": eta, "rate": rep.rate, "r2": rep.r2,
                     "mean_drift": rep.mean_drift, "amp0": float(rep.dev_sup[0]),
                     "amp_final": float(rep.dev_sup[-1]),
                     "config_hash": cfg.config_hash(), "wall_time": time.time() - t0})
    rows.sort(key=lambda r: -r["eta"])
    checks = {
        "mean_conserved": all(r["mean_drift"] <= 1e-10 for r in rows),
        "decay_rate_negative": all(r["rate"] < 0.0 for r in rows),
        "decay_fit_r2": all(r["r2"] >= cfg.experiment.r2_min for r in rows),
    }
    if len(rows) >= 2:
        amp_ratio = rows[1]["amp0"] / rows[0]["amp0"]
        eta_ratio = rows[1]["eta"] / rows[0]["eta"]
        rate_rel = abs(rows[1]["rate"] - rows[0]["rate"]) / abs(rows[0]["rate"])
        checks["onset_amplitude_linear_in_eta"] = abs(amp_ratio - eta_ratio) <= 0.1 * eta_ratio
        checks["rate_eta_independent"] = rate_rel <= 0.2
    return StudyReport("background", rows, checks, cfg.config_hash(),
                       cfg.experiment.seed, time.time() - t0, cfg.as_dict())


# ---------------------------------------------------------------------------
# interpolation-inequality battery
# ---------------------------------------------------------------------------

def _slab_sample(rng: np.random.Generator, grid: SlabGrid, lam: float,
                 transverse_constant: bool) -> np.ndarray:
    """Band-limited decaying sample: Gaussian envelopes times a transverse
    trigonometric factor with modes bounded independently of lambda."""
    X1, X2, X3 = grid.meshgrid()
    u = np.zeros(grid.shape)
    for _ in range(rng.integers(1, 4)):
        amp = rng.normal()
        c = rng.uniform(-1.5, 1.5)
        sig = rng.uniform(0.3, 1.0)
        env = amp * np.exp(-((X1 - c) ** 2) / (2.0 * sig ** 2))
        if transverse_constant:
            trig = 1.0
        else:
            trig = 0.0
            for _ in range(rng.integers(1, 4)):
                k2, k3 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
                phase = rng.uniform(0.0, 2.0 * np.pi)
                trig = trig + rng.normal() * np.cos(
                    2.0 * np.pi * (k2 * X2 + k3 * X3) / lam + phase)
        u += env * trig
    return u


def _torus_sample(rng: np.random.Generator, grid: SlabGrid, lam: float) -> np.ndarray:
    X1, X2, X3 = grid.meshgrid()
    u = np.full(grid.shape, rng.normal())
    for _ in range(rng.integers(2, 6)):
        ks = rng.integers(-3, 4, size=3)
        if not np.any(ks):
            continue
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u += rng.normal() * np.cos(2.0 * np.pi * (ks[0] * X1 + ks[1] * X2 + ks[2] * X3) / lam + phase)
    return u


def run_gn_check(cfg: ExperimentConfig) -> StudyReport:
    """Empirical-constant scan of every inequality special case across widths.

    One constant per case must cover all samples at all widths: no blowup as
    the torus narrows means the width prefactors absorb the scaling.
    """
    t0 = time.time()
    lambdas = [1.0, 0.5, 0.25]
    nsamples = cfg.experiment.samples
    seed = cfg.experiment.seed
    rows = []
    case_ratios: dict[str, dict[float, float]] = {c: {} for c in GN_CASES}
    for lam in lambdas:
        slab = SlabGrid(L=4.0, n1=128, period=lam, n2=12, n3=12, dims=3)
        torus = SlabGrid.torus(lam, 16, 16, 16, dims=3)
        rng = np.random.default_rng(seed)
        for i in range(nsamples):
            u_slab = _slab_sample(rng, slab, lam, transverse_constant=(i % 5 == 0))
            u_torus = _torus_sample(rng, torus, lam)
            for case in GN_CASES:
                g = torus if case.endswith("torus") else slab
                u = u_torus if case.endswith("torus") else u_slab
                res = gn_check(u, g, case, Lambda=lam)
                cur = case_ratios[case].get(lam, 0.0)
                case_ratios[case][lam] = max(cur, res["ratio"])
    for case in GN_CASES:
        per_lam = case_ratios[case]
        worst = max(per_lam.values())
        spread_src = [v for v in per_lam.values() if v > 0.0]
        spread = max(spread_src) / min(spread_src) if spread_src else float("inf")
        for lam in lambdas:
            rows.append({"case": case, "Lambda": lam, "max_ratio": per_lam[lam],
                         "empirical_constant": worst, "lambda_spread": spread,
                         "config_hash": cfg.config_hash(),
                         "wall_time": time.time() - t0})
    checks = {f"{case}_no_width_blowup":
              (max(case_ratios[case].values()) / min(case_ratios[case].values())) <= 3.0
              for case in GN_CASES}
    checks["all_ratios_finite"] = all(np.isfinite(r["max_ratio"]) for r in rows)
    return StudyReport("gn-check", rows, checks, cfg.config_hash(),
                       cfg.experiment.seed, time.time() - t0, cfg.as_dict())


# ---------------------------------------------------------------------------
# wave dump and plain simulation
# ---------------------------------------------------------------------------

def run_wave_dump(spec: WaveSpec, t: float | None, n: int, out_path: str) -> str:
    """CSV of the wave: self-similar in xi when t is None, smooth profile at t."""
    if t is None:
        lo = min(spec.u1_vacuum, spec.w_minus) - 1.0
        hi = spec.w_plus + 1.0
        xi = np.linspace(lo, hi, n)
        tab = sample_cutoff(spec, xi) if spec.nu > 0.0 else sample_exact(spec, xi)
        data = np.column_stack([tab.xi, tab.rho, tab.u1, tab.theta, tab.m, tab.n])
        header = "xi,rho,u1,theta,m,n"
    else:
        span = max(abs(spec.w_minus), abs(spec.w_plus)) * (1.0 + t) + 20.0 * spec.delta
        x1 = np.linspace(-span, span, n)
        pr = smooth_profile(spec, t, x1)
        data = np.column_stack([x1, pr.rho, pr.u1, pr.theta,
                                pr.rho * pr.u1, pr.rho * pr.theta])
        header = "x1,rho,u1,theta,m,n"
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    np.savetxt(out_path, data, delimiter=",", header=header, comments="")
    return out_path


def run_simulate(cfg: ExperimentConfig) -> StudyReport:
    """Generic run from a config: observer CSV rows plus a final snapshot."""
    t0 = time.time()
    g = cfg.gas
    spec = cfg.wave_spec(cfg.solver.eps)
    horizon = cfg.experiment.horizon
    grid = sweep_grid(spec, cfg, horizon)
    scfg = cfg.solver.solver_config()
    window = None
    if cfg.experiment.eta > 0.0 and scfg.boundary == "pinned-profile":
        window = _pinned_window(spec, grid)
    pspec = PerturbationSpec(eta=cfg.experiment.eta, mode_cap=cfg.experiment.mode_cap,
                             seed=cfg.experiment.seed)
    initial = assemble_initial(spec, pspec, grid, g, shift=False, window=window)
    ghost = None
    obs = {}
    if scfg.boundary == "pinned-profile":
        ghost = profile_ghost_source(spec, grid, shift=False)
        obs["dist"] = _distance_observer(spec, g, cfg.experiment.h)
        obs["energy"] = energy_observer(spec, g)
    final, records = run(initial, g, scfg, horizon, observers=obs,
                         ghost_source=ghost, sample_dt=horizon / 20.0)
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_fields(final, os.path.join(cfg.out_dir, "final.bin"))
    for r in records:
        r["config_hash"] = cfg.config_hash()
        r["wall_time"] = time.time() - t0
    checks = {"completed": True}
    return StudyReport("simulate", records, checks, cfg.config_hash(),
                       cfg.experiment.seed, time.time() - t0, cfg.as_dict())


DRIVERS = {
    "cutoff-study": run_cutoff_study,
    "profile-study": run_profile_study,
    "eps-sweep": run_viscosity_sweep,
    "decay": run_nonzero_decay,
    "background": run_background_decay,
    "gn-check": run_gn_check,
    "simulate": run_simulate,
}
