"""Experiment drivers: batch studies with CSV/JSON reporting.

Each driver measures one family of claims (cut-off error law, profile decay
laws, vanishing-viscosity trend, non-zero-mode decay, periodic-background
decay, interpolation-inequality scaling) and returns a StudyReport whose
PASS/FAIL checks are recomputable from the emitted rows alone.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .gas import GasParams
from .fields import FieldSet, SlabGrid, save_fields
from .waves import (WaveSpec, cutoff_exact_distance, profile_lp_norm, velocity_span,
                    smooth_cutoff_distance, sample_exact, sample_cutoff, smooth_profile)
from .solver import RunAbort, SolverConfig, run, profile_ghost_source, _kernel
from .analysis import (decompose, sup_distance, fit_rate, gn_check, gn_sample, gn_sums,
                       GN_CASES, nonzero_mode_energy)
from .ansatz import (assemble_initial, x1_window, constant_conserved,
                     perturbed_constant_state)
from .config import ExperimentConfig, ConfigError, git_commit

# verdict bounds, engineering values because the analysis provides no constants:
# a max/min ratio band, a fitted power's tolerance, the least R^2 of a rate fit
_BAND_FACTOR = 2.0
_EXP_TOL = 0.15
_R2_MIN = 0.95

# the eps values of an eps-sweep whose [experiment] sweep is empty
DEFAULT_EPS_SWEEP = (0.04, 0.02, 0.01)


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
        """Write <kind>.csv (schema 1) and a JSON sidecar with the full config.

        A cell holding a comma or a quote, such as a failure message, is quoted.
        """
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
            table = csv.writer(fh, lineterminator="\n")
            table.writerow(cols)
            table.writerows([_fmt(row.get(c)) for c in cols] for row in self.rows)
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
        # numpy 2 reprs an np.float64 as 'np.float64(...)'
        return repr(float(v))
    return str(v)


def _band_ok(values) -> bool:
    vals = [v for v in values if np.isfinite(v)]
    if not vals:
        return False
    lo, hi = min(vals), max(vals)
    return lo > 0.0 and hi / lo <= _BAND_FACTOR


def _report(kind: str, cfg: ExperimentConfig, t0: float, rows: list[dict],
            checks: dict[str, bool], notes: list[str] | None = None) -> StudyReport:
    """The study's report, stamped with its config; rows lacking the config hash
    or a wall time get this config's hash and the time since t0."""
    config_hash, wall_time = cfg.config_hash(), time.time() - t0
    for r in rows:
        r.setdefault("config_hash", config_hash)
        r.setdefault("wall_time", wall_time)
    return StudyReport(kind, rows, checks, config_hash, cfg.experiment.seed, wall_time,
                       cfg.as_dict(), notes or [])


def _concurrently(here, elsewhere) -> list:
    """[here(), fn(*args) for each (fn, args) of elsewhere], in that order.

    here() runs in this process while forked workers, min(len(elsewhere),
    usable CPUs - 1) but at least one, and none when elsewhere is empty, run
    the others, worker j the calls j, j + w, j + 2w, ... of the w workers.
    Only the results cross back, pickled through a pipe; each worker takes
    its calls through the same code as this process, so the results are
    bitwise the serial ones. An exception of here() or of a call is raised
    here (here's first, then the calls' in the order of elsewhere; a worker
    stops at its first), a worker that dies raises BrokenProcessPool, and
    the call returns or raises only once every worker has been reaped.
    The C kernel is loaded, and built if absent, before the first fork, so
    the workers inherit it instead of each building and loading their own.
    """
    import pickle

    nworkers = min(len(elsewhere), max(1, len(os.sched_getaffinity(0)) - 1))
    workers = []
    _kernel()
    # else a worker that flushes would write this process's buffered output again
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for j in range(nworkers):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(rfd)
                _work(wfd, elsewhere[j::nworkers])
            os.close(wfd)
            workers.append((pid, rfd))
        mine = here()
    finally:
        sent = [_reap(pid, rfd) for pid, rfd in workers]
    outcomes = [None if data is None else pickle.loads(data) for data in sent]
    results = [mine]
    for i in range(len(elsewhere)):
        if outcomes[i % nworkers] is None:
            from concurrent.futures.process import BrokenProcessPool
            raise BrokenProcessPool("a forked worker ended without sending its results")
        done, exc = outcomes[i % nworkers]
        if i // nworkers == len(done):
            raise exc
        results.append(done[i // nworkers])
    return results


def _work(wfd: int, calls) -> None:
    """A forked worker's life: run the calls in order up to the first that
    raises, send (results, exception or None) pickled through wfd and exit
    without returning into the caller's stack."""
    import pickle

    status = 1
    try:
        done, exc = [], None
        try:
            for fn, args in calls:
                done.append(fn(*args))
        except BaseException as e:
            exc = e
        try:
            data = pickle.dumps((done, exc))
        except Exception as e:
            data = pickle.dumps(([], RuntimeError(f"a worker's outcome does not pickle: {e!r}")))
        with os.fdopen(wfd, "wb") as out:
            out.write(data)
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, rfd: int) -> bytes | None:
    """Everything a worker sent, read to its end, once the worker is reaped;
    None when it did not exit normally."""
    with os.fdopen(rfd, "rb") as src:
        data = src.read()
    _, status = os.waitpid(pid, 0)
    return data if status == 0 else None


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
    delta = cfg.wave.delta if cfg.wave.delta is not None else 0.1
    rows = []
    for nu in nus:
        spec = WaveSpec(cfg.right, cfg.gas, nu=nu, delta=delta)
        tic = time.time()
        d = cutoff_exact_distance(spec)
        dmax = max(d.values())
        rows.append({"nu": nu, "dist_rho": d["rho"], "dist_m": d["m"],
                     "dist_n": d["n"], "dist_max": dmax, "ratio": dmax / nu,
                     "wall_time": time.time() - tic})
    rows.sort(key=lambda r: -r["nu"])
    power_rho, r2_rho = fit_rate([r["nu"] for r in rows], [r["dist_rho"] for r in rows], "power")
    power_max, _ = fit_rate([r["nu"] for r in rows], [r["dist_max"] for r in rows], "power")
    for r in rows:
        r["power_rho"] = power_rho
        r["power_max"] = power_max
        r["r2"] = r2_rho
    dist_sorted = [r["dist_max"] for r in rows]  # descending nu
    checks = {
        "ratio_within_band": _band_ok([r["ratio"] for r in rows]),
        "rho_power_is_one": abs(power_rho - 1.0) <= _EXP_TOL,
        "distance_monotone_in_nu": all(a >= b - 1e-14 for a, b in zip(dist_sorted, dist_sorted[1:])),
    }
    return _report("cutoff-study", cfg, t0, rows, checks,
                   [f"max-component fitted power {power_max:.3f} "
                    "(prefactor drifts with the cut state at desk scale)"])


# ---------------------------------------------------------------------------
# profile decay laws
# ---------------------------------------------------------------------------

def run_profile_study(cfg: ExperimentConfig) -> StudyReport:
    """L^p laws of the velocity slope and the smooth-vs-cut-off distance.

    At Burgers time t, (delta + t)^(-1+1/p) is the tight envelope, and the
    distance to the self-similar wave carries the delta |log delta| scaling.
    """
    t0 = time.time()
    spec = cfg.wave_spec()
    delta = spec.delta
    ts = list(cfg.experiment.sweep) or [0.0, 1.0, 2.0, 4.0, 8.0]
    span = velocity_span(spec)
    w_span = spec.w_plus - spec.w_minus
    fac = (cfg.gas.gamma + 1.0) / 2.0

    rows = []
    l1_errs, w1_errs, linf_band = [], [], []
    for t in ts:
        tic = time.time()
        l1 = profile_lp_norm(spec, t, 1)
        l2 = profile_lp_norm(spec, t, 2)
        linf = profile_lp_norm(spec, t, np.inf)
        l1_errs.append(abs(l1 - span))
        w1_errs.append(abs(fac * l1 - w_span))
        linf_band.append(linf * (delta + t))
        rows.append({"t": t, "L1": l1, "L2": l2, "Linf": linf,
                     "L1_minus_span": l1 - span,
                     "Linf_times_env": linf * (delta + t),
                     "L2_times_env": l2 * (delta + t) ** 0.5,
                     "wall_time": time.time() - tic})

    # smooth-vs-cut-off distance under delta halving at fixed t
    t_dist = 2.0
    dist_rows = []
    for k in range(4):
        dk = delta / 2 ** k
        sp = WaveSpec(cfg.right, cfg.gas, nu=spec.nu, delta=dk)
        dist = max(smooth_cutoff_distance(sp, t_dist).values())
        env = dk * (np.log(1.0 + t_dist) + abs(np.log(dk))) / t_dist
        dist_rows.append({"t": t_dist, "delta": dk, "dist": dist, "envelope": env,
                          "dist_over_env": dist / env})
    rows.extend(dist_rows)

    checks = {
        "L1_equals_velocity_span": max(l1_errs) <= 1e-8,
        "burgers_L1_equals_w_span": max(w1_errs) <= 1e-8,
        "Linf_envelope_band": _band_ok(linf_band),
        "delta_log_delta_scaling": _band_ok([r["dist_over_env"] for r in dist_rows]),
    }
    return _report("profile-study", cfg, t0, rows, checks)


# ---------------------------------------------------------------------------
# vanishing-viscosity sweep
# ---------------------------------------------------------------------------

def sweep_grid(spec: WaveSpec, cfg: ExperimentConfig, n1: int | None = None) -> SlabGrid:
    """Slab wide enough that the fan plus tanh tails stay away from the pins
    up to the horizon."""
    if cfg.grid.L is not None:
        L = cfg.grid.L
    else:
        L = max(abs(spec.w_minus), abs(spec.w_plus)) * (cfg.experiment.horizon + 1.0) \
            + 15.0 * spec.delta + 0.5
    return SlabGrid(L=L, n1=n1 or cfg.grid.n1, period=cfg.grid.period,
                    n2=cfg.grid.n2, n3=cfg.grid.n3, dims=cfg.grid.dims)


def _distance_observer(spec: WaveSpec, h: float):
    def obs(fs: FieldSet, g: GasParams) -> dict:
        return sup_distance(fs, spec, g, exclude_t_below=h)
    return obs


def pinned_start(cfg: ExperimentConfig, eps: float, eta: float, n1: int | None = None,
                 modes: str = "all"):
    """(wave spec, grid, initial state, solver config, ghost source) of a pinned
    slab run at viscosity eps: the smooth wave at t = 0 plus the x1-windowed
    perturbation of amplitude eta, ghosts pinned to the profile."""
    spec = cfg.wave_spec(eps)
    grid = sweep_grid(spec, cfg, n1)
    scfg = cfg.solver.solver_config(eps=eps)
    window = x1_window(grid, margin=10.0 * spec.delta + 0.5, width=max(0.1, 5.0 * grid.dx1))
    initial = assemble_initial(spec, cfg.experiment.perturbation(eta), grid, cfg.gas,
                               window=window, modes=modes)
    return spec, grid, initial, scfg, profile_ghost_source(spec, grid)


def _eps_sweep_point(cfg: ExperimentConfig, eps: float, n1: int | None = None,
                     eta: float = 0.0) -> dict:
    """One sweep run: evolve from the smooth profile and take sup_{h<=t} distance.

    A solver abort, or a run with no sample at t >= h, becomes a failure row.
    """
    tic = time.time()
    horizon, h = cfg.experiment.horizon, cfg.experiment.h
    try:
        spec, grid, initial, scfg, ghost = pinned_start(cfg, eps, eta, n1)
        final, records = run(initial, cfg.gas, scfg, horizon,
                             observers={"dist": _distance_observer(spec, h)},
                             ghost_source=ghost, sample_dt=max((horizon - h) / 3.0, h / 2.0))
        dists = [r["dist.max"] for r in records if np.isfinite(r.get("dist.max", np.nan))]
        if not dists:
            raise RuntimeError("no samples at t >= h; lower sample_dt or h")
    except RuntimeError as exc:  # a RunAbort, or no sample at t >= h
        return {"eps": eps, "distance": float("nan"), "eta": eta, "failed": str(exc),
                "wall_time": time.time() - tic}
    return {"eps": eps, "nu": spec.nu, "delta": spec.delta, "n1": grid.n1,
            "distance": float(max(dists)), "distance_final": float(dists[-1]),
            "min_rho": float(np.min(final.rho)), "eta": eta,
            "wall_time": time.time() - tic}


def run_viscosity_sweep(cfg: ExperimentConfig) -> StudyReport:
    """Sup-distance to the exact wave for a decreasing viscosity sequence.

    The cut-off density and smoothing width shrink with eps through the
    configured desk-scale links, mirroring the coupled scalings' structure;
    the distance floor sits at nu, so fixed nu would flatten the trend.
    A refinement pre-check validates the grid at eps_list[0], the largest (best-resolved) eps.
    The pre-check's 2*n1 run, the longest, stays in this process; the other
    runs go to workers.
    """
    t0 = time.time()
    eps_list = sorted(cfg.experiment.sweep or DEFAULT_EPS_SWEEP, reverse=True)
    eta = cfg.experiment.eta
    mid = eps_list[len(eps_list) // 2]
    points = [(_eps_sweep_point, (cfg, e)) for e in eps_list]
    if eta > 0.0:
        points.append((_eps_sweep_point, (cfg, mid, None, eta)))
    fine, *rows = _concurrently(lambda: _eps_sweep_point(cfg, eps_list[0], n1=2 * cfg.grid.n1),
                                points)
    paired = rows.pop() if eta > 0.0 else None

    coarse = rows[0]
    ok_pair = np.isfinite(coarse["distance"]) and np.isfinite(fine["distance"])
    refine_rel = (abs(coarse["distance"] - fine["distance"]) / coarse["distance"]
                  if ok_pair else float("inf"))

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

    if paired is not None:
        base = next(r for r in rows if r["eps"] == mid and r.get("eta", 0.0) == 0.0)
        paired["distance_gap_vs_unperturbed"] = abs(paired["distance"] - base["distance"])
        rows.append(paired)
        checks["no_run_failures"] &= "failed" not in paired
        checks["perturbation_influence_bounded"] = (
            paired["distance_gap_vs_unperturbed"] <= 10.0 * eta
            + 0.05 * base["distance"])

    for r in rows:
        r["fit_exponent"] = exponent
        r["fit_r2"] = r2
    return _report("eps-sweep", cfg, t0, rows, checks, notes)


# ---------------------------------------------------------------------------
# non-zero-mode decay
# ---------------------------------------------------------------------------

def _smooth_background(spec: WaveSpec, fs: FieldSet):
    """(rho, u1, theta) of the smooth wave at fs.time, broadcast to the grid."""
    grid = fs.grid
    pr = smooth_profile(spec, fs.time, grid.x1())
    return tuple(np.broadcast_to(f[:, None, None], grid.shape)
                 for f in (pr.rho, pr.u1, pr.theta))


def energy_observer(spec: WaveSpec):
    """Observer emitting the energy_report row against the smooth-wave background."""
    from .analysis import energy_report

    def obs(fs: FieldSet, g: GasParams) -> dict:
        rho_bar, u1_bar, th_bar = _smooth_background(spec, fs)
        prim = fs.primitives(g)
        psi = prim[1:4]
        psi[0] -= u1_bar
        try:
            return energy_report(fs.rho - rho_bar, psi, prim[4] - th_bar,
                                 rho_bar, th_bar, fs.grid, g)
        except ValueError as exc:
            raise RunAbort(f"energy observer at t = {fs.time:.6g}: {exc}") from exc
    return obs


def _dneq_observer(spec: WaveSpec):
    def obs(fs: FieldSet, g: GasParams) -> dict:
        grid = fs.grid
        prim = fs.primitives(g)
        u, theta = prim[1:4], prim[4]
        d_rho = decompose(fs.rho, grid).nonzero
        d_u = max(float(np.max(np.abs(decompose(u[c], grid).nonzero))) for c in range(3))
        d_th = decompose(theta, grid).nonzero
        rho_bar, _, th_bar = _smooth_background(spec, fs)
        h_energy = nonzero_mode_energy(fs.rho - rho_bar, u, theta - th_bar,
                                       rho_bar, th_bar, grid, g)
        return {"rho": float(np.max(np.abs(d_rho))), "u": d_u,
                "theta": float(np.max(np.abs(d_th))), "H": h_energy}
    return obs


def _decay_run(cfg: ExperimentConfig, modes: str) -> list[dict]:
    if cfg.grid.dims < 2:
        raise ConfigError("non-zero-mode decay needs a transverse direction (grid.dims >= 2)")
    spec, _, initial, scfg, ghost = pinned_start(cfg, cfg.solver.eps, cfg.experiment.eta,
                                                 modes=modes)
    obs = {"dneq": _dneq_observer(spec), "dist": _distance_observer(spec, cfg.experiment.h)}
    _, records = run(initial, cfg.gas, scfg, cfg.experiment.horizon, observers=obs,
                     ghost_source=ghost, sample_dt=cfg.experiment.horizon / 24.0)
    return records


def run_nonzero_decay(cfg: ExperimentConfig) -> StudyReport:
    """Exponential decay of the transverse-oscillatory modes on a slab run,
    with a planar control run that must stay transversally exact."""
    t0 = time.time()
    if cfg.experiment.eta <= 0.0:
        raise ConfigError("decay experiment needs experiment.eta > 0")
    # the perturbed run here, the planar control in a worker
    records, control = _concurrently(lambda: _decay_run(cfg, "all"),
                                     [(_decay_run, (cfg, "planar"))])

    rows = []
    for r in records:
        rows.append({"tau": r["tau"], "dneq_rho": r["dneq.rho"], "dneq_u": r["dneq.u"],
                     "dneq_theta": r["dneq.theta"], "H": r["dneq.H"],
                     "dist_max": r.get("dist.max", float("nan")), "run": "perturbed"})
    control_max = max(max(r["dneq.rho"], r["dneq.u"], r["dneq.theta"]) for r in control)
    rows.append({"tau": control[-1]["tau"], "dneq_rho": control_max, "run": "planar-control"})

    taus = np.array([r["tau"] for r in records])
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
        "dneq_rho_fit_r2": r2 >= _R2_MIN,
    }
    notes = [f"rates: " + ", ".join(f"{k}={v[0]:.3g} (R2 {v[1]:.3f})" for k, v in fits.items())]
    return _report("decay", cfg, t0, rows, checks, notes)


# ---------------------------------------------------------------------------
# periodic-background decay
# ---------------------------------------------------------------------------

def _background_row(cfg: ExperimentConfig, grid: SlabGrid, scfg: SolverConfig,
                    eta: float) -> dict:
    """One torus run at amplitude eta: 40 samples of the deviation's sup and
    worst cell-average drift, and a semilog fit of the sup over the second
    half; wall_time is this run's own."""
    tic = time.time()
    horizon = cfg.experiment.horizon
    base = constant_conserved(cfg.right, cfg.gas)
    fs = perturbed_constant_state(cfg.right, cfg.experiment.perturbation(eta), grid, cfg.gas)

    def observe(f: FieldSet, g: GasParams) -> dict:
        dev = f.U - base[:, None, None, None]
        return {"sup": float(np.max(np.abs(dev))),
                "drift": float(np.max(np.abs(dev.mean(axis=(1, 2, 3)))))}

    _, records = run(fs, cfg.gas, scfg, horizon, observers={"bg": observe},
                     sample_dt=horizon / 40)
    taus = np.array([r["tau"] for r in records])
    sups = np.array([r["bg.sup"] for r in records])
    rate, r2 = float("nan"), float("nan")
    tail = taus > taus[-1] / 2.0
    if eta > 0.0 and np.count_nonzero(tail) >= 3 and np.all(sups[tail] > 0.0):
        rate, r2 = fit_rate(taus[tail], sups[tail], model="exponential")
    return {"eta": eta, "rate": rate, "r2": r2,
            "mean_drift": max(r["bg.drift"] for r in records), "amp0": float(sups[0]),
            "amp_final": float(sups[-1]), "wall_time": time.time() - tic}


def run_background_decay(cfg: ExperimentConfig) -> StudyReport:
    """Torus run: deviations from the constant state decay exponentially and
    their cell averages are conserved; onset amplitude is linear in eta."""
    t0 = time.time()
    if cfg.experiment.eta <= 0.0:
        raise ConfigError("background experiment needs experiment.eta > 0")
    grid = SlabGrid.torus(cfg.grid.period, cfg.grid.n1, cfg.grid.n2, cfg.grid.n3,
                          dims=max(cfg.grid.dims, 2))
    scfg = cfg.solver.solver_config()
    etas = list(cfg.experiment.sweep) or [cfg.experiment.eta, cfg.experiment.eta / 2.0]
    # the first eta's run here, one run per other eta in a worker
    rows = _concurrently(lambda: _background_row(cfg, grid, scfg, etas[0]),
                         [(_background_row, (cfg, grid, scfg, eta)) for eta in etas[1:]])
    rows.sort(key=lambda r: -r["eta"])
    checks = {
        "mean_conserved": all(r["mean_drift"] <= 1e-10 for r in rows),
        "decay_rate_negative": all(r["rate"] < 0.0 for r in rows),
        "decay_fit_r2": all(r["r2"] >= _R2_MIN for r in rows),
    }
    if len(rows) >= 2:
        amp_ratio = rows[1]["amp0"] / rows[0]["amp0"]
        eta_ratio = rows[1]["eta"] / rows[0]["eta"]
        rate_rel = abs(rows[1]["rate"] - rows[0]["rate"]) / abs(rows[0]["rate"])
        checks["onset_amplitude_linear_in_eta"] = abs(amp_ratio - eta_ratio) <= 0.1 * eta_ratio
        checks["rate_eta_independent"] = rate_rel <= 0.2
    return _report("background", cfg, t0, rows, checks)


# ---------------------------------------------------------------------------
# interpolation-inequality battery
# ---------------------------------------------------------------------------

# gn-check's torus widths: powers of two, at which a draw's arrays are
# byte-equal, so _gn_max_ratios builds and sums each draw once
GN_WIDTHS = (1.0, 0.5, 0.25)


def _slab_draw(rng: np.random.Generator, transverse_constant: bool) -> list:
    """The parameters of one _slab_sample, drawn in the order its expression
    reads them: per Gaussian envelope (amp, c, sig, modes), modes None for a
    transversally constant sample, else its (k2, k3, phase, a) terms."""
    envelopes = []
    for _ in range(rng.integers(1, 4)):
        amp, c, sig = rng.normal(), rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.0)
        modes = None
        if not transverse_constant:
            modes = []
            for _ in range(rng.integers(1, 4)):
                k2, k3 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
                phase = rng.uniform(0.0, 2.0 * np.pi)
                modes.append((k2, k3, phase, rng.normal()))
        envelopes.append((amp, c, sig, modes))
    return envelopes


def _slab_sample(grid: SlabGrid, lam: float, envelopes: list) -> np.ndarray:
    """Band-limited decaying sample: Gaussian envelopes times a transverse
    trigonometric factor with modes bounded independently of lambda."""
    x1, x2, x3 = np.ix_(grid.x1(), grid.x2(), grid.x3())
    u, mode = np.zeros(grid.shape), np.empty(grid.shape)
    for amp, c, sig, modes in envelopes:
        env = amp * np.exp(-((x1 - c) ** 2) / (2.0 * sig ** 2))
        if modes is None:
            trig = 1.0
        else:
            trig = 0.0
            for k2, k3, phase, a in modes:
                trig = trig + a * np.cos(2.0 * np.pi * (k2 * x2 + k3 * x3) / lam + phase)
        u += np.multiply(env, trig, out=mode)
    return u


def _torus_draw(rng: np.random.Generator) -> tuple[float, list]:
    """The parameters of one _torus_sample: its mean and, per Fourier mode
    (the zero wave vector drawn and dropped), (ks, phase, amp)."""
    mean, modes = rng.normal(), []
    for _ in range(rng.integers(2, 6)):
        ks = rng.integers(-3, 4, size=3)
        if not np.any(ks):
            continue
        phase = rng.uniform(0.0, 2.0 * np.pi)
        modes.append((ks, phase, rng.normal()))
    return mean, modes


def _torus_sample(grid: SlabGrid, lam: float, draw: tuple[float, list]) -> np.ndarray:
    mean, modes = draw
    x1, x2, x3 = np.ix_(grid.x1(), grid.x2(), grid.x3())
    u, mode = np.full(grid.shape, mean), np.empty(grid.shape)
    for ks, phase, amp in modes:
        # a * cos(2 pi (k . x) / lam + phase), in the order that expression evaluates
        np.add(ks[0] * x1 + ks[1] * x2, ks[2] * x3, out=mode)
        mode *= 2.0 * np.pi
        mode /= lam
        mode += phase
        np.cos(mode, out=mode)
        u += np.multiply(amp, mode, out=mode)
    return u


def _gn_grids(lam: float) -> tuple[SlabGrid, SlabGrid]:
    """gn-check's slab and torus grids at width lam."""
    return (SlabGrid(L=4.0, n1=128, period=lam, n2=12, n3=12, dims=3),
            SlabGrid.torus(lam, 16, 16, 16, dims=3))


def _gn_max_ratios(seed: int, lambdas, lo: int, hi: int) -> dict[str, dict[float, float]]:
    """Per case and width of lambdas, the largest gn_check ratio over samples
    [lo, hi), every value starting from 0.0 so a NaN ratio is ignored. No
    draw depends on the width, so samples 0 ... hi - 1 are drawn once from
    default_rng(seed) and those before lo dropped.

    At power-of-two widths such as GN_WIDTHS a draw's slab and torus arrays
    are byte-equal at every width, so each kept draw is built once, on the
    first width's grids, and its gn_sums taken once; only its derivative
    norms (gn_sample) and the cases run at each width, bitwise the arrays
    built and summed per width. A draw's arrays are held only while its
    widths run.
    """
    rng = np.random.default_rng(seed)
    draws = [(_slab_draw(rng, i % 5 == 0), _torus_draw(rng)) for i in range(hi)][lo:]
    grids = {lam: _gn_grids(lam) for lam in lambdas}
    slab0, torus0 = grids[lambdas[0]]
    ratios = {c: dict.fromkeys(lambdas, 0.0) for c in GN_CASES}
    for slab_draw, torus_draw in draws:
        u_slab = _slab_sample(slab0, lambdas[0], slab_draw)
        u_torus = _torus_sample(torus0, lambdas[0], torus_draw)
        sums_slab, sums_torus = gn_sums(u_slab), gn_sums(u_torus)
        for lam, (slab, torus) in grids.items():
            # each grid's derivative norms once, shared by its three cases
            samples = {"slab": gn_sample(u_slab, sums_slab, slab, False),
                       "torus": gn_sample(u_torus, sums_torus, torus, True)}
            for case in GN_CASES:
                res = gn_check(samples[case.rsplit("-", 1)[1]], case)
                ratios[case][lam] = max(ratios[case][lam], res["ratio"])
        del u_slab, u_torus
    return ratios


def run_gn_check(cfg: ExperimentConfig) -> StudyReport:
    """Empirical-constant scan of every inequality special case across widths.

    One constant per case must cover all samples at all widths: no blowup as
    the torus narrows means the width prefactors absorb the scaling. The
    samples are cut into one contiguous [lo, hi) piece per usable CPU, each
    piece taken at every width; the first runs here, the others in workers,
    and their maxima merge.
    """
    t0 = time.time()
    lambdas = GN_WIDTHS
    nsamples, npieces = cfg.experiment.samples, len(os.sched_getaffinity(0))
    seed = cfg.experiment.seed
    bounds = [nsamples * j // npieces for j in range(npieces + 1)]
    first, *rest = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    parts = _concurrently(lambda: _gn_max_ratios(seed, lambdas, *first),
                          [(_gn_max_ratios, (seed, lambdas, *p)) for p in rest])
    rows, checks = [], {}
    for case in GN_CASES:
        per_lam = {lam: max(part[case][lam] for part in parts) for lam in lambdas}
        worst = max(per_lam.values())
        spread_src = [v for v in per_lam.values() if v > 0.0]
        spread = max(spread_src) / min(spread_src) if spread_src else float("inf")
        for lam in lambdas:
            rows.append({"case": case, "Lambda": lam, "max_ratio": per_lam[lam],
                         "empirical_constant": worst, "lambda_spread": spread})
        checks[f"{case}_no_width_blowup"] = spread <= 3.0
    checks["all_ratios_finite"] = all(np.isfinite(r["max_ratio"]) for r in rows)
    return _report("gn-check", cfg, t0, rows, checks)


# ---------------------------------------------------------------------------
# wave dump and plain simulation
# ---------------------------------------------------------------------------

def run_wave_dump(cfg: ExperimentConfig) -> StudyReport:
    """Rows over x1 of the exact, cut-off and smooth (rho, u1, theta) at time
    t = [experiment] horizon > 0 on [grid] n1 points; the exact and cut-off
    waves are sampled at x1/t."""
    t0 = time.time()
    spec, t = cfg.wave_spec(), cfg.experiment.horizon
    if t <= 0.0:
        raise ConfigError(f"the wave dump needs [experiment] horizon > 0, got {t}")
    x1 = np.linspace(spec.w_minus * t - 20.0 * spec.delta - 1.0,
                     spec.w_plus * t + 20.0 * spec.delta + 1.0, cfg.grid.n1)
    waves = {"exact": sample_exact(spec, x1 / t), "cutoff": sample_cutoff(spec, x1 / t),
             "smooth": smooth_profile(spec, t, x1)}
    cols = {"x1": x1, **{f"{f}_{k}": getattr(w, f) for k, w in waves.items()
                         for f in ("rho", "u1", "theta")}}
    rows = [dict(zip(cols, vals)) for vals in zip(*(c.tolist() for c in cols.values()))]
    return _report("wave-dump", cfg, t0, rows, {"completed": True})


def run_simulate(cfg: ExperimentConfig) -> StudyReport:
    """Pinned run from a config: observer CSV rows plus a final snapshot."""
    t0 = time.time()
    horizon = cfg.experiment.horizon
    spec, _, initial, scfg, ghost = pinned_start(cfg, cfg.solver.eps, cfg.experiment.eta)
    obs = {"dist": _distance_observer(spec, cfg.experiment.h),
           "energy": energy_observer(spec)}
    final, records = run(initial, cfg.gas, scfg, horizon, observers=obs, ghost_source=ghost,
                         sample_dt=horizon / 20.0)
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_fields(final, os.path.join(cfg.out_dir, "final.bin"))
    return _report("simulate", cfg, t0, records, {"completed": True})


DRIVERS = {
    "cutoff-study": run_cutoff_study,
    "profile-study": run_profile_study,
    "eps-sweep": run_viscosity_sweep,
    "decay": run_nonzero_decay,
    "background": run_background_decay,
    "gn-check": run_gn_check,
    "simulate": run_simulate,
    "wave-dump": run_wave_dump,
}
