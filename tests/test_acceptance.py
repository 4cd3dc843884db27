"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Criteria 8-10 drive full solver runs; the whole module stays well inside the
stated runtime budgets on a desktop-class core.
"""

import time

import numpy as np

from rarefan.gas import GasParams, PrimState, sound_speed
from rarefan.fields import SlabGrid, FieldSet
from rarefan.waves import WaveSpec, sample_exact, riemann_invariants
from rarefan.solver import SolverConfig, rhs, step
from rarefan.analysis import decompose, lp_slab, lp_line, fit_rate
from rarefan.config import (ExperimentConfig, WaveBlock, GridBlock, SolverBlock,
                            ExperimentBlock, ConfigError, paper_constants)
from rarefan.experiments import (run_cutoff_study, run_profile_study, run_viscosity_sweep,
                                 run_nonzero_decay, run_background_decay, run_gn_check)

GAS = GasParams.normalized(5.0 / 3.0, 0.5)
RIGHT = PrimState(1.0, 0.0, 1.0)


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _config(**exp_kwargs) -> ExperimentConfig:
    grid = exp_kwargs.pop("grid", GridBlock())
    solver = exp_kwargs.pop("solver", SolverBlock())
    wave = exp_kwargs.pop("wave", WaveBlock())
    return ExperimentConfig(gas=GAS, wave=wave, grid=grid, solver=solver,
                            experiment=ExperimentBlock(**exp_kwargs))


# ---------------------------------------------------------------------------

def test_criterion_01_exact_wave_self_consistency():
    t0 = time.time()
    spec = WaveSpec(RIGHT, GAS, nu=0.0, delta=0.1)
    r31p, sp = riemann_invariants(GAS, RIGHT)
    xi = np.linspace(spec.u1_vacuum + 1e-9, spec.w_plus - 1e-9, 1000)
    tab = sample_exact(spec, xi)
    lam3_err = np.max(np.abs(tab.u1 + sound_speed(GAS, tab.theta) - xi))
    c = sound_speed(GAS, tab.theta)
    r31_err = np.max(np.abs(tab.u1 - 2.0 * c / (GAS.gamma - 1.0) - r31p))
    s_err = np.max(np.abs(-(GAS.gamma - 1.0) * np.log(tab.rho) + np.log(tab.theta) - sp))
    ok = lam3_err < 1e-10 and r31_err < 1e-10 and s_err < 1e-10
    _report(1, "exact-wave self-consistency", ok,
            f"lam3 {lam3_err:.2e}, R31 {r31_err:.2e}, S {s_err:.2e} "
            f"({time.time() - t0:.2f}s)")


def test_criterion_02_cutoff_error_law():
    t0 = time.time()
    cfg = _config(kind="cutoff-study", sweep=(0.1, 0.05, 0.025, 0.0125),
                  wave=WaveBlock(nu=0.05, delta=0.1))
    rep = run_cutoff_study(cfg)
    power = rep.rows[0]["power_rho"]
    ratios = [r["ratio"] for r in rep.rows]
    _report(2, "cut-off O(nu) law", rep.passed,
            f"ratios [{min(ratios):.2f}, {max(ratios):.2f}], rho power {power:.4f} "
            f"({time.time() - t0:.2f}s)")


def test_criterion_03_profile_laws():
    t0 = time.time()
    cfg = _config(kind="profile-study", wave=WaveBlock(nu=0.05, delta=0.1))
    rep = run_profile_study(cfg)
    ok = rep.checks["L1_equals_velocity_span"] and rep.checks["burgers_L1_equals_w_span"] \
        and rep.checks["Linf_envelope_band"]
    l1err = max(abs(r["L1_minus_span"]) for r in rep.rows if "L1_minus_span" in r)
    _report(3, "profile L^p laws", ok,
            f"L1 defect {l1err:.2e}, Linf band ok={rep.checks['Linf_envelope_band']} "
            f"({time.time() - t0:.2f}s)")


def test_criterion_04_smooth_cutoff_distance_scaling():
    t0 = time.time()
    cfg = _config(kind="profile-study", wave=WaveBlock(nu=0.05, delta=0.2))
    rep = run_profile_study(cfg)
    ok = rep.checks["delta_log_delta_scaling"]
    ratios = [r["dist_over_env"] for r in rep.rows if "dist_over_env" in r]
    _report(4, "delta |log delta| distance scaling", ok,
            f"dist/envelope in [{min(ratios):.3f}, {max(ratios):.3f}] "
            f"({time.time() - t0:.2f}s)")


def test_criterion_05_decomposition_identities():
    t0 = time.time()
    grid = SlabGrid(L=2.0, n1=20, period=0.5, n2=8, n3=8, dims=3)
    rng = np.random.default_rng(0)
    worst_proj, worst_parseval = 0.0, 0.0
    for _ in range(100):
        f = rng.standard_normal(grid.shape)
        ms = decompose(f, grid)
        worst_proj = max(worst_proj,
                         float(np.max(np.abs(ms.nonzero.mean(axis=(1, 2)))))
                         / float(np.max(np.abs(f))))
        total = lp_slab(f, grid, 2) ** 2
        parts = lp_line(ms.zero, grid, 2) ** 2 + lp_slab(ms.nonzero, grid, 2) ** 2
        worst_parseval = max(worst_parseval, abs(total - parts) / total)
    ok = worst_proj < 1e-14 and worst_parseval < 1e-12
    _report(5, "decomposition identities", ok,
            f"max |D0 Dneq f| {worst_proj:.2e} (round-off zero), "
            f"Parseval defect {worst_parseval:.2e} ({time.time() - t0:.2f}s)")


def test_criterion_06_gn_scaling():
    t0 = time.time()
    cfg = _config(kind="gn-check", samples=50, seed=3)
    rep = run_gn_check(cfg)
    spread = max(r["lambda_spread"] for r in rep.rows)
    _report(6, "interpolation-inequality width scaling", rep.passed,
            f"worst width spread {spread:.2f} (<= 3), "
            f"{len(rep.rows)} case/width rows ({time.time() - t0:.2f}s)")


def test_criterion_07_solver_conservation_and_mms():
    t0 = time.time()
    K = 2.0 * np.pi
    results = {}
    for label, grid in (("1d-512", SlabGrid.torus(1.0, 512)),
                        ("2d-128x32", SlabGrid.torus(1.0, 128, 32, dims=2))):
        X1, X2, _ = grid.meshgrid()
        rho = 1.0 + 0.2 * np.sin(K * X1) * np.cos(K * X2)
        u = np.zeros((3,) + grid.shape)
        u[0] = 0.2 * np.cos(K * X1)
        u[1] = 0.1 * np.sin(K * X2)
        theta = 1.0 + 0.1 * np.cos(K * (X1 + X2))
        fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
        cfg = SolverConfig(eps=0.05)
        tot0 = fs.totals()
        f = fs
        for _ in range(1000):
            f, _ = step(f, GAS, cfg)
        tot1 = f.totals()
        scale = max(abs(v) for v in tot0.values())
        results[label] = max(abs(tot1[k] - tot0[k]) for k in tot0) / scale

    # manufactured-solution viscous order
    eps = 0.3
    errs = []
    for n in (64, 128, 256):
        grid = SlabGrid.torus(1.0, n)
        x = grid.x1()[:, None, None] * np.ones(grid.shape)
        rho = 2.0 + 0.3 * np.sin(K * x)
        u = np.zeros((3,) + grid.shape)
        u[0] = 0.2 + 0.1 * np.cos(K * x)
        u[1] = 0.05 * np.sin(K * x)
        theta = 1.0 + 0.2 * np.sin(K * x + 0.7)
        fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
        tv, _ = rhs(fs, GAS, SolverConfig(eps=eps))
        t_inv, _ = rhs(fs, GAS, SolverConfig(eps=0.0))
        visc = tv - t_inv
        du1 = -0.1 * K * np.sin(K * x)
        d2u1 = -0.1 * K * K * np.cos(K * x)
        du2 = 0.05 * K * np.cos(K * x)
        d2u2 = -0.05 * K * K * np.sin(K * x)
        dth = 0.2 * K * np.cos(K * x + 0.7)
        d2th = -0.2 * K * K * np.sin(K * x + 0.7)
        pw = theta ** GAS.alpha
        dpw = GAS.alpha * theta ** (GAS.alpha - 1.0) * dth
        m1 = eps * (2 * GAS.mu1 + GAS.lambda1) * (dpw * du1 + pw * d2u1)
        m2 = eps * GAS.mu1 * (dpw * du2 + pw * d2u2)
        en = eps * (GAS.kappa1 * (dpw * dth + pw * d2th)
                    + (2 * GAS.mu1 + GAS.lambda1) * (du1 * pw * du1
                                                     + u[0] * (dpw * du1 + pw * d2u1))
                    + GAS.mu1 * (du2 * pw * du2 + u[1] * (dpw * du2 + pw * d2u2)))
        errs.append(np.sqrt(np.mean((visc[1] - m1) ** 2 + (visc[2] - m2) ** 2
                                    + (visc[4] - en) ** 2)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    ok = all(v <= 1e-12 for v in results.values()) and np.all(orders >= 1.7)
    _report(7, "conservation and manufactured-solution order", ok,
            f"drift {results}, viscous orders {np.round(orders, 3).tolist()} "
            f"({time.time() - t0:.1f}s)")


def test_criterion_08_vanishing_viscosity_trend():
    t0 = time.time()
    cfg = _config(kind="eps-sweep", sweep=(0.04, 0.02, 0.01), horizon=1.0, h=0.25,
                  wave=WaveBlock(nu_coeff=0.5, delta_coeff=1.0),
                  grid=GridBlock(n1=384))
    rep = run_viscosity_sweep(cfg)
    dists = [r["distance"] for r in rep.rows if r.get("eta", 0.0) == 0.0
             and "refinement_rel_change" not in r]
    expo = rep.rows[0]["fit_exponent"]
    _report(8, "vanishing-viscosity trend", rep.passed,
            f"distances {[round(d, 4) for d in dists]}, power_log exponent {expo:.3f} "
            f"({time.time() - t0:.1f}s)")


def test_criterion_09_nonzero_mode_decay():
    t0 = time.time()
    cfg = _config(kind="decay", eta=1e-3, horizon=0.8, h=0.2, mode_cap=3, seed=5,
                  wave=WaveBlock(nu=0.1, delta=0.2),
                  grid=GridBlock(n1=256, n2=32, period=1.0, dims=2),
                  solver=SolverBlock(eps=0.08))
    rep = run_nonzero_decay(cfg)
    rate = rep.rows[0]["fit_rate_rho"]
    r2 = rep.rows[0]["fit_r2_rho"]
    control = next(r for r in rep.rows if r["run"] == "planar-control")
    _report(9, "non-zero-mode exponential decay", rep.passed,
            f"rate {rate:.3f}, R2 {r2:.3f}, planar control {control['dneq_rho']:.2e} "
            f"({time.time() - t0:.1f}s)")


def test_criterion_10_background_decay():
    t0 = time.time()
    cfg = _config(kind="background", eta=1e-2, horizon=0.6, mode_cap=3, seed=11,
                  wave=WaveBlock(u1_plus=0.2, nu=0.1, delta=0.2),
                  grid=GridBlock(n1=32, n2=32, period=1.0, dims=2),
                  solver=SolverBlock(eps=0.2))
    rep = run_background_decay(cfg)
    drift = max(r["mean_drift"] for r in rep.rows)
    r2 = min(r["r2"] for r in rep.rows)
    _report(10, "periodic-background decay", rep.passed,
            f"mean drift {drift:.2e} (<= 1e-10), worst R2 {r2:.3f} "
            f"({time.time() - t0:.1f}s)")


def test_criterion_11_paper_constant_arithmetic():
    t0 = time.time()
    a, Z = paper_constants(5.0 / 3.0, 0.5)
    arithmetic_ok = abs(a - 1.5 / 34.5) <= 1e-12 and abs(Z - 0.1) <= 1e-12
    # the coupled scaling nu = eps^(Z a)|log eps| gives no cut-off density in
    # (0, rho_plus) at eps = 0.01
    coupled_nu = 0.01 ** (Z * a) * abs(np.log(0.01))
    infeasible = coupled_nu > RIGHT.rho
    # an infeasible resolved nu (nu_coeff * eps^(1/2) = 2 > rho_plus) is
    # refused, not clamped
    cfg = _config(kind="eps-sweep", wave=WaveBlock(nu_coeff=20.0, delta=0.1))
    refused = False
    try:
        cfg.resolve_nu_delta(0.01)
    except ConfigError:
        refused = True
    _report(11, "coupled-scaling arithmetic and infeasibility refusal",
            arithmetic_ok and infeasible and refused,
            f"a={a:.12f}, Z={Z:.3f}, coupled nu(0.01)={coupled_nu:.3f}, "
            f"infeasible nu refused={refused} ({time.time() - t0:.2f}s)")
