import dataclasses
from pathlib import Path

import numpy as np
import pytest

from rarefan.gas import GasParams, PrimState
from rarefan.fields import SlabGrid, FieldSet
from rarefan.waves import WaveSpec, smooth_profile
from rarefan import solver
from rarefan.solver import (SolverConfig, RunAbort, rhs, step, run, stable_dt,
                            profile_ghost_source)
from rarefan.analysis import sup_distance
from rarefan.ansatz import PerturbationSpec, assemble_initial, x1_window

GAS = GasParams.normalized(5.0 / 3.0, 0.5)
K = 2.0 * np.pi


def periodic_cfg(eps=0.1):
    return SolverConfig(eps=eps, boundary="fully-periodic")


def smooth_fields(grid):
    x = grid.x1()[:, None, None] * np.ones(grid.shape)
    rho = 2.0 + 0.3 * np.sin(K * x)
    u = np.zeros((3,) + grid.shape)
    u[0] = 0.2 + 0.1 * np.cos(K * x)
    u[1] = 0.05 * np.sin(K * x)
    theta = 1.0 + 0.2 * np.sin(K * x + 0.7)
    return x, rho, u, theta


# ---------------------------------------------------------------------------
# rhs
# ---------------------------------------------------------------------------

def test_constant_state_zero_tendency():
    for grid in (SlabGrid.torus(1.0, 16), SlabGrid.torus(1.0, 8, 4, dims=2),
                 SlabGrid.torus(1.0, 4, 4, 4, dims=3)):
        u = np.zeros((3,) + grid.shape)
        u[0], u[1] = 0.3, -0.2
        fs = FieldSet.from_primitives(grid, GAS, 1.3, u, 0.9)
        tend, bflux = rhs(fs, GAS, periodic_cfg())
        assert np.max(np.abs(tend)) == 0.0
        assert np.max(np.abs(bflux)) == 0.0


def test_eps_zero_matches_euler_tendency():
    grid = SlabGrid.torus(1.0, 64)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    t_euler, _ = rhs(fs, GAS, periodic_cfg(eps=0.0))
    # physical variables with eps = 0: the viscous branch must be bypassed,
    # leaving bitwise the inviscid tendency
    t_again, _ = rhs(fs, GAS, periodic_cfg(eps=0.0))
    assert np.array_equal(t_euler, t_again)
    t_visc, _ = rhs(fs, GAS, periodic_cfg(eps=0.05))
    assert not np.array_equal(t_euler, t_visc)


def _exact_viscous(g, eps, x, u, theta):
    du1 = -0.1 * K * np.sin(K * x)
    d2u1 = -0.1 * K * K * np.cos(K * x)
    du2 = 0.05 * K * np.cos(K * x)
    d2u2 = -0.05 * K * K * np.sin(K * x)
    dth = 0.2 * K * np.cos(K * x + 0.7)
    d2th = -0.2 * K * K * np.sin(K * x + 0.7)
    pw = theta ** g.alpha
    dpw = g.alpha * theta ** (g.alpha - 1.0) * dth
    m1 = eps * (2 * g.mu1 + g.lambda1) * (dpw * du1 + pw * d2u1)
    m2 = eps * g.mu1 * (dpw * du2 + pw * d2u2)
    en = eps * (g.kappa1 * (dpw * dth + pw * d2th)
                + (2 * g.mu1 + g.lambda1) * (du1 * pw * du1 + u[0] * (dpw * du1 + pw * d2u1))
                + g.mu1 * (du2 * pw * du2 + u[1] * (dpw * du2 + pw * d2u2)))
    return m1, m2, en


def test_manufactured_viscous_order():
    eps = 0.3
    errs = []
    for n in (64, 128, 256):
        grid = SlabGrid.torus(1.0, n)
        x, rho, u, theta = smooth_fields(grid)
        fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
        tv, _ = rhs(fs, GAS, periodic_cfg(eps=eps))
        t0, _ = rhs(fs, GAS, periodic_cfg(eps=0.0))
        visc = tv - t0
        m1, m2, en = _exact_viscous(GAS, eps, x, u, theta)
        errs.append(np.sqrt(np.mean((visc[1] - m1) ** 2 + (visc[2] - m2) ** 2
                                    + (visc[4] - en) ** 2)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.7)


def test_manufactured_full_rhs_first_order():
    # convective Rusanov is (at least) 1st order on smooth data
    def exact_euler(x, rho, u, theta):
        drho = 0.3 * K * np.cos(K * x)
        du1 = -0.1 * K * np.sin(K * x)
        dth = 0.2 * K * np.cos(K * x + 0.7)
        dm = drho * u[0] + rho * du1
        p = GAS.R * rho * theta
        dp = GAS.R * (drho * theta + rho * dth)
        dmom = drho * u[0] ** 2 + 2 * rho * u[0] * du1 + dp
        E = rho * (GAS.R / (GAS.gamma - 1) * theta + 0.5 * (u[0] ** 2 + u[1] ** 2))
        du2 = 0.05 * K * np.cos(K * x)
        dE = drho * (GAS.R / (GAS.gamma - 1) * theta + 0.5 * (u[0] ** 2 + u[1] ** 2)) \
            + rho * (GAS.R / (GAS.gamma - 1) * dth + u[0] * du1 + u[1] * du2)
        dflux_E = (dE + dp) * u[0] + (E + p) * du1
        return -dm, -dmom, -dflux_E

    errs = []
    for n in (128, 256):
        grid = SlabGrid.torus(1.0, n)
        x, rho, u, theta = smooth_fields(grid)
        fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
        t0, _ = rhs(fs, GAS, periodic_cfg(eps=0.0))
        e_rho, e_mom, e_en = exact_euler(x, rho, u, theta)
        errs.append(np.sqrt(np.mean((t0[0] - e_rho) ** 2 + (t0[1] - e_mom) ** 2
                                    + (t0[4] - e_en) ** 2)))
    assert np.log2(errs[0] / errs[1]) >= 0.9


def _transverse_state(grid, seed):
    """Smooth-in-x1 state with random x2/x3 variation, including the end cells."""
    rng = np.random.default_rng(seed)
    x = grid.x1()[:, None, None]
    tshape = (1,) + grid.shape[1:]
    rho = 1.0 + 0.1 * np.cos(x) + 0.05 * rng.random(tshape)
    u = 0.05 * rng.standard_normal((3,) + tshape) + np.zeros((3,) + grid.shape)
    theta = 1.0 + 0.1 * np.sin(x) + 0.05 * rng.random(tshape)
    return FieldSet.from_primitives(grid, GAS, rho, u, theta)


def test_pinned_rhs_commutes_with_transverse_roll():
    # the corner ghosts (x1 ghost x x2 ghost) enter the cross derivatives at
    # the x1 faces; filled consistently, a roll along x2 commutes with rhs
    grid = SlabGrid(L=2.0, n1=12, n2=8, dims=2)
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    fs = _transverse_state(grid, 11)
    rolled = FieldSet.from_stacked(grid, np.roll(fs.stacked(), 3, axis=2))
    cfg = SolverConfig(eps=0.05, boundary="pinned-profile")
    for ghost in (profile_ghost_source(spec, grid), None):
        tend, _ = rhs(fs, GAS, cfg, ghost, t=0.0)
        tend_rolled, _ = rhs(rolled, GAS, cfg, ghost, t=0.0)
        assert np.array_equal(tend_rolled, np.roll(tend, 3, axis=2))


def test_x3_constant_state_matches_2d_rhs():
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    grid2 = SlabGrid(L=2.0, n1=12, n2=6, dims=2)
    grid3 = SlabGrid(L=2.0, n1=12, n2=6, n3=4, dims=3)
    fs2 = _transverse_state(grid2, 12)
    fs3 = FieldSet.from_stacked(grid3, np.repeat(fs2.stacked(), 4, axis=3))
    for cfg in (SolverConfig(eps=0.05, boundary="pinned-profile"), periodic_cfg(0.05)):
        t2, _ = rhs(fs2, GAS, cfg, profile_ghost_source(spec, grid2), t=0.0)
        t3, _ = rhs(fs3, GAS, cfg, profile_ghost_source(spec, grid3), t=0.0)
        assert np.max(np.abs(t3 - t2)) <= 1e-14 * np.max(np.abs(t2))


def test_step_dt_is_stable_dt():
    grid = SlabGrid.torus(1.0, 32, 4, dims=2)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    cfg = periodic_cfg(eps=0.05)
    _, diag = step(fs, GAS, cfg)
    assert diag.dt == stable_dt(fs, GAS, cfg)[0]


def test_rhs_unaffected_by_caller_mutation():
    grid = SlabGrid.torus(1.0, 32, 4, dims=2)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    cfg = periodic_cfg(eps=0.05)
    tend0, bflux0 = rhs(fs, GAS, cfg)
    fs.velocity()[0] -= 1.0
    fs.temperature(GAS)[:] = -1.0
    tend1, bflux1 = rhs(fs, GAS, cfg)
    assert np.array_equal(tend0, tend1) and np.array_equal(bflux0, bflux1)
    assert not np.shares_memory(tend0, tend1)
    assert not np.shares_memory(bflux0, bflux1)


def _viscous_spectral_radius(fs, cfg, ghost, iters=300):
    """|lambda_max| of the linearised viscous rhs by power iteration.

    The viscous rhs is rhs(eps) - rhs(eps=0); its Jacobian is applied by
    central differences with a perturbation relative to each cell's density
    (density and momenta) or energy, a diagonal similarity that leaves the
    eigenvalues unchanged.
    """
    inviscid = dataclasses.replace(cfg, eps=0.0)
    U = fs.U
    scale = np.concatenate([np.repeat(U[:1], 4, axis=0), U[4:]])
    amp = 1e-7

    def visc(W):
        f = FieldSet(fs.grid, W, fs.time)
        return (rhs(f, GAS, cfg, ghost, t=fs.time)[0]
                - rhs(f, GAS, inviscid, ghost, t=fs.time)[0])

    v = np.random.default_rng(0).standard_normal(U.shape)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = (visc(U + amp * scale * v) - visc(U - amp * scale * v)) / (2.0 * amp * scale)
        lam = np.linalg.norm(w)
        v = w / lam
    return lam


def test_viscous_dt_within_rk3_stability_limit():
    # the limiting cells sit in the near-vacuum cut-off state; the viscous dt
    # must use most of SSP-RK3's real-axis interval without leaving it.  The
    # slab is the decay study's (nu 0.1, delta 0.2, eps 0.08, eta 1e-3) on
    # 64x8 cells, the line the eps-sweep's eps = 0.01 point
    limit = solver._RK3_REAL_LIMIT
    slab_spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    slab = SlabGrid(L=5.669381546010115, n1=64, n2=8, dims=2)
    fs_slab = assemble_initial(slab_spec, PerturbationSpec(eta=1e-3, mode_cap=1), slab, GAS,
                               shift=False, window=x1_window(slab, 2.5, 0.2))
    line_spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.05, delta=0.1)
    line = SlabGrid(L=2.0 * max(-line_spec.w_minus, line_spec.w_plus) + 2.0, n1=192)
    fs_line = assemble_initial(line_spec, PerturbationSpec(eta=0.0), line, GAS, shift=False)
    for spec, fs, eps in ((slab_spec, fs_slab, 0.08), (line_spec, fs_line, 0.01)):
        cfg = SolverConfig(eps=eps, boundary="pinned-profile")
        ghost = profile_ghost_source(spec, fs.grid, shift=False)
        dt_visc, _ = stable_dt(fs, GAS, cfg)
        assert dt_visc < stable_dt(fs, GAS, dataclasses.replace(cfg, eps=0.0))[0]
        reach = dt_visc * _viscous_spectral_radius(fs, cfg, ghost)
        assert 0.4 * limit <= reach <= solver._VISC_FRACTION * limit * (1.0 + 1e-3)


# ---------------------------------------------------------------------------
# step / conservation / abort
# ---------------------------------------------------------------------------

def test_periodic_conservation_per_kilostep():
    grid = SlabGrid.torus(1.0, 48, 12, dims=2)
    X1, X2, _ = grid.meshgrid()
    rho = 1.0 + 0.2 * np.sin(K * X1) * np.cos(K * X2)
    u = np.zeros((3,) + grid.shape)
    u[0] = 0.2 * np.cos(K * X1)
    u[1] = 0.1 * np.sin(K * X2)
    theta = 1.0 + 0.1 * np.cos(K * (X1 + X2))
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    tot0 = fs.totals()
    f = fs
    for _ in range(1000):
        f, _ = step(f, GAS, periodic_cfg(eps=0.05))
    tot1 = f.totals()
    scale = max(abs(tot0["mass"]), abs(tot0["energy"]))
    for key in tot0:
        assert abs(tot1[key] - tot0[key]) <= 1e-12 * scale


def test_constant_state_unchanged():
    grid = SlabGrid.torus(1.0, 16, 4, dims=2)
    fs = FieldSet.from_primitives(grid, GAS, 1.0, np.zeros((3,) + grid.shape), 1.0)
    f, diag = step(fs, GAS, periodic_cfg())
    assert np.array_equal(f.rho, fs.rho)
    assert np.array_equal(f.E, fs.E)
    assert diag.dt > 0.0


def test_pinned_boundary_flux_bookkeeping():
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    grid = SlabGrid(L=4.0, n1=128)
    pr = smooth_profile(spec, 0.0, grid.x1(), shift=False)
    u = np.zeros((3,) + grid.shape)
    u[0] = pr.u1[:, None, None]
    fs = FieldSet.from_primitives(grid, GAS, pr.rho[:, None, None], u, pr.theta[:, None, None])
    cfg = SolverConfig(eps=0.02, boundary="pinned-profile")
    ghost = profile_ghost_source(spec, grid, shift=False)
    tot0 = fs.totals()
    acc = np.zeros(5)
    f = fs
    for _ in range(100):
        f, d = step(f, GAS, cfg, ghost_source=ghost)
        acc += d.boundary_flux
    tot1 = f.totals()
    for i, key in enumerate(("mass", "momentum1", "momentum2", "momentum3", "energy")):
        assert abs(tot1[key] - tot0[key] - acc[i]) <= 1e-10


def test_dt_underflow_aborts():
    grid = SlabGrid.torus(1.0, 16)
    fs = FieldSet.from_primitives(grid, GAS, 1.0, np.zeros((3,) + grid.shape), 1.0)
    with pytest.raises(RunAbort):
        step(fs, GAS, periodic_cfg(), dt=1e-13)


def test_positivity_floor_aborts():
    grid = SlabGrid.torus(1.0, 64)
    x = grid.x1()[:, None, None] * np.ones(grid.shape)
    # steep expansion drives theta below the (high) floor quickly
    rho = np.full(grid.shape, 1.0)
    u = np.zeros((3,) + grid.shape)
    u[0] = np.sign(np.sin(K * x)) * 2.0
    theta = np.full(grid.shape, 1.0)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    cfg = SolverConfig(eps=0.0, boundary="fully-periodic", floor_rho=0.5, floor_theta=0.5)
    with pytest.raises(RunAbort) as err:
        f = fs
        for _ in range(500):
            f, _ = step(f, GAS, cfg)
    assert err.value.diagnostics is not None


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_zero_horizon_identity():
    grid = SlabGrid.torus(1.0, 16)
    fs = FieldSet.from_primitives(grid, GAS, 1.0, np.zeros((3,) + grid.shape), 1.0)
    out, records = run(fs, GAS, periodic_cfg(), horizon=0.0)
    assert np.array_equal(out.rho, fs.rho)
    assert len(records) == 1


def test_run_reaches_horizon_and_samples():
    grid = SlabGrid.torus(1.0, 32)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    out, records = run(fs, GAS, periodic_cfg(eps=0.05), horizon=0.02, sample_dt=0.005)
    assert out.time == pytest.approx(0.02, abs=1e-12)
    assert len(records) >= 4
    assert all("mass" in r for r in records)


def test_run_records_land_on_sample_times():
    # a viscous-limited pinned run takes many steps per sample; every record
    # lands on its sample time and the last on the horizon, which need not be
    # a multiple of sample_dt
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    grid = SlabGrid(L=4.0, n1=128)
    fs = assemble_initial(spec, PerturbationSpec(eta=0.0), grid, GAS, shift=False)
    cfg = SolverConfig(eps=0.05, boundary="pinned-profile")
    ghost = profile_ghost_source(spec, grid, shift=False)
    for horizon, sample_dt in ((0.05, 0.0125), (0.05, 0.007)):
        out, records = run(fs, GAS, cfg, horizon, ghost_source=ghost, sample_dt=sample_dt)
        taus = [r["tau"] for r in records]
        n_samples = int(horizon / sample_dt + 1e-9)
        expected = [k * sample_dt for k in range(n_samples + 1)]
        if expected[-1] < horizon - 1e-12:
            expected.append(horizon)
        assert len(taus) == len(expected)
        assert np.max(np.abs(np.array(taus) - expected)) <= 1e-12
        assert taus[-1] == out.time and abs(out.time - horizon) <= 1e-12
        assert max(r["dt"] for r in records) < sample_dt / 3.0


def test_sweep_distance_independent_of_dt(monkeypatch):
    # with samples landing on their times, halving the viscous dt moves the
    # sup distance only by the SSP-RK3 time error
    from rarefan.config import parse_config
    from rarefan.experiments import _eps_sweep_point

    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "eps_sweep.ini")
    full = _eps_sweep_point(cfg, 0.04, n1=192)["distance"]
    monkeypatch.setattr(solver, "_VISC_FRACTION", 0.5 * solver._VISC_FRACTION)
    half = _eps_sweep_point(cfg, 0.04, n1=192)["distance"]
    assert full != half
    assert abs(half - full) < 1e-5 * full


def test_galilean_shift_advection():
    # doubly periodic sanity run at linearized amplitude: boosting the data by
    # U with U*T one full period must reproduce the unboosted run shifted by U.
    # The Rusanov dissipation coefficient is frame-dependent, so the residual
    # frame drift scales with the amplitude; at this amplitude it sits well
    # below the 1e-8 budget.
    grid = SlabGrid.torus(1.0, 64)
    x = grid.x1()[:, None, None] * np.ones(grid.shape)
    amp = 3e-8
    rho = 1.0 + amp * np.sin(K * x)
    theta = 1.0 + amp * np.cos(K * x)
    u = np.zeros((3,) + grid.shape)
    u[0] = amp * np.sin(K * x + 0.3)
    U, T = 1.0, 1.0
    cfg = SolverConfig(eps=0.02, boundary="fully-periodic")
    fs1 = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    fs2 = FieldSet.from_primitives(grid, GAS, rho, u + np.array([U, 0, 0])[:, None, None, None], theta)
    dt = 2.5e-4  # same forced step sequence for both frames
    f1, f2 = fs1, fs2
    for _ in range(int(T / dt)):
        f1, _ = step(f1, GAS, cfg, dt=dt)
        f2, _ = step(f2, GAS, cfg, dt=dt)
    u1 = f1.velocity()[0]
    u2 = f2.velocity()[0]
    assert np.max(np.abs(f2.rho - f1.rho)) < 1e-8
    assert np.max(np.abs(u2 - (u1 + U))) < 1e-8


def test_riemann_run_monotone_in_fan():
    # 1-D wave run: inside the fan the solution stays monotone in x1
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.15)
    L = max(abs(spec.w_minus), abs(spec.w_plus)) * 2.0 + 15 * spec.delta + 0.5
    grid = SlabGrid(L=L, n1=384)
    pr = smooth_profile(spec, 0.0, grid.x1(), shift=False)
    u = np.zeros((3,) + grid.shape)
    u[0] = pr.u1[:, None, None]
    fs = FieldSet.from_primitives(grid, GAS, pr.rho[:, None, None], u, pr.theta[:, None, None])
    cfg = SolverConfig(eps=0.02, boundary="pinned-profile")
    ghost = profile_ghost_source(spec, grid, shift=False)
    out, _ = run(fs, GAS, cfg, horizon=1.0, ghost_source=ghost)
    x = grid.x1()
    fan = (x / 1.0 > spec.w_minus + 0.2) & (x / 1.0 < spec.w_plus - 0.2)
    for f in (out.rho[:, 0, 0], out.velocity()[0][:, 0, 0], out.temperature(GAS)[:, 0, 0]):
        assert np.all(np.diff(f[fan]) > -1e-9)


def test_refinement_subdominant():
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    dists = {}
    for n1 in (192, 384):
        L = max(abs(spec.w_minus), abs(spec.w_plus)) * 2.0 + 15 * spec.delta + 0.5
        grid = SlabGrid(L=L, n1=n1)
        pr = smooth_profile(spec, 0.0, grid.x1(), shift=False)
        u = np.zeros((3,) + grid.shape)
        u[0] = pr.u1[:, None, None]
        fs = FieldSet.from_primitives(grid, GAS, pr.rho[:, None, None], u,
                                      pr.theta[:, None, None])
        cfg = SolverConfig(eps=0.04, boundary="pinned-profile")
        ghost = profile_ghost_source(spec, grid, shift=False)
        out, _ = run(fs, GAS, cfg, horizon=1.0, ghost_source=ghost)
        dists[n1] = sup_distance(out, spec, GAS)["max"]
    assert abs(dists[192] - dists[384]) < 0.25 * dists[192]


def test_scaled_variables_unit_multiplier():
    # in (tau, y) variables the viscous multiplier is 1 regardless of eps:
    # rhs must agree bitwise with the physical-variable run at eps = 1
    grid = SlabGrid.torus(1.0, 64)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    t_scaled, _ = rhs(fs, GAS, SolverConfig(eps=0.02, boundary="fully-periodic", scaled=True))
    t_unit, _ = rhs(fs, GAS, SolverConfig(eps=1.0, boundary="fully-periodic", scaled=False))
    assert np.array_equal(t_scaled, t_unit)


def test_domain_truncation_subdominant():
    # doubling L (same spacing) changes the reported distance by < 1e-6:
    # the pins sit in the constant states, so truncation is invisible
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    base_L = max(abs(spec.w_minus), abs(spec.w_plus)) * 1.5 + 15 * spec.delta + 0.5
    dists = {}
    for fac in (1.0, 2.0):
        L = base_L * fac
        grid = SlabGrid(L=L, n1=int(round(192 * fac)))
        pr = smooth_profile(spec, 0.0, grid.x1(), shift=False)
        u = np.zeros((3,) + grid.shape)
        u[0] = pr.u1[:, None, None]
        fs = FieldSet.from_primitives(grid, GAS, pr.rho[:, None, None], u,
                                      pr.theta[:, None, None])
        cfg = SolverConfig(eps=0.04, boundary="pinned-profile")
        ghost = profile_ghost_source(spec, grid, shift=False)
        out, _ = run(fs, GAS, cfg, horizon=0.5, ghost_source=ghost)
        dists[fac] = sup_distance(out, spec, GAS)["max"]
    assert abs(dists[1.0] - dists[2.0]) < 1e-6


def test_eps_cauchy_consistency():
    # identical smooth data: solutions for eps and eps/2 differ by an amount
    # that itself shrinks with eps
    grid = SlabGrid.torus(1.0, 96)
    _, rho, u, theta = smooth_fields(grid)

    def solve(eps):
        fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
        out, _ = run(fs, GAS, SolverConfig(eps=eps, boundary="fully-periodic"),
                     horizon=0.15)
        return out.stacked()

    sols = {eps: solve(eps) for eps in (0.2, 0.1, 0.05)}
    d1 = np.max(np.abs(sols[0.2] - sols[0.1]))
    d2 = np.max(np.abs(sols[0.1] - sols[0.05]))
    assert 0.0 < d2 < d1
