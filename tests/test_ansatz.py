import numpy as np
import pytest

from rarefan.gas import GasParams, PrimState, sound_speed
from rarefan.fields import SlabGrid, FieldSet
from rarefan.waves import WaveSpec, smooth_profile
from rarefan.solver import SolverConfig
from rarefan.ansatz import (PerturbationSpec, make_perturbation, x1_window,
                            assemble_initial, wave_conserved, build_ansatz,
                            ansatz_errors, constant_conserved, _blend_weights,
                            perturbed_constant_state, tile_deviation)
from rarefan.config import ExperimentConfig, WaveBlock, SolverBlock, ExperimentBlock, GridBlock
from rarefan import experiments

GAS = GasParams.normalized(5.0 / 3.0, 0.5)
RIGHT = PrimState(1.0, 0.0, 1.0)


def torus_grid():
    return SlabGrid.torus(0.5, 32, 16, dims=2)


# ---------------------------------------------------------------------------
# perturbation generation
# ---------------------------------------------------------------------------

def test_perturbation_zero_mean():
    v0, w0, z0 = make_perturbation(PerturbationSpec(1e-3, 3, seed=1), torus_grid())
    assert abs(v0.mean()) < 1e-14
    assert np.max(np.abs(w0.mean(axis=(1, 2, 3)))) < 1e-14
    assert abs(z0.mean()) < 1e-14


def test_perturbation_deterministic():
    ps = PerturbationSpec(1e-3, 3, seed=42)
    a = make_perturbation(ps, torus_grid())
    b = make_perturbation(ps, torus_grid())
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_perturbation_zero_eta():
    v0, w0, z0 = make_perturbation(PerturbationSpec(0.0, 3, seed=0), torus_grid())
    assert not v0.any() and not w0.any() and not z0.any()


def test_perturbation_h2_normalization():
    # Parseval on the torus: the discrete H2 proxy built from grid sums of the
    # function and its (spectral) derivatives reproduces eta
    grid = torus_grid()
    eta = 2.5e-3
    v0, w0, z0 = make_perturbation(PerturbationSpec(eta, 2, seed=9), grid)
    # independent quadrature oracle: FFT the fields and resum the H2 weights
    total = 0.0
    per = grid.period
    for f in (v0, w0[0], w0[1], w0[2], z0):
        fh = np.fft.fft2(f[:, :, 0]) / (grid.n1 * grid.n2)
        k1 = np.fft.fftfreq(grid.n1, d=1.0 / grid.n1)
        k2 = np.fft.fftfreq(grid.n2, d=1.0 / grid.n2)
        W2 = (2 * np.pi / per) ** 2 * (k1[:, None] ** 2 + k2[None, :] ** 2)
        weight = 1.0 + W2 + W2 ** 2
        total += float(np.sum(weight * np.abs(fh) ** 2)) * per ** 2
    assert np.sqrt(total) == pytest.approx(eta, rel=1e-10)


def test_perturbation_nyquist_guard():
    with pytest.raises(ValueError):
        make_perturbation(PerturbationSpec(1e-3, 8, seed=0), torus_grid())


def test_mode_filters():
    grid = torus_grid()
    v0, _, _ = make_perturbation(PerturbationSpec(1e-3, 2, seed=3), grid, modes="planar")
    assert np.max(np.abs(v0 - v0.mean(axis=(1, 2), keepdims=True))) < 1e-17
    v0t, _, _ = make_perturbation(PerturbationSpec(1e-3, 2, seed=3), grid, modes="transverse")
    assert np.max(np.abs(v0t.mean(axis=(1, 2)))) < 1e-15


# ---------------------------------------------------------------------------
# initial-data assembly
# ---------------------------------------------------------------------------

def slab_spec():
    return WaveSpec(RIGHT, GAS, nu=0.1, delta=0.2)


def slab_grid():
    return SlabGrid(L=4.0, n1=256, period=0.5, n2=8, dims=2)


def test_assemble_zero_perturbation_is_profile():
    spec, grid = slab_spec(), slab_grid()
    fs = assemble_initial(spec, PerturbationSpec(0.0, 2, 0), grid, GAS)
    pr = smooth_profile(spec, 0.0, grid.x1())
    assert np.allclose(fs.rho[:, 0, 0], pr.rho, atol=1e-14)
    assert np.allclose(fs.m[0][:, 0, 0], pr.rho * pr.u1, atol=1e-14)


def test_assemble_transverse_average_recovers_zero_mode():
    spec, grid = slab_spec(), slab_grid()
    ps = PerturbationSpec(1e-3, 2, seed=4)
    fs = assemble_initial(spec, ps, grid, GAS)
    base = wave_conserved(spec, grid, GAS, 0.0)
    v0, w0, z0 = make_perturbation(ps, grid)
    diff = fs.rho - base.rho
    assert np.allclose(diff.mean(axis=(1, 2)), v0.mean(axis=(1, 2)), atol=1e-14)


def test_assemble_positivity_bound():
    spec, grid = slab_spec(), slab_grid()
    fs = assemble_initial(spec, PerturbationSpec(1e-3, 2, seed=4), grid, GAS)
    assert float(np.min(fs.rho)) >= spec.nu - 1e-3


def test_assemble_positivity_violation_reported():
    spec, grid = slab_spec(), slab_grid()
    with pytest.raises(ValueError, match="positivity"):
        assemble_initial(spec, PerturbationSpec(5.0, 2, seed=4), grid, GAS)


def test_window_vanishes_at_ends():
    grid = slab_grid()
    w = x1_window(grid, margin=1.5, width=0.1)
    assert w[0, 0, 0] < 1e-12 and w[-1, 0, 0] < 1e-12
    assert abs(w[grid.n1 // 2, 0, 0] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------

def monotone_spec():
    # u1+ shifted so all conserved components ramp monotonically: weights in [0,1]
    return WaveSpec(PrimState(1.0, 3.0, 1.0), GAS, nu=0.05, delta=0.2)


def test_ansatz_zero_deviation_is_wave():
    spec = monotone_spec()
    grid = SlabGrid(L=10.0, n1=128)
    an = build_ansatz(spec, grid, GAS, 1.5)
    wv = wave_conserved(spec, grid, GAS, 1.5)
    assert np.array_equal(an.U, wv.U)


def test_ansatz_weight_sandwich():
    spec = monotone_spec()
    grid = SlabGrid(L=14.0, n1=512)
    W = _blend_weights(spec, GAS, wave_conserved(spec, grid, GAS, 2.0).U)
    assert W.min() > -1e-12 and W.max() < 1.0 + 1e-12
    # far right the rho weight saturates at 1
    assert W[0, -1, 0, 0] == pytest.approx(1.0, abs=1e-10)


def test_ansatz_weights_refuse_shared_momentum():
    # end states with equal m1: u1_nu = u1_plus - D with D = 2 (c_plus - c_nu)/(gamma-1),
    # so nu u1_nu = rho_plus u1_plus at u1_plus = -nu D / (rho_plus - nu)
    nu = 0.1
    left0 = WaveSpec(RIGHT, GAS, nu=nu, delta=0.2).left_state()
    D = 2.0 * (sound_speed(GAS, RIGHT.theta) - sound_speed(GAS, left0.theta)) / (GAS.gamma - 1.0)
    spec = WaveSpec(PrimState(RIGHT.rho, -nu * D / (RIGHT.rho - nu), RIGHT.theta), GAS,
                    nu=nu, delta=0.2)
    assert constant_conserved(spec.left_state(), GAS)[1] == constant_conserved(spec.right, GAS)[1]
    grid = SlabGrid(L=6.0, n1=64)
    with pytest.raises(ValueError, match="degenerate weight: component 1"):
        _blend_weights(spec, GAS, wave_conserved(spec, grid, GAS, 1.5).U)
    with pytest.raises(ValueError, match="degenerate weight: component 1"):
        build_ansatz(spec, grid, GAS, 1.5, dev_plus=np.zeros((5,) + grid.shape))


def test_ansatz_weight_limits_far_field():
    spec = monotone_spec()
    grid = SlabGrid(L=14.0, n1=512)
    dev_p = 1e-3 * np.ones((5,) + grid.shape)
    dev_m = -2e-3 * np.ones((5,) + grid.shape)
    an = build_ansatz(spec, grid, GAS, 2.0, dev_plus=dev_p, dev_minus=dev_m)
    wv = wave_conserved(spec, grid, GAS, 2.0)
    # far right: ansatz - wave -> dev_plus; far left -> dev_minus
    assert an.rho[-1, 0, 0] - wv.rho[-1, 0, 0] == pytest.approx(1e-3, abs=1e-9)
    assert an.rho[0, 0, 0] - wv.rho[0, 0, 0] == pytest.approx(-2e-3, abs=1e-9)


def test_ansatz_convexity_bound():
    # with weights in [0,1]: |ansatz - wave| <= max(|dev+|, |dev-|) cellwise
    spec = monotone_spec()
    grid = SlabGrid(L=14.0, n1=256)
    rng = np.random.default_rng(8)
    dev_p = 1e-3 * rng.standard_normal((5,) + grid.shape)
    dev_m = 1e-3 * rng.standard_normal((5,) + grid.shape)
    an = build_ansatz(spec, grid, GAS, 1.7, dev_plus=dev_p, dev_minus=dev_m)
    wv = wave_conserved(spec, grid, GAS, 1.7)
    gap = np.abs(an.U - wv.U)
    bound = np.maximum(np.abs(dev_p), np.abs(dev_m))
    assert np.all(gap <= bound + 1e-15)


def test_ansatz_positivity_guard():
    spec = monotone_spec()
    grid = SlabGrid(L=14.0, n1=64)
    dev = np.zeros((5,) + grid.shape)
    dev[0] = -spec.nu  # wipes out the density near the cut state
    with pytest.raises(ValueError):
        build_ansatz(spec, grid, GAS, 1.5, dev_plus=dev, dev_minus=dev)


def test_ansatz_errors_zero_perturbation_structure():
    # at zero perturbation the errors reduce to the wave's viscous defects:
    # e0 ~ 0, e2 = e3 = 0, e1 = -eps d1[(2mu1+lam1) th^a d1u1],
    # e4 = -eps d1[kappa th^a d1 th + u1 (2mu1+lam1) th^a d1u1]
    spec = monotone_spec()
    eps = 0.05
    grid = SlabGrid(L=16.0, n1=2048)
    dt = 1e-3
    snaps = [build_ansatz(spec, grid, GAS, 1.5 + k * dt) for k in (-1, 0, 1)]
    e0, evec, e4 = ansatz_errors(*snaps, GAS, eps)
    pr = smooth_profile(spec, 1.5, grid.x1())
    x = grid.x1()
    f1 = (2 * GAS.mu1 + GAS.lambda1) * pr.theta ** GAS.alpha * pr.du1
    t1 = -eps * np.gradient(f1, x, edge_order=2)
    f4 = GAS.kappa1 * pr.theta ** GAS.alpha * pr.dtheta + pr.u1 * f1
    t4 = -eps * np.gradient(f4, x, edge_order=2)
    scale1 = np.max(np.abs(t1))
    scale4 = np.max(np.abs(t4))
    assert np.max(np.abs(e0)) < 1e-2 * scale1
    assert np.max(np.abs(evec[1])) == 0.0 and np.max(np.abs(evec[2])) == 0.0
    assert np.max(np.abs(evec[0][:, 0, 0] - t1)) < 2e-2 * scale1
    assert np.max(np.abs(e4[:, 0, 0] - t4)) < 2e-2 * scale4


def test_ansatz_errors_vanish_in_constant_region():
    spec = monotone_spec()
    grid = SlabGrid(L=16.0, n1=512)
    dt = 1e-3
    snaps = [build_ansatz(spec, grid, GAS, 1.5 + k * dt) for k in (-1, 0, 1)]
    e0, evec, e4 = ansatz_errors(*snaps, GAS, 0.05)
    x = grid.x1()
    const = x > 0.8 * grid.L  # right constant state, away from the fan
    for arr in (e0, evec[0], e4):
        assert np.max(np.abs(arr[const])) < 1e-12


# ---------------------------------------------------------------------------
# periodic background
# ---------------------------------------------------------------------------

def background_row(state: PrimState, eta: float, grid: SlabGrid, horizon: float,
                   seed: int = 0) -> dict:
    """The background study's row of one torus run: state plus the mode_cap 2
    perturbation of amplitude eta, eps = 0.2."""
    cfg = ExperimentConfig(gas=GAS, wave=WaveBlock(rho_plus=state.rho, u1_plus=state.u1,
                                                   theta_plus=state.theta),
                           grid=GridBlock(), solver=SolverBlock(eps=0.2),
                           experiment=ExperimentBlock(kind="background", horizon=horizon,
                                                      mode_cap=2, seed=seed))
    return experiments._background_row(cfg, grid, cfg.solver.solver_config(), eta)


def test_background_zero_perturbation_is_exact(monkeypatch):
    # the row keeps the first and last sup; a spy on the run reads them all
    records, real_run = [], experiments.run

    def spy(*args, **kwargs):
        final, recs = real_run(*args, **kwargs)
        records.extend(recs)
        return final, recs
    monkeypatch.setattr(experiments, "run", spy)
    row = background_row(RIGHT, 0.0, SlabGrid.torus(0.5, 16, 8, dims=2), horizon=0.05)
    assert len(records) == 41
    assert max(r["bg.sup"] for r in records) < 1e-14
    assert row["mean_drift"] < 1e-14


def test_background_initial_deviation_exactly_zero():
    # the constant state and its field share one primitive-to-conserved map,
    # so an unperturbed start deviates by exactly nothing; this u1 is one where
    # u1 ** 2 and u1 * u1 differ in the last bit
    row = background_row(PrimState(1.0, -1.4394943995478604, 1.0), 0.0,
                         SlabGrid.torus(0.5, 16, 8, dims=2), horizon=0.05)
    assert row["amp0"] == 0.0


def test_background_decay_and_mean_conservation():
    row = background_row(PrimState(1.0, 0.2, 1.0), 5e-3, SlabGrid.torus(0.5, 24, 24, dims=2),
                         horizon=0.35, seed=2)
    assert row["mean_drift"] < 1e-10
    assert row["rate"] < 0.0
    assert row["r2"] >= 0.95
    assert row["amp_final"] < 0.3 * row["amp0"]


def test_tile_deviation_exact_map():
    tg = SlabGrid.torus(0.5, 8, 4, dims=2)
    base = constant_conserved(RIGHT, GAS)
    rng = np.random.default_rng(1)
    fs = FieldSet(tg, base[:, None, None, None] + 1e-3 * rng.standard_normal((5,) + tg.shape))
    slab = SlabGrid(L=2.0, n1=64, period=0.5, n2=4, dims=2)  # dx1 matches 0.0625
    dev = tile_deviation(fs, base, slab)
    # periodicity: columns one full period apart are identical
    per_cells = round(tg.period / tg.dx1)
    assert np.array_equal(dev[:, :per_cells, :, :], dev[:, per_cells:2 * per_cells, :, :])


def test_ansatz_error_terms_decay():
    # Lemma-2.4-style behavior: the eta-dependent parts of the error terms
    # (measured against their zero-perturbation baselines) decay in time
    from rarefan.solver import run

    spec = monotone_spec()
    period, nt = 0.5, 12
    torus = SlabGrid.torus(period, nt, nt, dims=2)
    L = 5.0
    slab = SlabGrid(L=L, n1=int(round(2 * L / (period / nt))), period=period,
                    n2=nt, dims=2)
    scfg = SolverConfig(eps=0.1)
    ps = PerturbationSpec(1e-3, 2, seed=6)
    eps = 0.1
    dt_fd = 2e-3
    ladder = [0.05, 0.2, 0.35]
    times = sorted({round(t + k * dt_fd, 9) for t in ladder for k in (-1, 0, 1)})

    snaps = {}
    for tag, state in (("plus", spec.right), ("minus", spec.left_state())):
        base = constant_conserved(state, GAS)
        fs = perturbed_constant_state(state, ps, torus, GAS)
        held, t_now = {}, 0.0
        for t in times:
            fs, _ = run(fs, GAS, scfg, horizon=t - t_now)
            t_now = t
            held[t] = fs.copy()
        snaps[tag] = (base, held)

    sups = {"e0": [], "e23": []}
    for t in ladder:
        trip, base_trip = [], []
        for k in (-1, 0, 1):
            tk = round(t + k * dt_fd, 9)
            dev_p = tile_deviation(snaps["plus"][1][tk], snaps["plus"][0], slab)
            dev_m = tile_deviation(snaps["minus"][1][tk], snaps["minus"][0], slab)
            trip.append(build_ansatz(spec, slab, GAS, 1.0 + tk, dev_plus=dev_p, dev_minus=dev_m))
            base_trip.append(build_ansatz(spec, slab, GAS, 1.0 + tk))
        e0, evec, e4 = ansatz_errors(*trip, GAS, eps)
        b0, bvec, b4 = ansatz_errors(*base_trip, GAS, eps)
        sups["e0"].append(float(np.max(np.abs(e0 - b0))))
        sups["e23"].append(float(max(np.max(np.abs(evec[1] - bvec[1])),
                                     np.max(np.abs(evec[2] - bvec[2])))))
    for key, vals in sups.items():
        assert vals[0] > vals[-1] > 0.0, (key, vals)
        assert vals[-1] < 0.3 * vals[0], (key, vals)
