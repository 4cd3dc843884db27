import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rarefan.gas import GasParams, PrimState, entropy
from rarefan.fields import SlabGrid, FieldSet, conserved
from rarefan.waves import WaveSpec, smooth_profile
from rarefan import solver
from rarefan.solver import (SolverConfig, RunAbort, rhs, step, run, stable_dt,
                            profile_ghost_source)
from rarefan.analysis import sup_distance
from rarefan.ansatz import PerturbationSpec, assemble_initial, x1_window

GAS = GasParams.normalized(5.0 / 3.0, 0.5)
K = 2.0 * np.pi


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
        tend, bflux = rhs(fs, GAS, SolverConfig(eps=0.1))
        assert np.max(np.abs(tend)) == 0.0
        assert np.max(np.abs(bflux)) == 0.0


def test_eps_zero_matches_euler_tendency():
    grid = SlabGrid.torus(1.0, 64)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    t_euler, _ = rhs(fs, GAS, SolverConfig(eps=0.0))
    # physical variables with eps = 0: the viscous branch must be bypassed,
    # leaving bitwise the inviscid tendency
    t_again, _ = rhs(fs, GAS, SolverConfig(eps=0.0))
    assert np.array_equal(t_euler, t_again)
    t_visc, _ = rhs(fs, GAS, SolverConfig(eps=0.05))
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
        tv, _ = rhs(fs, GAS, SolverConfig(eps=eps))
        t0, _ = rhs(fs, GAS, SolverConfig(eps=0.0))
        visc = tv - t0
        m1, m2, en = _exact_viscous(GAS, eps, x, u, theta)
        errs.append(np.sqrt(np.mean((visc[1] - m1) ** 2 + (visc[2] - m2) ** 2
                                    + (visc[4] - en) ** 2)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.7)


def _spectral_d(f, grid, ax):
    """d f / d x_ax of a periodic grid field by FFT; zero on a one-cell axis
    and in the Nyquist mode of an even axis."""
    n = f.shape[ax]
    if n == 1:
        return np.zeros_like(f)
    k = 2j * np.pi * np.fft.fftfreq(n, d=grid.spacing[ax])
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1, 1, 1]
    shape[ax] = n
    return np.fft.ifft(k.reshape(shape) * np.fft.fft(f, axis=ax), axis=ax).real


def _spectral_viscous(g, eps, grid, u, theta):
    """eps (div tau, div (tau u + kappa grad theta)) on a torus grid, every
    derivative spectral: tau = mu (grad u + grad u^T) + lambda div u I with
    mu, lambda, kappa = (mu1, lambda1, kappa1) theta^alpha."""
    pw = theta ** g.alpha
    du = [[_spectral_d(u[c], grid, b) for b in range(3)] for c in range(3)]  # du[c][b]
    divu = du[0][0] + du[1][1] + du[2][2]
    tau = [[g.mu1 * pw * (du[c][a] + du[a][c]) + (g.lambda1 * pw * divu if a == c else 0.0)
            for a in range(3)] for c in range(3)]                      # tau[c][a]
    out = np.zeros((4,) + grid.shape)
    for a in range(3):
        for c in range(3):
            out[c] += _spectral_d(tau[c][a], grid, a)
        work = sum(u[c] * tau[c][a] for c in range(3))
        out[3] += _spectral_d(work + g.kappa1 * pw * _spectral_d(theta, grid, a), grid, a)
    return eps * out


@pytest.mark.parametrize("dims, sizes", [(2, (32, 64, 128)), (3, (8, 16, 32))], ids=["2d", "3d"])
def test_manufactured_viscous_order_multid(dims, sizes):
    # the viscous part rhs(eps) - rhs(0) against a spectral reference on tori
    # whose fields vary along every active axis, so the cross derivatives,
    # lambda div u and the theta^alpha weights along x2 and x3 are all in it;
    # criterion 07's bound on the observed order
    g = GasParams.normalized(5.0 / 3.0, 0.5, mu1=1.0, lambda1=0.5, kappa1=2.0)
    eps = 0.3
    errs = []
    for n in sizes:
        grid = SlabGrid.torus(1.0, n, n, n if dims == 3 else 1, dims=dims)
        x1, x2, x3 = grid.meshgrid()
        rho = 2.0 + 0.3 * np.sin(K * (x1 + x2) + 0.2) * np.cos(K * x3)
        u = np.stack([0.2 + 0.1 * np.cos(K * x1) * np.sin(K * (x2 + x3)),
                      0.05 * np.sin(K * (x1 - x2)) + 0.03 * np.cos(K * x3),
                      0.04 * np.cos(K * (x1 + x3) + 0.4) * np.sin(K * x2)])
        theta = 1.0 + 0.2 * np.sin(K * x1 + 0.7) * np.cos(K * (x2 - x3))
        fs = FieldSet.from_primitives(grid, g, rho, u, theta)
        visc = rhs(fs, g, SolverConfig(eps=eps))[0] - rhs(fs, g, SolverConfig(eps=0.0))[0]
        ref = _spectral_viscous(g, eps, grid, u, theta)
        errs.append(np.sqrt(np.mean((visc[1:] - ref) ** 2)))
    solver._workspace.cache_clear()
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.7), orders


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
        t0, _ = rhs(fs, GAS, SolverConfig(eps=0.0))
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
    # the x1 faces; filled consistently, a roll along x2 commutes with rhs,
    # with the x1 ghosts pinned to the profile and with x1 wrapping (None)
    grid = SlabGrid(L=2.0, n1=12, n2=8, dims=2)
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    fs = _transverse_state(grid, 11)
    rolled = FieldSet(grid, np.roll(fs.U, 3, axis=2))
    cfg = SolverConfig(eps=0.05)
    for ghost in (profile_ghost_source(spec, grid), None):
        tend, _ = rhs(fs, GAS, cfg, ghost, t=0.0)
        tend_rolled, _ = rhs(rolled, GAS, cfg, ghost, t=0.0)
        assert np.array_equal(tend_rolled, np.roll(tend, 3, axis=2))


def _background_state(grid):
    """The background study's torus state (configs/background.ini: constant
    (1, 0.2, 1), mode_cap 3, seed 11) at eta = 0.5."""
    from rarefan.ansatz import perturbed_constant_state
    return perturbed_constant_state(PrimState(1.0, 0.2, 1.0),
                                    PerturbationSpec(eta=0.5, mode_cap=3, seed=11), grid, GAS)


def _steps(fs, cfg, n=50):
    for _ in range(n):
        fs, _ = step(fs, GAS, cfg)
    return fs


def _mirror_x2(U):
    """x2 -> -x2 with u2 -> -u2: cell j of n2 to cell n2 - 1 - j, m2 negated."""
    out = U[:, :, ::-1].copy()
    out[2] *= -1.0
    return out


def _swap_x2_x3(U):
    """x2 <-> x3 with (u2, u3) swapped."""
    return U[[0, 1, 3, 2, 4]].transpose(0, 1, 3, 2).copy()


TORI = [SlabGrid.torus(1.0, 32, 32, dims=2), SlabGrid.torus(1.0, 16, 16, 16, dims=3)]


@pytest.mark.parametrize("grid", TORI, ids=["32x32", "16x16x16"])
def test_step_commutes_with_x2_mirror(grid):
    # every x2 pass sees the mirrored faces in mirrored order and every
    # formula is odd or even in u2, so 50 steps commute with the mirror to the bit
    cfg = SolverConfig(eps=0.2)
    fs = _background_state(grid)
    ran, mirrored = _steps(fs, cfg), _steps(FieldSet(grid, _mirror_x2(fs.U)), cfg)
    assert mirrored.time == ran.time
    assert _same_bytes([mirrored.U], [_mirror_x2(ran.U)])


def test_step_commutes_with_x2_x3_swap():
    # the x2 and x3 passes run in a fixed order, so the swap holds to round-off
    grid = TORI[1]
    cfg = SolverConfig(eps=0.2)
    fs = _background_state(grid)
    ran, swapped = _steps(fs, cfg), _steps(FieldSet(grid, _swap_x2_x3(fs.U)), cfg)
    assert swapped.time == ran.time
    expected = _swap_x2_x3(ran.U)
    assert np.max(np.abs(swapped.U - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("grid", TORI, ids=["32x32", "16x16x16"])
def test_step_does_not_lower_total_entropy(grid):
    # the Rusanov flux is entropy-stable for Euler and viscosity and heat
    # conduction produce entropy, so on the torus no step may lower the total
    # entropy int rho S by more than round-off: 1e-13 of int rho (1 + |S|),
    # a bound fixed before the first run
    cfg = SolverConfig(eps=0.2)
    fs = _background_state(grid)

    def totals(fs):
        rho_s = fs.rho * entropy(GAS, fs.rho, fs.primitives(GAS)[4])
        vol = grid.cell_volume
        return np.sum(rho_s) * vol, np.sum(fs.rho + np.abs(rho_s)) * vol

    before, scale = totals(fs)
    for _ in range(50):
        fs, _ = step(fs, GAS, cfg)
        after, scale = totals(fs)
        assert after - before >= -1e-13 * scale
        before = after


def test_x3_constant_state_matches_2d_rhs():
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    grid2 = SlabGrid(L=2.0, n1=12, n2=6, dims=2)
    grid3 = SlabGrid(L=2.0, n1=12, n2=6, n3=4, dims=3)
    fs2 = _transverse_state(grid2, 12)
    fs3 = FieldSet(grid3, np.repeat(fs2.U, 4, axis=3))
    cfg = SolverConfig(eps=0.05)
    # x1 ghosts pinned to the profile, then x1 wrapping
    for ghost2, ghost3 in ((profile_ghost_source(spec, grid2), profile_ghost_source(spec, grid3)),
                           (None, None)):
        t2, _ = rhs(fs2, GAS, cfg, ghost2, t=0.0)
        t3, _ = rhs(fs3, GAS, cfg, ghost3, t=0.0)
        assert np.max(np.abs(t3 - t2)) <= 1e-14 * np.max(np.abs(t2))


def test_step_dt_is_stable_dt():
    grid = SlabGrid.torus(1.0, 32, 4, dims=2)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    cfg = SolverConfig(eps=0.05)
    _, diag = step(fs, GAS, cfg)
    assert diag.dt == stable_dt(fs, GAS, cfg)[0]


def test_step_reaches_stable_dt_through_the_module(monkeypatch):
    # a wrapper bound in the module's globals, as a tracer binds one, sees
    # the one stable_dt call of every step, on the state being stepped
    grid = SlabGrid.torus(1.0, 32, 4, dims=2)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    cfg = SolverConfig(eps=0.05)
    seen, real = [], solver.stable_dt

    def counted(state, *args):
        seen.append(state)
        return real(state, *args)
    monkeypatch.setattr(solver, "stable_dt", counted)
    for n in range(1, 4):
        nxt, _ = step(fs, GAS, cfg)
        assert len(seen) == n and seen[-1] is fs
        fs = nxt


def _counted_dt_kernel(monkeypatch, shape):
    """The list of rk_dt calls of shape's work area, one entry per call."""
    ws = solver._workspace(shape)
    calls, real = [], ws.dt_kernel

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(ws, "dt_kernel", counted)
    return calls


def _step_record(fs, diag):
    return (fs.U.tobytes(), fs.time, diag.dt, diag.max_speed, diag.min_rho, diag.min_theta,
            diag.boundary_flux.tobytes())


@pytest.mark.parametrize("alpha, eps", [(0.5, 0.05), (0.7, 0.05), (0.5, 0.0)],
                         ids=["sqrt", "pow", "inviscid"])
def test_steps_take_their_limits_from_the_last_stage(monkeypatch, alpha, eps):
    # a step's last stage reduces its result's stable_dt limits, so the steps
    # of a run call rk_dt once, on the first state, where steps each from a
    # fresh copy of a state call it once a step; the states, dts and
    # diagnostics are bitwise the fresh copies', without viscosity, with
    # sqrt and with pow.  78 cells: 4 blocks of 16 lanes and 14 left over
    n_steps = 5
    grid = SlabGrid(L=2.0, n1=13, n2=6, dims=2)
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    g, cfg = GasParams.normalized(5.0 / 3.0, alpha), SolverConfig(eps=eps)
    ghost = profile_ghost_source(spec, grid)
    calls = _counted_dt_kernel(monkeypatch, grid.shape)
    states, records = [_transverse_state(grid, 4)], []
    for _ in range(n_steps):
        fs, diag = step(states[-1], g, cfg, ghost)
        states.append(fs)
        records.append(_step_record(fs, diag))
    assert len(calls) == 1
    for before, want in zip(states, records):
        fresh = FieldSet(grid, before.U.copy(), before.time)
        assert _step_record(*step(fresh, g, cfg, ghost)) == want
    assert len(calls) == 1 + n_steps


def test_stable_dt_between_steps_under_another_config():
    # perfbench's dt probe calls stable_dt with eps = 0 between two steps,
    # and a caller may pass another gas: each rebinds the work area, so the
    # call reduces its state afresh and gives the reference's dt, on the
    # step's input and on its result, whose limits the last stage left
    # under the run's constants; the next step rebinds again and stays
    # bitwise a fresh copy's
    grid = SlabGrid(L=2.0, n1=12, n2=6, dims=2)
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    ghost = profile_ghost_source(spec, grid)
    cfg = SolverConfig(eps=0.5)
    heat_bound = GasParams(gamma=1.4, R=0.287, alpha=0.7, lambda1=0.0, kappa1=10.0)
    for probe_g, probe_cfg in ((GAS, dataclasses.replace(cfg, eps=0.0, scaled=False)),
                               (heat_bound, cfg)):
        for probed in ("input", "result"):
            fs0 = _transverse_state(grid, 6)
            fs1, _ = step(fs0, GAS, cfg, ghost)
            state = fs1 if probed == "result" else fs0
            assert stable_dt(state, probe_g, probe_cfg) == \
                _ref_stable_dt(state, probe_cfg, probe_g), (probe_g, probed)
            want = _step_record(*step(FieldSet(grid, fs1.U.copy(), fs1.time), GAS, cfg, ghost))
            assert _step_record(*step(fs1, GAS, cfg, ghost)) == want, (probe_g, probed)
            assert stable_dt(fs1, GAS, cfg) == _ref_stable_dt(fs1, cfg)


def test_step_result_is_read_only():
    # the next step reads its state's limits from the last stage that made
    # it, so the state a step returns refuses in-place edits
    grid = SlabGrid.torus(1.0, 12, 6, dims=2)
    fs, _ = step(_transverse_state(grid, 2), GAS, SolverConfig(eps=0.05))
    with pytest.raises(ValueError, match="read-only"):
        fs.U[4, 0, 0, 0] = -1.0
    with pytest.raises(ValueError, match="read-only"):
        fs.rho[...] *= 2.0


def test_rhs_unaffected_by_caller_mutation():
    grid = SlabGrid.torus(1.0, 32, 4, dims=2)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    cfg = SolverConfig(eps=0.05)
    tend0, bflux0 = rhs(fs, GAS, cfg)
    prim = fs.primitives(GAS)
    prim[1] -= 1.0
    prim[4] = -1.0
    tend1, bflux1 = rhs(fs, GAS, cfg)
    assert np.array_equal(tend0, tend1) and np.array_equal(bflux0, bflux1)
    assert not np.shares_memory(tend0, tend1)
    assert not np.shares_memory(bflux0, bflux1)


def _workspace_cases():
    """(fs, cfg, ghost) on 1-D, 2-D and 3-D pinned and torus grids, eps 0 and > 0.

    The 2-D pinned and torus grids have one shape, so they share work arrays.
    The flat ring is tried where its strides are least regular: n2 != n3, an
    inactive x2 between active x1 and x3, and a two-cell transverse axis.
    """
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    layouts = ((SlabGrid(L=2.0, n1=16), True),
               (SlabGrid(L=2.0, n1=12, n2=6, dims=2), True),
               (SlabGrid.torus(1.0, 12, 6, dims=2), False),
               (SlabGrid.torus(1.0, 8, 4, 6, dims=3), False),
               (SlabGrid(L=2.0, n1=10, n2=4, n3=6, dims=3), True),
               (SlabGrid(L=2.0, n1=10, n2=1, n3=5, dims=3), True),
               (SlabGrid.torus(1.0, 6, 1, 4, dims=3), False),
               (SlabGrid(L=2.0, n1=10, n2=2, dims=2), True))
    cases = []
    for eps in (0.0, 0.05):
        for grid, pinned in layouts:
            ghost = profile_ghost_source(spec, grid) if pinned else None
            cases.append((_transverse_state(grid, len(cases)), SolverConfig(eps=eps), ghost))
    return cases


def _rhs_then_step(fs, cfg, ghost, g=GAS):
    tend, bflux = rhs(fs, g, cfg, ghost, t=fs.time)
    out, diag = step(fs, g, cfg, ghost)
    return [tend, bflux, out.U, diag.boundary_flux]


def _same_bytes(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))


def test_workspace_reuse_is_bitwise_neutral():
    # rhs and step reuse one set of work arrays per grid shape: any interleaving
    # of layouts and viscosities must give bitwise the results of a first call
    # under errstate raise: no entry that rhs computes and never reads may
    # overflow or turn into NaN
    cases = _workspace_cases()
    first = []
    with np.errstate(all="raise"):
        for case in cases:
            solver._workspace.cache_clear()
            first.append(_rhs_then_step(*case))
        order = list(range(len(cases))) * 2
        np.random.default_rng(3).shuffle(order)
        for i in order:
            assert _same_bytes(_rhs_then_step(*cases[i]), first[i]), i


def test_rhs_result_survives_next_rhs():
    grid = SlabGrid.torus(1.0, 12, 6, dims=2)
    cfg = SolverConfig(eps=0.05)
    tend, bflux = rhs(_transverse_state(grid, 1), GAS, cfg)
    kept = [tend.copy(), bflux.copy()]
    again = rhs(_transverse_state(grid, 2), GAS, cfg)
    assert _same_bytes([tend, bflux], kept)
    assert not _same_bytes(again, kept)


def test_rhs_refuses_an_out_it_cannot_write():
    # the kernel writes the tendency through out's address, so out must be
    # a C-contiguous float array of the tendency's shape
    grid = SlabGrid.torus(1.0, 12, 6, dims=2)
    fs, cfg = _transverse_state(grid, 1), SolverConfig(eps=0.05)
    shape = (5,) + grid.shape
    for out in (np.empty(shape, order="F"), np.empty((5, 12, 7, 1))[:, :, :6],
                np.empty(shape, dtype=np.float32), np.empty((5, 12, 3, 1))):
        with pytest.raises(ValueError, match="C-contiguous"):
            rhs(fs, GAS, cfg, out=out)
    tend, _ = rhs(fs, GAS, cfg, out=np.empty(shape))
    assert _same_bytes([tend], [rhs(fs, GAS, cfg)[0]])


def test_rhs_reads_any_layout_of_U():
    # the kernel reads U through its address, so a Fortran-ordered or strided
    # stack must reach it as a C-contiguous copy with the same results
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    cfg = SolverConfig(eps=0.05)
    for grid, pinned in ((SlabGrid(L=2.0, n1=12, n2=6, dims=2), True),
                         (SlabGrid.torus(1.0, 8, 4, 6, dims=3), False)):
        fs = _transverse_state(grid, 6)
        ghost = profile_ghost_source(spec, grid) if pinned else None
        want = rhs(fs, GAS, cfg, ghost, t=0.0)
        wide = np.zeros(fs.U.shape[:-1] + (2 * grid.n3,))
        wide[..., ::2] = fs.U
        for U in (np.asfortranarray(fs.U), wide[..., ::2]):
            assert not U.flags.c_contiguous
            assert _same_bytes(rhs(FieldSet(grid, U), GAS, cfg, ghost, t=0.0), want)


@pytest.mark.parametrize("bad", ["rho", "theta", "ghost_theta"])
def test_rhs_abort_leaves_the_work_area_clean(bad):
    # rhs refuses an interior rho <= 0 before the kernel fills the ring, and
    # a ring theta <= 0, from the interior or from a pinned ghost column,
    # after it; the next rhs and step on the work area must give bitwise a
    # fresh work area's results
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    grid = SlabGrid(L=2.0, n1=12, n2=6, dims=2)
    fs, cfg = _transverse_state(grid, 3), SolverConfig(eps=0.05)
    ghost = profile_ghost_source(spec, grid)
    solver._workspace.cache_clear()
    fresh = _rhs_then_step(fs, cfg, ghost)
    U, bad_ghost = fs.U.copy(), ghost
    if bad == "rho":
        U[0, 5, 2] = 0.0
    elif bad == "theta":
        U[4, 5, 2] = 0.0
    else:
        columns = ghost(0.0).copy()
        columns[4, 0] = 0.0
        bad_ghost = lambda t: columns
    with pytest.raises(RunAbort, match="nonpositive density" if bad == "rho"
                       else "nonpositive temperature"):
        rhs(FieldSet(grid, U), GAS, cfg, bad_ghost, t=0.0)
    assert _same_bytes(_rhs_then_step(fs, cfg, ghost), fresh)
    solver._workspace.cache_clear()


# The allocating kernel from before the work area: every index, view and
# temporary is made afresh on each call, each formula written as one plain
# expression.  primitives, stable_dt, rhs and step must reproduce it to the bit.

def _ref_face_index(ax, active):
    lo = [slice(1, -1) if sp in active else slice(None) for sp in range(3)]
    hi = list(lo)
    lo[ax] = slice(0, -1)
    hi[ax] = slice(1, None)
    return (Ellipsis, *lo), (Ellipsis, *hi)


def _ref_primitives(fs, g=GAS):
    prim = np.empty_like(fs.U)
    prim[0] = fs.rho
    u = prim[1:4]
    np.divide(fs.m, fs.rho, out=u)
    prim[4] = (g.gamma - 1.0) / g.R * (fs.E / fs.rho - 0.5 * np.sum(u * u, axis=0))
    return prim


def _ref_ringed_state(fs, ghost_source, t, active, g=GAS):
    ring = [1 if ax in active else 0 for ax in range(3)]
    shape = fs.grid.shape
    state = np.empty((10,) + tuple(n + 2 * r for n, r in zip(shape, ring)))
    inner = tuple(slice(r, n + r) for n, r in zip(shape, ring))
    state[(slice(0, 5),) + inner] = _ref_primitives(fs, g)
    state[(slice(5, 10),) + inner] = fs.U
    for ax in (active if ghost_source is None else active[1:]):
        planes = np.moveaxis(state, 1 + ax, 0)
        planes[0], planes[-1] = planes[-2], planes[1]
    if ghost_source is not None:
        ghosts = ghost_source(t)
        state[:, 0] = ghosts[:, 0, None, None]
        state[:, -1] = ghosts[:, 1, None, None]
    return state


def _ref_euler_flux(U, un, p, ax):
    f = np.empty_like(U)
    f[0] = U[1 + ax]
    np.multiply(U[1:4], un, out=f[1:4])
    f[1 + ax] += p
    f[4] = (U[4] + p) * un
    return f


def _ref_face_cross_diff(uP, ax, bx, dxb, padded):
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


def _ref_rhs(fs, cfg, ghost_source, t, g=GAS):
    grid = fs.grid
    active = [0] + [ax for ax, n in ((1, grid.n2), (2, grid.n3)) if n > 1]
    state = _ref_ringed_state(fs, ghost_source, t, active, g)
    rhoP, uP, thP, UP = state[0], state[1:4], state[4], state[5:]
    pP = g.R * rhoP * thP
    cP = np.sqrt(g.gamma * g.R * thP)
    visc = cfg.visc_mult
    spacing = grid.spacing
    tend = np.zeros((5,) + grid.shape)
    bflux = np.zeros(5)
    for ax in active:
        dx = spacing[ax]
        L, R = _ref_face_index(ax, active)
        FP = _ref_euler_flux(UP, uP[ax], pP, ax)
        aP = np.abs(uP[ax]) + cP
        s = np.maximum(aP[L], aP[R])
        F = 0.5 * (FP[L] + FP[R]) - 0.5 * s * (UP[R] - UP[L])
        if visc > 0.0:
            thL, thR = thP[L], thP[R]
            uLall, uRall = uP[L], uP[R]
            thF = 0.5 * (thL + thR)
            # the kernel's rule: sqrt at alpha = 0.5, libm's pow otherwise
            pw = np.sqrt(thF) if g.alpha == 0.5 else \
                np.vectorize(lambda x: math.pow(x, g.alpha))(thF)
            muF, lamF, kapF = g.mu1 * pw, g.lambda1 * pw, g.kappa1 * pw
            uF = 0.5 * (uLall + uRall)
            dn_u = (uRall - uLall) / dx
            cross = {bx: _ref_face_cross_diff(uP, ax, bx, spacing[bx], active)
                     for bx in active if bx != ax}
            divu = dn_u[ax]
            dc_uax = np.zeros_like(dn_u)
            dc_uax[ax] = dn_u[ax]
            for bx, cd in cross.items():
                divu = divu + cd[bx]
                dc_uax[bx] = cd[ax]
            tau = muF * (dn_u + dc_uax)
            tau[ax] += lamF * divu
            dthdn = (thR - thL) / dx
            F[1:4] -= visc * tau
            F[4] -= visc * (np.sum(uF * tau, axis=0) + kapF * dthdn)
        tend -= np.diff(F, axis=1 + ax) / dx
        if ax == 0:
            face_area = grid.cell_volume / dx
            # each end plane summed in order over its transverse cells
            bflux += (np.cumsum(F[:, 0].reshape(5, -1), axis=1)[:, -1]
                      - np.cumsum(F[:, -1].reshape(5, -1), axis=1)[:, -1]) * face_area
    return tend, bflux


def _ref_stable_dt(fs, cfg, g=GAS):
    grid = fs.grid
    prim = _ref_primitives(fs, g)
    u, theta = prim[1:4], prim[4]
    c = np.sqrt(g.gamma * g.R * np.maximum(theta, 0.0))
    active = [0] + [ax for ax, n in ((1, grid.n2), (2, grid.n3)) if n > 1]
    spacing = grid.spacing
    max_speed, dt_conv, dt_visc = 0.0, np.inf, np.inf
    for ax in active:
        sp = float(np.max(np.abs(u[ax]) + c))
        max_speed = max(max_speed, sp)
        if sp > 0.0:
            dt_conv = min(dt_conv, 0.4 * spacing[ax] / sp)
    if cfg.visc_mult > 0.0:
        inv_h2 = sum(spacing[ax] ** -2 for ax in active)
        f = min(spacing[ax] for ax in active) ** -2 / inv_h2
        d, c = len(active), g.mu1 + g.lambda1
        longitudinal = max(1.0, d * c / (2.0 * c + d * g.mu1)) * (
            (2.0 * g.mu1 + g.lambda1) * f + g.mu1 * (1.0 - f))
        # the kernel's rule: sqrt at alpha = 0.5, libm's pow otherwise
        pw = theta ** g.alpha if g.alpha == 0.5 else \
            np.vectorize(lambda x: math.pow(x, g.alpha))(theta)
        diff = cfg.visc_mult * np.maximum(
            longitudinal * pw, g.kappa1 * pw * (g.gamma - 1.0) / g.R) / fs.rho
        dmax = float(np.max(diff))
        if dmax > 0.0:
            dt_visc = solver._VISC_FRACTION * solver._RK3_REAL_LIMIT / (4.0 * dmax * inv_h2)
    return min(dt_conv, dt_visc), max_speed


def _ref_step(fs, cfg, ghost_source, g=GAS):
    dt = _ref_stable_dt(fs, cfg, g)[0]
    t0, U0 = fs.time, fs.U
    k1, b1 = _ref_rhs(fs, cfg, ghost_source, t0, g)
    U1 = U0 + dt * k1
    k2, b2 = _ref_rhs(FieldSet(fs.grid, U1, t0 + dt), cfg, ghost_source, t0 + dt, g)
    U2 = 0.75 * U0 + 0.25 * (U1 + dt * k2)
    k3, b3 = _ref_rhs(FieldSet(fs.grid, U2, t0 + 0.5 * dt), cfg, ghost_source, t0 + 0.5 * dt, g)
    U3 = (U0 + 2.0 * (U2 + dt * k3)) / 3.0
    bflux = np.zeros(5)
    for w, b in zip((1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0), (b1, b2, b3)):
        bflux += w * dt * b
    return U3, bflux


def _planar_line_cases():
    """The eps-sweep's layout: a 1-D line whose u2 = u3 = 0 exactly, and whose
    u1 changes sign, so signed zeros meet in the flux differences; its x1
    ghosts pinned to the profile, or x1 wrapping (None)."""
    grid = SlabGrid(L=2.0, n1=16)
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    x = grid.x1()[:, None, None]
    u = np.zeros((3,) + grid.shape)
    u[0] = 0.3 * np.sin(x)
    fs = FieldSet.from_primitives(grid, GAS, 1.0 + 0.2 * np.tanh(x), u, 1.0 + 0.1 * np.cos(x))
    return [(fs, SolverConfig(eps=eps), ghost)
            for eps in (0.0, 0.05) for ghost in (profile_ghost_source(spec, grid), None)]


def _near_planar_line_cases():
    """Lines a bit or a ghost away from the kernel's longitudinal kind, which
    must take its general rows: _planar_line_cases' state with one m2 entry
    of -0.0, and with one m3 entry of 5e-324, the smallest subnormal; and
    that state between pinned ghosts whose u2 is not 0."""
    fs = _planar_line_cases()[0][0]
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    profile = profile_ghost_source(spec, fs.grid)

    def swirl(t):
        cols = profile(t).copy()
        cols[2] = (0.05, -0.05)
        cols[5:] = conserved(GAS, cols[0], cols[1:4], cols[4])
        return cols
    cases = []
    for row, col, value in ((2, 5, -0.0), (3, 9, 5e-324)):
        U = fs.U.copy()
        U[row, col] = value
        cases += [(FieldSet(fs.grid, U), SolverConfig(eps=0.05), ghost)
                  for ghost in (profile, None)]
    return cases + [(fs, SolverConfig(eps=eps), swirl) for eps in (0.0, 0.05)]


def _cellwise_random_cases():
    """Every field varies from cell to cell, so a reordered sum changes some bit.

    The 3 x 100 x 100 slab's x1 boundary planes hold 10,000 cells each, so
    its boundary flux pins the in-order sum over a long end plane.
    """
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    rng = np.random.default_rng(7)
    cases = []
    for grid, pinned in ((SlabGrid(L=2.0, n1=12, n2=6, dims=2), True),
                         (SlabGrid.torus(1.0, 8, 4, 6, dims=3), False),
                         (SlabGrid(L=2.0, n1=3, n2=100, n3=100, dims=3), True)):
        shp = grid.shape
        fs = FieldSet.from_primitives(grid, GAS, 1.0 + 0.2 * rng.random(shp),
                                      0.3 * (rng.random((3,) + shp) - 0.5),
                                      1.0 + 0.2 * rng.random(shp))
        ghost = profile_ghost_source(spec, grid) if pinned else None
        cases.append((fs, SolverConfig(eps=0.05), ghost))
    return cases


def test_rhs_matches_allocating_reference():
    # a gas whose heat entry sets the viscous step, with R != gamma - 1
    heat_bound = GasParams(gamma=1.4, R=0.287, alpha=0.7, lambda1=0.0, kappa1=10.0)
    # at alpha = 0.7 the face coefficients are libm's pow, not a square
    # root; numpy's power differs from it in the last bit of some values
    g07 = GasParams.normalized(5.0 / 3.0, 0.7)

    def check(fs, cfg, ghost, g):
        if g is GAS:
            assert _same_bytes([fs.primitives(GAS)], [_ref_primitives(fs)])
            assert stable_dt(fs, GAS, cfg) == _ref_stable_dt(fs, cfg)
            assert stable_dt(FieldSet(fs.grid, fs.U), heat_bound, cfg) == \
                _ref_stable_dt(fs, cfg, heat_bound)
        tend, bflux = rhs(fs, g, cfg, ghost, t=fs.time)
        assert _same_bytes([tend, bflux], _ref_rhs(fs, cfg, ghost, fs.time, g))
        out, diag = step(fs, g, cfg, ghost)
        assert _same_bytes([out.U, diag.boundary_flux], _ref_step(fs, cfg, ghost, g))

    with np.errstate(all="raise"):
        for case in _workspace_cases() + _planar_line_cases() + _cellwise_random_cases():
            check(*case, GAS)
        for case in _workspace_cases() + _planar_line_cases():
            check(*case, g07)
    # the subnormal m3 underflows in the reference's u3 u3
    with np.errstate(all="raise", under="ignore"):
        for case in _near_planar_line_cases():
            check(*case, GAS)
            check(*case, g07)


def test_rhs_and_step_rebind_per_grid_gas_and_config():
    # the grids of one shape share a work area, whose kernel constants are
    # bound to the last call's grid, gas and config and whose last state
    # address is kept: calls that alternate two grids of different L, two
    # gases, two configs and a strided copy of U, and steps from a step's
    # result, must each give bitwise the reference's results.  The gases
    # and configs are shared objects, so that a call may change only one of
    # grid, gas and config; the viscous dt binds at eps = 0.5, the CFL one
    # at eps = 0.02
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    gases = (GAS, GasParams.normalized(5.0 / 3.0, 0.7))
    configs = (SolverConfig(eps=0.5), SolverConfig(eps=0.02))
    cases = []
    for L in (2.0, 3.0):
        grid = SlabGrid(L=L, n1=12, n2=6, dims=2)
        fs = _transverse_state(grid, int(L))
        wide = np.zeros(fs.U.shape + (2,))
        wide[..., 0] = fs.U
        strided = FieldSet(grid, wide[..., 0])
        assert not strided.U.flags.c_contiguous
        for g in gases:
            for cfg in configs:
                for state in (fs, strided):
                    ghost = profile_ghost_source(spec, grid)
                    U1, b1 = _ref_step(state, cfg, ghost, g)
                    after = FieldSet(grid, U1, state.time + _ref_stable_dt(state, cfg, g)[0])
                    cases.append((state, g, cfg, ghost, {
                        "rhs": _ref_rhs(state, cfg, ghost, state.time, g),
                        "stable_dt": _ref_stable_dt(state, cfg, g),
                        "step": (U1, b1), "next": _ref_step(after, cfg, ghost, g)}))
    calls = [(i, call) for i in range(len(cases)) for call in ("rhs", "stable_dt", "step")] * 2
    np.random.default_rng(5).shuffle(calls)
    for i, call in calls:
        fs, g, cfg, ghost, want = cases[i]
        if call == "rhs":
            assert _same_bytes(rhs(fs, g, cfg, ghost, t=fs.time), want["rhs"]), i
        elif call == "stable_dt":
            assert stable_dt(fs, g, cfg) == want["stable_dt"], i
        else:
            out, diag = step(fs, g, cfg, ghost)
            assert _same_bytes([out.U, diag.boundary_flux], want["step"]), i
            # the state stepped from keeps its own address
            assert stable_dt(fs, g, cfg) == want["stable_dt"], i
            nxt, diag = step(out, g, cfg, ghost)
            assert _same_bytes([nxt.U, diag.boundary_flux], want["next"]), i


def test_stable_dt_carries_nan_like_numpy():
    # the kernel's maxima carry a NaN the way numpy's do: a cell with theta
    # < 0 (its sqrt NaN) or a NaN energy (at alpha = 0.7 too, its pow NaN)
    # gives the reference's dt and speed.  step then meets rhs's refusal of
    # the theta < 0 cell; a NaN energy makes every axis's maximum NaN, and
    # step refuses it before taking the infinite dt it gives.  So does a
    # zero density on a line whose u2 = u3 = 0 (the longitudinal kind):
    # with m1 != 0 and E < 0 its theta is NaN only through u2 = 0 / 0
    grid = SlabGrid(L=2.0, n1=12, n2=6, dims=2)
    g07 = GasParams.normalized(5.0 / 3.0, 0.7)

    def bad_cell(value):
        U = _transverse_state(grid, 5).U.copy()
        U[4, 5, 2] = value
        return FieldSet(grid, U)
    line = _planar_line_cases()[0][0]
    U = line.U.copy()
    U[:, 5] = np.array([0.0, 0.5, 0.0, 0.0, -1.0])[:, None, None]
    for i, (bad, g, abort) in enumerate(((bad_cell(-1.0), GAS, "nonpositive temperature"),
                                         (bad_cell(np.nan), GAS, "non-finite state entering step"),
                                         (bad_cell(np.nan), g07, "non-finite state entering step"),
                                         (FieldSet(line.grid, U), GAS,
                                          "non-finite state entering step"))):
        for cfg in (SolverConfig(eps=0.0), SolverConfig(eps=0.05)):
            with np.errstate(invalid="ignore", divide="ignore"):
                want = _ref_stable_dt(bad, cfg, g)
            assert repr(stable_dt(bad, g, cfg)) == repr(want), (i, cfg.eps)
            with pytest.raises(RunAbort, match=abort):
                step(bad, g, cfg)


def test_rhs_every_kernel_instance_matches_reference():
    # the kernel has one face pass for each axis and set of active axes a
    # grid can have, and one for the longitudinal kind (a line whose u2 = u3
    # = 0), each without viscosity, with sqrt and with pow: these grids, the
    # line with a u2 = u3 = 0 state too, reach all 27, the x3-only mask
    # included, with odd rows so that the vector loops' remainder faces and
    # cells run
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    rng = np.random.default_rng(11)
    shapes = ((7, 1, 5, 3), (5, 3, 1, 2), (9, 1, 1, 1), (6, 5, 3, 3), (4, 1, 7, 3))
    with np.errstate(all="raise"):
        for n1, n2, n3, dims in shapes:
            for pinned in (True, False):
                grid = (SlabGrid(L=2.0, n1=n1, n2=n2, n3=n3, dims=dims) if pinned
                        else SlabGrid.torus(1.0, n1, n2, n3, dims=dims))
                shp = grid.shape
                rho, u, theta = (1.0 + 0.2 * rng.random(shp), 0.3 * (rng.random((3,) + shp) - 0.5),
                                 1.0 + 0.2 * rng.random(shp))
                states = [FieldSet.from_primitives(grid, GAS, rho, u, theta)]
                if dims == 1:
                    planar = np.zeros_like(u)
                    planar[0] = u[0]
                    states.append(FieldSet.from_primitives(grid, GAS, rho, planar, theta))
                ghost = profile_ghost_source(spec, grid) if pinned else None
                for fs in states:
                    for alpha in (0.5, 0.7):
                        g = GasParams.normalized(5.0 / 3.0, alpha)
                        for eps in (0.0, 0.05):
                            cfg = SolverConfig(eps=eps)
                            assert _same_bytes(rhs(fs, g, cfg, ghost, t=0.0),
                                               _ref_rhs(fs, cfg, ghost, 0.0, g)), \
                                (grid.shape, pinned, alpha, eps)


ROOT = Path(__file__).resolve().parent.parent


def _study_case(name):
    """(fs, gas, cfg, ghost) of a study's initial state: the eps-sweep at its
    largest eps on its 384-cell line ("line384") and on the 768-cell line of
    its refinement run ("line768"), or the benchmark's 256 x 32 decay slab
    ("slab256x32")."""
    from rarefan.config import parse_config
    from rarefan.experiments import pinned_start

    if name == "slab256x32":
        cfg = parse_config(ROOT / "perfbench" / "configs" / "slab2d_decay.ini")
        eps, eta, n1 = cfg.solver.eps, cfg.experiment.eta, None
    else:
        cfg = parse_config(ROOT / "configs" / "eps_sweep.ini")
        eps, eta = max(cfg.experiment.sweep), 0.0
        n1 = 2 * cfg.grid.n1 if name == "line768" else None
    _, _, fs, scfg, ghost = pinned_start(cfg, eps, eta, n1)
    return fs, cfg.gas, scfg, ghost


@pytest.mark.parametrize("name", ["line384", "slab256x32", "torus32x32"])
def test_step_allocates_only_its_result(name):
    # after the first step of a shape, a step may allocate one state-sized
    # array, the state it returns, and a few small objects; no primitives,
    # tendency, stage or temporary of state size, on
    # pinned runs and on the torus, whose every ghost is a wrap.  numpy's
    # ufunc iterator buffers (up to bufsize elements an operand) are cut to
    # 16 elements, so that the traced peak counts arrays
    if name == "torus32x32":
        fs, g, cfg, ghost = _background_state(TORI[0]), GAS, SolverConfig(eps=0.2), None
    else:
        fs, g, cfg, ghost = _study_case(name)
        assert fs.grid.shape[0] == (384 if name == "line384" else 256)
    fs, _ = step(fs, g, cfg, ghost)
    state = fs.U.nbytes
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        for _ in range(5):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fs, _ = step(fs, g, cfg, ghost)
            assert tracemalloc.get_traced_memory()[1] - start <= state + 4096
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)


def _work_arrays(ws):
    """The float arrays a work area owns, as (owner, views) pairs: every array
    that the work area holds, the kernel's buffers included, grouped by the
    buffer that owns its memory."""
    owners = {}

    def collect(value):
        if isinstance(value, np.ndarray):
            owner = value
            while owner.base is not None:
                owner = owner.base
            owners.setdefault(id(owner), (owner, []))[1].append(value)
        elif isinstance(value, (list, tuple)):
            for v in value:
                collect(v)
        elif isinstance(value, dict):
            for v in value.values():
                collect(v)
        elif hasattr(value, "__dict__") and type(value).__module__ == solver.__name__:
            for v in vars(value).values():
                collect(v)

    collect(ws)
    return [(owner, views) for owner, views in owners.values() if owner.dtype.kind == "f"]


def _poisoned_workspace(shape):
    """The shape's work area, built afresh with NaN in every entry of every
    float array it owns."""
    solver._workspace.cache_clear()
    ws = solver._workspace(shape)
    for owner, _ in _work_arrays(ws):
        owner[...] = np.nan
    return ws


def _row_loop_lines(source, name):
    """The line number of the first loop in the C function name."""
    lines = source.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{name}("))
    return next(i + 1 for i in range(start, len(lines)) if lines[i].lstrip().startswith("for ("))


@pytest.fixture(scope="module")
def cold_kernel_build(tmp_path_factory):
    """One cold build of the kernel through the first rhs, into a fresh build
    directory that holds a stale library of the same source, at the build's
    own flags plus -Wall -Wextra -Werror and GCC's vectorizer report: the
    directory's listing afterwards, the library's path, what _kernel_path
    then returns, the compiler flags of the build and every compile run, as
    (command, completed process) pairs."""
    source = solver._KERNEL_SOURCE
    cache = tmp_path_factory.mktemp("cache")
    (cache / f"{source.stem}-0123456789abcdef.so").write_bytes(b"stale")
    cc = (*solver._CC, "-Wall", "-Wextra", "-Werror", "-fopt-info-vec-optimized")
    real_run, compiles = subprocess.run, []

    def spy(cmd, *args, **kwargs):
        compiles.append((cmd, real_run(cmd, *args, **kwargs)))
        return compiles[-1][1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_BUILD_DIR", cache)
        mp.setattr(solver, "_CC", cc)
        mp.setattr(subprocess, "run", spy)
        solver._kernel.cache_clear()
        solver._workspace.cache_clear()
        try:
            for grid in (SlabGrid.torus(1.0, 16), SlabGrid.torus(1.0, 8, 4, dims=2)):
                rhs(_transverse_state(grid, 0), GAS, SolverConfig(eps=0.1))
            lib = cache / solver._kernel_name(source)
            built = list(cache.iterdir())
            found = solver._kernel_path(source, cache)
        finally:
            solver._kernel.cache_clear()
            solver._workspace.cache_clear()
    return {"built": built, "lib": lib, "found": found, "cc": cc, "compiles": compiles}


def test_kernel_builds_once_into_a_cold_directory(cold_kernel_build, tmp_path):
    # the first solver call of a process builds the kernel into the build
    # directory, once for every grid shape, and removes the stale build of
    # an earlier edit; an edited source gets a library name of its own, so
    # a stale build is never loaded
    source, lib = solver._KERNEL_SOURCE, cold_kernel_build["lib"]
    assert cold_kernel_build["built"] == [lib]
    assert cold_kernel_build["found"] == lib
    [(cmd, _)] = cold_kernel_build["compiles"]
    assert cmd == [*cold_kernel_build["cc"], "-o", f"{lib}.{os.getpid()}.tmp", str(source), "-lm"]
    edited = tmp_path / "_kernel.c"
    edited.write_bytes(source.read_bytes() + b"\n/* edited */\n")
    assert solver._kernel_name(edited) != lib.name


def test_kernel_compiles_without_warnings(cold_kernel_build):
    # the cold build runs at the build's own flags plus -Wall -Wextra
    # -Werror; with GCC, its vectorizer report must list the loops of
    # face_row, fill_row, stage_row and of lanes, the reduction row of
    # rk_dt and of the last stage, and of the derivative rows diff_row,
    # end_row, square_row and norm_row, so that a branch or an aliasing row
    # that turns them scalar fails here
    source = solver._KERNEL_SOURCE
    [(_, proc)] = cold_kernel_build["compiles"]
    assert proc.returncode == 0, proc.stderr
    assert "warning" not in proc.stderr
    version = subprocess.run([solver._CC[0], "-v"], capture_output=True, text=True, timeout=60)
    if "gcc version" not in version.stderr:
        pytest.skip("the vectorizer report is GCC's")
    vectorized = proc.stderr.splitlines()
    for name in ("face_row", "fill_row", "lanes", "stage_row", "diff_row", "end_row",
                 "square_row", "norm_row"):
        at = f"{source}:{_row_loop_lines(source, name)}:"
        assert any(r.startswith(at) and "loop vectorized" in r for r in vectorized), name


def test_kernel_name_is_keyed_by_the_cpu_feature_line(tmp_path, monkeypatch):
    # the kernel is built for the host's vectors, so a checkout shared by
    # two CPUs builds a library for each: the name follows the first flags
    # line (x86) or Features line (arm64) of /proc/cpuinfo, and a host
    # without the file gets a name of its own
    source, names = solver._KERNEL_SOURCE, []
    for i, text in enumerate(("processor\t: 0\nflags\t\t: fpu sse2 avx2\nvmx flags\t: ept\n",
                              "processor\t: 0\nflags\t\t: fpu sse2 avx2 avx512f\n",
                              "processor\t: 0\nFeatures\t: fp asimd\n", None)):
        info = tmp_path / f"cpuinfo{i}"
        if text is not None:
            info.write_text(text)
        monkeypatch.setattr(solver, "_CPUINFO", info)
        names.append(solver._kernel_name(source))
    assert len(set(names)) == 4
    # only the first feature line counts
    info.write_text("processor\t: 0\nmodel name\t: A\nflags\t\t: fpu sse2 avx2\n"
                    "processor\t: 1\nmodel name\t: B\nflags\t\t: fpu\n")
    assert solver._kernel_name(source) == names[0]


def test_kernel_build_keeps_other_cpus_builds(tmp_path, monkeypatch):
    # a build removes the libraries of the source's earlier edits and flags,
    # but not this source's builds for other CPUs, so that the hosts of a
    # shared checkout do not remove each other's library
    source = solver._KERNEL_SOURCE
    name = solver._kernel_name(source)
    stem, build, _ = name[:-len(".so")].split("-")
    other_cpu = tmp_path / f"{stem}-{build}-00000000.so"
    stale = [tmp_path / f"{stem}-0123456789abcdef-00000000.so",
             tmp_path / f"{stem}-0123456789abcdef.so"]
    for lib in (other_cpu, *stale):
        lib.write_bytes(b"")

    def fake_cc(cmd, *args, **kwargs):
        Path(cmd[cmd.index("-o") + 1]).write_bytes(b"built")
        return subprocess.CompletedProcess(cmd, 0, "", "")
    monkeypatch.setattr(subprocess, "run", fake_cc)
    assert solver._kernel_path(source, tmp_path) == tmp_path / name
    assert sorted(tmp_path.iterdir()) == sorted([tmp_path / name, other_cpu])


def test_import_reads_no_cpu_feature_line():
    # the feature line is read at the first kernel load, not at import
    script = """
import sys
opened = []
sys.addaudithook(lambda event, args: opened.append(str(args[0])) if event == "open" else None)
import rarefan.experiments
from rarefan import solver
imported = opened.count(str(solver._CPUINFO))
solver._kernel_name(solver._KERNEL_SOURCE)
print(imported, opened.count(str(solver._CPUINFO)))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def _without_compiler(tmp_path, call):
    """The output lines of a fresh copy of the package, so that nothing is
    built yet, run with no C compiler on PATH: the built libraries and the
    loaded kernels after importing the study layer, then the RuntimeError
    of the first kernel call, call (Python source)."""
    import shutil
    shutil.copytree(ROOT / "src" / "rarefan", tmp_path / "rarefan",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bin").mkdir()
    script = f"""
import numpy as np
import rarefan.experiments
from rarefan import analysis, solver
from rarefan.fields import FieldSet, SlabGrid
from rarefan.gas import GasParams
print(sorted(p.name for p in solver._BUILD_DIR.glob("*.so")), solver._kernel.cache_info().currsize)
g = GasParams.normalized(5.0 / 3.0, 0.5)
fs = FieldSet.from_primitives(SlabGrid.torus(1.0, 8), g, 1.0, np.zeros((3, 8, 1, 1)), 1.0)
try:
    {call}
except RuntimeError as exc:
    print("RuntimeError:", exc)
"""
    env = {**os.environ, "PATH": str(tmp_path / "bin"), "PYTHONPATH": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_no_kernel_and_rhs_names_the_missing_compiler(tmp_path):
    # importing the study layer builds and loads no kernel, and the first
    # rhs raises RuntimeError naming the command
    lines = _without_compiler(tmp_path, "solver.rhs(fs, g, solver.SolverConfig(eps=0.1))")
    assert lines[0] == "[] 0"
    assert lines[1].startswith("RuntimeError:") and " ".join(solver._CC) in lines[1]


def test_import_loads_no_kernel_and_gradient_names_the_missing_compiler(tmp_path):
    # analysis's derivatives are kernel calls too: the first gradient, with
    # no solver call before it, raises the same RuntimeError
    lines = _without_compiler(tmp_path, "analysis.gradient(fs.rho, fs.grid)")
    assert lines[0] == "[] 0"
    assert lines[1].startswith("RuntimeError:") and " ".join(solver._CC) in lines[1]


def test_work_area_is_64_byte_aligned():
    # every block of the work area starts on a 64-byte boundary: the lowest
    # entry any view reaches in each owned buffer (the buffer itself is the
    # allocator's padded one), a step's result and its primitives, and
    # gn_sample's work block
    from numpy.lib.array_utils import byte_bounds
    from rarefan import analysis

    cases = [(fs, GAS, cfg, ghost) for fs, cfg, ghost in _workspace_cases()]
    cases += [_study_case(name) for name in ("line768", "slab256x32")]
    for fs, g, cfg, ghost in cases:
        shape = fs.grid.shape
        solver._workspace.cache_clear()
        out, _ = step(fs, g, cfg, ghost)
        ws = solver._workspace(shape)
        blocks = _work_arrays(ws)
        assert len(blocks) == 9   # ring, p, c, ghosts, bflux, sum, k, r, F
        for owner, views in blocks:
            assert min(byte_bounds(v)[0] for v in views) % 64 == 0, (shape, views[0].shape)
        assert out.U.ctypes.data % 64 == 0, shape
        assert out.primitives(g).ctypes.data % 64 == 0, shape
        assert analysis._gn_work(shape).ctypes.data % 64 == 0, shape
    solver._workspace.cache_clear()


def test_rhs_ignores_unwritten_work_entries():
    # every work array filled with NaN as the work area is built: rhs and
    # step must still give bitwise a clean run's results, so no result reads
    # a row-end or tail entry that the current call did not write
    fs, g, cfg, ghost = _study_case("line768")
    cases = [(*case, GAS) for case in _workspace_cases()] + [(fs, cfg, ghost, g)]
    for case in cases:
        solver._workspace.cache_clear()
        clean = _rhs_then_step(*case)
        _poisoned_workspace(case[0].grid.shape)
        assert _same_bytes(_rhs_then_step(*case), clean)
    solver._workspace.cache_clear()


def test_pinned_ghosts_do_not_leak_into_torus_run():
    # a pinned run leaves its ghost columns in the shared ring; the torus run
    # that follows must rebuild every ghost cell from its own interior
    spec = WaveSpec(PrimState(1.0, 0.3, 1.0), GAS, nu=0.1, delta=0.2)
    pinned, torus = SlabGrid(L=2.0, n1=12, n2=6, dims=2), SlabGrid.torus(1.0, 12, 6, dims=2)
    fs = _transverse_state(torus, 4)
    cfg = SolverConfig(eps=0.05)
    solver._workspace.cache_clear()
    fresh = _rhs_then_step(fs, cfg, None)
    run(_transverse_state(pinned, 5), GAS, SolverConfig(eps=0.05),
        0.01, ghost_source=profile_ghost_source(spec, pinned))
    assert _same_bytes(_rhs_then_step(fs, cfg, None), fresh)


def _viscous_spectral_radius(fs, cfg, ghost, g=GAS, iters=300):
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
        return (rhs(f, g, cfg, ghost, t=fs.time)[0]
                - rhs(f, g, inviscid, ghost, t=fs.time)[0])

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
    # 64x8 cells, the line the eps-sweep's eps = 0.01 point; the slab's step
    # charges each axis its own share of the stress, so it reaches as far as
    # the line's
    limit = solver._RK3_REAL_LIMIT
    slab_spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    slab = SlabGrid(L=5.669381546010115, n1=64, n2=8, dims=2)
    fs_slab = assemble_initial(slab_spec, PerturbationSpec(eta=1e-3, mode_cap=1), slab, GAS,
                               window=x1_window(slab, 2.5, 0.2))
    line_spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.05, delta=0.1)
    line = SlabGrid(L=2.0 * max(-line_spec.w_minus, line_spec.w_plus) + 2.0, n1=192)
    fs_line = assemble_initial(line_spec, PerturbationSpec(eta=0.0), line, GAS)
    for spec, fs, eps in ((slab_spec, fs_slab, 0.08), (line_spec, fs_line, 0.01)):
        cfg = SolverConfig(eps=eps)
        ghost = profile_ghost_source(spec, fs.grid)
        dt_visc, _ = stable_dt(fs, GAS, cfg)
        assert dt_visc < stable_dt(fs, GAS, dataclasses.replace(cfg, eps=0.0))[0]
        reach = dt_visc * _viscous_spectral_radius(fs, cfg, ghost)
        assert 0.4 * limit <= reach <= solver._VISC_FRACTION * limit * (1.0 + 1e-3)
        if fs.grid.dims == 2:
            assert reach >= 0.75 * limit


@pytest.mark.parametrize("mu1,lambda1,kappa1", [(1.0, -1.0, 1.0), (1.0, 5.0, 1.0),
                                                (1.0, 0.0, 10.0), (0.3, 2.0, 0.1)])
@pytest.mark.parametrize("grid", [SlabGrid.torus(1.0, 16, 6, dims=2),
                                  SlabGrid.torus(1.0, 8, 8, 8, dims=3)],
                         ids=["2d-unequal", "3d"])
def test_viscous_dt_bounds_operator_for_any_coefficients(mu1, lambda1, kappa1, grid):
    # a nearly uniform torus state puts the operator's largest modes where
    # the step's bound is sharpest: the stress, bulk and heat coefficients
    # trade places as the largest entry, and on the cube lambda1 > 2 mu1 lets
    # the cross-derivative terms beat the checkerboard mode
    g = GasParams.normalized(5.0 / 3.0, 0.5, mu1, lambda1, kappa1)
    x = [grid.x1()[:, None, None], grid.x2()[None, :, None], grid.x3()[None, None, :]]
    wave = np.sin(K * x[0]) * np.cos(K * x[1] + 0.3) * np.cos(K * x[2] + 0.6)
    rho = 1.0 + 0.01 * wave
    theta = 1.0 - 0.01 * wave
    u = 0.01 * np.stack([wave, np.roll(wave, 1, axis=0), np.roll(wave, 2, axis=0)])
    fs = FieldSet.from_primitives(grid, g, rho, u, theta)
    cfg = SolverConfig(eps=0.1)
    dt_visc, _ = stable_dt(fs, g, cfg)
    assert dt_visc < stable_dt(fs, g, dataclasses.replace(cfg, eps=0.0))[0]
    reach = dt_visc * _viscous_spectral_radius(fs, cfg, None, g)
    assert reach <= solver._VISC_FRACTION * solver._RK3_REAL_LIMIT * (1.0 + 1e-3)


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
        f, _ = step(f, GAS, SolverConfig(eps=0.05))
    tot1 = f.totals()
    scale = max(abs(tot0["mass"]), abs(tot0["energy"]))
    for key in tot0:
        assert abs(tot1[key] - tot0[key]) <= 1e-12 * scale


def test_constant_state_unchanged():
    grid = SlabGrid.torus(1.0, 16, 4, dims=2)
    fs = FieldSet.from_primitives(grid, GAS, 1.0, np.zeros((3,) + grid.shape), 1.0)
    f, diag = step(fs, GAS, SolverConfig(eps=0.1))
    assert np.array_equal(f.rho, fs.rho)
    assert np.array_equal(f.E, fs.E)
    assert diag.dt > 0.0


def test_pinned_boundary_flux_bookkeeping():
    # the conserved totals change by exactly the accumulated x1 boundary flux:
    # on the planar line, and on a 2-D slab whose transverse perturbation is
    # windowed off the pinned ghosts
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    line, slab = SlabGrid(L=4.0, n1=128), SlabGrid(L=4.0, n1=64, n2=8, dims=2)
    pr = smooth_profile(spec, 0.0, line.x1())
    u = np.zeros((3,) + line.shape)
    u[0] = pr.u1[:, None, None]
    fs_line = FieldSet.from_primitives(line, GAS, pr.rho[:, None, None], u,
                                       pr.theta[:, None, None])
    fs_slab = assemble_initial(spec, PerturbationSpec(eta=1e-2, mode_cap=2), slab, GAS,
                               window=x1_window(slab, 1.0, 0.2), modes="transverse")
    cfg = SolverConfig(eps=0.02)
    for fs in (fs_line, fs_slab):
        ghost = profile_ghost_source(spec, fs.grid)
        tot0 = fs.totals()
        acc = np.zeros(5)
        f = fs
        for _ in range(100):
            f, d = step(f, GAS, cfg, ghost_source=ghost)
            acc += d.boundary_flux
        tot1 = f.totals()
        for i, key in enumerate(("mass", "momentum1", "momentum2", "momentum3", "energy")):
            assert abs(tot1[key] - tot0[key] - acc[i]) <= 1e-10, (fs.grid.shape, key)


def test_dt_underflow_aborts():
    grid = SlabGrid.torus(1.0, 16)
    fs = FieldSet.from_primitives(grid, GAS, 1.0, np.zeros((3,) + grid.shape), 1.0)
    with pytest.raises(RunAbort):
        step(fs, GAS, SolverConfig(eps=0.1), dt_cap=1e-13)


def test_positivity_floor_aborts(monkeypatch):
    grid = SlabGrid.torus(1.0, 64)
    x = grid.x1()[:, None, None] * np.ones(grid.shape)
    # steep expansion drives theta below the (high) floor quickly
    rho = np.full(grid.shape, 1.0)
    u = np.zeros((3,) + grid.shape)
    u[0] = np.sign(np.sin(K * x)) * 2.0
    theta = np.full(grid.shape, 1.0)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    monkeypatch.setattr(solver, "_FLOOR", 0.5)
    cfg = SolverConfig(eps=0.0)
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
    out, records = run(fs, GAS, SolverConfig(eps=0.1), horizon=0.0)
    assert np.array_equal(out.rho, fs.rho)
    assert len(records) == 1


def test_run_reaches_horizon_and_samples():
    grid = SlabGrid.torus(1.0, 32)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    out, records = run(fs, GAS, SolverConfig(eps=0.05), horizon=0.02, sample_dt=0.005)
    assert out.time == pytest.approx(0.02, abs=1e-12)
    assert len(records) >= 4
    assert all("mass" in r for r in records)


def test_run_records_land_on_sample_times():
    # a viscous-limited pinned run takes many steps per sample; every record
    # lands on its sample time and the last on the horizon, which need not be
    # a multiple of sample_dt
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    grid = SlabGrid(L=4.0, n1=128)
    fs = assemble_initial(spec, PerturbationSpec(eta=0.0), grid, GAS)
    cfg = SolverConfig(eps=0.05)
    ghost = profile_ghost_source(spec, grid)
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


def test_run_records_take_stepped_minima_from_the_step(monkeypatch):
    # a stepped sample's min rho and min theta are its step's kernel minima,
    # bitwise np.min of the state's primitives, and the record forms no
    # primitives for them; only the initial sample does
    grid = SlabGrid.torus(1.0, 8, 4, dims=2)
    states, calls = [], []
    primitives = FieldSet.primitives

    def counted(fs, g):
        calls.append(fs)
        return primitives(fs, g)
    monkeypatch.setattr(FieldSet, "primitives", counted)

    def keep(state, g):
        states.append(state)
        return {}
    _, records = run(_transverse_state(grid, 2), GAS, SolverConfig(eps=0.1), 0.02,
                     observers={"keep": keep}, sample_dt=0.005)
    assert len(records) == len(states) >= 5
    assert len(calls) == 1 and calls[0] is states[0]
    for row, state in zip(records, states):
        assert row["min_rho"] == float(np.min(state.rho))
        assert row["min_theta"] == float(np.min(state.primitives(GAS)[4]))


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
    cfg = SolverConfig(eps=0.02)
    fs1 = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    fs2 = FieldSet.from_primitives(grid, GAS, rho, u + np.array([U, 0, 0])[:, None, None, None], theta)
    dt = 2.5e-4  # below both frames' stable_dt: the cap is the step
    f1, f2 = fs1, fs2
    for _ in range(int(T / dt)):
        f1, d1 = step(f1, GAS, cfg, dt_cap=dt)
        f2, d2 = step(f2, GAS, cfg, dt_cap=dt)
        assert d1.dt == d2.dt == dt
    u1 = f1.primitives(GAS)[1]
    u2 = f2.primitives(GAS)[1]
    assert np.max(np.abs(f2.rho - f1.rho)) < 1e-8
    assert np.max(np.abs(u2 - (u1 + U))) < 1e-8


def test_riemann_run_monotone_in_fan():
    # 1-D wave run: inside the fan the solution stays monotone in x1
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.15)
    L = max(abs(spec.w_minus), abs(spec.w_plus)) * 2.0 + 15 * spec.delta + 0.5
    grid = SlabGrid(L=L, n1=384)
    pr = smooth_profile(spec, 0.0, grid.x1())
    u = np.zeros((3,) + grid.shape)
    u[0] = pr.u1[:, None, None]
    fs = FieldSet.from_primitives(grid, GAS, pr.rho[:, None, None], u, pr.theta[:, None, None])
    cfg = SolverConfig(eps=0.02)
    ghost = profile_ghost_source(spec, grid)
    out, _ = run(fs, GAS, cfg, horizon=1.0, ghost_source=ghost)
    x = grid.x1()
    fan = (x / 1.0 > spec.w_minus + 0.2) & (x / 1.0 < spec.w_plus - 0.2)
    prim = out.primitives(GAS)
    for f in (prim[0, :, 0, 0], prim[1, :, 0, 0], prim[4, :, 0, 0]):
        assert np.all(np.diff(f[fan]) > -1e-9)


def test_refinement_subdominant():
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.2)
    dists = {}
    for n1 in (192, 384):
        L = max(abs(spec.w_minus), abs(spec.w_plus)) * 2.0 + 15 * spec.delta + 0.5
        grid = SlabGrid(L=L, n1=n1)
        pr = smooth_profile(spec, 0.0, grid.x1())
        u = np.zeros((3,) + grid.shape)
        u[0] = pr.u1[:, None, None]
        fs = FieldSet.from_primitives(grid, GAS, pr.rho[:, None, None], u,
                                      pr.theta[:, None, None])
        cfg = SolverConfig(eps=0.04)
        ghost = profile_ghost_source(spec, grid)
        out, _ = run(fs, GAS, cfg, horizon=1.0, ghost_source=ghost)
        dists[n1] = sup_distance(out, spec, GAS)["max"]
    assert abs(dists[192] - dists[384]) < 0.25 * dists[192]


def test_scaled_variables_unit_multiplier():
    # in (tau, y) variables the viscous multiplier is 1 regardless of eps:
    # rhs must agree bitwise with the physical-variable run at eps = 1
    grid = SlabGrid.torus(1.0, 64)
    _, rho, u, theta = smooth_fields(grid)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    t_scaled, _ = rhs(fs, GAS, SolverConfig(eps=0.02, scaled=True))
    t_unit, _ = rhs(fs, GAS, SolverConfig(eps=1.0, scaled=False))
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
        pr = smooth_profile(spec, 0.0, grid.x1())
        u = np.zeros((3,) + grid.shape)
        u[0] = pr.u1[:, None, None]
        fs = FieldSet.from_primitives(grid, GAS, pr.rho[:, None, None], u,
                                      pr.theta[:, None, None])
        cfg = SolverConfig(eps=0.04)
        ghost = profile_ghost_source(spec, grid)
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
        out, _ = run(fs, GAS, SolverConfig(eps=eps),
                     horizon=0.15)
        return out.U

    sols = {eps: solve(eps) for eps in (0.2, 0.1, 0.05)}
    d1 = np.max(np.abs(sols[0.2] - sols[0.1]))
    d2 = np.max(np.abs(sols[0.1] - sols[0.05]))
    assert 0.0 < d2 < d1
