import numpy as np
import pytest

from rarefan.gas import GasParams, PrimState, sound_speed
from rarefan.waves import (WaveSpec, riemann_invariants, sample_exact, sample_cutoff,
                           cutoff_exact_distance, burgers_data, burgers_smooth,
                           smooth_profile, profile_lp_norm, velocity_span,
                           smooth_cutoff_distance, planar_wave_residual)

GAS = GasParams.normalized(5.0 / 3.0, 0.5)
RIGHT = PrimState(1.0, 0.0, 1.0)


def make_spec(nu=0.05, delta=0.1):
    return WaveSpec(RIGHT, GAS, nu=nu, delta=delta)


# ---------------------------------------------------------------------------
# Riemann invariants
# ---------------------------------------------------------------------------

def test_r31_value():
    r31, s = riemann_invariants(GAS, RIGHT)
    assert r31 == pytest.approx(-np.sqrt(10.0), abs=1e-12)
    assert s == pytest.approx(0.0, abs=1e-14)


def test_r31_affine_in_u1():
    base, _ = riemann_invariants(GAS, PrimState(0.7, 0.2, 1.3))
    shifted, _ = riemann_invariants(GAS, PrimState(0.7, 0.2 + 2.5, 1.3))
    assert shifted - base == pytest.approx(2.5, abs=1e-14)


def test_vacuum_invariant_flag():
    r31, s = riemann_invariants(GAS, PrimState(0.0, -1.0, 0.0))
    assert r31 == -1.0
    assert np.isnan(s)


def test_left_state_on_wave_curve():
    # R31(0, u1m, 0) = R31(right) defines the vacuum edge; the cut-off left
    # state must sit on the same curve to 1e-12
    spec = make_spec(nu=0.01)
    left = spec.left_state()
    r31_l, s_l = riemann_invariants(GAS, left)
    r31_r, s_r = riemann_invariants(GAS, RIGHT)
    assert abs(r31_l - r31_r) < 1e-12
    assert abs(s_l - s_r) < 1e-12
    assert left.u1 == pytest.approx(-2.480986, abs=1e-6)
    assert left.theta == pytest.approx(0.01 ** (GAS.gamma - 1.0), abs=1e-14)


# ---------------------------------------------------------------------------
# exact rarefaction
# ---------------------------------------------------------------------------

def test_exact_branches():
    spec = make_spec(nu=0.0)
    vac = sample_exact(spec, -10.0)
    assert (vac.rho[0], vac.u1[0], vac.theta[0]) == \
        pytest.approx((0.0, -3.162278, 0.0), abs=1e-6)
    assert vac.m[0] == 0.0 and vac.n[0] == 0.0 and vac.branch[0] == -1

    rgt = sample_exact(spec, 2.0)
    assert (rgt.rho[0], rgt.u1[0], rgt.theta[0]) == (1.0, 0.0, 1.0)
    assert rgt.branch[0] == 1

    fan = sample_exact(spec, 0.0)
    assert fan.rho[0] == pytest.approx(0.421875, abs=1e-9)
    assert fan.u1[0] == pytest.approx(-0.790569, abs=1e-6)
    assert fan.theta[0] == pytest.approx(0.5625, abs=1e-9)
    assert fan.branch[0] == 0


def _fan_state_bisect(xi):
    """Independent oracle: bisection on lambda3(rho) = xi along the 3-curve."""
    r31, s = riemann_invariants(GAS, RIGHT)

    def lam3_of_rho(rho):
        theta = np.exp(s) * rho ** (GAS.gamma - 1.0)
        c = sound_speed(GAS, theta)
        return r31 + 2.0 * c / (GAS.gamma - 1.0) + c

    lo, hi = 1e-14, RIGHT.rho
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lam3_of_rho(mid) < xi:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    theta = np.exp(s) * rho ** (GAS.gamma - 1.0)
    u1 = r31 + 2.0 * sound_speed(GAS, theta) / (GAS.gamma - 1.0)
    return rho, u1, theta


@pytest.mark.parametrize("xi", [-2.5, -1.0, 0.0, 0.5, 1.0])
def test_fan_inversion_vs_bisection(xi):
    got = sample_exact(make_spec(nu=0.0), xi)
    rho, u1, theta = _fan_state_bisect(xi)
    assert got.rho[0] == pytest.approx(rho, abs=1e-10)
    assert got.u1[0] == pytest.approx(u1, abs=1e-10)
    assert got.theta[0] == pytest.approx(theta, abs=1e-10)


def test_fan_consistency_identity():
    # 1e3 fan samples: lambda3(W(xi)) = xi and invariants match the right state
    spec = make_spec(nu=0.0)
    r31p, sp = riemann_invariants(GAS, RIGHT)
    xi = np.linspace(spec.u1_vacuum + 1e-9, spec.w_plus - 1e-9, 1000)
    tab = sample_exact(spec, xi)
    lam3 = tab.u1 + sound_speed(GAS, tab.theta)
    assert np.max(np.abs(lam3 - xi)) < 1e-10
    c = sound_speed(GAS, tab.theta)
    r31 = tab.u1 - 2.0 * c / (GAS.gamma - 1.0)
    s = -(GAS.gamma - 1.0) * np.log(tab.rho) + np.log(tab.theta)
    assert np.max(np.abs(r31 - r31p)) < 1e-10
    assert np.max(np.abs(s - sp)) < 1e-10


def test_exact_monotone_in_xi():
    spec = make_spec(nu=0.0)
    xi = np.linspace(-5.0, 3.0, 2001)
    tab = sample_exact(spec, xi)
    for f in (tab.rho, tab.u1, tab.theta):
        assert np.all(np.diff(f) >= -1e-14)


# ---------------------------------------------------------------------------
# cut-off wave
# ---------------------------------------------------------------------------

def test_cutoff_left_branch_constant():
    spec = make_spec(nu=0.01)
    left = spec.left_state()
    s = sample_cutoff(spec, spec.w_minus - 5.0)
    assert (s.rho[0], s.u1[0], s.theta[0]) == \
        pytest.approx((left.rho, left.u1, left.theta), abs=1e-14)
    assert s.branch[0] == -1


def test_cutoff_matches_exact_above_cut():
    spec = make_spec(nu=0.05)
    xi = np.linspace(spec.w_minus, spec.w_plus + 0.5, 500)
    cu = sample_cutoff(spec, xi)
    ex = sample_exact(spec, xi)
    assert np.max(np.abs(cu.rho - ex.rho)) < 1e-12
    assert np.max(np.abs(cu.u1 - ex.u1)) < 1e-12


def test_cutoff_requires_valid_nu():
    with pytest.raises(ValueError):
        WaveSpec(RIGHT, GAS, nu=1.5)
    with pytest.raises(ValueError):
        sample_cutoff(make_spec(nu=0.0), 0.0)


def test_cutoff_distance_ratio_bounded():
    # Lemma-style O(nu) law: one constant covers the nu halvings
    ratios = []
    for nu in (0.1, 0.05, 0.025, 0.0125):
        d = cutoff_exact_distance(make_spec(nu=nu))
        ratios.append(max(d.values()) / nu)
        assert d["rho"] == pytest.approx(nu, abs=1e-12)
    assert max(ratios) / min(ratios) < 2.0


# ---------------------------------------------------------------------------
# Burgers profile
# ---------------------------------------------------------------------------

def test_burgers_t0_is_data():
    spec = make_spec()
    x = np.linspace(-2, 2, 31)
    assert np.allclose(burgers_smooth(spec, 0.0, x), burgers_data(spec, x), atol=1e-14)


def test_burgers_saturation():
    spec = make_spec(delta=0.07)
    t = 2.0
    far = 40.0 * spec.delta + max(abs(spec.w_plus), abs(spec.w_minus)) * t
    assert abs(burgers_smooth(spec, t, far + 1.0) - spec.w_plus) < 1e-10
    assert abs(burgers_smooth(spec, t, -far - 1.0) - spec.w_minus) < 1e-10


def test_burgers_midpoint_symmetry():
    # odd symmetry about the midpoint makes it a fixed point at every time
    spec = make_spec()
    mid = 0.5 * (spec.w_plus + spec.w_minus)
    w = burgers_smooth(spec, 1.0, mid)
    assert w == pytest.approx(mid, abs=1e-12)


def _burgers_bisect_oracle(spec, t, x1):
    lo, hi = x1 - spec.w_plus * t, x1 - spec.w_minus * t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + float(burgers_data(spec, mid)) * t < x1:
            lo = mid
        else:
            hi = mid
    return float(burgers_data(spec, 0.5 * (lo + hi)))


@pytest.mark.parametrize("t,x1", [(0.5, 0.3), (1.0, -1.2), (3.0, 2.0), (8.0, -4.0)])
def test_burgers_vs_bisection_oracle(t, x1):
    spec = make_spec()
    assert burgers_smooth(spec, t, x1) == pytest.approx(
        _burgers_bisect_oracle(spec, t, x1), abs=1e-11)


def test_burgers_strictly_increasing():
    spec = make_spec()
    for t in (0.0, 0.5, 2.0, 10.0):
        x = np.linspace(-8.0, 8.0, 4001)
        w = burgers_smooth(spec, t, x)
        assert np.all(np.diff(w) > -1e-15)
        interior = (w > spec.w_minus + 1e-6) & (w < spec.w_plus - 1e-6)
        assert np.all(np.diff(w[:-1][interior[:-1]]) > 0.0)


# ---------------------------------------------------------------------------
# smooth profile
# ---------------------------------------------------------------------------

def test_profile_defining_relation():
    # lambda3(profile)(t, x) = w(1 + t, x) with the ansatz shift on
    spec = make_spec()
    x = np.linspace(-3.0, 3.0, 101)
    for t in (0.0, 1.0, 2.5):
        pr = smooth_profile(spec, t, x, shift=True)
        w = burgers_smooth(spec, 1.0 + t, x)
        lam3 = pr.u1 + sound_speed(GAS, pr.theta)
        assert np.max(np.abs(lam3 - w)) < 1e-10


def test_profile_invariants_constant():
    spec = make_spec()
    pr = smooth_profile(spec, 1.0, np.linspace(-3, 3, 64))
    c = sound_speed(GAS, pr.theta)
    r31 = pr.u1 - 2.0 * c / (GAS.gamma - 1.0)
    assert np.max(np.abs(r31 - spec.r31_plus)) < 1e-11


def test_profile_reads_cached_wave_constants(monkeypatch):
    # the characteristic solve reads the end speeds in every bisection and
    # Newton step; they are derived once per spec, not once per read
    calls = []
    real = WaveSpec.left_state
    monkeypatch.setattr(WaveSpec, "left_state",
                        lambda self: calls.append(1) or real(self))
    spec = make_spec()
    smooth_profile(spec, 1.0, np.linspace(-3.0, 3.0, 64))
    smooth_profile(spec, 2.0, np.linspace(-3.0, 3.0, 64))
    assert len(calls) <= 1


def _fd4(vals, h):
    """4th-order central first derivative from 5 samples."""
    return (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12.0 * h)


def test_profile_derivatives_vs_finite_differences():
    spec = make_spec(delta=0.2)
    xs = np.array([-0.7, -0.1, 0.4, 1.3])
    t = 0.8
    h = 2e-3 * spec.delta
    stencils = [smooth_profile(spec, t, xs + k * h) for k in (-2, -1, 0, 1, 2)]
    pr = stencils[2]
    for name in ("rho", "u1", "theta"):
        vals = [getattr(s, name) for s in stencils]
        fd = _fd4(vals, h)
        an = {"rho": pr.drho, "u1": pr.du1, "theta": pr.dtheta}[name]
        assert np.max(np.abs(fd - an)) < 1e-8 * max(1.0, np.max(np.abs(an)))
    du_vals = [s.du1 for s in stencils]
    assert np.max(np.abs(_fd4(du_vals, h) - pr.d2u1)) < 1e-7 * max(1.0, np.max(np.abs(pr.d2u1)))


def test_profile_slopes_positive():
    spec = make_spec()
    pr = smooth_profile(spec, 0.5, np.linspace(-4, 4, 201))
    assert np.all(pr.du1 > 0.0)
    assert np.all(pr.drho > 0.0)
    assert np.all(pr.dtheta > 0.0)


def test_second_derivative_identities():
    # d2 rho and d2 theta follow from d2 u1 and (d u1)^2 with profile weights;
    # the quadratic theta coefficient is (gamma-1)^2/(2 R gamma), the square of
    # the first-derivative weight, as differentiating the slope relation shows
    spec = make_spec(delta=0.25)
    x = np.linspace(-1.5, 1.5, 41)
    pr = smooth_profile(spec, 1.0, x)
    g = GAS
    coef = 1.0 / np.sqrt(g.R * g.gamma * RIGHT.rho ** (1.0 - g.gamma) * RIGHT.theta)
    d2rho_pred = coef * pr.rho ** ((3.0 - g.gamma) / 2.0) * pr.d2u1 \
        + (3.0 - g.gamma) / (2.0 * g.R * g.gamma * RIGHT.rho ** (1.0 - g.gamma) * RIGHT.theta) \
        * pr.rho ** (2.0 - g.gamma) * pr.du1 ** 2
    d2th_pred = (g.gamma - 1.0) / np.sqrt(g.R * g.gamma) * np.sqrt(pr.theta) * pr.d2u1 \
        + (g.gamma - 1.0) ** 2 / (2.0 * g.R * g.gamma) * pr.du1 ** 2
    h = 4e-4
    sten_r = [smooth_profile(spec, 1.0, x + k * h).drho for k in (-2, -1, 0, 1, 2)]
    sten_t = [smooth_profile(spec, 1.0, x + k * h).dtheta for k in (-2, -1, 0, 1, 2)]
    assert np.max(np.abs(_fd4(sten_r, h) - d2rho_pred)) < 1e-6 * max(1.0, np.max(np.abs(d2rho_pred)))
    assert np.max(np.abs(_fd4(sten_t, h) - d2th_pred)) < 1e-6 * max(1.0, np.max(np.abs(d2th_pred)))


def test_profile_lp_norms():
    spec = make_spec()
    span = velocity_span(spec)
    for t in (0.0, 1.0, 2.0, 4.0, 8.0):
        assert profile_lp_norm(spec, t, 1, shift=False) == pytest.approx(span, abs=1e-8)
    prods = [profile_lp_norm(spec, t, np.inf, shift=False) * (spec.delta + t)
             for t in (0.0, 1.0, 2.0, 4.0, 8.0)]
    assert max(prods) / min(prods) < 2.0


def test_smooth_cutoff_distance_scaling():
    # delta |log delta| law at t = 2, one constant across halvings
    ratios = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        spec = make_spec(nu=0.05, delta=delta)
        d = max(smooth_cutoff_distance(spec, 2.0).values())
        env = delta * (np.log(3.0) + abs(np.log(delta))) / 2.0
        ratios.append(d / env)
    assert max(ratios) / min(ratios) < 2.0


# ---------------------------------------------------------------------------
# planar-wave residual
# ---------------------------------------------------------------------------

def test_residual_refinement_order():
    spec = make_spec(delta=0.2)
    x = np.linspace(-1.5, 1.5, 9)
    n_h = max(np.max(np.abs(r)) for r in planar_wave_residual(spec, 2.0, x, 1e-2))
    n_h2 = max(np.max(np.abs(r)) for r in planar_wave_residual(spec, 2.0, x, 5e-3))
    order = np.log2(n_h / n_h2)
    assert 1.7 <= order <= 2.3


def test_residual_constant_region():
    spec = make_spec()
    far = spec.w_plus * 3.0 + 30.0 * spec.delta + 5.0
    res = planar_wave_residual(spec, 2.0, np.array([far, far + 1.0]), 1e-3)
    for r in res:
        assert np.max(np.abs(r)) < 1e-12
