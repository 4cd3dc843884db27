import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from rarefan.gas import (GasParams, PrimState, pressure, sound_speed, transport,
                         entropy)


@pytest.fixture
def gas():
    return GasParams.normalized(5.0 / 3.0, 0.5)


def test_normalization(gas):
    assert gas.A == gas.R == gas.gamma - 1.0


def test_invalid_params():
    with pytest.raises(ValueError):
        GasParams(gamma=1.0, R=1.0, A=1.0, alpha=0.5)
    with pytest.raises(ValueError):
        GasParams(gamma=1.4, R=-1.0, A=1.0, alpha=0.5)
    with pytest.raises(ValueError):
        GasParams(gamma=1.4, R=0.4, A=0.4, alpha=0.5, mu1=1.0, lambda1=-2.0)


def test_pressure_vacuum(gas):
    assert pressure(gas, 0.0, 0.0) == 0.0


def test_pressure_unit_state(gas):
    # p = R rho theta with R = gamma - 1 = 2/3
    assert pressure(gas, 1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_pressure_two_forms_agree(gas):
    # the fan state at xi = 0 has S = 0, where R rho theta and the adiabatic
    # form A rho^gamma exp((gamma-1) S / R) coincide
    rho, theta = 0.421875, 0.5625
    p1 = pressure(gas, rho, theta)
    p2 = gas.A * rho ** gas.gamma
    assert abs(p1 - p2) <= 1e-12 * p1


def test_pressure_consistency_random(gas):
    # 1e4 random states: |R rho theta - A rho^g e^((g-1)S/R)| < 1e-12 p
    rng = np.random.default_rng(1)
    rho = rng.uniform(1e-6, 10.0, size=10_000)
    theta = rng.uniform(1e-6, 10.0, size=10_000)
    p1 = pressure(gas, rho, theta)
    p2 = gas.A * rho ** gas.gamma * np.exp((gas.gamma - 1.0) / gas.R * entropy(gas, rho, theta))
    assert np.all(np.abs(p1 - p2) < 1e-12 * p1)


def test_pressure_negative_inputs(gas):
    with pytest.raises(ValueError):
        pressure(gas, -1.0, 1.0)
    with pytest.raises(ValueError):
        sound_speed(gas, -1.0)
    with pytest.raises(ValueError):
        transport(gas, -0.5)


def test_sound_speed_value(gas):
    assert sound_speed(gas, 1.0) == pytest.approx(np.sqrt(10.0 / 9.0), abs=1e-12)
    assert sound_speed(gas, 0.0) == 0.0


def test_transport_values(gas):
    assert transport(gas, 1.0) == (gas.mu1, gas.lambda1, gas.kappa1)
    assert transport(gas, 0.0) == (0.0, 0.0, 0.0)
    mu, lam, kap = transport(gas, 4.0)
    assert mu == pytest.approx(2.0 * gas.mu1, abs=1e-14)  # alpha = 1/2


@given(th1=st.floats(1e-8, 1e3), th2=st.floats(1e-8, 1e3))
@settings(max_examples=200)
def test_transport_monotone(th1, th2):
    g = GasParams.normalized(1.4, 0.7)
    lo, hi = sorted((th1, th2))
    # adjacent floats can land on the same rounded power; require separation
    assume(hi > lo * (1.0 + 1e-12))
    m1, l1, k1 = transport(g, lo)
    m2, l2, k2 = transport(g, hi)
    assert m1 < m2 and l1 < l2 and k1 < k2


@given(scale=st.floats(1e-6, 1.0))
@settings(max_examples=100)
def test_vacuum_degeneracy(scale):
    g = GasParams.normalized(5.0 / 3.0, 0.5)
    rho, theta = 1e-3 * scale, 1e-3 * scale
    assert pressure(g, rho, theta) <= pressure(g, 1e-3, 1e-3)
    assert sound_speed(g, theta) <= sound_speed(g, 1e-3)
    assert transport(g, theta)[0] <= transport(g, 1e-3)[0]


def test_prim_state_vacuum_rules():
    st0 = PrimState(0.0, -3.0, 0.0)
    assert st0.is_vacuum
    with pytest.raises(ValueError):
        PrimState(0.0, -3.0, 1.0)
    with pytest.raises(ValueError):
        PrimState(-0.1, 0.0, 1.0)


def test_entropy_lazy_and_nan_at_vacuum(gas):
    s = PrimState(1.0, 0.0, 1.0)
    assert s.entropy(gas) == pytest.approx(0.0, abs=1e-15)
    assert np.isnan(PrimState(0.0, 1.0, 0.0).entropy(gas))
    # S = -(gamma-1) log rho + log theta under normalization
    st1 = PrimState(0.5, 0.0, 2.0)
    expect = -(gas.gamma - 1.0) * np.log(0.5) + np.log(2.0)
    assert st1.entropy(gas) == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.25, 1.0, 2.0])
def test_transport_alpha_range(alpha):
    # any alpha > 0 is accepted; the tested range stops at 2
    g = GasParams.normalized(1.4, alpha)
    mu, lam, kap = transport(g, 3.0)
    assert mu == pytest.approx(3.0 ** alpha, rel=1e-14)
    assert transport(g, 0.0) == (0.0, 0.0, 0.0)
