import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rarefan.gas import GasParams, PrimState, sound_speed, entropy


@pytest.fixture
def gas():
    return GasParams.normalized(5.0 / 3.0, 0.5)


def test_normalization(gas):
    assert gas.R == gas.gamma - 1.0


def test_invalid_params():
    with pytest.raises(ValueError):
        GasParams(gamma=1.0, R=1.0, alpha=0.5)
    with pytest.raises(ValueError):
        GasParams(gamma=1.4, R=-1.0, alpha=0.5)
    with pytest.raises(ValueError):
        GasParams(gamma=1.4, R=0.4, alpha=0.5, mu1=1.0, lambda1=-2.0)


def test_pressure_two_forms_agree(gas):
    # the fan state at xi = 0 has S = 0, where R rho theta and the adiabatic
    # form A rho^gamma exp((gamma-1) S / R), A = R, coincide
    rho, theta = 0.421875, 0.5625
    p1 = gas.R * rho * theta
    p2 = gas.R * rho ** gas.gamma
    assert abs(p1 - p2) <= 1e-12 * p1


def test_pressure_consistency_random(gas):
    # 1e4 random states: |R rho theta - R rho^g e^((g-1)S/R)| < 1e-12 p
    rng = np.random.default_rng(1)
    rho = rng.uniform(1e-6, 10.0, size=10_000)
    theta = rng.uniform(1e-6, 10.0, size=10_000)
    p1 = gas.R * rho * theta
    p2 = gas.R * rho ** gas.gamma * np.exp((gas.gamma - 1.0) / gas.R * entropy(gas, rho, theta))
    assert np.all(np.abs(p1 - p2) < 1e-12 * p1)


def test_pressure_negative_inputs(gas):
    with pytest.raises(ValueError):
        sound_speed(gas, -1.0)


def test_sound_speed_value(gas):
    assert sound_speed(gas, 1.0) == pytest.approx(np.sqrt(10.0 / 9.0), abs=1e-12)
    assert sound_speed(gas, 0.0) == 0.0


@given(scale=st.floats(1e-6, 1.0))
@settings(max_examples=100)
def test_vacuum_degeneracy(scale):
    g = GasParams.normalized(5.0 / 3.0, 0.5)
    theta = 1e-3 * scale
    assert sound_speed(g, theta) <= sound_speed(g, 1e-3)


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
