"""Polytropic gas model with power-law transport coefficients.

The conventions are pressure p = R*rho*theta, internal energy
e = R/(gamma-1)*theta, transport coefficients mu = mu1*theta**alpha,
lambda = lambda1*theta**alpha, kappa = kappa1*theta**alpha, and A = R in the
adiabatic form p = A rho^gamma exp((gamma-1) S / R), so no field holds A.
The solver and the diagnostics form p and the coefficients inline on their
own arrays from GasParams; the sound speed and the entropy are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Densities below this are treated as exact vacuum (theta forced to 0).  The
# closed-form wave branches are singular there; a hard floor keeps branch
# selection deterministic.
VACUUM_RHO = 1e-14


@dataclass(frozen=True)
class GasParams:
    """Thermodynamic constants and transport prefactors of the fluid."""

    gamma: float
    R: float
    alpha: float
    mu1: float = 1.0
    lambda1: float = 1.0
    kappa1: float = 1.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        for name in ("R", "alpha", "mu1", "kappa1"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # mu + lambda >= 0 keeps the viscous stress dissipative for all theta > 0
        if self.mu1 + self.lambda1 < 0.0:
            raise ValueError("mu1 + lambda1 must be nonnegative")

    @classmethod
    def normalized(cls, gamma: float, alpha: float,
                   mu1: float = 1.0, lambda1: float = 1.0, kappa1: float = 1.0) -> "GasParams":
        """Standard normalization R = gamma - 1 (and A = R)."""
        return cls(gamma=gamma, R=gamma - 1.0, alpha=alpha,
                   mu1=mu1, lambda1=lambda1, kappa1=kappa1)


@dataclass(frozen=True)
class PrimState:
    """Primitive phase-space point (rho, u1, theta).

    Entropy is never stored; it is recomputed from (rho, theta) on demand so
    the triple stays the single source of truth.  A vacuum state is rho = 0
    (below VACUUM_RHO) and must carry theta = 0.
    """

    rho: float
    u1: float
    theta: float

    def __post_init__(self):
        if self.rho < 0.0 or self.theta < 0.0:
            raise ValueError(f"rho and theta must be nonnegative, got ({self.rho}, {self.theta})")
        if self.is_vacuum and self.theta != 0.0:
            raise ValueError("vacuum state requires theta = 0")

    @property
    def is_vacuum(self) -> bool:
        return self.rho < VACUUM_RHO

    def entropy(self, g: GasParams) -> float:
        """S such that p = R rho^gamma exp((gamma-1) S / R); nan at vacuum."""
        return entropy(g, self.rho, self.theta)


def entropy(g: GasParams, rho, theta):
    """Entropy S = R/(gamma-1) log(theta rho^(1-gamma)) from (rho, theta), as A = R.

    Under the normalization R = gamma-1 this is -(gamma-1) log rho + log theta.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = g.R / (g.gamma - 1.0) * np.log(theta * rho ** (1.0 - g.gamma))
    s = np.where(rho < VACUUM_RHO, np.nan, s)
    return float(s) if s.ndim == 0 else s


def sound_speed(g: GasParams, theta):
    """c = sqrt(gamma R theta) = sqrt(p_rho at fixed entropy); zero at vacuum."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0):
        raise ValueError("sound_speed: theta must be nonnegative")
    c = np.sqrt(g.gamma * g.R * theta)
    return float(c) if c.ndim == 0 else c
