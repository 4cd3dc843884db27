"""Declarative experiment configuration: INI sections, validation, couplings.

The wave's cut-off density and smoothing width are each given one of two
ways: literally, or linked to the viscosity scale by a desk-scale
square-root law. Giving one both ways is refused at parse time, and a
resolved cut-off density outside (0, rho_plus) is refused, not clamped.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
import os
import subprocess
import typing
from dataclasses import dataclass, asdict, fields

from .ansatz import PerturbationSpec
from .gas import GasParams, PrimState
from .solver import SolverConfig
from .waves import WaveSpec


class ConfigError(ValueError):
    """Malformed or infeasible configuration; maps to exit code 2."""


@dataclass
class WaveBlock:
    rho_plus: float = 1.0
    u1_plus: float = 0.0
    theta_plus: float = 1.0
    # the cut-off density and smoothing width: literal, or coeff * eps^(1/2)
    nu: float | None = None
    delta: float | None = None
    nu_coeff: float | None = None
    delta_coeff: float | None = None


@dataclass
class GridBlock:
    L: float | None = None      # None: derive from the wave span and horizon
    n1: int = 512
    period: float = 0.5
    n2: int = 1
    n3: int = 1
    dims: int = 1


@dataclass
class SolverBlock:
    eps: float = 0.02

    def solver_config(self, **overrides) -> SolverConfig:
        """The one config-to-solver map: this block, with a driver's overrides."""
        try:
            return SolverConfig(**{**asdict(self), **overrides})
        except ValueError as exc:
            raise ConfigError(f"[solver] {exc}") from exc


@dataclass
class ExperimentBlock:
    kind: str = "simulate"
    sweep: tuple[float, ...] = ()
    horizon: float = 1.0
    h: float = 0.25
    eta: float = 0.0
    seed: int = 0
    mode_cap: int = 3
    samples: int = 50

    def perturbation(self, eta: float | None = None) -> PerturbationSpec:
        """The one config-to-perturbation map: this block's, at amplitude eta if given."""
        try:
            return PerturbationSpec(eta=self.eta if eta is None else eta,
                                    mode_cap=self.mode_cap, seed=self.seed)
        except ValueError as exc:
            raise ConfigError(f"[experiment] {exc}") from exc


@dataclass
class ExperimentConfig:
    gas: GasParams
    wave: WaveBlock
    grid: GridBlock
    solver: SolverBlock
    experiment: ExperimentBlock
    out_dir: str = "out"

    @property
    def right(self) -> PrimState:
        """The wave's right end state."""
        w = self.wave
        try:
            return PrimState(w.rho_plus, w.u1_plus, w.theta_plus)
        except ValueError as exc:
            raise ConfigError(f"[wave] invalid right state: {exc}") from exc

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {"gas": asdict(self.gas),
                **{sec: asdict(getattr(self, sec)) for sec in _BLOCKS},
                "output": {"dir": self.out_dir}}

    def config_hash(self) -> str:
        """Hash of the run-defining settings; the output directory is not one of them."""
        d = self.as_dict()
        del d["output"]
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # ------------------------------------------------------------------
    def resolve_nu_delta(self, eps: float) -> tuple[float, float]:
        """Cut-off density and smoothing width for one viscosity value.

        Each is coeff * eps^(1/2) when its coefficient is set, else the
        literal. A negative eps or a nu outside (0, rho_plus) is refused, not clamped.
        """
        if eps < 0.0:
            raise ConfigError(f"eps = {eps:.6g} is negative: a viscosity must be nonnegative")
        w = self.wave
        nu = w.nu if w.nu_coeff is None else w.nu_coeff * eps ** 0.5
        delta = w.delta if w.delta_coeff is None else w.delta_coeff * eps ** 0.5
        for name, value in (("nu", nu), ("delta", delta)):
            if value is None:
                raise ConfigError(f"wave.{name} missing: set {name} or {name}_coeff")
        if not 0.0 < nu < self.right.rho:
            raise ConfigError(f"resolved nu = {nu:.6g} outside (0, rho_plus = "
                              f"{self.right.rho:.6g}) at eps = {eps:.6g}")
        return nu, delta

    def wave_spec(self, eps: float | None = None) -> WaveSpec:
        nu, delta = self.resolve_nu_delta(self.solver.eps if eps is None else eps)
        return WaveSpec(self.right, self.gas, nu=nu, delta=delta)


def paper_constants(gamma: float, alpha: float) -> tuple[float, float]:
    """Rate exponents a = (alpha+1)/(9 gamma (alpha+2) - 3), Z = 1/(4 (alpha+1) gamma)."""
    a = (alpha + 1.0) / (9.0 * gamma * (alpha + 2.0) - 3.0)
    Z = 1.0 / (4.0 * (alpha + 1.0) * gamma)
    return a, Z


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _get(cp, section, key, cast, default):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _sweep(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


# sections read straight from their dataclass: each key, type and default
# is written once, on the field
_BLOCKS = {"wave": WaveBlock, "grid": GridBlock, "solver": SolverBlock,
           "experiment": ExperimentBlock}
_CASTS = {float | None: float, tuple[float, ...]: _sweep}

_KEYS = {
    "gas": {"gamma", "alpha", "mu1", "lambda1", "kappa1"},
    **{sec: {f.name for f in fields(cls)} for sec, cls in _BLOCKS.items()},
    "output": {"dir"},
}


def _block(cp, section: str):
    cls = _BLOCKS[section]
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: _get(cp, section, f.name, _CASTS.get(hints[f.name], hints[f.name]),
                               f.default)
                  for f in fields(cls)})


def parse_config(path) -> ExperimentConfig:
    """Read and validate an INI experiment configuration."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for sec in ("gas", "experiment"):
        if not cp.has_section(sec):
            raise ConfigError(f"missing required section [{sec}]")
    for sec in cp.sections():
        if sec not in _KEYS:
            raise ConfigError(f"unknown section [{sec}]")
        for key in cp.options(sec):
            if key not in _KEYS[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")

    gas = GasParams.normalized(_get(cp, "gas", "gamma", float, 5.0 / 3.0),
                               _get(cp, "gas", "alpha", float, 0.5),
                               _get(cp, "gas", "mu1", float, 1.0),
                               _get(cp, "gas", "lambda1", float, 1.0),
                               _get(cp, "gas", "kappa1", float, 1.0))

    from .experiments import DRIVERS, DEFAULT_EPS_SWEEP  # DRIVERS: the one list of study kinds

    cfg = ExperimentConfig(gas=gas, **{sec: _block(cp, sec) for sec in _BLOCKS},
                           out_dir=_get(cp, "output", "dir", str, "out"))
    # an invalid right state, [solver] block, perturbation, kind or sample
    # count, a wave quantity given both ways, or an eps-sweep eps whose wave
    # cannot be resolved, fails here, not mid-run
    cfg.right
    cfg.solver.solver_config()
    cfg.experiment.perturbation()
    for name in ("nu", "delta"):
        if getattr(cfg.wave, name) is not None and getattr(cfg.wave, f"{name}_coeff") is not None:
            raise ConfigError(f"[wave] {name} and {name}_coeff both given: set one")
    if cfg.experiment.samples < 1:
        raise ConfigError(f"[experiment] samples must be at least 1, "
                          f"got {cfg.experiment.samples}")
    if cfg.experiment.kind not in DRIVERS:
        raise ConfigError(f"[experiment] kind must be one of {tuple(DRIVERS)}, "
                          f"got {cfg.experiment.kind!r}")
    if cfg.experiment.kind == "eps-sweep":
        for eps in cfg.experiment.sweep or DEFAULT_EPS_SWEEP:
            cfg.wave_spec(eps)
    return cfg


@functools.cache
def git_commit() -> str:
    """Short HEAD of the checkout this package is imported from, suffixed
    "-dirty" when git lists a changed or untracked file in the package
    directory, else "unknown". Asked once per process: the answer names the
    code this process imported."""
    try:
        out = subprocess.run(["git", "status", "--porcelain=v2", "--branch", "--", "."],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.splitlines()
    oid = next((ln.split()[2] for ln in lines if ln.startswith("# branch.oid ")), "(initial)")
    if out.returncode != 0 or oid == "(initial)":
        return "unknown"
    dirty = any(not ln.startswith("#") for ln in lines)
    return oid[:7] + ("-dirty" if dirty else "")
