"""Declarative experiment configuration: INI sections, validation, couplings.

The wave's cut-off density and smoothing width may be given literally, linked
to the viscosity scale by desk-scale power laws, or derived from the coupled
asymptotic scalings (paper_scaling) which are refused outright when they
produce an infeasible cut-off instead of being clamped.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import subprocess
import typing
from dataclasses import dataclass, asdict, fields

from .gas import GasParams, PrimState
from .solver import SolverConfig
from .waves import WaveSpec


class ConfigError(ValueError):
    """Malformed or infeasible configuration; maps to exit code 2."""


_SECTIONS = ("gas", "wave", "grid", "solver", "experiment", "output")

KINDS = ("wave", "simulate", "cutoff-study", "profile-study", "eps-sweep",
         "decay", "background", "gn-check")


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
    cfl: float = 0.4
    floor_rho: float = 1e-9
    floor_theta: float = 1e-9
    boundary: str = "pinned-profile"
    scaled: bool = False

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
    paper_scaling: bool = False
    # verdict bands: engineering defaults, overridable because the analysis
    # provides no constants
    band_factor: float = 2.0
    exp_tol: float = 0.15
    r2_min: float = 0.95
    samples: int = 50


@dataclass
class ExperimentConfig:
    gas: GasParams
    right: PrimState
    nu: float | None
    delta: float | None
    nu_coeff: float | None
    nu_exp: float | None
    delta_coeff: float | None
    delta_exp: float | None
    grid: GridBlock
    solver: SolverBlock
    experiment: ExperimentBlock
    out_dir: str = "out"

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        d = {
            "gas": asdict(self.gas),
            "wave": {"rho_plus": self.right.rho, "u1_plus": self.right.u1,
                     "theta_plus": self.right.theta, "nu": self.nu, "delta": self.delta,
                     "nu_coeff": self.nu_coeff, "nu_exp": self.nu_exp,
                     "delta_coeff": self.delta_coeff, "delta_exp": self.delta_exp},
            "grid": asdict(self.grid),
            "solver": asdict(self.solver),
            "experiment": asdict(self.experiment),
            "output": {"dir": self.out_dir},
        }
        return d

    def config_hash(self) -> str:
        """Hash of the run-defining settings; the output directory is not one of them."""
        d = self.as_dict()
        del d["output"]
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # ------------------------------------------------------------------
    def paper_constants(self) -> tuple[float, float]:
        """(a, Z) of the coupled asymptotic scalings."""
        return paper_constants(self.gas.gamma, self.gas.alpha)

    def resolve_nu_delta(self, eps: float) -> tuple[float, float]:
        """Cut-off density and smoothing width for one viscosity value.

        paper_scaling uses nu = eps^(Z a) |log eps|, delta = eps^a and refuses
        infeasible values; the desk-scale link uses user powers of eps; plain
        literals otherwise.
        """
        if self.experiment.paper_scaling:
            a, Z = self.paper_constants()
            nu = eps ** (Z * a) * abs(math.log(eps))
            delta = eps ** a
            if nu >= self.right.rho:
                raise ConfigError(
                    f"paper-scaling infeasible: nu = eps^(Z a)|log eps| = {nu:.6g} "
                    f">= rho_plus = {self.right.rho:.6g} at eps = {eps:.6g}; "
                    "the coupled scalings only bite asymptotically, set nu explicitly")
            if not 0.0 < delta:
                raise ConfigError(f"paper-scaling produced invalid delta = {delta:.6g}")
            return nu, delta
        if self.nu_coeff is not None:
            nu = self.nu_coeff * eps ** (self.nu_exp if self.nu_exp is not None else 0.5)
        elif self.nu is not None:
            nu = self.nu
        else:
            raise ConfigError("wave.nu missing: set nu, nu_coeff, or paper_scaling")
        if self.delta_coeff is not None:
            delta = self.delta_coeff * eps ** (self.delta_exp if self.delta_exp is not None else 0.5)
        elif self.delta is not None:
            delta = self.delta
        else:
            raise ConfigError("wave.delta missing: set delta, delta_coeff, or paper_scaling")
        if not 0.0 < nu < self.right.rho:
            raise ConfigError(f"resolved nu = {nu:.6g} outside (0, rho_plus)")
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
# parsing / emission
# ---------------------------------------------------------------------------

def _get(cp, section, key, cast, default):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        if cast is bool:
            return cp.getboolean(section, key)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _sweep(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


# sections read straight from their dataclass: each key, type and default
# is written once, on the field
_BLOCKS = {"grid": GridBlock, "solver": SolverBlock, "experiment": ExperimentBlock}
_CASTS = {float | None: float, tuple[float, ...]: _sweep}

_KEYS = {
    "gas": {"gamma", "alpha", "mu1", "lambda1", "kappa1", "normalized", "R", "A"},
    "wave": {"rho_plus", "u1_plus", "theta_plus", "nu", "delta",
             "nu_coeff", "nu_exp", "delta_coeff", "delta_exp"},
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
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}]")
        for key in cp.options(sec):
            if key not in _KEYS[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")

    gamma = _get(cp, "gas", "gamma", float, 5.0 / 3.0)
    alpha = _get(cp, "gas", "alpha", float, 0.5)
    mu1 = _get(cp, "gas", "mu1", float, 1.0)
    lambda1 = _get(cp, "gas", "lambda1", float, 1.0)
    kappa1 = _get(cp, "gas", "kappa1", float, 1.0)
    normalized = _get(cp, "gas", "normalized", bool, True)
    if normalized:
        gas = GasParams.normalized(gamma, alpha, mu1, lambda1, kappa1)
    else:
        R = _get(cp, "gas", "R", float, None)
        A = _get(cp, "gas", "A", float, None)
        if R is None or A is None:
            raise ConfigError("[gas] non-normalized runs need explicit R and A")
        gas = GasParams(gamma, R, A, alpha, mu1, lambda1, kappa1)

    try:
        right = PrimState(_get(cp, "wave", "rho_plus", float, 1.0),
                          _get(cp, "wave", "u1_plus", float, 0.0),
                          _get(cp, "wave", "theta_plus", float, 1.0))
    except ValueError as exc:
        raise ConfigError(f"[wave] invalid right state: {exc}") from exc

    grid = _block(cp, "grid")
    solver = _block(cp, "solver")
    solver.solver_config()  # an invalid [solver] block fails here, not mid-run
    exp = _block(cp, "experiment")
    if exp.kind not in KINDS:
        raise ConfigError(f"[experiment] kind must be one of {KINDS}, got {exp.kind!r}")

    cfg = ExperimentConfig(
        gas=gas, right=right,
        nu=_get(cp, "wave", "nu", float, None),
        delta=_get(cp, "wave", "delta", float, None),
        nu_coeff=_get(cp, "wave", "nu_coeff", float, None),
        nu_exp=_get(cp, "wave", "nu_exp", float, None),
        delta_coeff=_get(cp, "wave", "delta_coeff", float, None),
        delta_exp=_get(cp, "wave", "delta_exp", float, None),
        grid=grid, solver=solver, experiment=exp,
        out_dir=_get(cp, "output", "dir", str, "out"))
    return cfg


def _ini_value(v) -> str:
    return v if isinstance(v, str) else repr(v)


def emit_config(cfg: ExperimentConfig, path) -> None:
    """Write a config back out; emit + parse round-trips to an equal config."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    d = cfg.as_dict()
    gas = {"gamma": cfg.gas.gamma, "alpha": cfg.gas.alpha, "mu1": cfg.gas.mu1,
           "lambda1": cfg.gas.lambda1, "kappa1": cfg.gas.kappa1,
           "normalized": cfg.gas.is_normalized}
    if not cfg.gas.is_normalized:
        gas["R"] = cfg.gas.R
        gas["A"] = cfg.gas.A
    cp["gas"] = {k: _ini_value(v) for k, v in gas.items()}
    cp["wave"] = {k: _ini_value(v) for k, v in d["wave"].items() if v is not None}
    cp["grid"] = {k: _ini_value(v) for k, v in d["grid"].items() if v is not None}
    cp["solver"] = {k: _ini_value(v) for k, v in d["solver"].items()}
    exp = dict(d["experiment"])
    exp["sweep"] = ", ".join(repr(v) for v in cfg.experiment.sweep)
    cp["experiment"] = {k: _ini_value(v) for k, v in exp.items()}
    cp["output"] = {"dir": cfg.out_dir}
    with open(path, "w") as fh:
        cp.write(fh)


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5)
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"
