"""Numerical laboratory for planar rarefaction waves with vacuum in viscous
compressible flow: exact/cut-off/smooth wave construction, an explicit
finite-volume solver with temperature-dependent transport, mode-decomposition
and energy diagnostics, and batch experiment drivers."""

from .gas import GasParams, PrimState, sound_speed
from .waves import WaveSpec, smooth_profile, riemann_invariants
from .fields import SlabGrid, FieldSet
from .solver import SolverConfig, StepDiagnostics, RunAbort, rhs, step, run
from .analysis import decompose, ModeSplit, energy_report, gn_check, gn_sample, sup_distance, \
    fit_rate
from .ansatz import PerturbationSpec, make_perturbation, assemble_initial, \
    build_ansatz, ansatz_errors
from .config import ExperimentConfig, ConfigError, parse_config, paper_constants

__version__ = "0.1.0"
