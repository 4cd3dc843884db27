"""Explicit finite-volume integrator for viscous compressible flow.

Convection uses a local Lax-Friedrichs (Rusanov) flux, robust next to the
near-vacuum cut-off state; viscous and heat fluxes are 2nd-order central with
temperature-dependent coefficients evaluated at face-averaged temperature.
Time stepping is 3-stage SSP Runge-Kutta.  The energy equation is integrated
in conserved total-energy form; temperature is always a derived view.  A step
that leaves rho or theta below the constant positivity floor _FLOOR aborts.

Each grid shape has one work area (the ghost-ringed state, its pressure
and sound speed, the kernel's face arrays, the ghost columns, the boundary
flux, step's registers k and r and its boundary-flux sum), allocated on
the first solver call and reused by every stage of every step, so that a
run does not hand its temporaries to the allocator and fault them in again
each stage.  rhs writes the tendency into out=, an array the caller owns,
or into a new one without out=; the boundary flux is always a new array.
step passes rhs its register k, and each stage state as a FieldSet over
its register r, so a step allocates only the state it returns.  The work
area makes rhs, stable_dt and step unsafe to call from concurrent threads
on grids of one shape.

rhs, stable_dt and step's stages are calls of a C kernel, _kernel.c, given
the address of the conserved stack.  rhs is one call: the density check,
the ring fill (the interior's primitives and conserved values, the periodic
wraps, the pinned x1 planes), the temperature check, the pressure and sound
speed, each axis's Euler flux, Rusanov face flux, viscous stress and heat
term, the flux divergence into the tendency, at the faces and cells the
grid has, and the boundary flux.  stable_dt's per-cell maxima are one pass
over the conserved stack, and each of step's stages one pass over its
registers; the last stage's pass over the result also reduces the
result's stable_dt maxima, with the one reduction row stable_dt's pass
uses, so that the next step's stable_dt makes no pass.  On a 1-D line
whose m2 and m3 are exactly +0.0, as the planar wave's runs are, each
kernel entry picks its longitudinal-line kind, from an OR over the bits of
those rows (and of the ghost columns' u2, u3, m2 and m3): it forms no u2,
u3, transverse flux or m2 and m3 stage row, which could only give +0, and
keeps every bit of the general rows, which every multi-D grid and every
line with transverse momentum runs.  No option picks it.  The ring is flat,
(rows, N) over its N cells, with strides (r2 r3, r3, 1) for ring extents
(r1, r2, r3).  theta^alpha is sqrt at alpha = 0.5 and libm's pow
otherwise, and each x1 end plane is summed in order.  The face, fill,
stage and reduction passes run as vectorized rows, built at -O3
-march=native for the host CPU's vectors, without -ffast-math and with
-ffp-contract=off; each lane performs the scalar IEEE operation, so the
bits are a scalar build's at any vector width, and the pow rows stay
scalar.  The kernel, which also holds rarefan.analysis's central
differences, is compiled with the system C compiler (cc) on the first
kernel call of a process that does not find it built, into __pycache__
next to this file, under a name keyed by the source, the flags and the
host CPU's feature line, and loaded through ctypes; importing rarefan
neither builds nor loads it, nor reads the feature line.

A kernel call passes only addresses, and to a stage its index and dt: the
work area's layout, bound once per grid shape, and a struct of the run's
constants, which the work area fills from a call's grid, gas and solver
config and refills when a call brings other objects (compared by
identity).  The work area keeps the last state address it read, with a
weak reference to that array; step leaves there its result's address,
taken as it allocates the result, so the next step reads no address.  It
also keeps a weak reference to the state whose stable_dt maxima it holds:
the last state stable_dt reduced, or the last step's result.  Rebinding
the constants forgets it.  The state step returns is read-only, since an
in-place edit would leave its maxima stale.
"""

from __future__ import annotations

import ctypes
import functools
import math
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .gas import GasParams
from .fields import FieldSet, SlabGrid, aligned_block, aligned_empty, conserved

# SSP-RK3 is stable on the negative real axis down to -2.5127..., the real
# root of 1 + z + z^2/2 + z^3/6 = -1 (Gottlieb, Shu & Tadmor, SIAM Rev. 43
# (2001) 89-112); the viscous dt keeps this fraction of that limit
_RK3_REAL_LIMIT = 2.5127453266183286
_VISC_FRACTION = 0.8

# Courant number of the convective step
_CFL = 0.4

# a run that has not reached its horizon after this many steps aborts
_MAX_STEPS = 10_000_000

# a step whose result has min rho or min theta below this aborts
_FLOOR = 1e-10

# smallest step taken; a sample or horizon time counts as reached within this
# gap, so landing on it never asks for a smaller step
_DT_MIN = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Run-level numerical parameters."""

    eps: float = 1.0
    scaled: bool = False               # tau/y variables: unit viscous multiplier

    def __post_init__(self):
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")

    @property
    def visc_mult(self) -> float:
        """Viscous-term multiplier: 1 in scaled (tau, y) variables, eps otherwise."""
        return 1.0 if self.scaled else self.eps


@dataclass
class StepDiagnostics:
    dt: float
    max_speed: float
    min_rho: float
    min_theta: float
    boundary_flux: np.ndarray  # (5,) net inflow through x1 boundaries this step


class RunAbort(RuntimeError):
    """Raised when the positivity floor is hit or the step size underflows."""

    def __init__(self, message: str, diagnostics: StepDiagnostics | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics


# ghost_source(t) -> (10, 2) array whose columns are the left and right x1
# ghost cells: primitives (rho, u1, u2, u3, theta) over conserved values.
# It is the one x1 boundary input of rhs, step and run: a source pins the x1
# ghosts to its columns, None wraps x1 like the transverse axes
GhostSource = Callable[[float], np.ndarray]


def _ghost_columns(g: GasParams, rho, u1, theta) -> np.ndarray:
    """Ghost columns of planar (rho, u1, theta) pairs, conserved part from fields.conserved."""
    prim = np.zeros((5, 2))
    prim[0], prim[1], prim[4] = rho, u1, theta
    return np.concatenate([prim, conserved(g, prim[0], prim[1:4], prim[4])])


def profile_ghost_source(spec, grid: SlabGrid) -> GhostSource:
    """Pin ghost cells to the smooth wave w(t, .) at the ghost centers.

    While the tanh transition zone stays clear of the boundaries the profile
    there equals the end states to round-off, so the evaluation short-circuits
    to the cached constants.
    """
    from .waves import smooth_profile

    xg = np.array([-grid.L - 0.5 * grid.dx1, grid.L + 0.5 * grid.dx1])
    lstate, rstate = spec.left_state(), spec.right
    const = _ghost_columns(spec.g, (lstate.rho, rstate.rho), (lstate.u1, rstate.u1),
                           (lstate.theta, rstate.theta))
    const.flags.writeable = False
    margin = 15.0 * spec.delta

    def source(t: float) -> np.ndarray:
        if (xg[0] - spec.w_minus * t < -margin) and (xg[1] - spec.w_plus * t > margin):
            return const
        pr = smooth_profile(spec, t, xg)
        return _ghost_columns(spec.g, pr.rho, pr.u1, pr.theta)

    return source


def _active_axes(shape: tuple[int, int, int]) -> tuple[int, ...]:
    return (0,) + tuple(ax for ax in (1, 2) if shape[ax] > 1)


_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
# the kernel library is built here, under a name keyed by the source, the
# flags and the host CPU's features
_BUILD_DIR = _KERNEL_SOURCE.parent / "__pycache__"
# -O3 -march=native vectorizes the kernel's rows with the host CPU's
# vectors, each lane the scalar IEEE operation; -fno-math-errno lets sqrt be
# one instruction, correctly rounded either way (nothing reads errno).
# -ffp-contract=off and no -ffast-math: rhs must keep every rounding of the
# reference's numpy expressions, so no product may fuse with a sum, even on
# a CPU with FMA, and no sum is reordered; the bits are then a scalar
# build's at any vector width.  -march=native makes the library the host's,
# so its name is keyed by the host's feature line as well
_CC = ("cc", "-O3", "-march=native", "-fno-math-errno", "-fPIC", "-shared",
       "-ffp-contract=off")
# where the host's feature line is read, at the first kernel load
_CPUINFO = Path("/proc/cpuinfo")


def _cpu_features() -> str:
    """The host CPU's feature line: the first "flags" line of _CPUINFO (x86),
    or its first "Features" line (arm64); "" where the file is absent."""
    try:
        with _CPUINFO.open() as f:
            for line in f:
                if line.partition(":")[0].strip() in ("flags", "Features"):
                    return line.strip()
    except OSError:
        pass
    return ""


def _kernel_name(source: Path) -> str:
    """The file name of the C source's shared library, <stem>-<build>-<cpu>.so:
    <build> keyed by its bytes and _CC, <cpu> by the host CPU's feature line,
    so that a checkout shared by two CPUs never loads a library built with
    instructions that one of them lacks."""
    import hashlib

    build = hashlib.sha256(source.read_bytes() + " ".join(_CC).encode()).hexdigest()[:16]
    cpu = hashlib.sha256(_cpu_features().encode()).hexdigest()[:8]
    return f"{source.stem}-{build}-{cpu}.so"


def _kernel_path(source: Path, build_dir: Path) -> Path:
    """The shared library of the C source in build_dir, compiled if absent.

    It is compiled under a temporary name and renamed into place, so
    processes that build it at once (a caller and its forked worker) each
    load a whole file.  A build then removes the directory's libraries of
    the source built from other bytes or flags, the builds of its earlier
    edits, and keeps the other CPUs' builds of these.
    """
    import os
    import subprocess

    lib = build_dir / _kernel_name(source)
    if lib.exists():
        return lib
    build_dir.mkdir(parents=True, exist_ok=True)
    tmp = build_dir / f"{lib.name}.{os.getpid()}.tmp"
    cmd = [*_CC, "-o", str(tmp), str(source), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"rarefan's kernel needs a C compiler: {' '.join(cmd)}: {exc}") \
            from None
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    os.replace(tmp, lib)
    build = lib.name.rpartition("-")[0] + "-"
    for stale in build_dir.glob(f"{source.stem}-*.so"):
        if not stale.name.startswith(build):
            stale.unlink(missing_ok=True)
    return lib


class _Layout(ctypes.Structure):
    """The work area as _kernel.c's rk_work sees it."""

    _fields_ = [("n", ctypes.c_int64 * 3), ("stride", ctypes.c_int64 * 3),
                ("active", ctypes.c_int64 * 3), ("N", ctypes.c_int64),
                *((name, ctypes.c_void_p)
                  for name in ("state", "p", "c", "F", "k", "r", "b", "sum", "lim", "mins"))]


class _Coeffs(ctypes.Structure):
    """A run's constants as _kernel.c's coeffs sees them."""

    _fields_ = [("dx", ctypes.c_double * 3),
                *((name, ctypes.c_double) for name in ("area", "R", "gR", "cth", "mu1", "lambda1",
                                                       "kappa1", "alpha", "visc", "lon", "gm1"))]


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The C kernel of the solver and of analysis's derivatives, built on first
    use and loaded once per process."""
    lib = ctypes.CDLL(str(_kernel_path(_KERNEL_SOURCE, _BUILD_DIR)))
    ptr = ctypes.c_void_p
    lib.rk_rhs.argtypes = (ptr,) * 5
    lib.rk_rhs.restype = ctypes.c_int
    lib.rk_dt.argtypes = (ptr,) * 3
    lib.rk_dt.restype = None
    lib.rk_stage.argtypes = (ptr, ptr, ctypes.c_int, ptr, ptr, ctypes.c_double)
    lib.rk_stage.restype = ctypes.c_int
    i64, f64, i32 = ctypes.c_int64, ctypes.c_double, ctypes.c_int
    lib.an_derivs.argtypes = (i64, i64, i64, f64, f64, f64, i32, i32, ptr, ptr)
    lib.an_derivs.restype = None
    return lib


class _Workspace:
    """The arrays the kernel fills on one grid, allocated once per grid shape,
    with the kernel's layout and the addresses the solver passes it, bound
    once, and the run's constants, bound once per grid, gas and config.

    The work area is nine blocks: the ring state, p, c, the ghost columns,
    the boundary flux bflux, step's weighted sum of it (sum), step's
    registers k and r, and the face fluxes F.  The ring-sized arrays are
    flat, (rows, N).  The kernel fills the ring and writes p, c
    and F, only at the cells and faces the grid has; no result reads an
    entry that the current call did not write.  rhs copies a ghost source's
    columns into ghosts, and the kernel writes the boundary flux into
    bflux.  Every array comes from fields.aligned_empty and starts on a
    64-byte boundary.  k receives each stage's tendency, r holds the stage
    states U1 and U2, which rhs hands the kernel by r's address.  limits
    and mins, whose addresses the layout holds, receive stable_dt's maxima
    and the result's minima.

    coeffs holds the kernel's constants of the grid, gas and solver config
    it was filled from, which it keeps as grid, g and cfg; bind refills it
    when a call brings other objects, compared by identity.  last_state and
    last_addr are the address of the last state array whose address was
    read, kept with a weak reference to that array, so that the work area
    holds no caller's state and a step's result reaches the next step with
    its address.  limits_state is a weak reference to the state whose
    limits are in limits, reduced under coeffs' constants: the last one
    stable_dt reduced, or the last step's result, whose last stage reduced
    them.  bind forgets it.
    """

    def __init__(self, shape: tuple[int, int, int]):
        self.tend_shape = (5,) + shape
        active = _active_axes(shape)
        ring = tuple(n + 2 if ax in active else n for ax, n in enumerate(shape))
        N = math.prod(ring)
        self.state = aligned_empty((10, N))
        self.p, self.c = aligned_empty(N), aligned_empty(N)
        self.ghosts, self.bflux, self.sum = aligned_empty((10, 2)), aligned_empty(5), \
            aligned_empty(5)
        self.k, self.r = aligned_empty(self.tend_shape), aligned_empty(self.tend_shape)
        # the kernel's face fluxes, one axis at a time
        self.F = aligned_empty((5, N))
        self.limits, self.mins = (ctypes.c_double * 4)(), (ctypes.c_double * 2)()

        lib = _kernel()
        self.kernel, self.dt_kernel, self.stage = lib.rk_rhs, lib.rk_dt, lib.rk_stage
        self.layout = _Layout(shape, (ring[1] * ring[2], ring[2], 1),
                              tuple(int(ax in active) for ax in range(3)), N,
                              *(a.ctypes.data for a in (self.state, self.p, self.c, self.F,
                                                        self.k, self.r, self.bflux, self.sum)),
                              ctypes.addressof(self.limits), ctypes.addressof(self.mins))
        self.coeffs = _Coeffs()
        self.layout_addr, self.coeffs_addr = (
            ctypes.addressof(a) for a in (self.layout, self.coeffs))
        self.k_addr, self.r_addr, self.ghosts_addr = (
            a.ctypes.data for a in (self.k, self.r, self.ghosts))
        self.grid = self.g = self.cfg = None
        # no state yet: calling NoneType gives None, as a dead weak reference does
        self.last_state, self.last_addr = type(None), 0
        self.limits_state = type(None)

    def bind(self, grid: SlabGrid, g: GasParams, cfg: SolverConfig) -> None:
        """Fill coeffs and stable_dt's constants from grid, g and cfg, and keep
        them; limits, reduced under the old constants, belong to no state."""
        active = _active_axes(grid.shape)
        spacing = grid.spacing
        visc = cfg.visc_mult
        inv_h2 = sum(spacing[ax] ** -2 for ax in active)
        # Viscous/heat symbol at the largest theta^alpha/rho, with q_a = 4/h_a^2, y_a =
        # sin^2(k_a h_a/2), s_a = sin(k_a h_a)/h_a, c = mu + lambda: velocity mu S I +
        # c (diag(q_a y_a^2) + s s^T), S = sum q_a y_a; theta kappa (gamma-1)/R S.  At
        # y = 1 (s = 0) entry a is ((2 mu + lambda) f_a + mu (1 - f_a)) sum q, f_a =
        # q_a / sum q, largest on the finest axis; the cross terms lift it by at most
        # max(1, d c / (2c + d mu)), > 1 only in 3-D with lambda > 2 mu (README proof).
        longitudinal = 0.0
        if visc > 0.0:
            f = min(spacing[ax] for ax in active) ** -2 / inv_h2
            d, c = len(active), g.mu1 + g.lambda1
            longitudinal = max(1.0, d * c / (2.0 * c + d * g.mu1)) * (
                (2.0 * g.mu1 + g.lambda1) * f + g.mu1 * (1.0 - f))
        q = self.coeffs
        q.dx[:] = spacing
        q.area = grid.cell_volume / spacing[0]
        q.R, q.gR, q.cth = g.R, g.gamma * g.R, (g.gamma - 1.0) / g.R
        q.mu1, q.lambda1, q.kappa1, q.alpha = g.mu1, g.lambda1, g.kappa1, g.alpha
        q.visc, q.lon, q.gm1 = visc, longitudinal, g.gamma - 1.0
        self.active, self.spacing, self.visc, self.inv_h2 = active, spacing, visc, inv_h2
        self.grid, self.g, self.cfg = grid, g, cfg
        self.limits_state = type(None)

    def address(self, U: np.ndarray) -> int:
        """The address of the state array U, read only if U is not the last state's."""
        if self.last_state() is not U:
            self.last_state, self.last_addr = weakref.ref(U), U.ctypes.data
        return self.last_addr


@functools.lru_cache(maxsize=8)
def _workspace(shape: tuple[int, int, int]) -> _Workspace:
    return _Workspace(shape)


def _bound(grid: SlabGrid, g: GasParams, cfg: SolverConfig) -> _Workspace:
    """grid's work area, its constants bound to grid, g and cfg."""
    ws = _workspace(grid.shape)
    if grid is not ws.grid or g is not ws.g or cfg is not ws.cfg:
        ws.bind(grid, g, cfg)
    return ws


def rhs(fs: FieldSet, g: GasParams, cfg: SolverConfig,
        ghost_source: GhostSource | None = None,
        t: float | None = None,
        out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete tendency of the stacked conserved fields.

    Returns (tendency(5, n1, n2, n3), boundary_flux(5,)) where boundary_flux is
    the instantaneous net inflow rate through the two x1 boundaries, so that
    d/dt of each conserved total equals the matching entry on pinned runs.
    ghost_source pins the x1 ghosts at time t; None wraps x1 (a torus run).
    The tendency is written into out, a C-contiguous float array of its
    shape, when given, else into a new array; the boundary flux is a new
    array.  Both are the caller's; the work arrays are the grid's.  Raises
    RunAbort if a cell has rho <= 0 or a ring cell theta <= 0.
    """
    ws = _bound(fs.grid, g, cfg)
    if out is ws.k:
        out_addr = ws.k_addr
    elif out is None:
        out = np.empty(ws.tend_shape)
        out_addr = out.ctypes.data
    elif out.shape != ws.tend_shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float array shaped like the tendency")
    else:
        out_addr = out.ctypes.data
    # held for the call: the kernel reads U through its address
    U = np.ascontiguousarray(fs.U, dtype=np.float64)
    ghosts = None
    if ghost_source is not None:
        ws.ghosts[...] = ghost_source(fs.time if t is None else t)
        ghosts = ws.ghosts_addr
    err = ws.kernel(ws.layout_addr, ws.coeffs_addr, ws.r_addr if U is ws.r else ws.address(U),
                    ghosts, out_addr)
    if err:
        raise RunAbort(f"nonpositive {'density' if err == 1 else 'temperature'} entering rhs")
    return out, ws.bflux.copy()


def stable_dt(fs: FieldSet, g: GasParams, cfg: SolverConfig) -> tuple[float, float]:
    """(dt, max wave speed): min of the CFL step and the per-axis SSP-RK3 viscous step.

    The kernel reduces the cells in one pass over the conserved stack to each
    axis's max(|u_a| + c), c = sqrt(max(theta, 0) gamma R), and the largest
    diffusivity visc max(longitudinal pw, kappa pw (gamma - 1) / R) / rho,
    pw = theta^alpha by the kernel's rule; a NaN carries through both.  The
    pass is skipped when the work area's limits are U's already: a step's
    last stage reduces them for its result, and a call reduces them for its
    state, so that a run reduces only its first state here.
    """
    ws = _bound(fs.grid, g, cfg)
    # held for the call: the kernel reads U through its address
    U = np.ascontiguousarray(fs.U, dtype=np.float64)
    if ws.limits_state() is not U:
        ws.dt_kernel(ws.layout_addr, ws.coeffs_addr, ws.address(U))
        ws.limits_state = weakref.ref(U)
    limits, spacing = ws.limits, ws.spacing

    max_speed = 0.0
    dt_conv = np.inf
    for ax in ws.active:
        sp = limits[ax]
        max_speed = max(max_speed, sp)
        if sp > 0.0:
            dt_conv = min(dt_conv, _CFL * spacing[ax] / sp)

    dt_visc = np.inf
    if ws.visc > 0.0:
        dmax = limits[3]
        if dmax > 0.0:
            dt_visc = _VISC_FRACTION * _RK3_REAL_LIMIT / (4.0 * dmax * ws.inv_h2)

    return min(dt_conv, dt_visc), max_speed


def step(fs: FieldSet, g: GasParams, cfg: SolverConfig,
         ghost_source: GhostSource | None = None,
         dt_cap: float | None = None) -> tuple[FieldSet, StepDiagnostics]:
    """One SSP-RK3 step of stable_dt's dt, or of dt_cap where that is smaller.

    Each tendency goes into the work area's register k.  After each rhs the
    kernel forms the stage state U1 or U2 in the register r, which the next
    rhs reads in place, and adds the stage's share of the boundary flux; the
    last stage writes the result, the one array a step allocates, with its
    stable_dt limits, which the next step's stable_dt reads, its min rho,
    min theta and whether its rho and E are finite.  The result is
    read-only, so that no in-place edit leaves those limits stale.  The
    stages evaluate U0 + dt k1, 0.75 U0 + 0.25 (U1 + dt k2) and
    (U0 + 2 (U2 + dt k3)) / 3 operation by operation in that order, and the
    boundary flux sum_i w_i dt b_i from 0.  A state with a NaN u or theta
    somewhere, which makes stable_dt's speed limits NaN and its dt infinite,
    raises RunAbort before the first stage.
    """
    ws = _bound(fs.grid, g, cfg)
    auto_dt, max_speed = stable_dt(fs, g, cfg)
    limits = ws.limits
    # a speed limit is NaN only where a cell's u or theta is
    if math.isnan(limits[0] + limits[1] + limits[2]):
        raise RunAbort("non-finite state entering step")
    dt = auto_dt if dt_cap is None else min(auto_dt, dt_cap)
    if dt < _DT_MIN:
        raise RunAbort(f"time step underflow: dt = {dt:.3e}")

    t0 = fs.time
    # held for the step: the kernel reads U0 through its address
    U0 = np.ascontiguousarray(fs.U, dtype=np.float64)
    u0, w, q = ws.address(U0), ws.layout_addr, ws.coeffs_addr
    rhs(fs, g, cfg, ghost_source, t=t0, out=ws.k)
    ws.stage(w, q, 1, u0, None, dt)
    rhs(FieldSet(fs.grid, ws.r, t0 + dt), g, cfg, ghost_source, t=t0 + dt, out=ws.k)
    ws.stage(w, q, 2, u0, None, dt)
    rhs(FieldSet(fs.grid, ws.r, t0 + 0.5 * dt), g, cfg, ghost_source, t=t0 + 0.5 * dt,
        out=ws.k)
    U3, u3 = aligned_block(ws.tend_shape)
    finite = ws.stage(w, q, 3, u0, u3, dt)
    U3.flags.writeable = False
    # the next step's stable_dt finds the result's limits here, and its U0
    # and first rhs the result's address
    ws.last_state = ws.limits_state = weakref.ref(U3)
    ws.last_addr = u3

    diag = StepDiagnostics(dt=dt, max_speed=max_speed, min_rho=ws.mins[0],
                           min_theta=ws.mins[1], boundary_flux=ws.sum.copy())
    if not finite:
        raise RunAbort("non-finite state after step", diag)
    if diag.min_rho < _FLOOR or diag.min_theta < _FLOOR:
        raise RunAbort(
            f"positivity floor hit: min rho {diag.min_rho:.3e}, min theta {diag.min_theta:.3e}",
            diag)
    return FieldSet(fs.grid, U3, t0 + dt), diag


def run(initial: FieldSet, g: GasParams, cfg: SolverConfig, horizon: float,
        observers: dict[str, Callable[[FieldSet, GasParams], dict]] | None = None,
        ghost_source: GhostSource | None = None,
        sample_dt: float | None = None) -> tuple[FieldSet, list[dict]]:
    """Advance to the horizon, sampling diagnostics every sample_dt time units.

    Steps are capped so that every sample lands on its time t0 + k sample_dt
    and the last on the horizon.  ghost_source pins the x1 ghosts; None
    wraps x1, as on the torus.  Each record carries the base diagnostic
    columns plus each observer's dict, its keys prefixed with the
    observer's name and a dot; records are plain dicts ready for CSV
    emission.  A stepped sample takes its min rho and min theta from the
    step's diagnostics, which the kernel reduces in FieldSet.primitives'
    order, so only the initial sample forms the primitives for them.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    observers = observers or {}
    fs = initial.copy()
    records: list[dict] = []

    def record(diag: StepDiagnostics | None):
        if diag is None:
            min_rho, min_theta = float(np.min(fs.rho)), float(np.min(fs.primitives(g)[4]))
        else:  # the kernel's minima of the step that made fs
            min_rho, min_theta = diag.min_rho, diag.min_theta
        row = {"tau": fs.time, "dt": diag.dt if diag else 0.0, "min_rho": min_rho,
               "min_theta": min_theta}
        row.update(fs.totals())
        for name, fn in observers.items():
            row.update({f"{name}.{k}": v for k, v in fn(fs, g).items()})
        records.append(row)

    record(None)
    if horizon == 0.0:
        return fs, records

    t0 = fs.time
    t_end = t0 + horizon
    n_sample = 1
    next_sample = t0 + sample_dt if sample_dt else np.inf
    for _ in range(_MAX_STEPS):
        # land on the next sample or the horizon; a gap left open here exceeds
        # _DT_MIN, so the cap never forces a step below the underflow limit
        target = min(t_end, next_sample)
        fs, diag = step(fs, g, cfg, ghost_source, dt_cap=target - fs.time)
        if next_sample - fs.time <= _DT_MIN:
            record(diag)
            n_sample += 1
            next_sample = t0 + n_sample * sample_dt
        if t_end - fs.time <= _DT_MIN:
            if records[-1]["tau"] < fs.time:
                record(diag)
            return fs, records
    raise RunAbort(f"{_MAX_STEPS} steps exhausted before reaching horizon")
