"""Mode decomposition, weighted energy diagnostics, interpolation-inequality
checks, distances to the exact wave, and rate fitting.

Norm conventions: discrete integrals over the slab R x T^2 use the cell
volume dx1*dx2*dx3; line quantities (transverse averages) carry the
transverse area as measure so Parseval and the projection bounds hold with
consistent measures at machine precision.

The central differences (gradient, grad_sq, derivative_sq) are calls of
the C kernel that rarefan.solver builds and loads on first use
(solver._kernel); without a C compiler the first of them raises
RuntimeError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import solver
from .gas import GasParams
from .fields import FieldSet, SlabGrid, aligned_empty
from .waves import WaveSpec, sample_exact


# ---------------------------------------------------------------------------
# zero / non-zero mode decomposition
# ---------------------------------------------------------------------------

@dataclass
class ModeSplit:
    """Transverse average (zero mode) and oscillatory remainder of a field."""

    zero: np.ndarray     # (n1, 1, 1)
    nonzero: np.ndarray  # (n1, n2, n3)


def decompose(f: np.ndarray, grid: SlabGrid) -> ModeSplit:
    """Split f into its transverse mean and the zero-average remainder.

    The mean is the plain discrete average over the periodic cross-section,
    which makes the projector identities exact up to round-off; on a 1-D
    grid it is f itself, so the non-zero part is 0 wherever f is finite.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ValueError("field shape does not match grid")
    zero = f.mean(axis=(1, 2), keepdims=True)
    return ModeSplit(zero, f - zero)


def _lp_sum(f: np.ndarray, p: float, sq: np.ndarray) -> np.float64:
    """lp_slab's part that the grid does not enter: sum |f|^p, max |f| at
    p = inf, through sq, a float array of f's shape that it overwrites."""
    if np.isinf(p):
        return np.max(np.abs(f, out=sq))
    if p == 2:
        np.multiply(f, f, out=sq)  # |f|^2 is f^2 to the bit
    else:
        np.power(np.abs(f, out=sq), p, out=sq)
    return np.sum(sq)


def _lp_finish(s: np.float64, grid: SlabGrid, p: float) -> float:
    """lp_slab from its _lp_sum s: (s * cell volume)^(1/p), s itself at p = inf."""
    return float(s) if np.isinf(p) else float((s * grid.cell_volume) ** (1.0 / p))


def lp_slab(f: np.ndarray, grid: SlabGrid, p: float) -> float:
    """L^p norm over the slab with the discrete volume measure: _lp_finish of
    f's _lp_sum, so a caller holding the sum finishes it on any grid of f's
    shape, bitwise this."""
    f = np.asarray(f, dtype=float)
    return _lp_finish(_lp_sum(f, p, np.empty_like(f)), grid, p)


def lp_line(f0: np.ndarray, grid: SlabGrid, p: float) -> float:
    """L^p norm of a zero mode on the line, weighted by the transverse area."""
    f0 = np.asarray(f0, dtype=float)
    if np.isinf(p):
        return float(np.max(np.abs(f0)))
    return float((np.sum(np.abs(f0) ** p) * grid.dx1 * grid.transverse_area) ** (1.0 / p))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _derivatives(f: np.ndarray, grid: SlabGrid, periodic_x1: bool, level: int,
                 work: np.ndarray | None = None) -> np.ndarray:
    """The kernel's an_derivs of f into work, a C-contiguous float (rows,) +
    grid.shape block, 7 rows at level 2 and 3 below, allocated when None:
    the gradient in rows 0-2; at level 2 the Hessian sum in row 6, rows
    3-5 the second gradient of one component at a time; at level >= 1 then
    |grad f|^2 in row 0."""
    f = np.ascontiguousarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ValueError("field shape does not match grid")
    shape = (7 if level == 2 else 3,) + f.shape
    if work is None:
        work = np.empty(shape)
    elif work.shape != shape or work.dtype != np.float64 or not work.flags.c_contiguous:
        raise ValueError(f"the derivatives' block must be a C-contiguous float {shape} array")
    if grid.shape[0] == 2 and not periodic_x1:
        raise ValueError("the one-sided x1 closure needs n1 >= 3")
    solver._kernel().an_derivs(*grid.shape, *grid.spacing, not periodic_x1, level,
                               f.ctypes.data, work.ctypes.data)
    return work


def gradient(f: np.ndarray, grid: SlabGrid, periodic_x1: bool = False) -> np.ndarray:
    """2nd-order central gradient (3, n1, n2, n3); transverse axes periodic,
    x1 one-sided 2nd-order at the ends unless periodic_x1.

    One kernel call: each component is (f(i + 1) - f(i - 1)) / (2 h) with
    wrapped ends, 0 along an axis of one cell, and the pinned x1 ends take
    np.gradient's uniform edge_order=2 formulas in its operation order, so
    the result is np.gradient's and the roll form's to the bit.
    """
    return _derivatives(f, grid, periodic_x1, 0)


def grad_sq(f: np.ndarray, grid: SlabGrid, periodic_x1: bool = False) -> np.ndarray:
    """|grad f|^2 cellwise: derivative_sq's first result, without the Hessian."""
    return _derivatives(f, grid, periodic_x1, 1)[0]


def derivative_sq(f: np.ndarray, grid: SlabGrid, periodic_x1: bool = False,
                  work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """|grad f|^2 and the Frobenius |grad^2 f|^2 cellwise, both from one
    gradient of f; the second differentiates each of its components again.

    One kernel call writes everything into work, a C-contiguous float (7,)
    + f.shape block: gradient's components into rows 0-2; then the Hessian
    sum into row 6, adding the squares (d1^2 + d2^2) + d3^2 of component
    b's gradient, in rows 3-5, for b = 0, 1, 2 in turn; then |grad f|^2,
    summed the same way, into row 0.  So both are the numpy forms' to the bit.
    The two results are rows 0 and 6 of the block, so the next call with
    the same block overwrites them; without a block one is allocated and
    the results are the caller's.
    """
    work = _derivatives(f, grid, periodic_x1, 2, work)
    return work[0], work[6]


# ---------------------------------------------------------------------------
# weighted energy functionals
# ---------------------------------------------------------------------------

def _phi_hat(s: np.ndarray) -> np.ndarray:
    """Convex entropy kernel s - ln s - 1, nonnegative and vanishing at 1."""
    return s - np.log(s) - 1.0


def energy_report(phi: np.ndarray, psi: np.ndarray, zeta: np.ndarray,
                  rho_bar: np.ndarray, theta_bar: np.ndarray,
                  grid: SlabGrid, g: GasParams) -> dict:
    """Weighted perturbation energies against a positive background, as a row.

    phi, psi (3 components), zeta are the perturbations of (rho, u, theta)
    around the background (rho_bar, theta_bar); gradients by central
    differences with one-sided closure at the pinned x1 ends. The row's
    keys, in order (g = gamma):
      basic: int rho_bar^(g-2) phi^2 + rho_bar |psi|^2 + rho_bar^(2-g) zeta^2
      grad1: int th_bar/rho_bar |grad phi|^2 + rho_bar |grad psi|^2
             + rho_bar/th_bar |grad zeta|^2
      grad2: grad1 with the second derivatives
      dissipation: int th_bar^alpha |grad psi|^2 + th_bar^(alpha-1) |grad zeta|^2
      rel_entropy: int rho Ehat, rho = rho_bar + phi
      sandwich_violations: cells where rho or theta leaves [1/2, 3/2] of its background
    """
    rho_bar = np.broadcast_to(np.asarray(rho_bar, dtype=float), grid.shape)
    theta_bar = np.broadcast_to(np.asarray(theta_bar, dtype=float), grid.shape)
    if np.any(rho_bar <= 0.0) or np.any(theta_bar <= 0.0):
        raise ValueError("background must be strictly positive")
    phi = np.asarray(phi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    rho = rho_bar + phi
    theta = theta_bar + zeta
    if np.any(rho <= 0.0) or np.any(theta <= 0.0):
        raise ValueError("perturbed state left the positive cone")
    dv = grid.cell_volume
    gm = g.gamma

    psi2 = np.sum(psi * psi, axis=0)
    basic = float(np.sum(rho_bar ** (gm - 2.0) * phi ** 2 + rho_bar * psi2
                         + rho_bar ** (2.0 - gm) * zeta ** 2) * dv)

    gphi2, h_phi = derivative_sq(phi, grid)
    d_psi = [derivative_sq(psi[c], grid) for c in range(3)]
    gpsi2, h_psi = sum(d[0] for d in d_psi), sum(d[1] for d in d_psi)
    gzeta2, h_zeta = derivative_sq(zeta, grid)
    grad1 = float(np.sum(theta_bar / rho_bar * gphi2 + rho_bar * gpsi2
                         + rho_bar / theta_bar * gzeta2) * dv)
    grad2 = float(np.sum(theta_bar / rho_bar * h_phi + rho_bar * h_psi
                         + rho_bar / theta_bar * h_zeta) * dv)

    dissipation = float(np.sum(theta_bar ** g.alpha * gpsi2
                               + theta_bar ** (g.alpha - 1.0) * gzeta2) * dv)

    ehat = (g.R * theta_bar * _phi_hat(rho_bar / rho) + 0.5 * psi2
            + theta_bar * _phi_hat(theta / theta_bar))
    rel_entropy = float(np.sum(rho * ehat) * dv)

    bad = ((rho < 0.5 * rho_bar) | (rho > 1.5 * rho_bar)
           | (theta < 0.5 * theta_bar) | (theta > 1.5 * theta_bar))
    return {"basic": basic, "grad1": grad1, "grad2": grad2, "dissipation": dissipation,
            "rel_entropy": rel_entropy, "sandwich_violations": int(np.count_nonzero(bad))}


def nonzero_mode_energy(phi: np.ndarray, psi: np.ndarray, zeta: np.ndarray,
                        rho_bar: np.ndarray, theta_bar: np.ndarray,
                        grid: SlabGrid, g: GasParams) -> float:
    """Weighted non-zero-mode energy H: zeroth plus first-gradient terms of the
    transverse-oscillatory parts, with wave-profile weights."""
    rho_bar = np.broadcast_to(np.asarray(rho_bar, dtype=float), grid.shape)
    theta_bar = np.broadcast_to(np.asarray(theta_bar, dtype=float), grid.shape)
    dv = grid.cell_volume
    al = g.alpha

    phq = decompose(phi, grid).nonzero
    zq = decompose(zeta, grid).nonzero
    psq = np.stack([decompose(psi[c], grid).nonzero for c in range(3)], axis=0)
    psq2 = np.sum(psq * psq, axis=0)
    gpsq2 = sum(grad_sq(psq[c], grid) for c in range(3))
    h = (theta_bar / rho_bar * phq ** 2 + rho_bar * psq2 + rho_bar / theta_bar * zq ** 2
         + rho_bar * gpsq2 + rho_bar / theta_bar * grad_sq(zq, grid)
         + theta_bar ** (2.0 * al) / rho_bar ** 3 * grad_sq(phq, grid))
    return float(np.sum(h) * dv)


# ---------------------------------------------------------------------------
# interpolation (Gagliardo-Nirenberg type) inequality checks
# ---------------------------------------------------------------------------

GN_CASES = ("L4-slab", "L6-slab", "Linf-slab", "L4-torus", "L6-torus", "Linf-torus")
# the exponent p of each case's left-hand side, the L^p norm of the sample
_GN_P = {"L4": 4, "L6": 6, "Linf": np.inf}


@dataclass(frozen=True)
class GNSample:
    """One sample on one grid with what all its cases share: its gn_sums and
    the L^2 norms of u, of grad u and of grad^2 u on the grid.  Slab cases
    take the pinned x1 closure, torus cases the periodic one."""

    sums: dict
    grid: SlabGrid
    torus: bool
    l2: float
    g1: float
    g2: float


@functools.lru_cache(maxsize=8)
def _gn_work(shape: tuple[int, int, int]) -> np.ndarray:
    """gn_sample's derivative_sq block for one grid shape, starting on a 64-byte
    boundary, whose row 3 gn_sums also takes.  malloc may hand a block this
    large out of its own mmap, 16 bytes past a page boundary; off a 32-byte
    boundary, a sample on gn-check's slab took about 8% longer."""
    return aligned_empty((7,) + shape)


def gn_sums(u: np.ndarray) -> dict:
    """The parts of u's norms that no grid enters, keyed by p: _lp_sum of u at
    p = 2, 4, 6 and inf, that is sum u^2, sum |u|^4, sum |u|^6 and max |u|.

    Each goes through row 3 of u's shape's work block, so the sums allocate
    no array of the field's size; like gn_sample, not thread-safe per shape.
    A sample whose array is the same at several widths takes them once, and
    gn_sample and gn_check finish them on each width's grid, bitwise
    lp_slab's norms there.
    """
    u = np.asarray(u, dtype=float)
    sq = _gn_work(u.shape)[3]
    return {p: _lp_sum(u, p, sq) for p in (2, *_GN_P.values())}


def gn_sample(u: np.ndarray, sums: dict, grid: SlabGrid, torus: bool) -> GNSample:
    """u's norms on grid, from its gn_sums and from one gradient of u and the
    gradient of that gradient.

    Both gradients come from one derivative_sq, a single kernel call, into
    one work block per grid shape, kept between calls as solver.rhs keeps
    its work area, so a sample allocates no array of the field's size; like
    rhs, it is not thread-safe per shape.  The square roots and the L^2
    sums stay numpy's; u's own L^2 norm finishes sums[2].
    """
    u = np.ascontiguousarray(u, dtype=float)
    work = _gn_work(grid.shape)
    gsq, hsq = derivative_sq(u, grid, periodic_x1=torus, work=work)
    np.sqrt(gsq, out=gsq)
    np.sqrt(hsq, out=hsq)
    sq = work[3]  # a second-gradient row, free once hsq is summed
    g1, g2 = (_lp_finish(_lp_sum(f, 2, sq), grid, 2) for f in (gsq, hsq))
    return GNSample(sums, grid, torus, _lp_finish(sums[2], grid, 2), g1, g2)


def gn_check(s: GNSample, case: str) -> dict:
    """Ratio LHS/RHS of one interpolation-inequality special case.

    Slab cases live on R x T^2 with the grid's period as torus width and sum
    the k=1..3 dimensional contributions with their width prefactors; torus
    cases are the extended form on T^3 with the additive low-mode term.  The
    left-hand side is lp_slab of the sample, finished from its gn_sums on
    its grid.  The returned ratio plays the role of the empirical constant;
    only its boundedness matters.
    """
    if case not in GN_CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {GN_CASES}")
    norm, domain = case.rsplit("-", 1)
    if (domain == "torus") != s.torus:
        raise ValueError(f"case {case!r} needs a {domain} sample")
    grid, l2, g1, g2 = s.grid, s.l2, s.g1, s.g2
    lam = grid.period
    if l2 == 0.0:
        return {"case": case, "Lambda": lam, "lhs": 0.0, "rhs": 0.0, "ratio": 0.0}
    p = _GN_P[norm]
    lhs = _lp_finish(s.sums[p], grid, p)
    if case == "L4-slab":
        rhs = (lam ** -0.5 * g1 ** 0.25 * l2 ** 0.75
               + lam ** -0.25 * g1 ** 0.5 * l2 ** 0.5
               + g1 ** 0.75 * l2 ** 0.25)
    elif case == "L6-slab":
        rhs = (lam ** (-2.0 / 3.0) * g1 ** (1.0 / 3.0) * l2 ** (2.0 / 3.0)
               + lam ** (-1.0 / 3.0) * g1 ** (2.0 / 3.0) * l2 ** (1.0 / 3.0)
               + g1)
    elif case == "Linf-slab":
        rhs = lam ** -1.0 * g1 ** 0.5 * l2 ** 0.5 + lam ** -0.5 * g1 + g2 ** 0.75 * l2 ** 0.25
    elif case == "L4-torus":
        rhs = g1 ** 0.75 * l2 ** 0.25 + lam ** -0.75 * l2
    elif case == "L6-torus":
        rhs = g1 + lam ** -1.0 * l2
    else:  # Linf-torus
        rhs = g2 ** 0.75 * l2 ** 0.25 + lam ** -1.5 * l2
    return {"case": case, "Lambda": lam, "lhs": lhs, "rhs": rhs,
            "ratio": lhs / rhs if rhs > 0.0 else 0.0}


# ---------------------------------------------------------------------------
# distance to the exact wave and rate fitting
# ---------------------------------------------------------------------------

def sup_distance(fs: FieldSet, spec: WaveSpec, g: GasParams,
                 exclude_t_below: float = 0.0) -> dict:
    """Componentwise sup gaps of (rho, m1, n) against the exact wave at x1/t, t = fs.time.

    Returns nan entries when t falls below the exclusion threshold, so callers
    taking a running supremum skip them by construction.
    """
    t = fs.time
    if t < exclude_t_below or t <= 0.0:
        return {"t": t, "rho": float("nan"), "m": float("nan"), "n": float("nan"),
                "max": float("nan"), "argmax_x1": float("nan")}
    x1 = fs.grid.x1()
    wave = sample_exact(spec, x1 / t)
    shape_line = (fs.grid.n1, 1, 1)
    drho = np.abs(fs.rho - wave.rho.reshape(shape_line))
    dm = np.abs(fs.m[0] - wave.m.reshape(shape_line))
    dn = np.abs(fs.rho * fs.primitives(g)[4] - wave.n.reshape(shape_line))
    comp = np.maximum(np.maximum(drho, dm), dn)
    flat = int(np.argmax(comp))
    i1 = np.unravel_index(flat, fs.grid.shape)[0]
    return {"t": t,
            "rho": float(np.max(drho)), "m": float(np.max(dm)), "n": float(np.max(dn)),
            "max": float(np.max(comp)), "argmax_x1": float(x1[i1])}


def fit_rate(xs, ys, model: str = "power") -> tuple[float, float]:
    """Least-squares rate fit; returns (exponent or rate, R^2).

    power:      y = C x^p          (fit in log-log)
    exponential y = C e^(r x)      (fit in semilog)
    power_log:  y = C x^p |log x|  (the |log x| factor is fixed, p fitted)
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError("need at least 3 samples to fit a rate")
    if np.any(ys <= 0.0):
        raise ValueError("rate fitting needs positive values")
    if model == "power":
        if np.any(xs <= 0.0):
            raise ValueError("power fit needs positive abscissae")
        X, Y = np.log(xs), np.log(ys)
    elif model == "exponential":
        X, Y = xs, np.log(ys)
    elif model == "power_log":
        if np.any(xs <= 0.0) or np.any(np.abs(np.log(xs)) == 0.0):
            raise ValueError("power_log fit needs positive abscissae != 1")
        X, Y = np.log(xs), np.log(ys) - np.log(np.abs(np.log(xs)))
    else:
        raise ValueError(f"unknown model {model!r}")
    slope, intercept = np.polyfit(X, Y, 1)
    resid = Y - (slope * X + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((Y - np.mean(Y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), r2
