"""Explicit finite-volume integrator for viscous compressible flow.

Convection uses a local Lax-Friedrichs (Rusanov) flux, robust next to the
near-vacuum cut-off state; viscous and heat fluxes are 2nd-order central with
temperature-dependent coefficients evaluated at face-averaged temperature.
Time stepping is 3-stage SSP Runge-Kutta.  The energy equation is integrated
in conserved total-energy form; temperature is always a derived view.  A step
that leaves rho or theta below the constant positivity floor _FLOOR aborts.

Each grid shape has one work area (the ghost-ringed state, its pressure,
sound speed and Euler flux, the face terms of each axis pass, and step's
registers), allocated on the first rhs and reused by every stage of every
step, so that a run does not hand its temporaries to the allocator and fault
them in again each stage.  rhs fills it in place and writes the tendency into
out=, an array the caller owns, or into a new one without out=; the boundary
flux is always a new array.  step passes rhs its register k, copies each
stage state into the ring's conserved rows and has rhs compute the stage's
primitives there, so a step allocates only the state it returns and that
state's primitives; stable_dt takes its scratch there too.  The work area
makes rhs, stable_dt and step unsafe to call from concurrent threads on grids
of one shape.

rhs builds no index and no view per call: the work area binds, once, every
view rhs reads or writes, since on the 1-D sweep lines a call costs its numpy
dispatches more than its arithmetic.  The ring is flat, (rows, N) over its N
cells, with strides (r2 r3, r3, 1) for ring extents (r1, r2, r3): along an
axis of stride s face j lies between cells j and j + s.  The face arrays have
the same row pitch N, so that a face pair over k rows is the contiguous
slice pair [:kN - s], [s:kN] of the flattened rows: one 1-D operation, not a
view of k short runs.  Pairs across a row end or on a transverse ghost are
computed and never read.  The face terms of (u1, u2, u3, theta) are the rows
state[1:5], so their face average and normal difference are one operation
each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gas import GasParams
from .fields import FieldSet, SlabGrid, aligned_empty, conserved, primitives_into

# SSP-RK3 expands to a convex combination of Euler steps with these weights
_RK3_WEIGHTS = (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0)

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


def _along(ax: int, index) -> tuple:
    """Index of a stacked array picking index on spatial axis ax and everything elsewhere."""
    out = [slice(None)] * 3
    out[ax] = index
    return (Ellipsis, *out)


class _Stage:
    """An SSP-RK3 stage that step has copied into the ring's conserved rows.

    rhs, given it, computes the primitives there instead of copying a
    FieldSet's in.  One per work area; step sets grid before each step, and
    always passes rhs the stage time.
    """

    def __init__(self, rho: np.ndarray):
        self.grid: SlabGrid | None = None
        self.rho = rho


class _CrossWork:
    """Views of one transverse pair (ax, bx) of an axis pass: d u_c / d x_bx at the faces
    along ax for the two components c = ax, bx that the stress column reads.

    The rows are the stepped slice lo:hi+1:hi-lo of (u1, u2, u3), a view.  cd
    is central in bx on cells [sb, N - sb); its face average covers faces
    [sb, N - sa - sb), which hold every face of the grid.  On those faces the
    pass adds d u_bx / d x_bx into divu and writes tau[bx] = dn_u[bx] +
    d u_ax / d x_bx.
    """

    def __init__(self, ax: int, bx: int, sa: int, sb: int, uP: np.ndarray, take,
                 w: "_AxisWork"):
        n = uP.shape[1] - 2 * sb              # the cells with both bx neighbours
        lo, hi = min(ax, bx), max(ax, bx)
        rows = uP[lo:hi + 1:hi - lo]
        self.bx = bx
        self.plus, self.minus = rows[:, 2 * sb:], rows[:, :n]
        self.cd, self.face = cd, face = take("cd", n), take("cd_face", n - sa)
        self.cd_lo, self.cd_hi = cd[:, :n - sa], cd[:, sa:]
        self.d_bx, self.d_ax = face[int(bx > ax)], face[int(ax > bx)]  # d u_bx, d u_ax / d x_bx
        faces = slice(sb, sb + n - sa)
        self.divu, self.dn_bx, self.tau_bx = w.divu_row[faces], w.dq[bx, faces], w.tau[bx, faces]


class _AxisWork:
    """Every view of the work area and of the ring that one axis pass of rhs
    reads or writes, bound once.

    The face arrays have the ring's row pitch N: along an axis of stride s,
    face j of row r, between flat cells j and j + s, sits at r N + j.  So a
    k-row face pair is the contiguous slice pair [:kN - s], [s:kN] of the
    flattened rows, one 1-D operation.  The last s entries of a row are
    formed from the next row or left unwritten, and never read.  q holds the
    face averages of the four rows (u1, u2, u3, theta), dq their normal
    differences; divu accumulates in dq's row ax once tau[ax] has read it.
    coef holds one of the face coefficients mu, lambda, kappa at a time.
    """

    FACE = {"F": 5, "dU": 5, "s": 1, "q": 4, "dq": 4, "coef": 1, "tau": 4}

    def __init__(self, ax: int, ws: "_Workspace", take):
        self.ax = ax
        s, s0, N = ws.stride[ax], ws.stride[0], ws.N
        nf = N - s
        state, flux = ws.state, ws.flux
        ring, fluxes = state.reshape(-1), flux.reshape(-1)
        F, dU, q, dq, tau_heat = (ws.faces[name] for name in ("F", "dU", "q", "dq", "tau"))
        tau = tau_heat[:3]
        self.dq, self.tau = dq, tau

        # Euler flux on the ring: f[0] = U[1+ax], f[1:4] = U[1:4] un with p
        # added on row 1+ax, f[4] = (U[4] + p) un
        self.un = state[1 + ax]
        self.f_mass, self.U_normal = flux[0], state[6 + ax]
        self.f_mom, self.U_mom, self.f_ax = flux[1:4], state[6:9], flux[1 + ax]
        self.f_E, self.U_E = flux[4], state[9]

        # the two cells of every face, and the face arrays they fill
        self.F, self.FL, self.FR = F.reshape(-1)[:5 * N - s], fluxes[:5 * N - s], fluxes[s:]
        self.dU, self.dU_rows = dU.reshape(-1)[:5 * N - s], dU
        self.UL, self.UR = ring[5 * N:10 * N - s], ring[5 * N + s:]
        self.aL, self.aR = ws.speed[:nf], ws.speed[s:]
        self.s, self.s_row = ws.faces["s"][:nf], ws.faces["s"]
        self.q, self.dq_flat = q.reshape(-1)[:4 * N - s], dq.reshape(-1)[:4 * N - s]
        self.qL, self.qR = ring[N:5 * N - s], ring[N + s:5 * N]
        self.pw, self.uF, self.uF_rows = q[3, :nf], q[:3].reshape(-1), q[:3]
        self.dn_uax, self.dthdn, self.divu_row = dq[ax, :nf], dq[3, :nf], dq[ax]
        self.coef, self.coef_row = ws.faces["coef"][:nf], ws.faces["coef"]
        self.tau_ax, self.tau_flat = tau[ax, :nf], tau.reshape(-1)
        self.heat, self.heat_row = tau_heat[3, :nf], tau_heat[3]
        # the viscous terms (tau, heat) of F[1:5], rows 1 to 4, as one pair
        self.visc_terms, self.F_visc = tau_heat.reshape(-1)[:4 * N - s], F.reshape(-1)[N:5 * N - s]
        # the rows of the inactive axes, one slice: tau = dn_u + 0 there
        still = [c for c in range(3) if c not in ws.active]
        self.still = (dq[still[0]:still[-1] + 1], tau[still[0]:still[-1] + 1]) if still else None
        # the faces i - s and i of the x1-interior cells i in [s0, N - s0)
        self.F_hi = F.reshape(-1)[s0:5 * N - s0]
        self.F_lo = F.reshape(-1)[s0 - s:5 * N - s0 - s]
        if ax == 0:   # the first and last x1 faces, summed from a contiguous copy in 2-D/3-D
            n1, n2, n3 = ws.tend_shape[1:]
            F_ends = F.reshape((5,) + ws.ring)[:, 0:n1 + 1:n1][ws.slab_in]
            self.ends_copy = None
            if n2 * n3 == 1:      # one face each: the sum is the face itself
                self.ends = F_ends.reshape(5, 2)
            else:
                self.ends_copy, self.ends_in = F_ends, aligned_empty((5, 2, n2 * n3))
                self.ends_to = self.ends_in.reshape(5, 2, n2, n3)
                self.ends = aligned_empty((5, 2))
            self.ends_first, self.ends_last = self.ends[:, 0], self.ends[:, 1]

        self.cross = [_CrossWork(ax, bx, s, ws.stride[bx], state[1:4], take, self)
                      for bx in ws.active if bx != ax]


class _Workspace:
    """The arrays rhs and step fill on one grid, allocated once per grid shape,
    with the views rhs reads and writes, bound once.

    The ring-sized arrays are flat, (rows, N), and filled through a (rows,) +
    ring view.  The face arrays of _AxisWork share the ring's row pitch and
    are taken by the axes in turn, so an axis pass writes every entry it
    reads; they are zero-filled once, which keeps the never-read entries
    finite.  The divergence runs over the x1-interior cells [s0, N - s0),
    accumulated in T, whose interior is then copied into the tendency.
    Every array comes from fields.aligned_empty and starts on a 64-byte
    boundary, T at its flat entry s0, where the divergence starts.  k
    and r are step's registers: k receives each stage's tendency, r holds the
    stage states U1 and U2 (and 0.75 U0 on the way), which are copied into
    the ring's conserved rows for rhs to compute their primitives there.
    """

    def __init__(self, shape: tuple[int, int, int]):
        self.tend_shape = (5,) + shape
        self.active = active = _active_axes(shape)
        self.ring = ring = tuple(n + 2 if ax in active else n for ax, n in enumerate(shape))
        self.N = N = math.prod(ring)
        self.stride = (ring[1] * ring[2], ring[2], 1)
        self.state = aligned_empty((10, N))
        self.p, self.c, self.speed = aligned_empty(N), aligned_empty(N), aligned_empty(N)
        self.flux = aligned_empty((5, N))
        inner = (slice(None),) + tuple(slice(1, -1) if ax in active else slice(None)
                                       for ax in range(3))
        self.slab_in = (slice(None), slice(None)) + inner[2:]  # interior of (5, k) + ring[1:]
        state = self.state.reshape((10,) + ring)
        self.prim_in, self.U_in = state[0:5][inner], state[5:10][inner]
        self.rhoP, self.thP = self.state[0], self.state[4]
        # ghost planes 0 and n + 1 of each active axis and their periodic
        # sources n and 1, as one stepped view each, and a buffer of the
        # sources' shape: numpy cannot prove two stepped views of one array
        # disjoint, so assigning one to the other would copy the source into
        # a new temporary on every fill
        self.wraps = []
        for ax in active:
            n = shape[ax]
            sources = state[_along(ax, slice(n, 0, 1 - n))]
            self.wraps.append((state[_along(ax, slice(0, None, n + 1))], sources,
                               aligned_empty(sources.shape)))
        # the x1 ghost planes 0 and n1 + 1 as (..., 10, 2) ghost columns
        self.x1_columns = state[:, ::shape[0] + 1].transpose(2, 3, 0, 1)

        # step's registers, and stable_dt's scratch rows (the cells of c,
        # speed and p); the flux rows are free between rhs calls
        self.k, self.r = aligned_empty(self.tend_shape), aligned_empty(self.tend_shape)
        self.stage = _Stage(self.r[0])   # r holds the stage rhs is given
        cells = math.prod(shape)
        self.usq = self.flux.reshape(-1)[:3 * cells].reshape(3, cells)
        self.dt_scratch = self.c[:cells], self.speed[:cells], self.p[:cells]
        self.finite = np.empty((2,) + shape, dtype=bool)

        def zeros(shape, first=0):
            block = aligned_empty(shape, first)
            block.fill(0.0)
            return block

        self.faces = {name: zeros((k, N) if k > 1 else N) for name, k in _AxisWork.FACE.items()}
        cross = {name: zeros(2 * N) for name in ("cd", "cd_face")}

        def take(name, n):
            return cross[name][:2 * n].reshape(2, n)

        self.axes = [_AxisWork(ax, self, take) for ax in active]
        # the first axis writes its divergence into T_seg, which starts on the
        # boundary; the other axes' ddx is a temporary at the start of dU's
        # buffer, free once an axis pass has formed F
        s0 = self.stride[0]
        T = zeros((5, N), first=s0)
        self.T_seg = T.reshape(-1)[s0:5 * N - s0]
        self.ddx_seg = self.faces["dU"].reshape(-1)[:5 * N - 2 * s0]
        self.T_in = T.reshape((5,) + ring)[inner]


@functools.lru_cache(maxsize=8)
def _workspace(shape: tuple[int, int, int]) -> _Workspace:
    return _Workspace(shape)


def _ringed_state(ws: _Workspace, fs: FieldSet | _Stage, g: GasParams,
                  ghost_source: GhostSource | None, t: float) -> None:
    """Fill ws.state with primitives (rho, u, theta) over U, one ghost ring on active axes.

    Transverse directions wrap.  x1 carries the ghost columns supplied by
    ghost_source, or wraps too when it is None.  Axes are filled in order over
    the full ring, so corner cells are wrap-of-wrap on the torus and x1 ghost
    values on pinned runs.  Inactive axes stay single-cell wide.  The interior
    of the last five rows is fs.U; a stage is already there, and its
    primitives are computed on whole ring rows, the ghosts left by the last
    fill included.  Every entry is written, so whatever state held before
    does not matter.
    """
    if fs is ws.stage:
        primitives_into(g, ws.state[5:10], ws.state[0:5], ws.flux[:3])
    else:
        ws.prim_in[...] = fs.primitives(g)
        ws.U_in[...] = fs.U
    for ghosts, sources, buf in (ws.wraps if ghost_source is None else ws.wraps[1:]):
        np.copyto(buf, sources)
        np.copyto(ghosts, buf)
    if ghost_source is not None:
        ws.x1_columns[...] = ghost_source(t)


def rhs(fs: FieldSet, g: GasParams, cfg: SolverConfig,
        ghost_source: GhostSource | None = None,
        t: float | None = None,
        out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Semi-discrete tendency of the stacked conserved fields.

    Returns (tendency(5, n1, n2, n3), boundary_flux(5,)) where boundary_flux is
    the instantaneous net inflow rate through the two x1 boundaries, so that
    d/dt of each conserved total equals the matching entry on pinned runs.
    ghost_source pins the x1 ghosts at time t; None wraps x1 (a torus run).
    The tendency is written into out when given, else into a new array; the
    boundary flux is a new array.  Both are the caller's; the work arrays are
    the grid's.
    """
    tt = fs.time if t is None else t
    grid = fs.grid
    if np.fmin.reduce(fs.rho, axis=None) <= 0.0:
        raise RunAbort("nonpositive density entering rhs")
    ws = _workspace(grid.shape)
    _ringed_state(ws, fs, g, ghost_source, tt)
    thP = ws.thP
    if np.fmin.reduce(thP) <= 0.0:
        raise RunAbort("nonpositive temperature entering rhs")
    pP = np.multiply(g.R, ws.rhoP, out=ws.p)
    pP *= thP
    cP = np.multiply(g.gamma * g.R, thP, out=ws.c)
    np.sqrt(cP, out=cP)
    aP = ws.speed

    visc = cfg.visc_mult
    spacing = grid.spacing
    tend = np.empty(ws.tend_shape) if out is None else out
    bflux = np.empty(5)

    # each in-place sequence below performs its formula's operations in the
    # order the plain expression would, so the work arrays change no bit
    for w in ws.axes:
        dx = spacing[w.ax]

        # cell fluxes and signal speeds once on the ringed array, then per face:
        # F = 0.5 (FP[L] + FP[R]) - 0.5 s (UP[R] - UP[L])
        w.f_mass[...] = w.U_normal
        np.multiply(w.U_mom, w.un, out=w.f_mom)
        w.f_ax += pP
        np.add(w.U_E, pP, out=w.f_E)
        w.f_E *= w.un
        np.abs(w.un, out=aP)
        aP += cP
        s = np.maximum(w.aL, w.aR, out=w.s)
        s *= 0.5
        F = np.add(w.FL, w.FR, out=w.F)
        F *= 0.5
        np.subtract(w.UR, w.UL, out=w.dU)
        w.dU_rows *= w.s_row
        F -= w.dU

        if visc > 0.0:
            # face average and normal difference of (u1, u2, u3, theta) at once:
            # uF, thF ** alpha and dn_u = d u_c / d x_ax, dthdn are their rows
            q = np.add(w.qL, w.qR, out=w.q)
            q *= 0.5
            pw = w.pw
            pw **= g.alpha
            dq = np.subtract(w.qR, w.qL, out=w.dq_flat)
            dq /= dx

            # stress column tau = mu (dn_u + dc_uax), plus lambda divu on ax,
            # with dc_uax = d u_ax / d x_c: dn_uax itself on ax, averaged
            # central differences on the other active axes, zero on the
            # inactive ones
            np.add(w.dn_uax, w.dn_uax, out=w.tau_ax)
            for c in w.cross:   # central in bx, averaged across the face
                cd = np.subtract(c.plus, c.minus, out=c.cd)
                cd /= 2.0 * spacing[c.bx]
                np.add(c.cd_lo, c.cd_hi, out=c.face)
                c.face *= 0.5
                np.add(c.dn_bx, c.d_ax, out=c.tau_bx)
                c.divu += c.d_bx
            if w.still is not None:
                np.add(w.still[0], 0.0, out=w.still[1])
            tau = w.tau
            coef = np.multiply(g.mu1, pw, out=w.coef)
            tau *= w.coef_row
            np.multiply(g.lambda1, pw, out=coef)
            divu = w.dn_uax
            divu *= coef
            w.tau_ax += divu
            dthdn = w.dthdn
            np.multiply(g.kappa1, pw, out=coef)
            dthdn *= coef

            # F[1:4] -= visc tau; F[4] -= visc (sum_c uF_c tau_c + kappa dthdn),
            # with the heat term in the row after tau's
            w.uF *= w.tau_flat
            np.add.reduce(w.uF_rows, axis=0, out=w.heat_row)
            w.heat += dthdn
            w.visc_terms *= visc
            w.F_visc -= w.visc_terms

        # tend -= np.diff(F) / dx along ax, from tend = 0, summed on T whose
        # interior is then copied into tend.  The first axis takes
        # 0 - np.diff(F) / dx, which keeps the +0 that (F_lo - F_hi) / dx would
        # turn into -0 where F_lo = -0 meets F_hi = +0
        ddx = np.subtract(w.F_hi, w.F_lo, out=ws.T_seg if w.ax == 0 else ws.ddx_seg)
        ddx /= dx
        if w.ax == 0:
            np.subtract(0.0, ddx, out=ddx)
            if w.ends_copy is not None:
                w.ends_to[...] = w.ends_copy
                np.add.reduce(w.ends_in, axis=2, out=w.ends)
            # bflux = 0 + (first - last) area; += 0.0 keeps that sign of zero
            np.subtract(w.ends_first, w.ends_last, out=bflux)
            bflux *= grid.cell_volume / dx
            bflux += 0.0
        else:
            ws.T_seg -= ddx

    tend[...] = ws.T_in    # a strided copy costs less than strided arithmetic
    return tend, bflux


def stable_dt(fs: FieldSet, g: GasParams, cfg: SolverConfig) -> tuple[float, float]:
    """(dt, max wave speed): min of the CFL step and the per-axis SSP-RK3 viscous step."""
    grid = fs.grid
    c, speed, pw = _workspace(grid.shape).dt_scratch   # every rhs refills these rows
    prim = fs.primitives(g).reshape(5, -1)   # flat rows: 1-D operations cost less
    u, theta = prim[1:4], prim[4]
    np.maximum(theta, 0.0, out=c)
    c *= g.gamma * g.R
    np.sqrt(c, out=c)
    active = _active_axes(grid.shape)
    spacing = grid.spacing

    max_speed = 0.0
    dt_conv = np.inf
    for ax in active:
        np.abs(u[ax], out=speed)
        speed += c
        sp = float(np.maximum.reduce(speed, axis=None))
        max_speed = max(max_speed, sp)
        if sp > 0.0:
            dt_conv = min(dt_conv, _CFL * spacing[ax] / sp)

    # Viscous/heat symbol at the largest theta^alpha/rho, with q_a = 4/h_a^2, y_a =
    # sin^2(k_a h_a/2), s_a = sin(k_a h_a)/h_a, c = mu + lambda: velocity mu S I +
    # c (diag(q_a y_a^2) + s s^T), S = sum q_a y_a; theta kappa (gamma-1)/R S.  At
    # y = 1 (s = 0) entry a is ((2 mu + lambda) f_a + mu (1 - f_a)) sum q, f_a =
    # q_a / sum q, largest on the finest axis; the cross terms lift it by at most
    # max(1, d c / (2c + d mu)), > 1 only in 3-D with lambda > 2 mu (README proof).
    dt_visc = np.inf
    if cfg.visc_mult > 0.0:
        inv_h2 = sum(spacing[ax] ** -2 for ax in active)
        f = min(spacing[ax] for ax in active) ** -2 / inv_h2
        d, c = len(active), g.mu1 + g.lambda1
        longitudinal = max(1.0, d * c / (2.0 * c + d * g.mu1)) * (
            (2.0 * g.mu1 + g.lambda1) * f + g.mu1 * (1.0 - f))
        # diff = visc max(longitudinal pw, kappa pw (gamma - 1) / R) / rho
        pw[...] = theta
        pw **= g.alpha      # the in-place power, like theta ** alpha, takes sqrt at 0.5
        diff = np.multiply(longitudinal, pw, out=speed)
        heat = np.multiply(g.kappa1, pw, out=pw)
        heat *= g.gamma - 1.0
        heat /= g.R
        np.maximum(diff, heat, out=diff)
        diff *= cfg.visc_mult
        diff /= prim[0]
        dmax = float(np.maximum.reduce(diff, axis=None))
        if dmax > 0.0:
            dt_visc = _VISC_FRACTION * _RK3_REAL_LIMIT / (4.0 * dmax * inv_h2)

    return min(dt_conv, dt_visc), max_speed


def step(fs: FieldSet, g: GasParams, cfg: SolverConfig,
         ghost_source: GhostSource | None = None,
         dt: float | None = None,
         dt_cap: float | None = None) -> tuple[FieldSet, StepDiagnostics]:
    """One SSP-RK3 step; dt may be forced (paired-run tests), else from stable_dt.

    Each tendency goes into the work area's register k and each stage state
    U1, U2 into its register r, which is copied into the ring's conserved
    rows, where the next rhs computes the stage's primitives; only the result
    and its primitives are new arrays.  The result's primitives feed the
    diagnostics here and the next step's stable_dt and first rhs.  The
    in-place forms evaluate U0 + dt k1, 0.75 U0 + 0.25 (U1 + dt k2) and
    (U0 + 2 (U2 + dt k3)) / 3 operation by operation in that order, and the
    boundary flux sum_i w_i dt b_i from 0.
    """
    ws = _workspace(fs.grid.shape)
    auto_dt, max_speed = stable_dt(fs, g, cfg)
    if dt is None:
        dt = auto_dt if dt_cap is None else min(auto_dt, dt_cap)
    if dt < _DT_MIN:
        raise RunAbort(f"time step underflow: dt = {dt:.3e}")

    t0 = fs.time
    U0 = fs.U
    k, r, stage, U_stage = ws.k, ws.r, ws.stage, ws.U_in
    stage.grid = fs.grid
    w1, w2, w3 = _RK3_WEIGHTS

    _, bflux = rhs(fs, g, cfg, ghost_source, t=t0, out=k)
    bflux *= w1 * dt
    bflux += 0.0
    k *= dt
    np.add(k, U0, out=r)
    U_stage[...] = r                                 # U1
    _, b = rhs(stage, g, cfg, ghost_source, t=t0 + dt, out=k)
    b *= w2 * dt
    bflux += b
    k *= dt
    k += r
    k *= 0.25
    np.multiply(0.75, U0, out=r)
    r += k
    U_stage[...] = r                                 # U2
    _, b = rhs(stage, g, cfg, ghost_source, t=t0 + 0.5 * dt, out=k)
    b *= w3 * dt
    bflux += b
    k *= dt
    k += r
    k *= 2.0
    k += U0
    # the result and its primitives in one block: as two chunks, freed at the
    # top of the heap a step later, glibc trimmed and faulted them in again
    # (about 96 minor faults a step on the decay slab against 2).  Its row
    # pitch is rounded up to 8 entries, so both halves start on the boundary
    size = k.size
    result = aligned_empty((2, size + -size % 8))
    U3 = np.divide(k, 3.0, out=result[0, :size].reshape(k.shape))

    out = FieldSet(fs.grid, U3, t0 + dt)
    theta = out.primitives(g, usq=ws.usq, out=result[1, :size].reshape(k.shape))[4]
    diag = StepDiagnostics(
        dt=dt, max_speed=max_speed, min_rho=float(np.minimum.reduce(out.rho, axis=None)),
        min_theta=float(np.minimum.reduce(theta, axis=None)), boundary_flux=bflux)
    if not np.logical_and.reduce(np.isfinite(U3[::4], out=ws.finite), axis=None):  # rho, E
        raise RunAbort("non-finite state after step", diag)
    if diag.min_rho < _FLOOR or diag.min_theta < _FLOOR:
        raise RunAbort(
            f"positivity floor hit: min rho {diag.min_rho:.3e}, min theta {diag.min_theta:.3e}",
            diag)
    return out, diag


def run(initial: FieldSet, g: GasParams, cfg: SolverConfig, horizon: float,
        observers: dict[str, Callable[[FieldSet, GasParams], dict]] | None = None,
        ghost_source: GhostSource | None = None,
        sample_dt: float | None = None) -> tuple[FieldSet, list[dict]]:
    """Advance to the horizon, sampling diagnostics every sample_dt time units.

    Steps are capped so that every sample lands on its time t0 + k sample_dt
    and the last on the horizon.  ghost_source pins the x1 ghosts; None
    wraps x1, as on the torus.  Each record carries the base diagnostic
    columns plus whatever the observer callbacks return; records are plain
    dicts ready for CSV emission.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    observers = observers or {}
    fs = initial.copy()
    records: list[dict] = []

    def record(diag: StepDiagnostics | None):
        row = {"tau": fs.time,
               "dt": diag.dt if diag else 0.0,
               "min_rho": float(np.min(fs.rho)),
               "min_theta": float(np.min(fs.primitives(g)[4]))}
        row.update(fs.totals())
        for name, fn in observers.items():
            out = fn(fs, g)
            if isinstance(out, dict):
                row.update({f"{name}.{k}" if k else name: v for k, v in out.items()})
            else:
                row[name] = out
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
