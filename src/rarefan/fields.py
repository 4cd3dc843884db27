"""Slab grid, conserved field containers, and their serialization.

Arrays are always carried with shape (n1, n2, n3); inactive transverse axes
have a single cell so that 1-D and 2-D runs share every code path.  The
spacing assigned to an unresolved transverse axis is the full period, which
keeps discrete integrals over the slab R x T^2 consistent across dims.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .gas import GasParams


@dataclass(frozen=True)
class SlabGrid:
    """Uniform grid on [-L, L] x T^2 with periodic transverse directions."""

    L: float
    n1: int
    period: float = 1.0
    n2: int = 1
    n3: int = 1
    dims: int = 1

    def __post_init__(self):
        if self.L <= 0.0 or self.period <= 0.0:
            raise ValueError("L and period must be positive")
        if self.n1 < 2:
            raise ValueError("need at least 2 cells along x1")
        if self.dims not in (1, 2, 3):
            raise ValueError("dims must be 1, 2 or 3")
        if self.dims < 3 and self.n3 != 1:
            raise ValueError("n3 must be 1 unless dims == 3")
        if self.dims < 2 and self.n2 != 1:
            raise ValueError("n2 must be 1 unless dims >= 2")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    @property
    def dx1(self) -> float:
        return 2.0 * self.L / self.n1

    @property
    def dx2(self) -> float:
        return self.period / self.n2 if self.dims >= 2 else self.period

    @property
    def dx3(self) -> float:
        return self.period / self.n3 if self.dims == 3 else self.period

    # cached: analysis's derivative and norm calls read them on every call;
    # the solver reads them once per bind
    @functools.cached_property
    def spacing(self) -> tuple[float, float, float]:
        return (self.dx1, self.dx2, self.dx3)

    @functools.cached_property
    def cell_volume(self) -> float:
        return self.dx1 * self.dx2 * self.dx3

    @property
    def transverse_area(self) -> float:
        """Measure of the transverse torus cross-section."""
        return self.period ** 2

    def x1(self) -> np.ndarray:
        return -self.L + (np.arange(self.n1) + 0.5) * self.dx1

    def x2(self) -> np.ndarray:
        return (np.arange(self.n2) + 0.5) * (self.period / self.n2)

    def x3(self) -> np.ndarray:
        return (np.arange(self.n3) + 0.5) * (self.period / self.n3)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.meshgrid(self.x1(), self.x2(), self.x3(), indexing="ij")

    @classmethod
    def torus(cls, period: float, n1: int, n2: int = 1, n3: int = 1, dims: int = 1) -> "SlabGrid":
        """One full periodic cell in every direction (x1 length = period)."""
        return cls(L=period / 2.0, n1=n1, period=period, n2=n2, n3=n3, dims=dims)


def aligned_empty(shape: int | tuple[int, ...]) -> np.ndarray:
    """np.empty(shape) of floats that starts on a 64-byte boundary.

    The one allocator of the solver's and the analysis's work arrays.  malloc
    aligns a block to 16 bytes only, and numpy's vector loops write an output
    on a 64-byte boundary about twice as fast as one off it: adding two
    arrays of 43.9k doubles took 7.9 µs into an aligned output and 16-17 µs
    at each of the seven other 8-byte offsets (best of 7, AVX-512 Xeon).  The
    block is a view of a buffer 7 entries longer.
    """
    return aligned_block(shape)[0]


def aligned_block(shape: int | tuple[int, ...]) -> tuple[np.ndarray, int]:
    """aligned_empty(shape) and the address of its first entry.

    The address is read once, from the buffer, so a caller that hands the
    block to C reads no other.  It is numpy's .ctypes.data: ctypes' buffer
    protocol reads it in 0.36 µs against 1.13 µs (timeit, 2-core Xeon VM),
    but raised the decay study's peak RSS from 44.6 to 45.3 MB.
    """
    n = math.prod(shape) if isinstance(shape, tuple) else shape
    buf = np.empty(n + 7)
    base = buf.ctypes.data
    k = -(base // 8) % 8
    return np.ndarray(shape, np.float64, buf, 8 * k), base + 8 * k


def conserved(g: GasParams, rho, u, theta) -> np.ndarray:
    """Stacked conserved fields (rho, m1, m2, m3, E) of primitives (rho, u, theta).

    The one primitive-to-conserved map: m = rho u, E = rho (R theta/(gamma-1) + |u|^2/2).
    u carries its three components on the leading axis.
    """
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    m = rho * u
    E = rho * (g.R / (g.gamma - 1.0) * theta + 0.5 * np.sum(u * u, axis=0))
    return np.concatenate([rho[None], m, E[None]], axis=0)


@dataclass(eq=False)
class FieldSet:
    """Cell-averaged conserved fields on a SlabGrid, stacked as U = (rho, m1, m2, m3, E).

    rho, m and E are views into U.  The solver's work area keeps the
    address of the last state it read and the stable_dt maxima of the last
    state it reduced, so a FieldSet must not be modified in place once a
    solver call has read it: build a new one instead (the solver always
    does).  The U of a FieldSet that solver.step returns is read-only, so
    such an edit raises ValueError there; copy() gives a writable one.
    """

    grid: SlabGrid
    U: np.ndarray            # (5, n1, n2, n3)
    time: float = 0.0

    def __post_init__(self):
        if self.U.shape != (5,) + self.grid.shape:
            raise ValueError("field shapes do not match the grid")

    rho = property(lambda self: self.U[0], doc="(n1, n2, n3) view into U")
    m = property(lambda self: self.U[1:4], doc="(3, n1, n2, n3) view into U")
    E = property(lambda self: self.U[4], doc="(n1, n2, n3) view into U")

    def copy(self) -> "FieldSet":
        return FieldSet(self.grid, self.U.copy(), self.time)

    def primitives(self, g: GasParams) -> np.ndarray:
        """Stacked (rho, u1, u2, u3, theta), a new writable block on every call.

        The one conserved-to-primitive map: theta = (gamma - 1)/R (E/rho -
        0.5 |u|^2).  One division gives u and E/rho in rows 1 to 4, |u|^2 =
        (u1^2 + u2^2) + u3^2 is summed into rho's row before rho is copied
        there, and the product with (gamma - 1)/R comes last; the solver
        kernel follows this order.  The block comes from aligned_empty, and
        the work runs on flat (rows, n1 n2 n3) views, whose 1-D operations
        cost less than 3-D ones.
        """
        prim = aligned_empty(self.U.shape)
        cells = prim[0].size
        U, flat = self.U.reshape(5, cells), prim.reshape(5, cells)
        rho = U[0]
        np.divide(U[1:5], rho, out=flat[1:5])
        u, theta = flat[1:4], flat[4]
        half_usq = np.add.reduce(u * u, axis=0, out=flat[0])
        half_usq *= 0.5
        theta -= half_usq
        theta *= (g.gamma - 1.0) / g.R
        flat[0] = rho
        return prim

    @classmethod
    def from_primitives(cls, grid: SlabGrid, g: GasParams, rho, u, theta,
                        time: float = 0.0) -> "FieldSet":
        shp = grid.shape
        return cls(grid, conserved(g, np.broadcast_to(rho, shp), np.broadcast_to(u, (3,) + shp),
                                   np.broadcast_to(theta, shp)), time)

    def totals(self) -> dict[str, float]:
        sums = self.U.reshape(5, -1).sum(axis=1) * self.grid.cell_volume
        return dict(zip(("mass", "momentum1", "momentum2", "momentum3", "energy"),
                        sums.tolist()))


_MAGIC = b"SLAB"
_VERSION = 1


def save_fields(fs: FieldSet, path) -> None:
    """Flat binary layout: header (dims, counts, spacing, time) + row-major doubles."""
    g = fs.grid
    header = _MAGIC + struct.pack(
        "<iiiiiddddd", _VERSION, g.dims, g.n1, g.n2, g.n3,
        g.L, g.period, g.dx1, fs.time, 0.0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(fs.U, dtype="<f8").tobytes())


def load_fields(path) -> FieldSet:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a field snapshot: bad magic {magic!r}")
        version, dims, n1, n2, n3, L, period, _dx1, time, _pad = struct.unpack(
            "<iiiiiddddd", fh.read(struct.calcsize("<iiiiiddddd")))
        if version != _VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        grid = SlabGrid(L=L, n1=n1, period=period, n2=n2, n3=n3, dims=dims)
        count = n1 * n2 * n3
        U = np.frombuffer(fh.read(8 * 5 * count), dtype="<f8").reshape((5,) + grid.shape)
    return FieldSet(grid, U.astype(float), time)

