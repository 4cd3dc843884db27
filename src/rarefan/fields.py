"""Slab grid, conserved field containers, and their serialization.

Arrays are always carried with shape (n1, n2, n3); inactive transverse axes
have a single cell so that 1-D and 2-D runs share every code path.  The
spacing assigned to an unresolved transverse axis is the full period, which
keeps discrete integrals over the slab R x T^2 consistent across dims.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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

    @property
    def spacing(self) -> tuple[float, float, float]:
        return (self.dx1, self.dx2, self.dx3)

    @property
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


@dataclass
class FieldSet:
    """Cell-averaged conserved fields (rho, m, E) on a SlabGrid."""

    grid: SlabGrid
    rho: np.ndarray          # (n1, n2, n3)
    m: np.ndarray            # (3, n1, n2, n3)
    E: np.ndarray            # (n1, n2, n3)
    time: float = 0.0

    def __post_init__(self):
        shp = self.grid.shape
        if self.rho.shape != shp or self.E.shape != shp or self.m.shape != (3,) + shp:
            raise ValueError("field shapes do not match the grid")

    def copy(self) -> "FieldSet":
        return FieldSet(self.grid, self.rho.copy(), self.m.copy(), self.E.copy(), self.time)

    def velocity(self) -> np.ndarray:
        return self.m / self.rho

    def temperature(self, g: GasParams) -> np.ndarray:
        u = self.velocity()
        return (g.gamma - 1.0) / g.R * (self.E / self.rho - 0.5 * np.sum(u * u, axis=0))

    def internal_energy_density(self, g: GasParams) -> np.ndarray:
        """n = rho * theta."""
        return self.rho * self.temperature(g)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.rho[None], self.m, self.E[None]], axis=0)

    @classmethod
    def from_stacked(cls, grid: SlabGrid, U: np.ndarray, time: float = 0.0) -> "FieldSet":
        return cls(grid, U[0].copy(), U[1:4].copy(), U[4].copy(), time)

    @classmethod
    def from_primitives(cls, grid: SlabGrid, g: GasParams, rho, u, theta,
                        time: float = 0.0) -> "FieldSet":
        shp = grid.shape
        return cls.from_stacked(grid, conserved(g, np.broadcast_to(rho, shp),
                                                np.broadcast_to(u, (3,) + shp),
                                                np.broadcast_to(theta, shp)), time)

    def totals(self) -> dict[str, float]:
        dv = self.grid.cell_volume
        return {
            "mass": float(np.sum(self.rho) * dv),
            "momentum1": float(np.sum(self.m[0]) * dv),
            "momentum2": float(np.sum(self.m[1]) * dv),
            "momentum3": float(np.sum(self.m[2]) * dv),
            "energy": float(np.sum(self.E) * dv),
        }


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
        for arr in (fs.rho, fs.m[0], fs.m[1], fs.m[2], fs.E):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
        arrs = [np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(grid.shape).copy()
                for _ in range(5)]
    m = np.stack(arrs[1:4], axis=0)
    return FieldSet(grid, arrs[0], m, arrs[4], time)


def fields_to_csv(fs: FieldSet, path) -> None:
    """Plain-text dump for small grids: one row per cell."""
    X1, X2, X3 = fs.grid.meshgrid()
    cols = [X1, X2, X3, fs.rho, fs.m[0], fs.m[1], fs.m[2], fs.E]
    data = np.column_stack([c.ravel() for c in cols])
    np.savetxt(path, data, delimiter=",",
               header="x1,x2,x3,rho,m1,m2,m3,E", comments="")
