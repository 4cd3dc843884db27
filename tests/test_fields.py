import numpy as np
import pytest

from rarefan.gas import GasParams
from rarefan.fields import SlabGrid, FieldSet, save_fields, load_fields

GAS = GasParams.normalized(5.0 / 3.0, 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        SlabGrid(L=-1.0, n1=8)
    with pytest.raises(ValueError):
        SlabGrid(L=1.0, n1=8, n2=4, dims=1)
    with pytest.raises(ValueError):
        SlabGrid(L=1.0, n1=8, n3=4, dims=2)


def test_grid_geometry():
    g = SlabGrid(L=2.0, n1=8, period=0.5, n2=4, dims=2)
    assert g.dx1 == pytest.approx(0.5)
    assert g.dx2 == pytest.approx(0.125)
    assert g.dx3 == pytest.approx(0.5)  # unresolved axis carries the full period
    assert g.cell_volume == pytest.approx(0.5 * 0.125 * 0.5)
    x1 = g.x1()
    assert x1[0] == pytest.approx(-2.0 + 0.25)
    assert x1[-1] == pytest.approx(2.0 - 0.25)


def test_primitive_views_roundtrip():
    grid = SlabGrid.torus(1.0, 16, 8, dims=2)
    rng = np.random.default_rng(3)
    rho = 1.0 + 0.3 * rng.random(grid.shape)
    u = 0.2 * rng.standard_normal((3,) + grid.shape)
    theta = 0.8 + 0.3 * rng.random(grid.shape)
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta)
    prim = fs.primitives(GAS)
    assert prim.shape == (5,) + grid.shape
    assert np.array_equal(prim[0], rho)
    assert np.allclose(prim[1:4], u, atol=1e-14)
    assert np.allclose(prim[4], theta, atol=1e-13)


def test_primitives_are_a_new_writable_block_per_call():
    # no cache: each call forms its own block, and writing into one leaves
    # the conserved stack and every later call unchanged
    grid = SlabGrid.torus(1.0, 8, 4, dims=2)
    rng = np.random.default_rng(4)
    fs = FieldSet.from_primitives(grid, GAS, 1.0 + 0.3 * rng.random(grid.shape),
                                  0.2 * rng.standard_normal((3,) + grid.shape),
                                  0.8 + 0.3 * rng.random(grid.shape))
    U = fs.U.copy()
    first, second = fs.primitives(GAS), fs.primitives(GAS)
    assert first is not second and not np.shares_memory(first, second)
    assert not np.shares_memory(first, fs.U)
    assert first.flags.writeable and second.flags.writeable
    want = second.tobytes()
    assert first.tobytes() == want
    first[1] -= 1.0
    first[4] = -1.0
    assert np.array_equal(fs.U, U)
    assert fs.primitives(GAS).tobytes() == want



def test_primitives_of_any_layout():
    # primitives work on flat row views: a Fortran-ordered or strided U must
    # give the C-ordered U's primitives bitwise
    grid = SlabGrid.torus(1.0, 6, 4, 3, dims=3)
    rng = np.random.default_rng(5)
    fs = FieldSet.from_primitives(grid, GAS, 1.0 + 0.3 * rng.random(grid.shape),
                                  0.2 * rng.standard_normal((3,) + grid.shape),
                                  0.8 + 0.3 * rng.random(grid.shape))
    want = fs.primitives(GAS).tobytes()
    wide = np.zeros((5,) + grid.shape + (2,))
    wide[..., 0] = fs.U
    for U in (np.asfortranarray(fs.U), wide[..., 0]):
        assert FieldSet(grid, U).primitives(GAS).tobytes() == want


def test_binary_roundtrip(tmp_path):
    grid = SlabGrid(L=1.5, n1=12, period=0.5, n2=6, dims=2)
    rng = np.random.default_rng(7)
    fs = FieldSet.from_primitives(grid, GAS, 1.0 + rng.random(grid.shape),
                                  0.1 * rng.standard_normal((3,) + grid.shape),
                                  1.0 + rng.random(grid.shape), time=0.75)
    path = tmp_path / "snap.bin"
    save_fields(fs, path)
    back = load_fields(path)
    assert back.grid == grid
    assert back.time == 0.75
    assert np.array_equal(back.rho, fs.rho)
    assert np.array_equal(back.m, fs.m)
    assert np.array_equal(back.E, fs.E)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        load_fields(path)


def test_totals():
    grid = SlabGrid.torus(2.0, 16)
    fs = FieldSet.from_primitives(grid, GAS, 2.0, np.zeros((3,) + grid.shape), 1.0)
    t = fs.totals()
    # mass = rho * measure; measure = 2.0 (x1) * period^2 (transverse)
    assert t["mass"] == pytest.approx(2.0 * 2.0 * 2.0 ** 2, rel=1e-14)
