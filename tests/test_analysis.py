import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rarefan import analysis
from rarefan.gas import GasParams
from rarefan.fields import SlabGrid
from rarefan.analysis import (decompose, lp_slab, lp_line,
                              energy_report, nonzero_mode_energy, gn_check, gn_sample,
                              sup_distance, fit_rate, gradient)

GAS = GasParams.normalized(5.0 / 3.0, 0.5)


def slab():
    return SlabGrid(L=2.0, n1=24, period=0.5, n2=8, n3=8, dims=3)


def random_field(grid, seed=0):
    return np.random.default_rng(seed).standard_normal(grid.shape)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_transverse_constant_has_no_nonzero_part():
    grid = slab()
    f = np.broadcast_to(np.sin(grid.x1())[:, None, None], grid.shape).copy()
    ms = decompose(f, grid)
    # the averaged value re-rounds, so "identically zero" means round-off level
    assert np.max(np.abs(ms.nonzero)) < 1e-15
    assert np.allclose(ms.zero[:, 0, 0], np.sin(grid.x1()))


def test_pure_oscillation_has_no_zero_part():
    grid = slab()
    x2 = grid.x2()
    f = np.broadcast_to(np.cos(2 * np.pi * x2 / grid.period)[None, :, None], grid.shape).copy()
    ms = decompose(f, grid)
    assert np.max(np.abs(ms.zero)) < 1e-15
    assert np.allclose(ms.nonzero, f, atol=1e-15)


def test_projector_identities_and_parseval():
    grid = slab()
    rng = np.random.default_rng(5)
    for i in range(100):
        f = rng.standard_normal(grid.shape)
        ms = decompose(f, grid)
        # D0 Dneq = Dneq D0 = 0 exactly in the discrete setting (round-off)
        assert np.max(np.abs(ms.nonzero.mean(axis=(1, 2)))) < 1e-14 * np.max(np.abs(f))
        back = decompose(np.broadcast_to(ms.zero, grid.shape).copy(), grid)
        assert np.max(np.abs(back.nonzero)) < 1e-14
        # Parseval with consistent measures
        total = lp_slab(f, grid, 2) ** 2
        parts = lp_line(ms.zero, grid, 2) ** 2 + lp_slab(ms.nonzero, grid, 2) ** 2
        assert abs(total - parts) <= 1e-12 * total


def test_1d_grid_note():
    # a 1-D grid's zero mode is the field itself and its non-zero part is 0
    grid = SlabGrid(L=1.0, n1=16)
    f = random_field(grid)
    ms = decompose(f, grid)
    assert np.array_equal(ms.zero, f)
    assert not ms.nonzero.any()


def test_quadratic_commutator():
    # D0(f^2) - (D0 f)^2 = D0((Dneq f)^2) exactly for quadratics
    grid = slab()
    f = random_field(grid, seed=9)
    ms = decompose(f, grid)
    lhs = decompose(f * f, grid).zero - ms.zero ** 2
    rhs = decompose(ms.nonzero ** 2, grid).zero
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


@pytest.mark.parametrize("p", [1, 2, 4, np.inf])
def test_projection_bounds(p):
    # |D0 f| <= |f| and |Dneq f| <= 2 |f| in L^p, the second with the
    # triangle-inequality constant 2
    grid = slab()
    rng = np.random.default_rng(10)
    for i in range(25):
        f = rng.standard_normal(grid.shape)
        ms = decompose(f, grid)
        nf = lp_slab(f, grid, p)
        assert lp_line(ms.zero, grid, p) <= nf * (1.0 + 1e-12)
        assert lp_slab(ms.nonzero, grid, p) <= 2.0 * nf * (1.0 + 1e-12)


def test_projection_bounds_edge_cases():
    grid = slab()
    const = np.ones(grid.shape)
    assert lp_line(decompose(const, grid).zero, grid, 2) == \
        pytest.approx(lp_slab(const, grid, 2), rel=1e-12)
    x2 = grid.x2()
    osc = np.broadcast_to(np.cos(2 * np.pi * x2 / grid.period)[None, :, None],
                          grid.shape).copy()
    assert lp_line(decompose(osc, grid).zero, grid, 2) < 1e-14


# ---------------------------------------------------------------------------
# energy report
# ---------------------------------------------------------------------------

def test_energy_zero_perturbation():
    grid = slab()
    zero = np.zeros(grid.shape)
    rep = energy_report(zero, np.zeros((3,) + grid.shape), zero,
                        np.full(grid.shape, 0.7), np.full(grid.shape, 0.8), grid, GAS)
    assert rep["basic"] == rep["grad1"] == rep["grad2"] == rep["dissipation"] == 0.0
    assert rep["rel_entropy"] == 0.0
    assert rep["sandwich_violations"] == 0


def test_energy_nonnegative_and_entropy_equivalence():
    grid = slab()
    rng = np.random.default_rng(3)
    rho_bar = np.full(grid.shape, 0.8)
    th_bar = np.full(grid.shape, 0.9)
    for i in range(20):
        phi = 0.2 * rng.uniform(-1, 1, grid.shape) * rho_bar
        psi = 0.3 * rng.standard_normal((3,) + grid.shape)
        zeta = 0.2 * rng.uniform(-1, 1, grid.shape) * th_bar
        rep = energy_report(phi, psi, zeta, rho_bar, th_bar, grid, GAS)
        assert rep["basic"] >= 0.0 and rep["rel_entropy"] >= 0.0
        assert rep["sandwich_violations"] == 0  # ratios within [1/2, 3/2] by construction
        # relative entropy is equivalent to the basic energy from below
        assert rep["rel_entropy"] >= 0.05 * rep["basic"]


def test_energy_sandwich_flagging():
    grid = slab()
    rho_bar = np.full(grid.shape, 1.0)
    th_bar = np.full(grid.shape, 1.0)
    phi = np.zeros(grid.shape)
    phi[3, 2, 1] = 0.9  # rho = 1.9 > 3/2 rho_bar there
    rep = energy_report(phi, np.zeros((3,) + grid.shape), np.zeros(grid.shape),
                        rho_bar, th_bar, grid, GAS)
    assert rep["sandwich_violations"] == 1


def test_energy_domain_errors():
    grid = slab()
    zero = np.zeros(grid.shape)
    with pytest.raises(ValueError):
        energy_report(zero, np.zeros((3,) + grid.shape), zero,
                      np.full(grid.shape, -1.0), np.ones(grid.shape), grid, GAS)
    with pytest.raises(ValueError):
        energy_report(np.full(grid.shape, -2.0), np.zeros((3,) + grid.shape), zero,
                      np.ones(grid.shape), np.ones(grid.shape), grid, GAS)


def test_energy_weights_positive_on_cutoff_wave():
    # the profile is monotone between its end states, so every power-law
    # weight is bounded below by its smaller endpoint value, computed
    # analytically from the cut-off left and right states
    from rarefan.gas import PrimState
    from rarefan.waves import WaveSpec, smooth_profile
    right = PrimState(1.0, 0.0, 1.0)
    spec = WaveSpec(right, GAS, nu=0.05, delta=0.2)
    grid = SlabGrid(L=6.0, n1=512)
    pr = smooth_profile(spec, 2.0, grid.x1())
    left = spec.left_state()
    g, al = GAS.gamma, GAS.alpha
    weights = (
        (pr.rho ** (g - 2.0), left.rho ** (g - 2.0), right.rho ** (g - 2.0)),
        (pr.theta ** al, left.theta ** al, right.theta ** al),
        (pr.theta ** (al - 1.0), left.theta ** (al - 1.0), right.theta ** (al - 1.0)),
        (pr.theta ** (al + 1.0) / pr.rho ** 2,
         left.theta ** (al + 1.0) / left.rho ** 2,
         right.theta ** (al + 1.0) / right.rho ** 2),
    )
    for w, at_left, at_right in weights:
        floor = min(at_left, at_right)
        assert floor > 0.0
        assert np.min(w) >= floor * (1.0 - 1e-12)


def test_nonzero_mode_energy_vanishes_on_planar_fields():
    grid = slab()
    f = np.broadcast_to(np.sin(grid.x1())[:, None, None], grid.shape).copy()
    h = nonzero_mode_energy(f, np.stack([f, f, f]), f,
                            np.ones(grid.shape), np.ones(grid.shape), grid, GAS)
    assert h < 1e-28  # squares of round-off-level oscillatory parts


# ---------------------------------------------------------------------------
# interpolation inequality checks
# ---------------------------------------------------------------------------

# the gn slab and torus, the decay slab, a two-cell transverse axis, lines,
# the shortest pinned closure and two-cell periodic axes
GRADIENT_SHAPES = [(24, 8, 8), (5, 2, 3), (6, 1, 1), (128, 12, 12), (16, 16, 16),
                   (256, 32, 1), (7, 2, 5), (3, 1, 1), (3, 2, 2)]


def shaped_grid(shape):
    return SlabGrid(L=2.0, n1=shape[0], period=0.5, n2=shape[1], n3=shape[2],
                    dims=1 + sum(n > 1 for n in shape[1:]))


def layouts(f):
    """f itself, its Fortran-ordered copy and a strided view of the same values."""
    wide = np.empty(f.shape[:-1] + (2 * f.shape[-1],))
    wide[..., ::2] = f
    return [f, np.asfortranarray(f), wide[..., ::2]]


@pytest.mark.parametrize("shape", GRADIENT_SHAPES)
def test_periodic_gradient_matches_roll_form(shape):
    # the flat differences do the roll form's arithmetic, so they agree to the bit
    grid = shaped_grid(shape)
    f = random_field(grid, 3)
    for periodic_x1 in (False, True):
        for view in layouts(f):
            got = gradient(view, grid, periodic_x1)
            for ax in range(0 if periodic_x1 else 1, 3):
                want = ((np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax))
                        / (2.0 * grid.spacing[ax]) if shape[ax] > 1 else np.zeros(shape))
                assert got[ax].tobytes() == want.tobytes()
            # the pinned x1 closure is np.gradient's, to the bit
            if not periodic_x1:
                want = np.gradient(f, grid.dx1, axis=0, edge_order=2)
                assert got[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", GRADIENT_SHAPES)
def test_gradient_out_is_fully_written(shape):
    # the kernel writes every entry of the rows a level returns, into a
    # block filled with NaN first: the gradient's rows 0-2 at level 0,
    # |grad f|^2 and the Hessian sum, rows 0 and 6, at level 2
    grid = shaped_grid(shape)
    f = random_field(grid, 4)
    for periodic_x1 in (False, True):
        for level, rows, want in ((0, [0, 1, 2], gradient(f, grid, periodic_x1)),
                                  (2, [0, 6], analysis.derivative_sq(f, grid, periodic_x1))):
            work = np.full((7 if level == 2 else 3,) + shape, np.nan)
            assert analysis._derivatives(f, grid, periodic_x1, level, work) is work
            assert not np.isnan(work[rows]).any()
            assert work[rows].tobytes() == np.stack(want).tobytes()
    for bad in (np.empty((3,) + shape, order="F"), np.empty((2,) + shape)):
        with pytest.raises(ValueError):
            analysis._derivatives(f, grid, False, 0, bad)


# the allocating forms the in-place kernels replace, kept as the reference

def _on(ax, s):
    return (slice(None),) * ax + (s,)


def ref_gradient(f, grid, periodic_x1=False):
    f = np.asarray(f, dtype=float)
    out = np.zeros((3,) + f.shape)
    for ax, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        if n == 1:
            continue
        o, first, last, mid = out[ax], _on(ax, 0), _on(ax, -1), _on(ax, slice(1, -1))
        np.subtract(f[_on(ax, slice(2, None))], f[_on(ax, slice(None, -2))], out=o[mid])
        if ax > 0 or periodic_x1:
            o[first], o[last] = f[_on(ax, 1)] - f[last], f[first] - f[_on(ax, -2)]
            o /= 2.0 * h
        else:
            o[mid] /= 2.0 * h
            o[first] = (-1.5 / h) * f[first] + (2.0 / h) * f[_on(ax, 1)] + (-0.5 / h) * f[_on(ax, 2)]
            o[last] = (0.5 / h) * f[_on(ax, -3)] + (-2.0 / h) * f[_on(ax, -2)] + (1.5 / h) * f[last]
    return out


def ref_grad_sq(f, grid, periodic_x1=False):
    gr = ref_gradient(f, grid, periodic_x1)
    return np.sum(gr * gr, axis=0)


def ref_derivative_sq(f, grid, periodic_x1=False):
    gr = ref_gradient(f, grid, periodic_x1)
    hess = np.zeros(grid.shape)
    for b in range(3):
        g2 = ref_gradient(gr[b], grid, periodic_x1)
        hess += np.sum(g2 * g2, axis=0)
    return np.sum(gr * gr, axis=0), hess


def ref_l2(f, grid):
    return float((np.sum(np.abs(f) ** 2) * grid.cell_volume) ** 0.5)


def ref_gn_norms(u, grid, torus):
    gsq, hsq = ref_derivative_sq(u, grid, periodic_x1=torus)
    return ref_l2(u, grid), ref_l2(np.sqrt(gsq), grid), ref_l2(np.sqrt(hsq), grid)


@pytest.mark.parametrize("shape", GRADIENT_SHAPES)
def test_derivative_norms_match_allocating_reference(shape):
    from rarefan.analysis import derivative_sq, grad_sq
    grid = shaped_grid(shape)
    # a second shape sampled between this one's calls, so each gn_sample
    # reads its norms out of a work block the other shape's call left alone
    other = GRADIENT_SHAPES[(GRADIENT_SHAPES.index(shape) + 1) % len(GRADIENT_SHAPES)]
    other_grid = shaped_grid(other)
    rng = np.random.default_rng(5)
    with np.errstate(all="raise"):
        for periodic_x1 in (False, True):
            for _ in range(3):
                f = rng.standard_normal(shape)
                assert gradient(f, grid, periodic_x1).tobytes() == \
                    ref_gradient(f, grid, periodic_x1).tobytes()
                assert grad_sq(f, grid, periodic_x1).tobytes() == \
                    ref_grad_sq(f, grid, periodic_x1).tobytes()
                got = derivative_sq(f, grid, periodic_x1)
                want = ref_derivative_sq(f, grid, periodic_x1)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                for h, h_grid in ((f, grid), (rng.standard_normal(other), other_grid)):
                    s = gn_sample(h, h_grid, periodic_x1)
                    assert np.array([s.l2, s.g1, s.g2]).tobytes() == \
                        np.array(ref_gn_norms(h, h_grid, periodic_x1)).tobytes()
                assert lp_slab(f, grid, 2) == ref_l2(f, grid)


def test_derivative_sq_without_work_returns_the_callers_arrays():
    # energy_report holds the results of five calls at once
    from rarefan.analysis import derivative_sq
    grid = shaped_grid((24, 8, 8))
    rng = np.random.default_rng(9)
    f, h = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    first = derivative_sq(f, grid)
    kept = [a.copy() for a in first]
    second = derivative_sq(h, grid)
    for a, b, k in zip(first, second, kept):
        assert a.tobytes() == k.tobytes()
        assert not np.shares_memory(a, b)
    assert first[0].tobytes() != second[0].tobytes()


def test_derivative_sq_refuses_a_wrong_work_block():
    from rarefan.analysis import derivative_sq
    grid = shaped_grid((6, 2, 3))
    f = np.ones(grid.shape)
    for work in (np.empty((6,) + grid.shape), np.empty((7, 3, 2, 6)).transpose(0, 3, 2, 1)):
        with pytest.raises(ValueError):
            derivative_sq(f, grid, work=work)


def test_gn_sample_allocates_no_field_sized_array_once_warm():
    # gn-check's two grids; after one call per shape the derivatives live in
    # that shape's cached work block
    grids = [(SlabGrid(L=4.0, n1=128, period=1.0, n2=12, n3=12, dims=3), False),
             (SlabGrid.torus(1.0, 16, 16, 16, dims=3), True)]
    rng = np.random.default_rng(3)
    fields = [rng.standard_normal(grid.shape) for grid, _ in grids]
    for u, (grid, torus) in zip(fields, grids):
        gn_sample(u, grid, torus)
        # a block off a 32-byte boundary made the slab's samples about 8% slower
        assert analysis._gn_work(grid.shape).ctypes.data % 64 == 0
    tracemalloc.start()
    try:
        for u, (grid, torus) in zip(fields, grids):
            tracemalloc.reset_peak()
            gn_sample(u, grid, torus)
            current, peak = tracemalloc.get_traced_memory()
            assert peak - current < u.nbytes, grid.shape
    finally:
        tracemalloc.stop()


def test_pinned_gradient_needs_three_cells():
    grid = SlabGrid(L=2.0, n1=2, period=0.5, n2=1, n3=1, dims=1)
    with pytest.raises(ValueError):
        gradient(np.ones(grid.shape), grid)
    assert np.all(gradient(np.ones(grid.shape), grid, periodic_x1=True) == 0.0)


def test_gn_zero_field():
    grid = slab()
    res = gn_check(gn_sample(np.zeros(grid.shape), grid, False), "L4-slab")
    assert res["ratio"] == 0.0


def test_gn_unknown_case():
    with pytest.raises(ValueError):
        gn_check(gn_sample(np.ones(slab().shape), slab(), False), "L3-slab")
    with pytest.raises(ValueError):  # a torus case on a slab sample
        gn_check(gn_sample(np.ones(slab().shape), slab(), False), "L4-torus")


def test_gn_gaussian_bump_scaling():
    # transverse-constant bump: ratios finite and width-stable
    ratios = {c: [] for c in ("L4-slab", "L6-slab", "Linf-slab")}
    for lam in (1.0, 0.5, 0.25):
        grid = SlabGrid(L=4.0, n1=96, period=lam, n2=8, n3=8, dims=3)
        x1 = grid.x1()[:, None, None]
        u = gn_sample(np.exp(-x1 ** 2) * np.ones(grid.shape), grid, False)
        for case in ratios:
            r = gn_check(u, case)["ratio"]
            assert np.isfinite(r) and r > 0.0
            ratios[case].append(r)
    for case, rs in ratios.items():
        assert max(rs) / min(rs) < 3.0


def test_gn_torus_single_mode():
    lam = 0.5
    grid = SlabGrid.torus(lam, 16, 16, 16, dims=3)
    X1, X2, _ = grid.meshgrid()
    u = gn_sample(np.cos(2 * np.pi * (X1 + 2 * X2) / lam), grid, True)
    res = gn_check(u, "L6-torus")
    assert 0.0 < res["ratio"] < 3.0
    res4 = gn_check(u, "L4-torus")
    assert 0.0 < res4["ratio"] < 3.0


# ---------------------------------------------------------------------------
# sup distance and rate fitting
# ---------------------------------------------------------------------------

def test_sup_distance_exact_sample_is_zero():
    from rarefan.gas import PrimState
    from rarefan.waves import WaveSpec, sample_exact
    from rarefan.fields import FieldSet
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.0, delta=0.1)
    grid = SlabGrid(L=5.0, n1=200)
    t = 1.3
    tab = sample_exact(spec, grid.x1() / t)
    u = np.zeros((3,) + grid.shape)
    u[0] = tab.u1[:, None, None]
    rho = np.maximum(tab.rho, 1e-13)[:, None, None]  # keep the container positive
    theta = np.maximum(tab.theta, 1e-13)[:, None, None]
    fs = FieldSet.from_primitives(grid, GAS, rho, u, theta, time=t)
    d = sup_distance(fs, spec, GAS)
    assert d["max"] < 1e-10


def test_sup_distance_excludes_small_t():
    from rarefan.gas import PrimState
    from rarefan.waves import WaveSpec
    from rarefan.fields import FieldSet
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GAS, nu=0.1, delta=0.1)
    grid = SlabGrid(L=5.0, n1=16)
    fs = FieldSet.from_primitives(grid, GAS, 1.0, np.zeros((3,) + grid.shape), 1.0, time=0.1)
    d = sup_distance(fs, spec, GAS, exclude_t_below=0.25)
    assert np.isnan(d["max"])


def test_fit_rate_synthetic_power():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    p, r2 = fit_rate(x, x ** 0.5, "power")
    assert p == pytest.approx(0.5, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_synthetic_exponential():
    t = np.linspace(0.0, 3.0, 7)
    r, r2 = fit_rate(t, np.exp(-2.0 * t), "exponential")
    assert r == pytest.approx(-2.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_power_log():
    eps = np.array([0.04, 0.02, 0.01, 0.005])
    y = 3.0 * eps ** 0.7 * np.abs(np.log(eps))
    p, r2 = fit_rate(eps, y, "power_log")
    assert p == pytest.approx(0.7, abs=1e-10)


def test_fit_rate_noise_robustness():
    rng = np.random.default_rng(0)
    x = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    y = x ** 1.3 * (1.0 + 0.01 * rng.standard_normal(x.size))
    p, _ = fit_rate(x, y, "power")
    assert abs(p - 1.3) < 0.05


def test_fit_rate_domain_errors():
    with pytest.raises(ValueError):
        fit_rate([1, 2], [1, 2], "power")
    with pytest.raises(ValueError):
        fit_rate([1, 2, 3], [1, -2, 3], "power")
    with pytest.raises(ValueError):
        fit_rate([1, 2, 3], [1, 2, 3], "nope")


def test_paper_constants_values():
    from rarefan.config import paper_constants
    a, Z = paper_constants(5.0 / 3.0, 0.5)
    assert a == pytest.approx(1.5 / 34.5, abs=1e-12)
    assert Z == pytest.approx(0.1, abs=1e-12)
    assert Z * a == pytest.approx(0.1 * 1.5 / 34.5, abs=1e-12)


@given(st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
@settings(max_examples=60)
def test_fit_rate_recovers_any_exponent(c, p):
    x = np.array([1.0, 0.5, 0.25, 0.125])
    y = c * x ** p
    got, r2 = fit_rate(x, y, "power")
    assert abs(got - p) < 1e-8
