import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest

from rarefan.gas import GasParams
from rarefan.fields import SlabGrid
from rarefan.config import (ExperimentConfig, WaveBlock, GridBlock, SolverBlock,
                            ExperimentBlock, ConfigError)
from rarefan.experiments import (run_cutoff_study, run_profile_study, run_viscosity_sweep,
                                 run_nonzero_decay, run_background_decay, run_gn_check,
                                 run_simulate, _decay_run, _concurrently)

GAS = GasParams.normalized(5.0 / 3.0, 0.5)


def config(**exp_kwargs) -> ExperimentConfig:
    grid = exp_kwargs.pop("grid", GridBlock())
    solver = exp_kwargs.pop("solver", SolverBlock())
    wave = exp_kwargs.pop("wave", WaveBlock(nu=0.05, delta=0.1))
    return ExperimentConfig(gas=GAS, wave=wave, grid=grid, solver=solver,
                            experiment=ExperimentBlock(**exp_kwargs))


def test_cutoff_study_passes_and_reports():
    rep = run_cutoff_study(config(kind="cutoff-study", sweep=(0.1, 0.05, 0.025, 0.0125)))
    assert rep.passed
    assert len(rep.rows) == 4
    assert all("config_hash" in r for r in rep.rows)
    assert rep.rows[0]["nu"] == 0.1  # sorted by descending nu


@pytest.mark.parametrize("exponent, ok", [(1.149, True), (1.151, False)])
def test_cutoff_study_exponent_tolerance(monkeypatch, exponent, ok):
    # the fitted density power passes within 0.15 of one and fails past it
    import rarefan.experiments as ex
    monkeypatch.setattr(ex, "fit_rate", lambda xs, ys, model: (exponent, 1.0))
    rep = run_cutoff_study(config(kind="cutoff-study", sweep=(0.1, 0.05, 0.025, 0.0125)))
    assert rep.checks["rho_power_is_one"] is ok


def test_profile_study_passes():
    rep = run_profile_study(config(kind="profile-study"))
    assert rep.passed


def test_gn_check_small_battery():
    rep = run_gn_check(config(kind="gn-check", samples=6, seed=1))
    assert rep.passed
    cases = {r["case"] for r in rep.rows}
    assert len(cases) == 6


def test_gn_check_shares_derivatives_across_cases(monkeypatch):
    # one derivative kernel call (the gradient and its components' second
    # gradients) per sample and grid, 6 samples x 3 widths x 2 grids, and
    # one gn_check call per case; the counters are shared with the forked
    # workers that run the other pieces
    import rarefan.analysis as an
    import rarefan.experiments as ex
    ctx = multiprocessing.get_context("fork")
    calls = {"_derivatives": ctx.Value("i", 0), "gn_check": ctx.Value("i", 0)}

    def counted(mod, name):
        real = getattr(mod, name)

        def wrapper(*args, **kwargs):
            with calls[name].get_lock():
                calls[name].value += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)
    counted(an, "_derivatives")
    counted(ex, "gn_check")
    assert run_gn_check(config(kind="gn-check", samples=6, seed=1)).passed
    assert {name: c.value for name, c in calls.items()} == {"_derivatives": 6 * 3 * 2,
                                                            "gn_check": 6 * 6 * 3}


def test_gn_check_rows_do_not_depend_on_the_cpu_count(monkeypatch):
    # 7 samples in 1, 2, 3 and 5 pieces
    import rarefan.experiments as ex
    outs = []
    for ncpu in (1, 2, 3, 5):
        monkeypatch.setattr(ex.os, "sched_getaffinity", lambda pid, n=ncpu: set(range(n)))
        rep = run_gn_check(config(kind="gn-check", samples=7, seed=2))
        outs.append(([{k: v for k, v in r.items() if k != "wall_time"} for r in rep.rows],
                     rep.checks))
    assert all(out == outs[0] for out in outs[1:])
    _assert_no_worker_left()


def _ref_slab_sample(rng, grid, lam, transverse_constant):
    """The gn-check slab sampler as it was before its draws and its build
    were split: drawing and building in one pass."""
    x1, x2, x3 = np.ix_(grid.x1(), grid.x2(), grid.x3())
    u, mode = np.zeros(grid.shape), np.empty(grid.shape)
    for _ in range(rng.integers(1, 4)):
        amp = rng.normal()
        c = rng.uniform(-1.5, 1.5)
        sig = rng.uniform(0.3, 1.0)
        env = amp * np.exp(-((x1 - c) ** 2) / (2.0 * sig ** 2))
        if transverse_constant:
            trig = 1.0
        else:
            trig = 0.0
            for _ in range(rng.integers(1, 4)):
                k2, k3 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
                phase = rng.uniform(0.0, 2.0 * np.pi)
                trig = trig + rng.normal() * np.cos(
                    2.0 * np.pi * (k2 * x2 + k3 * x3) / lam + phase)
        u += np.multiply(env, trig, out=mode)
    return u


def _ref_torus_sample(rng, grid, lam):
    """The gn-check torus sampler before the split, likewise."""
    x1, x2, x3 = np.ix_(grid.x1(), grid.x2(), grid.x3())
    u, mode = np.full(grid.shape, rng.normal()), np.empty(grid.shape)
    for _ in range(rng.integers(2, 6)):
        ks = rng.integers(-3, 4, size=3)
        if not np.any(ks):
            continue
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.normal()
        np.add(ks[0] * x1 + ks[1] * x2, ks[2] * x3, out=mode)
        mode *= 2.0 * np.pi
        mode /= lam
        mode += phase
        np.cos(mode, out=mode)
        u += np.multiply(amp, mode, out=mode)
    return u


@pytest.mark.parametrize("transverse_constant", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_gn_draws_leave_the_rng_where_the_samplers_do(seed, transverse_constant):
    # a gn-check piece only draws the samples before its own, so a draw must
    # take exactly the numbers the one-pass sampler takes, and the array built
    # from the draw must be that sampler's, byte for byte
    from rarefan.fields import SlabGrid
    from rarefan.experiments import _slab_draw, _slab_sample, _torus_draw, _torus_sample
    lam = 0.5
    slab = SlabGrid(L=4.0, n1=32, period=lam, n2=6, n3=6, dims=3)
    torus = SlabGrid.torus(lam, 6, 6, 6, dims=3)
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(40):
        u_slab = _ref_slab_sample(ref, slab, lam, transverse_constant)
        u_torus = _ref_torus_sample(ref, torus, lam)
        slab_draw = _slab_draw(rng, transverse_constant)
        torus_draw = _torus_draw(rng)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert _slab_sample(slab, lam, slab_draw).tobytes() == u_slab.tobytes()
        assert _torus_sample(torus, lam, torus_draw).tobytes() == u_torus.tobytes()


def test_background_requires_eta():
    with pytest.raises(ConfigError):
        run_background_decay(config(kind="background", eta=0.0))


def test_decay_requires_transverse():
    with pytest.raises(ConfigError):
        run_nonzero_decay(config(kind="decay", eta=1e-3, grid=GridBlock(dims=1)))


@pytest.mark.slow
def test_eps_sweep_small_with_pairing():
    cfg = config(kind="eps-sweep", sweep=(0.05, 0.035, 0.02), horizon=0.4, h=0.15,
                 eta=1e-3, mode_cap=2, seed=3,
                 wave=WaveBlock(nu_coeff=0.5, delta_coeff=1.0),
                 grid=GridBlock(n1=160, period=0.8))
    rep = run_viscosity_sweep(cfg)
    # this short-horizon smoke run exercises the paired perturbed run; the
    # monotone-in-eps property needs the full horizon and is asserted by the
    # acceptance sweep
    assert rep.checks["no_run_failures"]
    assert rep.checks["grid_prevalidated"]
    assert rep.checks["perturbation_influence_bounded"]
    paired = [r for r in rep.rows if r.get("eta", 0.0) > 0.0]
    assert len(paired) == 1


@pytest.mark.slow
def test_decay_zero_mode_unaffected_by_transverse_resolution():
    # doubling the transverse resolution moves the zero-mode distance < 1%
    from rarefan.analysis import decompose, sup_distance
    from rarefan.fields import FieldSet

    dists = {}
    for n2 in (12, 24):
        cfg = config(kind="decay", eta=5e-4, horizon=0.3, h=0.1, mode_cap=2, seed=7,
                     wave=WaveBlock(nu=0.1, delta=0.2),
                     grid=GridBlock(n1=128, n2=n2, period=0.8, dims=2),
                     solver=SolverBlock(eps=0.08))
        records = _decay_run(cfg, modes="all")
        dists[n2] = records[-1]["dist.max"]
    assert abs(dists[12] - dists[24]) <= 0.01 * dists[24]


def test_eps_sweep_partial_report_on_failure(tmp_path, monkeypatch):
    # a floor tight enough to abort every run must yield failure rows and a
    # FAIL verdict, not an exception; the CSV keeps each comma-bearing
    # failure message in its one cell.  The forked workers inherit the patch
    import csv
    from rarefan import solver
    monkeypatch.setattr(solver, "_FLOOR", 0.5)
    cfg = config(kind="eps-sweep", sweep=(0.05, 0.035, 0.02), horizon=0.3, h=0.1,
                 wave=WaveBlock(nu_coeff=0.5, delta_coeff=1.0),
                 grid=GridBlock(n1=96, period=0.8))
    rep = run_viscosity_sweep(cfg)
    assert not rep.passed
    assert not rep.checks["no_run_failures"]
    assert any("failed" in r for r in rep.rows)
    with open(rep.emit(str(tmp_path))) as fh:
        read = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    failed = [r for r in rep.rows if "failed" in r]
    assert "," in failed[0]["failed"]
    assert [r["failed"] for r in read if r["failed"]] == [r["failed"] for r in failed]
    assert all(None not in r for r in read)


def test_emit_writes_numpy_scalars_as_plain_numbers(tmp_path):
    # np.float64 is a float subclass whose repr under numpy 2 is
    # 'np.float64(...)'; every numeric cell must read back with float()
    import csv
    from rarefan.experiments import StudyReport
    row = {"a": np.float64(9.986423047088328), "b": np.float64(1e-300), "c": 0.1,
           "n": np.int64(384), "k": 7, "ok": True, "np_ok": np.bool_(False)}
    path = StudyReport("profile-study", [row], {"ok": True}, "aaaa", 0, 1.0).emit(str(tmp_path))
    with open(path) as fh:
        read = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(read) == 1
    for col in ("a", "b", "c", "n", "k"):
        assert float(read[0][col]) == row[col]
    assert (read[0]["ok"], read[0]["np_ok"]) == ("True", "False")


def test_import_path_loads_no_scipy():
    # scipy costs a fresh process most of its start-up time and memory; no
    # module that a run imports may pull it in
    import subprocess
    import sys
    code = ("import sys, rarefan, rarefan.experiments, rarefan.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cutoff_study_loads_no_numpy_ma():
    # numpy.ma costs a fresh process about 15 ms, and np.unique's first call
    # loads it
    import subprocess
    import sys
    from pathlib import Path
    ini = Path(__file__).resolve().parent.parent / "configs" / "cutoff_study.ini"
    code = ("import sys; from rarefan.config import parse_config; "
            "from rarefan.experiments import run_cutoff_study; "
            f"assert run_cutoff_study(parse_config({str(ini)!r})).passed; "
            "print('numpy.ma' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def _script(name):
    """scripts/<name>.py, imported as a module."""
    import importlib.util
    from pathlib import Path
    script = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_step_times_one_tree_or_two_in_rounds(monkeypatch):
    # bench_step.py's rounds loop on trivial call tables: one tree gets each
    # call's medians, two trees add the second tree's, their ratio and its wins
    bench_step = _script("bench_step")
    monkeypatch.setattr(bench_step, "ROUNDS", 3)
    monkeypatch.setattr(bench_step, "ROUND_SECONDS", 1e-4)
    table = {("cases", "line8", "step"): ((8, 1, 1), lambda: sum(range(8)), 1),
             ("fanout", "noop", None): (None, lambda: None, 1)}
    one = bench_step.timed_rounds([table])
    assert set(one) == set(table)
    for row in one.values():
        assert row["us"] > 0.0 and row["faults"] >= 0.0 and "us_b" not in row
    assert one["cases", "line8", "step"]["ns_per_cell"] > 0.0
    two = bench_step.timed_rounds([table, dict(table)])
    assert set(two) == set(table)
    for row in two.values():
        assert row["us"] > 0.0 and row["us_b"] > 0.0 and row["faults_b"] >= 0.0
        assert row["ratio"] > 0.0 and row["b_wins"] in range(4)


def test_bench_pairs_marks_a_checkout_with_uncommitted_src(tmp_path):
    import subprocess
    bench_pairs = _script("bench_pairs")
    assert bench_pairs.src_dirty(tmp_path) is None
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.md").write_text("draft\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
           "-C", str(tmp_path)]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "a"]):
        subprocess.run(git + args, check=True, capture_output=True)
    assert bench_pairs.src_dirty(tmp_path) is False
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert bench_pairs.src_dirty(tmp_path) is True


def test_bench_pairs_refuses_paths_of_different_lengths(tmp_path, capsys):
    # the heap state, and with it wall_s, depends on the checkout's path length
    bench_pairs = _script("bench_pairs")
    parent, change = tmp_path / "parent", tmp_path / "change7"
    parent.mkdir()
    change.mkdir()
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(parent), str(change), "--workload", "slab2d-decay",
                          "--pairs", "1", "--topic", "t", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    n = len(str(parent.resolve()))
    assert f"has {n} characters and the change's {n + 1};" in err
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_bench_pairs_counts_bytecode_not_the_kernel_library(tmp_path):
    # the solver's first run builds its kernel into __pycache__, which must
    # not read as the compiled sources that shorten setup_s
    bench_pairs = _script("bench_pairs")
    cache = tmp_path / "src" / "rarefan" / "__pycache__"
    assert not bench_pairs.holds_bytecode(tmp_path)
    cache.mkdir(parents=True)
    (cache / "_kernel-0123456789abcdef.so").write_bytes(b"")
    assert not bench_pairs.holds_bytecode(tmp_path)
    (cache / "solver.cpython-311.pyc").write_bytes(b"")
    assert bench_pairs.holds_bytecode(tmp_path)


def test_bench_pairs_marks_a_median_worse_than_its_bound():
    # a metric whose change median is worse than the parent's by more than
    # its bound is marked, whichever direction is better; a gain, a loss
    # within the bound and a metric without a bound are not
    bench_pairs = _script("bench_pairs")
    better = {"wall_s": "lower", "setup_s": "lower", "pass_ratio": "higher", "faults": "lower"}
    sides = ([(1.0, 0.10, 1.0, 100), (0.7, 0.13, 0.9, 300)],
             [(1.2, 0.12, 1.0, 100), (0.8, 0.16, 0.9, 300)],
             [(1.1, 0.11, 1.0, 100), (0.75, 0.14, 1.0, 300)])
    pairs = []
    for values in sides:
        pair = {s: {"metrics": dict(zip(better, v))} for s, v in zip(bench_pairs.SIDES, values)}
        pair["better"] = {n: bench_pairs.winner(pair, n, d) for n, d in better.items()}
        pairs.append(pair)
    # setup_s +27%, pass_ratio -10%
    out = bench_pairs.summarise(pairs, better, {"wall_s": 0.25, "setup_s": 0.25,
                                                "pass_ratio": 0.05})
    assert [out[n].get("over_bound") for n in better] == [False, True, True, None]
    out = bench_pairs.summarise(pairs, better, {"wall_s": 0.25, "setup_s": 0.3,
                                                "pass_ratio": 0.15})
    assert [out[n].get("over_bound") for n in better] == [False, False, False, None]


def test_diff_study_outputs_masks_run_fields(tmp_path):
    import subprocess
    import sys
    from pathlib import Path
    from rarefan.experiments import StudyReport

    script = Path(__file__).resolve().parent.parent / "scripts" / "diff_study_outputs.py"

    def emit(name, hash_, wall, value):
        rows = [{"eps": 0.1, "distance": value, "config_hash": hash_, "wall_time": wall}]
        StudyReport("eps-sweep", rows, {"ok": True}, hash_, 0, wall).emit(str(tmp_path / name))

    def diff(a, b):
        return subprocess.run([sys.executable, str(script), str(tmp_path / a),
                               str(tmp_path / b)], capture_output=True, text=True)

    emit("a", "aaaa", 1.0, 0.25)
    emit("b", "bbbb", 2.0, 0.25)
    csv_b = tmp_path / "b" / "eps_sweep.csv"
    text = csv_b.read_text()
    commit = next(l for l in text.splitlines() if l.startswith("# commit="))
    csv_b.write_text(text.replace(commit, "# commit=0123abc"))
    assert diff("a", "b").returncode == 0
    emit("c", "aaaa", 1.0, 0.2500001)
    res = diff("a", "c")
    assert res.returncode == 1
    assert "0.2500001" in res.stdout
    # the moved column with its largest relative and absolute difference;
    # unmoved and masked columns are not listed
    report = res.stdout.split("largest relative and absolute difference per numeric column")[1]
    assert report.split() == ["distance:", "relative", "4.000e-07,", "absolute", "1.000e-07"]
    # a quoted cell holding a comma keeps the wall_time mask on its own column
    for name, wall in (("d", 1.0), ("e", 2.0)):
        rows = [{"eps": 0.1, "failed": "floor hit: min rho 1e-3, min theta 2e-3",
                 "wall_time": wall, "n1": 96}]
        StudyReport("eps-sweep", rows, {"ok": False}, "aaaa", 0, wall).emit(str(tmp_path / name))
    assert diff("d", "e").returncode == 0


def test_eps_sweep_paired_run_abort_is_a_failure_row(monkeypatch):
    # every run aborts on the raised floor, the paired perturbed one included:
    # its abort must become a failure row and a FAIL verdict, not an exception
    from rarefan import solver
    monkeypatch.setattr(solver, "_FLOOR", 0.5)
    cfg = config(kind="eps-sweep", sweep=(0.05, 0.035, 0.02), horizon=0.3, h=0.1,
                 eta=1e-3, mode_cap=2,
                 wave=WaveBlock(nu_coeff=0.5, delta_coeff=1.0),
                 grid=GridBlock(n1=160, period=0.8))
    rep = run_viscosity_sweep(cfg)
    assert not rep.passed
    assert not rep.checks["no_run_failures"]
    assert not rep.checks["perturbation_influence_bounded"]
    paired = [r for r in rep.rows if r.get("eta", 0.0) > 0.0]
    assert len(paired) == 1 and paired[0]["failed"].startswith("positivity floor hit")


def test_energy_observer_positivity_break_is_a_run_abort():
    # a state outside the positive cone met by the observer in the middle of a
    # run is a numerical abort (exit 3), not a configuration error
    from rarefan.experiments import energy_observer
    from rarefan.fields import FieldSet, SlabGrid
    from rarefan.solver import RunAbort
    cfg = config(kind="simulate")
    grid = SlabGrid(L=2.0, n1=16)
    theta = np.ones(grid.shape)
    theta[5] = -0.1
    fs = FieldSet.from_primitives(grid, GAS, 1.0, np.zeros((3,) + grid.shape), theta, time=0.3)
    with pytest.raises(RunAbort, match="left the positive cone"):
        energy_observer(cfg.wave_spec(0.05))(fs, GAS)


def test_run_simulate(tmp_path, monkeypatch):
    import rarefan.experiments as ex
    from rarefan.fields import load_fields

    finals = []

    def keep_final(*args, **kwargs):
        final, records = real_run(*args, **kwargs)
        finals.append(final)
        return final, records
    real_run = ex.run
    monkeypatch.setattr(ex, "run", keep_final)

    horizon = 0.05
    cfg = config(kind="simulate", horizon=horizon, h=0.02, grid=GridBlock(n1=64))
    cfg.out_dir = str(tmp_path)
    rep = run_simulate(cfg)
    assert rep.passed
    assert [r["tau"] for r in rep.rows] == pytest.approx(
        [k * horizon / 20 for k in range(21)], abs=1e-12)
    cols = {c for r in rep.rows for c in r}
    assert any(c.startswith("dist.") for c in cols)
    assert any(c.startswith("energy.") for c in cols)

    snap = load_fields(tmp_path / "final.bin")
    assert len(finals) == 1
    assert snap.time == finals[0].time == pytest.approx(horizon, abs=1e-12)
    np.testing.assert_array_equal(snap.U, finals[0].U)


# workers take their function by name, so the helpers they run live here
def _assert_no_worker_left():
    # multiprocessing lists only the children it started; the OS lists every
    # child, bare forks and unreaped ones included
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pid_tagged(tag):
    return tag, os.getpid()


def _raise_value_error(message):
    raise ValueError(message)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _abort_with_diagnostics():
    from rarefan.solver import RunAbort, StepDiagnostics
    raise RunAbort("positivity floor hit", StepDiagnostics(1e-4, 2.0, 0.5, 0.25,
                                                           np.arange(5.0)))


def test_concurrently_keeps_call_order_and_runs_here_in_caller():
    out = _concurrently(lambda: ("here", os.getpid()),
                        [(_pid_tagged, ("a",)), (_pid_tagged, ("b",))])
    assert [tag for tag, _ in out] == ["here", "a", "b"]
    assert out[0][1] == os.getpid()
    assert os.getpid() not in {pid for _, pid in out[1:]}
    _assert_no_worker_left()


def test_concurrently_loads_the_kernel_once_before_it_forks(monkeypatch):
    # the caller and its worker both take a derivative, but the kernel is
    # looked up once, by the caller before it forks; the lookup returns the
    # library already built, so nothing compiles
    from rarefan import analysis, solver
    built = solver._kernel_path(solver._KERNEL_SOURCE, solver._BUILD_DIR)
    ctx = multiprocessing.get_context("fork")
    calls, pid = ctx.Value("i", 0), ctx.Value("i", 0)

    def recorded(source, build_dir):
        with calls.get_lock():
            calls.value += 1
            pid.value = os.getpid()
        return built
    monkeypatch.setattr(solver, "_kernel_path", recorded)
    solver._kernel.cache_clear()
    grid = SlabGrid.torus(1.0, 8, 6, 4, dims=3)
    f = np.random.default_rng(3).standard_normal(grid.shape)
    here, there = _concurrently(lambda: analysis.gradient(f, grid),
                                [(analysis.gradient, (f, grid))])
    assert (calls.value, pid.value) == (1, os.getpid())
    assert here.tobytes() == there.tobytes()
    _assert_no_worker_left()


def test_concurrently_raises_worker_exception_and_leaves_no_worker():
    with pytest.raises(ValueError, match="from the worker"):
        _concurrently(lambda: 1, [(_raise_value_error, ("from the worker",))])
    _assert_no_worker_left()


@pytest.mark.parametrize("failing, raised", [((1, 2), "call 1"), ((2, 3), "call 2"),
                                             ((3,), "call 3"), ((), None)])
def test_concurrently_orders_results_and_errors_across_workers(monkeypatch, failing, raised):
    # three CPUs, two workers: worker 0 runs calls 0 and 2, worker 1 calls 1
    # and 3, each up to its first error; the earliest failing call's error is
    # raised, else the results come back in call order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    calls = [(_raise_value_error, (f"call {i}",)) if i in failing else (_pid_tagged, (i,))
             for i in range(4)]
    if raised is None:
        assert [tag for tag, _ in _concurrently(lambda: ("here", 0), calls)] == [
            "here", 0, 1, 2, 3]
    else:
        with pytest.raises(ValueError, match=raised):
            _concurrently(lambda: 1, calls)
    _assert_no_worker_left()


def test_concurrently_raises_here_exception_after_workers_exit():
    def here():
        raise ValueError("from the caller")
    with pytest.raises(ValueError, match="from the caller"):
        _concurrently(here, [(time.sleep, (0.2,))])
    _assert_no_worker_left()


def test_concurrently_raises_when_a_worker_dies():
    # a worker killed outright (say by the OOM killer) must not hang the caller
    from concurrent.futures.process import BrokenProcessPool
    with pytest.raises(BrokenProcessPool):
        _concurrently(lambda: 1, [(_kill_self, ())])
    _assert_no_worker_left()


def test_run_abort_keeps_message_and_diagnostics_across_processes():
    from rarefan.solver import RunAbort, StepDiagnostics
    diag = StepDiagnostics(1e-4, 2.0, 0.5, 0.25, np.arange(5.0))
    back = pickle.loads(pickle.dumps(RunAbort("positivity floor hit", diag)))
    assert str(back) == "positivity floor hit"
    assert back.diagnostics.min_theta == 0.25
    np.testing.assert_array_equal(back.diagnostics.boundary_flux, np.arange(5.0))
    assert pickle.loads(pickle.dumps(RunAbort("no diagnostics"))).diagnostics is None

    with pytest.raises(RunAbort, match="positivity floor hit") as err:
        _concurrently(lambda: 1, [(_abort_with_diagnostics, ())])
    assert err.value.diagnostics.dt == 1e-4
    np.testing.assert_array_equal(err.value.diagnostics.boundary_flux, np.arange(5.0))
    _assert_no_worker_left()


def test_concurrently_loads_no_pool_module():
    # the workers are bare forks with a pipe each: fanning out one call in a
    # fresh process loads neither process-pool module (their first use costs
    # set-up time and memory)
    import subprocess
    import sys
    code = ("import sys; from rarefan.experiments import _concurrently; "
            "assert _concurrently(lambda: 1, [(abs, (-2,))]) == [1, 2]; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_only_experiments_starts_solver_runs():
    # the drivers alone start solver runs: of the package's modules only the
    # package namespace, the solver and experiments bind solver.run
    import sys
    import rarefan.cli  # noqa: F401, loads every module
    from rarefan import solver
    binders = sorted(name for name, mod in sys.modules.items()
                     if (name == "rarefan" or name.startswith("rarefan.")) and mod is not None
                     and any(v is solver.run for v in vars(mod).values()))
    assert binders == ["rarefan", "rarefan.experiments", "rarefan.solver"]


def test_background_rows_carry_their_own_wall_time(monkeypatch):
    # every torus run takes one tick of a fake clock; serially the second
    # row used to read two ticks, the time since the study began
    import rarefan.experiments as ex

    class Clock:
        now = 0.0

        def time(self):
            return self.now
    clock = Clock()

    def one_tick(fs, g, cfg, horizon, observers, sample_dt):
        clock.now += 1.0
        return fs, [{"tau": 0.0, "bg.sup": 1.0, "bg.drift": 0.0},
                    {"tau": horizon, "bg.sup": 0.1, "bg.drift": 0.0}]
    monkeypatch.setattr(ex, "time", clock)
    monkeypatch.setattr(ex, "run", one_tick)
    rep = run_background_decay(config(kind="background", eta=1e-3, sweep=(1e-3, 5e-4, 2.5e-4)))
    assert [r["eta"] for r in rep.rows] == [1e-3, 5e-4, 2.5e-4]
    assert [r["wall_time"] for r in rep.rows] == [1.0, 1.0, 1.0]
