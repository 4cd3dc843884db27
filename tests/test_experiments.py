import numpy as np
import pytest

from rarefan.gas import GasParams, PrimState
from rarefan.config import (ExperimentConfig, GridBlock, SolverBlock, ExperimentBlock,
                            ConfigError)
from rarefan.experiments import (run_cutoff_study, run_profile_study, run_viscosity_sweep,
                                 run_nonzero_decay, run_background_decay, run_gn_check,
                                 _decay_run)

GAS = GasParams.normalized(5.0 / 3.0, 0.5)
RIGHT = PrimState(1.0, 0.0, 1.0)


def config(**exp_kwargs) -> ExperimentConfig:
    grid = exp_kwargs.pop("grid", GridBlock())
    solver = exp_kwargs.pop("solver", SolverBlock())
    wave = exp_kwargs.pop("wave", {"nu": 0.05, "delta": 0.1})
    return ExperimentConfig(
        gas=GAS, right=wave.get("right", RIGHT),
        nu=wave.get("nu"), delta=wave.get("delta"),
        nu_coeff=wave.get("nu_coeff"), nu_exp=wave.get("nu_exp"),
        delta_coeff=wave.get("delta_coeff"), delta_exp=wave.get("delta_exp"),
        grid=grid, solver=solver, experiment=ExperimentBlock(**exp_kwargs))


def test_cutoff_study_passes_and_reports():
    rep = run_cutoff_study(config(kind="cutoff-study", sweep=(0.1, 0.05, 0.025, 0.0125)))
    assert rep.passed
    assert len(rep.rows) == 4
    assert all("config_hash" in r for r in rep.rows)
    assert rep.rows[0]["nu"] == 0.1  # sorted by descending nu


def test_profile_study_passes():
    rep = run_profile_study(config(kind="profile-study"))
    assert rep.passed


def test_gn_check_small_battery():
    rep = run_gn_check(config(kind="gn-check", samples=6, seed=1))
    assert rep.passed
    cases = {r["case"] for r in rep.rows}
    assert len(cases) == 6


def test_background_requires_eta():
    with pytest.raises(ConfigError):
        run_background_decay(config(kind="background", eta=0.0))


def test_decay_requires_transverse():
    with pytest.raises(ConfigError):
        run_nonzero_decay(config(kind="decay", eta=1e-3, grid=GridBlock(dims=1)))


@pytest.mark.slow
def test_eps_sweep_small_with_jobs_and_pairing():
    cfg = config(kind="eps-sweep", sweep=(0.05, 0.035, 0.02), horizon=0.4, h=0.15,
                 eta=1e-3, mode_cap=2, seed=3,
                 wave={"nu_coeff": 0.5, "nu_exp": 0.5, "delta_coeff": 1.0,
                       "delta_exp": 0.5},
                 grid=GridBlock(n1=160, period=0.8))
    rep = run_viscosity_sweep(cfg, jobs=2)
    # this short-horizon smoke run exercises the worker pool and the paired
    # perturbed run; the monotone-in-eps property needs the full horizon and
    # is asserted by the acceptance sweep
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
                     wave={"nu": 0.1, "delta": 0.2},
                     grid=GridBlock(n1=128, n2=n2, period=0.8, dims=2),
                     solver=SolverBlock(eps=0.08))
        records, grid = _decay_run(cfg, modes="all")
        dists[n2] = records[-1]["dist.max"]
    assert abs(dists[12] - dists[24]) <= 0.01 * dists[24]


def test_eps_sweep_partial_report_on_failure():
    # a floor tight enough to abort every run must yield failure rows and a
    # FAIL verdict, not an exception
    cfg = config(kind="eps-sweep", sweep=(0.05, 0.035, 0.02), horizon=0.3, h=0.1,
                 wave={"nu_coeff": 0.5, "nu_exp": 0.5, "delta_coeff": 1.0,
                       "delta_exp": 0.5},
                 grid=GridBlock(n1=96, period=0.8),
                 solver=SolverBlock(floor_rho=0.5))
    rep = run_viscosity_sweep(cfg)
    assert not rep.passed
    assert not rep.checks["no_run_failures"]
    assert any("failed" in r for r in rep.rows)


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
    # the moved column with its largest relative difference; unmoved and
    # masked columns are not listed
    report = res.stdout.split("largest relative difference per numeric column")[1]
    assert report.split() == ["distance:", "4.000e-07"]
