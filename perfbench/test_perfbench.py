"""Tests of the benchmark's own machinery: the gate and the tracer.

    python3 -m pytest perfbench -q      (from the repository root)
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gate  # noqa: E402
import operation  # noqa: E402
from spans import Tracer  # noqa: E402

import rarefan.experiments as ex  # noqa: E402
import rarefan.solver as solver  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _rows_without_wall(report):
    rows = [{k: v for k, v in r.items() if k != "wall_time"} for r in report.rows]
    return json.dumps(rows, sort_keys=True)


def test_nosolver_operation_passes_gate_and_corruption_fails(at_root, tmp_path, monkeypatch):
    ref = gate.load_reference()
    seed = 3
    expected = ref["workloads"]["nosolver-studies"][str(seed)]
    cfgs, _, _ = operation.setup("nosolver-studies")
    reports, _ = operation.run_operation("nosolver-studies", cfgs, seed, str(tmp_path))
    assert gate.problems(reports, expected, ref["rel_tol"]) == []

    # a 5% error in every inequality ratio keeps the study's own width checks
    # green, so only the reference comparison can catch it
    real = ex.gn_check

    def corrupted(*args, **kwargs):
        res = dict(real(*args, **kwargs))
        res["ratio"] *= 1.05
        return res
    monkeypatch.setattr(ex, "gn_check", corrupted)
    reports, _ = operation.run_operation("nosolver-studies", cfgs, seed, str(tmp_path))
    assert all(rep.passed for rep in reports)
    found = gate.problems(reports, expected, ref["rel_tol"])
    assert found and all("empirical_constant" in p for p in found)


def test_gate_rejects_failed_check_and_broken_planar_control():
    ref = gate.load_reference()
    expected = ref["workloads"]["slab2d-decay"]["0"]
    rows = [{"run": "perturbed", "fit_rate_rho": expected["fit_rate_rho"]},
            {"run": "planar-control", "dneq_rho": 0.0}]
    good = ex.StudyReport("decay", rows, {"dneq_rho_decays": True}, "h", 0, 0.0)
    assert gate.problems([good], expected, ref["rel_tol"]) == []

    bad_rows = [dict(rows[0]), {"run": "planar-control", "dneq_rho": 1e-9}]
    bad = ex.StudyReport("decay", bad_rows, {"dneq_rho_decays": False}, "h", 0, 0.0)
    found = gate.problems([bad], expected, ref["rel_tol"])
    assert len(found) == 2
    # a held-out seed has no reference: only the studies' checks apply
    assert gate.problems([good], None, ref["rel_tol"]) == []
    assert gate.problems([bad], None, ref["rel_tol"]) == found


def _small_decay(at_root_cfg):
    cfg = at_root_cfg
    return dataclasses.replace(
        cfg, grid=dataclasses.replace(cfg.grid, n1=192, n2=8),
        experiment=dataclasses.replace(cfg.experiment, horizon=0.01))


def test_traced_reports_equal_untraced(at_root, tmp_path):
    """Wrapping must not change a single reported number."""
    from rarefan.config import parse_config

    decay = _small_decay(parse_config("perfbench/configs/slab2d_decay.ini"))
    studies = [("decay", decay),
               ("cutoff-study", parse_config("configs/cutoff_study.ini")),
               ("profile-study", parse_config("configs/profile_study.ini")),
               ("gn-check", parse_config("configs/gn_check.ini"))]
    plain = [ex.DRIVERS[kind](cfg) for kind, cfg in studies]

    originals = (solver.rhs, solver.step, ex.run, ex.StudyReport.emit)
    tracer = Tracer()
    with tracer:
        traced = [tracer.call("experiments.driver", ex.DRIVERS[kind], cfg)
                  for kind, cfg in studies]
        traced[0].emit(str(tmp_path))
    assert (solver.rhs, solver.step, ex.run, ex.StudyReport.emit) == originals

    for a, b in zip(plain, traced):
        assert _rows_without_wall(a) == _rows_without_wall(b)
        assert a.checks == b.checks

    m = tracer.metrics(wall_s=1.0)
    assert m["solver.step.calls"] > 0
    assert m["solver.rhs_per_step"] == 3.0
    assert m["solver.ghost.calls"] == m["solver.rhs.calls"]
    assert m["solver.dt_conv_over_dt"] > 1.0
    assert m["solver.rhs.peak_alloc_mb"] > m["solver.state_mb"] > 0.0
    assert m["waves.profile_lp_norm.calls"] > 0
    assert m["analysis.gn_check.calls"] > 0
    assert m["experiments.emit.bytes"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["solver.run", 0.0, 10.0, -1],
                    ["solver.step", 1.0, 4.0, 0],
                    ["solver.rhs", 1.5, 3.5, 1],
                    ["solver.step", 5.0, 9.0, 0]]
    st = tracer.stats()
    assert st["solver.run"]["self_s"] == pytest.approx(3.0)
    assert st["solver.step"] == {"calls": 2, "s": pytest.approx(7.0),
                                 "self_s": pytest.approx(5.0)}
    assert st["solver.rhs"]["self_s"] == pytest.approx(2.0)
