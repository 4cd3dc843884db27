import dataclasses
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from rarefan.config import ConfigError, paper_constants, parse_config


BASE = """
[gas]
gamma = 1.6666666666666667
alpha = 0.5

[wave]
rho_plus = 1.0
u1_plus = 0.0
theta_plus = 1.0
nu = 0.05
delta = 0.1

[grid]
n1 = 256
period = 0.5
dims = 1

[solver]
eps = 0.02

[experiment]
kind = cutoff-study
sweep = 0.1, 0.05, 0.025

[output]
dir = out
"""


def write(tmp_path, text, name="c.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_basic(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    assert cfg.gas.gamma == pytest.approx(5.0 / 3.0)
    assert cfg.gas.R == cfg.gas.gamma - 1.0
    assert cfg.right.rho == 1.0
    assert cfg.experiment.sweep == (0.1, 0.05, 0.025)
    assert cfg.wave.nu == 0.05


def test_missing_section_named(tmp_path):
    with pytest.raises(ConfigError, match=r"\[gas\]"):
        parse_config(write(tmp_path, "[experiment]\nkind = simulate\n"))


def test_unknown_key_named(tmp_path):
    bad = BASE.replace("nu = 0.05", "nu = 0.05\nwhatsit = 3")
    with pytest.raises(ConfigError, match="whatsit"):
        parse_config(write(tmp_path, bad))


def test_unknown_kind_named(tmp_path):
    bad = BASE.replace("kind = cutoff-study", "kind = frobnicate")
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(write(tmp_path, bad))


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.ini")


ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted(ROOT.glob("configs/*.ini")) + [ROOT / "perfbench/configs/slab2d_decay.ini"]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_roundtrip_equality(path):
    # every shipped config parses and names a study
    from rarefan.experiments import DRIVERS
    assert parse_config(path).experiment.kind in DRIVERS


def test_config_hash_stable(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    cfg2 = parse_config(write(tmp_path, BASE, name="c2.ini"))
    assert cfg.config_hash() == cfg2.config_hash()
    cfg3 = parse_config(write(tmp_path, BASE.replace("nu = 0.05", "nu = 0.04"),
                              name="c3.ini"))
    assert cfg3.config_hash() != cfg.config_hash()


def test_config_hash_ignores_output_dir(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    moved = parse_config(write(tmp_path, BASE.replace("dir = out", "dir = elsewhere"),
                               name="moved.ini"))
    assert moved.as_dict()["output"]["dir"] == "elsewhere"  # the sidecar keeps it
    assert moved.config_hash() == cfg.config_hash()
    # the CLI's --out override goes the same way
    assert dataclasses.replace(cfg, out_dir=str(tmp_path)).config_hash() == cfg.config_hash()


def test_paper_scaling_arithmetic(tmp_path):
    # gamma = 5/3, alpha = 1/2: a = 1.5/34.5, Z = 0.1; at eps = 0.01 the
    # coupled nu = eps^(Z a)|log eps| exceeds rho_plus, and a cut-off
    # density that large must be refused, not clamped
    cfg = parse_config(write(tmp_path, BASE))
    a, Z = paper_constants(cfg.gas.gamma, cfg.gas.alpha)
    assert a == pytest.approx(1.5 / 34.5, abs=1e-12)
    assert Z == pytest.approx(0.1, abs=1e-12)
    eps = 0.01
    implied_nu = eps ** (Z * a) * abs(np.log(eps))
    assert implied_nu > cfg.right.rho  # infeasible at desk scale
    coupled = parse_config(write(tmp_path, BASE.replace("nu = 0.05", f"nu = {float(implied_nu)!r}"),
                                 name="coupled.ini"))
    with pytest.raises(ConfigError, match=r"outside \(0, rho_plus"):
        coupled.resolve_nu_delta(eps)


def test_desk_scale_links(tmp_path):
    text = BASE.replace("nu = 0.05\ndelta = 0.1",
                        "nu_coeff = 0.5\ndelta_coeff = 1.0")
    cfg = parse_config(write(tmp_path, text))
    nu, delta = cfg.resolve_nu_delta(0.04)
    assert nu == pytest.approx(0.5 * 0.2, abs=1e-14)
    assert delta == pytest.approx(0.2, abs=1e-14)


@pytest.mark.parametrize("name, literal", [("nu", "nu = 0.05"), ("delta", "delta = 0.1")],
                         ids=["nu", "delta"])
def test_quantity_given_both_ways_refused_at_parse(tmp_path, name, literal):
    # the link would silently win over the literal
    from rarefan.cli import main
    path = write(tmp_path, BASE.replace(literal, f"{literal}\n{name}_coeff = 0.5")
                               .replace("dir = out", f"dir = {tmp_path}/out"))
    with pytest.raises(ConfigError, match=f"{name} and {name}_coeff both given"):
        parse_config(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, value, message", [
    ("gn-check", "samples = 0", "samples must be at least 1"),
    ("gn-check", "samples = -3", "samples must be at least 1"),
    ("eps-sweep", "eta = -0.5", "eta must be nonnegative"),
    ("cutoff-study", "eta = -0.5", "eta must be nonnegative"),
    ("decay", "mode_cap = 0", "mode_cap must be at least 1"),
    ("gn-check", "mode_cap = -2", "mode_cap must be at least 1"),
], ids=["0", "-3", "eta-sweep", "eta-cutoff", "mode_cap-decay", "mode_cap-gn"])
def test_gn_check_without_samples_refused_at_parse(tmp_path, kind, value, message):
    # an invalid [experiment] value is refused at parse for every kind, even
    # one that never reads it: an eps-sweep at eta < 0 would otherwise exit 0
    # without its paired perturbed run
    from rarefan.cli import main
    text = (BASE.replace("kind = cutoff-study", f"kind = {kind}\n{value}")
                .replace("dir = out", f"dir = {tmp_path}/out"))
    path = write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"\[experiment\] " + message):
        parse_config(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_missing_nu_refused(tmp_path):
    text = BASE.replace("nu = 0.05\n", "")
    cfg = parse_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="nu"):
        cfg.resolve_nu_delta(0.02)


@pytest.mark.parametrize("wave, eps", [("nu = 0", 0.02), ("nu_coeff = 20", 0.01)],
                         ids=["nu=0", "nu=2"])
def test_resolved_nu_outside_range_refused(tmp_path, wave, eps):
    # a cut-off density outside (0, rho_plus) is refused, not clamped: exit
    # code 2 before any output
    from rarefan.cli import main
    text = (BASE.replace("kind = cutoff-study", "kind = profile-study")
                .replace("nu = 0.05", wave)
                .replace("eps = 0.02", f"eps = {eps}")
                .replace("dir = out", f"dir = {tmp_path}/out"))
    path = write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"resolved nu = .* outside \(0, rho_plus"):
        parse_config(path).resolve_nu_delta(eps)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_negative_eps_in_sweep_refused(tmp_path, capsys):
    # eps^(1/2) of a negative eps is complex: the sweep must end in one
    # configuration error that names eps, not in a traceback, and write no CSV
    from rarefan.cli import main
    text = (BASE.replace("nu = 0.05\ndelta = 0.1", "nu_coeff = 0.5\ndelta_coeff = 1.0")
                .replace("kind = cutoff-study\nsweep = 0.1, 0.05, 0.025",
                         "kind = eps-sweep\nsweep = -0.01, 0.02, 0.01\nhorizon = 0.02\nh = 0.01")
                .replace("n1 = 256", "n1 = 64")
                .replace("dir = out", f"dir = {tmp_path}/out"))
    path = write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"eps = -0\.01 is negative"):
        parse_config(path).resolve_nu_delta(-0.01)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: eps = -0.01 is negative: "
                   "a viscosity must be nonnegative"]
    assert not (tmp_path / "out" / "eps_sweep.csv").exists()


@pytest.mark.parametrize("wave, sweep, named", [
    pytest.param("nu_coeff = 0.5", "sweep = -0.01, 0.02, 0.01\n", r"eps = -0\.01 is negative",
                 id="negative eps"),
    pytest.param("nu_coeff = 20", "", r"resolved nu = .* outside \(0, rho_plus",
                 id="nu_coeff = 20, default sweep"),
])
def test_eps_sweep_waves_resolved_at_parse(tmp_path, monkeypatch, wave, sweep, named):
    # every eps an eps-sweep will run, its sweep or the driver's default,
    # resolves its wave in parse_config, so the CLI exits 2 before any run
    import rarefan.experiments as ex
    from rarefan.cli import main
    text = (BASE.replace("nu = 0.05\ndelta = 0.1", f"{wave}\ndelta_coeff = 1.0")
                .replace("kind = cutoff-study\nsweep = 0.1, 0.05, 0.025\n",
                         f"kind = eps-sweep\n{sweep}horizon = 0.02\nh = 0.01\n")
                .replace("n1 = 256", "n1 = 64")
                .replace("dir = out", f"dir = {tmp_path}/out"))
    path = write(tmp_path, text)
    with pytest.raises(ConfigError, match=named):
        parse_config(path)

    def no_run(*args, **kwargs):
        raise AssertionError("a solver run started")
    monkeypatch.setattr(ex, "run", no_run)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_exit_codes(tmp_path):
    from rarefan.cli import main
    cfgpath = write(tmp_path, BASE.replace("dir = out", f"dir = {tmp_path}/out"))
    assert main(["run", "--config", str(cfgpath)]) == 0
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = write(tmp_path, BASE + "\n[bogus]\nx = 1\n", name="bad.ini")
    assert main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize("line, named", [
    # [solver] has no boundary key: the driver's ghost source sets the x1 rule
    pytest.param("boundary = wrapped", "unknown key 'boundary'", id="boundary = wrapped-wrapped"),
    # the Courant number is the solver's constant, not a key
    pytest.param("cfl = 1.5", "unknown key 'cfl'", id="cfl = 1.5-cfl"),
])
def test_bad_solver_value_refused_at_parse(tmp_path, line, named):
    from rarefan.cli import main
    path = write(tmp_path, BASE.replace("eps = 0.02", f"eps = 0.02\n{line}"))
    with pytest.raises(ConfigError, match=named):
        parse_config(path)
    assert main(["run", "--config", str(path)]) == 2


# knobs that only ever took one value are constants, not keys: the CFL number,
# the desk-scale powers, the verdict bounds, the gas normalization and the
# positivity floors; and the coupled (nu, delta) scalings, infeasible at every
# desk-scale eps
DELETED_KEYS = [("eps = 0.02", "cfl"), ("delta = 0.1", "nu_exp"), ("delta = 0.1", "delta_exp"),
                ("kind = cutoff-study", "band_factor"), ("kind = cutoff-study", "exp_tol"),
                ("kind = cutoff-study", "r2_min"), ("alpha = 0.5", "normalized"),
                ("alpha = 0.5", "R"), ("alpha = 0.5", "A"),
                ("kind = cutoff-study", "paper_scaling"), ("eps = 0.02", "floor_rho"),
                ("eps = 0.02", "floor_theta")]


@pytest.mark.parametrize("after, key", DELETED_KEYS, ids=[k for _, k in DELETED_KEYS])
def test_deleted_key_refused_at_parse(tmp_path, after, key):
    from rarefan.cli import main
    path = write(tmp_path, BASE.replace(after, f"{after}\n{key} = 1"))
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(path)
    assert main(["run", "--config", str(path)]) == 2


def test_simulate_fully_periodic_refused_at_parse(tmp_path):
    # a torus run of the wave would wrap x1 across its two end states; no key
    # asks for one, simulate always pins the x1 ghosts to the profile
    from rarefan.cli import main
    text = (BASE.replace("kind = cutoff-study", "kind = simulate")
                .replace("eps = 0.02", "eps = 0.02\nboundary = fully-periodic")
                .replace("dir = out", f"dir = {tmp_path}/out"))
    path = write(tmp_path, text)
    with pytest.raises(ConfigError, match="unknown key 'boundary'"):
        parse_config(path)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_git_commit_names_own_checkout(tmp_path, monkeypatch):
    from rarefan.config import git_commit
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    git_commit.cache_clear()
    here = git_commit()
    if here == "unknown":
        pytest.skip("not a git checkout")
    # asked afresh from elsewhere, git still answers for the package's checkout
    monkeypatch.chdir(tmp_path)
    git_commit.cache_clear()
    assert git_commit() == here


@pytest.fixture
def fake_git(monkeypatch):
    """fake(stdout="", returncode=0, raises=None) makes subprocess.run answer
    git_commit's one git call with this output and returns the list of calls.
    git_commit's cached answer is cleared before and after the test, so
    neither the real one nor the fake one leaks."""
    from rarefan.config import git_commit
    git_commit.cache_clear()

    def fake(stdout="", returncode=0, raises=None):
        calls = []

        def run(cmd, **kwargs):
            calls.append(cmd)
            if raises is not None:
                raise raises
            return subprocess.CompletedProcess(cmd, returncode, stdout, "")
        monkeypatch.setattr(subprocess, "run", run)
        return calls
    yield fake
    git_commit.cache_clear()


BRANCH = ("# branch.oid 0123456789abcdef0123456789abcdef01234567\n"
          "# branch.head main\n")


def test_git_commit_clean_checkout(fake_git):
    from rarefan.config import git_commit
    calls = fake_git(BRANCH + "# branch.ab +0 -0\n")
    assert git_commit() == "0123456"
    assert calls == [["git", "status", "--porcelain=v2", "--branch", "--", "."]]


@pytest.mark.parametrize("entry", [
    "1 .M N... 100644 100644 100644 aa aa analysis.py",
    "? new_module.py",
])
def test_git_commit_marks_a_modified_package(fake_git, entry):
    from rarefan.config import git_commit
    calls = fake_git(BRANCH + entry + "\n")
    assert git_commit() == "0123456-dirty"
    assert len(calls) == 1


@pytest.mark.parametrize("fake", [
    {"stdout": "", "returncode": 128},  # not a git checkout
    {"stdout": "# branch.oid (initial)\n# branch.head main\n"},  # no commit yet
    {"raises": FileNotFoundError("git")},  # no git executable
    {"raises": subprocess.TimeoutExpired("git", 5)},
])
def test_git_commit_unknown_when_git_fails(fake_git, fake):
    from rarefan.config import git_commit
    fake_git(**fake)
    assert git_commit() == "unknown"


def test_reports_ask_git_once_per_process(tmp_path, fake_git):
    # every report of a process carries the commit of the code it imported,
    # so the second emit reuses the first one's git call
    from rarefan.experiments import StudyReport
    calls = fake_git(BRANCH)
    for kind in ("cutoff-study", "gn-check"):
        path = StudyReport(kind, [{"a": 1.0}], {"ok": True}, "h", 0, 0.1).emit(str(tmp_path))
        assert "# commit=0123456\n" in Path(path).read_text()
    assert len(calls) == 1


def test_cli_numerical_abort_exit_code(tmp_path, capsys, monkeypatch):
    # the cut-off density 0.05 sits below a floor raised to 0.5, so the first
    # step aborts
    from rarefan import solver
    from rarefan.cli import main
    monkeypatch.setattr(solver, "_FLOOR", 0.5)
    text = (BASE.replace("kind = cutoff-study", "kind = simulate")
                .replace("n1 = 256", "n1 = 64")
                .replace("dir = out", f"dir = {tmp_path}/out"))
    assert main(["run", "--config", str(write(tmp_path, text))]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical abort: positivity floor hit")


def test_cli_observer_positivity_break_exit_code(tmp_path, capsys, monkeypatch):
    # the energy observer's positivity check fails mid-run: exit 3, one line
    import rarefan.analysis as an
    from rarefan.cli import main

    def broken(*args, **kwargs):
        raise ValueError("perturbed state left the positive cone")
    monkeypatch.setattr(an, "energy_report", broken)
    text = (BASE.replace("kind = cutoff-study", "kind = simulate")
                .replace("n1 = 256", "n1 = 64")
                .replace("dir = out", f"dir = {tmp_path}/out"))
    assert main(["run", "--config", str(write(tmp_path, text))]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical abort: energy observer")


def test_cli_worker_abort_exit_code(tmp_path, capsys, monkeypatch):
    # the decay study's planar control runs in a forked worker; its abort
    # must reach the CLI as exit 3 with one line, and leave no worker behind
    import multiprocessing
    import os
    import rarefan.experiments as ex
    from rarefan.cli import main
    from rarefan.solver import RunAbort

    caller, real_run = os.getpid(), ex.run

    def abort_in_worker(*args, **kwargs):
        if os.getpid() != caller:
            raise RunAbort("positivity floor hit in the worker")
        return real_run(*args, **kwargs)
    monkeypatch.setattr(ex, "run", abort_in_worker)
    text = (BASE.replace("kind = cutoff-study\nsweep = 0.1, 0.05, 0.025",
                         "kind = decay\neta = 1e-3\nhorizon = 0.002\nmode_cap = 2")
                .replace("n1 = 256", "n1 = 128\nn2 = 8")
                .replace("dims = 1", "dims = 2")
                .replace("dir = out", f"dir = {tmp_path}/out"))
    assert main(["run", "--config", str(write(tmp_path, text))]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numerical abort: positivity floor hit in the worker"]
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


WAVE_DUMP = (BASE.replace("kind = cutoff-study\nsweep = 0.1, 0.05, 0.025",
                          "kind = wave-dump\nhorizon = 1.5")
                 .replace("n1 = 256", "n1 = 101"))


def test_cli_wave_dump(tmp_path):
    from rarefan.cli import main
    from rarefan.gas import GasParams, PrimState
    from rarefan.waves import WaveSpec, sample_exact, smooth_profile
    path = write(tmp_path, WAVE_DUMP)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    lines = [l for l in (tmp_path / "out" / "wave_dump.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == ("x1,rho_exact,u1_exact,theta_exact,rho_cutoff,u1_cutoff,theta_cutoff,"
                        "rho_smooth,u1_smooth,theta_smooth,config_hash,wall_time")
    assert len(lines) == 102
    # a row inside the fan, against the library at the same x1 and time
    row = np.array(lines[1 + 50].split(",")[:10], dtype=float)
    spec = WaveSpec(PrimState(1.0, 0.0, 1.0), GasParams.normalized(5.0 / 3.0, 0.5),
                    nu=0.05, delta=0.1)
    ex = sample_exact(spec, row[:1] / 1.5)
    pr = smooth_profile(spec, 1.5, row[:1])
    assert spec.u1_vacuum < row[0] / 1.5 < spec.w_plus   # inside the fan
    assert np.array_equal(row[1:4], [ex.rho[0], ex.u1[0], ex.theta[0]])
    assert np.allclose(row[7:10], [pr.rho[0], pr.u1[0], pr.theta[0]], rtol=1e-12, atol=0.0)
    # the sidecar records the wave it dumped and the hash of its config
    side = json.loads((tmp_path / "out" / "wave_dump.config.json").read_text())
    assert (side["config"]["wave"]["nu"], side["config"]["wave"]["delta"]) == (0.05, 0.1)
    assert side["config_hash"] == parse_config(path).config_hash()


@pytest.mark.parametrize("t", ["0", "-1"])
def test_cli_wave_dump_refuses_nonpositive_time(tmp_path, t):
    from rarefan.cli import main
    path = write(tmp_path, WAVE_DUMP.replace("horizon = 1.5", f"horizon = {t}"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["wave", "--t", "2.0"],
                                  ["run", "--config", "configs/wave_dump.ini", "--seed", "3"]],
                         ids=["wave", "seed"])
def test_cli_refuses_removed_commands(argv):
    from rarefan.cli import main
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_report_determinism(tmp_path):
    from rarefan.experiments import run_cutoff_study
    cfg = parse_config(write(tmp_path, BASE))
    r1 = run_cutoff_study(cfg)
    r2 = run_cutoff_study(cfg)
    p1 = r1.emit(str(tmp_path / "o1"))
    p2 = r2.emit(str(tmp_path / "o2"))

    def strip_walltime(path):
        lines = open(path).read().splitlines()
        head = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        cols = body[0].split(",")
        keep = [i for i, c in enumerate(cols) if c != "wall_time"]
        rows = [",".join(np.array(l.split(","))[keep]) for l in body]
        return head, rows

    h1, b1 = strip_walltime(p1)
    h2, b2 = strip_walltime(p2)
    assert b1 == b2
    assert [l for l in h1 if "hash" in l] == [l for l in h2 if "hash" in l]
