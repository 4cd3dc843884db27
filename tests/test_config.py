import numpy as np
import pytest

from rarefan.config import (ConfigError, ExperimentConfig, parse_config, emit_config,
                            paper_constants)


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
    assert cfg.gas.is_normalized
    assert cfg.right.rho == 1.0
    assert cfg.experiment.sweep == (0.1, 0.05, 0.025)
    assert cfg.nu == 0.05


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


def test_roundtrip_equality(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    out = tmp_path / "echo.ini"
    emit_config(cfg, out)
    cfg2 = parse_config(out)
    assert cfg2 == cfg


def test_config_hash_stable(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    cfg2 = parse_config(write(tmp_path, BASE, name="c2.ini"))
    assert cfg.config_hash() == cfg2.config_hash()
    cfg3 = parse_config(write(tmp_path, BASE.replace("nu = 0.05", "nu = 0.04"),
                              name="c3.ini"))
    assert cfg3.config_hash() != cfg.config_hash()


def test_paper_scaling_arithmetic(tmp_path):
    # gamma = 5/3, alpha = 1/2: a = 1.5/34.5, Z = 0.1; at eps = 0.01 the
    # implied nu exceeds rho_plus and must be refused, not clamped
    text = BASE.replace("kind = cutoff-study", "kind = eps-sweep") \
               .replace("sweep = 0.1, 0.05, 0.025", "paper_scaling = true")
    cfg = parse_config(write(tmp_path, text))
    a, Z = cfg.paper_constants()
    assert a == pytest.approx(1.5 / 34.5, abs=1e-12)
    assert Z == pytest.approx(0.1, abs=1e-12)
    eps = 0.01
    implied_nu = eps ** (Z * a) * abs(np.log(eps))
    assert implied_nu > cfg.right.rho  # infeasible at desk scale
    with pytest.raises(ConfigError, match="infeasible"):
        cfg.resolve_nu_delta(eps)


def test_paper_scaling_feasible_when_small():
    # a synthetic right state large enough that the scaling fits
    from rarefan.gas import GasParams, PrimState
    from rarefan.config import GridBlock, SolverBlock, ExperimentBlock
    cfg = ExperimentConfig(
        gas=GasParams.normalized(5.0 / 3.0, 0.5),
        right=PrimState(10.0, 0.0, 1.0),
        nu=None, delta=None, nu_coeff=None, nu_exp=None,
        delta_coeff=None, delta_exp=None,
        grid=GridBlock(), solver=SolverBlock(),
        experiment=ExperimentBlock(paper_scaling=True))
    nu, delta = cfg.resolve_nu_delta(0.01)
    assert 0.0 < nu < 10.0
    assert delta == pytest.approx(0.01 ** (1.5 / 34.5), abs=1e-12)


def test_desk_scale_links(tmp_path):
    text = BASE.replace("nu = 0.05\ndelta = 0.1",
                        "nu_coeff = 0.5\nnu_exp = 0.5\ndelta_coeff = 1.0\ndelta_exp = 0.5")
    cfg = parse_config(write(tmp_path, text))
    nu, delta = cfg.resolve_nu_delta(0.04)
    assert nu == pytest.approx(0.5 * 0.2, abs=1e-14)
    assert delta == pytest.approx(0.2, abs=1e-14)


def test_missing_nu_refused(tmp_path):
    text = BASE.replace("nu = 0.05\n", "")
    cfg = parse_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="nu"):
        cfg.resolve_nu_delta(0.02)


def test_cli_exit_codes(tmp_path):
    from rarefan.cli import main
    cfgpath = write(tmp_path, BASE.replace("dir = out", f"dir = {tmp_path}/out"))
    assert main(["cutoff-study", "--config", str(cfgpath)]) == 0
    assert main(["cutoff-study", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = write(tmp_path, BASE + "\n[bogus]\nx = 1\n", name="bad.ini")
    assert main(["cutoff-study", "--config", str(bad)]) == 2


@pytest.mark.parametrize("line, named", [
    ("scaled = ture", "scaled"),
    ("boundary = wrapped", "wrapped"),
    ("cfl = 1.5", "cfl"),
])
def test_bad_solver_value_refused_at_parse(tmp_path, line, named):
    from rarefan.cli import main
    path = write(tmp_path, BASE.replace("eps = 0.02", f"eps = 0.02\n{line}"))
    with pytest.raises(ConfigError, match=named):
        parse_config(path)
    assert main(["cutoff-study", "--config", str(path)]) == 2


def test_cli_numerical_abort_exit_code(tmp_path, capsys):
    # the cut-off density 0.05 sits below floor_rho, so the first step aborts
    from rarefan.cli import main
    text = (BASE.replace("kind = cutoff-study", "kind = simulate")
                .replace("n1 = 256", "n1 = 64")
                .replace("eps = 0.02", "eps = 0.02\nfloor_rho = 0.5")
                .replace("dir = out", f"dir = {tmp_path}/out"))
    assert main(["simulate", "--config", str(write(tmp_path, text))]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical abort: positivity floor hit")


def test_cli_wave_dump(tmp_path):
    from rarefan.cli import main
    out = tmp_path / "wave.csv"
    assert main(["wave", "--nu", "0.05", "--grid", "101", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "xi,rho,u1,theta,m,n"
    assert len(lines) == 102


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
