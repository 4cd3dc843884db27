#!/usr/bin/env python3
"""Time the solver (layer 2), the analysis observers (layer 3) and the study
layer's fixed costs (layer 4) of a checkout, or of two checkouts interleaved in
one process.

    python scripts/bench_step.py DIR
    python scripts/bench_step.py DIR DIR_B

Imports rarefan from DIR/src, so one copy of this script times any checkout
that has ``experiments.pinned_start`` (the parent and a change, say) on the
same inputs; time an older commit with its own copy. The states are the
initial states the studies start from, built by ``pinned_start``:

- ``line384`` and ``line768``: the eps-sweep of DIR/configs/eps_sweep.ini at
  its first (largest) eps, on its n1 = 384 grid and on the 768-cell grid of
  its refinement pre-check. Their u2 = u3 = 0 exactly, so the kernel runs
  its longitudinal-line kind on them;
- ``line768_eta``: the 768-cell line perturbed at eta = 1e-3, whose m2 and
  m3 rows are not zero, so the kernel runs its general rows on it: beside
  ``line768`` it shows what the longitudinal kind saves and that the
  general line rows did not slow down;
- ``slab256x32``: the decay study of DIR/perfbench/configs/slab2d_decay.ini
  (256 x 32 cells, perturbed);
- ``slab256x32_alpha07``: the same state under ``GasParams.normalized(5/3,
  0.7)``, where a face's theta^alpha is a ``pow`` call rather than a square
  root (every shipped config sets alpha = 0.5);
- ``box160x16x16``: the same study on a 3-D grid, ``[grid] n1 = 160,
  n2 = n3 = 16, dims = 3``.

``rhs``, ``stable_dt`` and ``step`` are timed on each case. ``stable_dt``
alternates two equal copies of the case's state, so that every call
reduces its state: ``stable_dt`` skips the reduction for the state whose
limits the work area holds, the last state it reduced or a step's result.
``step`` is called on one fixed state every time, so each call does the
same work: one ``stable_dt`` that reduces the state, three ``rhs`` and the
stages, the last of which also reduces the result's limits; their cost is
what ``step`` takes beyond one ``stable_dt`` and three ``rhs``. So the
``step`` row pays the reduction twice where a run's step pays it once. On
``line768``, ``run`` is ``solver.run`` from its state over RUN_HORIZON time
units (about 230 steps), reported per step (``run_steps`` of them, counted
once per tree): the loop that sets the ``line1d-sweep`` benchmark's wall
time, each step on the state the last one returned, with ``run``'s own
per-step cost; it shows the net of the two.

Every call is timed in ROUNDS rounds of about ROUND_SECONDS each (a round's
number of calls is fixed from one timed call). Each call's row holds the
median microseconds per call (``us``), nanoseconds per cell on a grid
(``ns_per_cell``) and median minor page faults per call (``faults``).

With DIR_B as well, DIR_B/src/rarefan is imported from a temporary copy
under the package name ``rarefan_b``, and each tree builds its own states
from its own configs. In each round both trees make the same number of
calls, DIR's tree first in even rounds and DIR_B's first in odd ones, so
that drift of the machine's speed falls on both. Each row adds DIR_B's
medians (``us_b``, ``faults_b``), their ratio to DIR's (``ratio``) and the
rounds DIR_B was faster (``b_wins``). Separate invocations spread by about
15% on a 2-core VM; interleaved rounds resolve a few percent while the
machine's speed holds still.

The sections are built and timed in order: the analysis calls first, with
only the slab256x32 state built, then the fan-out calls, then the solver
cases. A freed allocation of several MB (the 160x16x16 box's states, say)
raises glibc's dynamic mmap threshold, after which arrays of a few hundred
KB come from the heap and no longer fault in on every call; timed after
the cases, an analysis call that allocates such arrays would hide that
cost, which gn-check's loop pays.

The analysis calls, under ``"analysis"`` in microseconds per call:

- ``gn_slab128x12x12`` and ``gn_torus16``: ``gn_sample`` of a standard-normal
  field on gn-check's slab (pinned x1) and torus grids at width 1, what
  gn-check runs at each width. A tree with ``analysis.gn_sums`` takes the
  field's width-free sums once, before the timing; for an older tree, whose
  ``gn_sample(u, grid, torus)`` takes the sum of u^2 itself, the row
  includes that sum;
- ``nonzero_energy_slab256x32``: ``nonzero_mode_energy`` of the slab256x32
  state against the smooth wave, as the decay study's observer calls it;
- ``gn_piece`` (layer 4): ``experiments._gn_max_ratios(3, [1.0, 0.5,
  0.25], 0, 5)``, one gn-check piece of 5 samples at the study's three
  widths, run in this process: the draws, the sample builds, their sums,
  the derivative norms and the 90 ``gn_check`` calls.

The study layer's fixed costs, under ``"fanout"`` in microseconds per call:

- ``concurrently``: ``experiments._concurrently(lambda: None, [(noop, ())])``,
  one forked worker that does nothing, started, answered and reaped;
- ``git_commit``: ``config.git_commit()``, which each report's emit calls.

The solver's C kernel, under ``"kernel"``: ``build_s``, the median seconds
of KERNEL_BUILDS builds of the tree's ``_kernel.c`` into fresh temporary
directories, the cost that the first solver call of a checkout pays (and
``build_s_b`` for DIR_B); null for a tree without the kernel. Prints one
JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import timeit
from pathlib import Path

# interleaved rounds per call, and DIR's time for one call's batch in a round
ROUNDS = 31
ROUND_SECONDS = 0.05
# cold builds of the solver's kernel timed per tree
KERNEL_BUILDS = 3
# time units of the run row's solver.run on line768
RUN_HORIZON = 0.05


CASES = ("line384", "line768", "line768_eta", "slab256x32", "slab256x32_alpha07",
         "box160x16x16")


def cases(root: Path, pkg: str = "rarefan", names=CASES) -> dict:
    """name -> (FieldSet, GasParams, SolverConfig, ghost source) of the timed
    states in names, built by the package pkg."""
    parse_config = importlib.import_module(f"{pkg}.config").parse_config
    pinned_start = importlib.import_module(f"{pkg}.experiments").pinned_start
    GasParams = importlib.import_module(f"{pkg}.gas").GasParams

    def pinned(cfg, eps, eta, n1=None):
        _, _, fs, scfg, ghost = pinned_start(cfg, eps, eta, n1)
        return fs, cfg.gas, scfg, ghost

    sweep = parse_config(root / "configs" / "eps_sweep.ini")
    eps = max(sweep.experiment.sweep)
    slab = parse_config(root / "perfbench" / "configs" / "slab2d_decay.ini")
    box = dataclasses.replace(slab, grid=dataclasses.replace(slab.grid, n1=160, n2=16, n3=16,
                                                             dims=3))
    starts = {"line384": (sweep, eps, 0.0),
              "line768": (sweep, eps, 0.0, 2 * sweep.grid.n1),
              "line768_eta": (sweep, eps, 1e-3, 2 * sweep.grid.n1),
              "slab256x32": (slab, slab.solver.eps, slab.experiment.eta),
              "box160x16x16": (box, box.solver.eps, box.experiment.eta)}
    out = {}
    for name in names:
        if name == "slab256x32_alpha07":
            fs, _, scfg, ghost = pinned(*starts["slab256x32"])
            out[name] = fs, GasParams.normalized(5.0 / 3.0, 0.7), scfg, ghost
        else:
            out[name] = pinned(*starts[name])
    return out


def analysis_calls(root: Path, pkg: str = "rarefan") -> dict:
    """name -> (shape, zero-argument call) of each timed analysis call, the
    shape None for a call without one grid."""
    import numpy as np
    analysis = importlib.import_module(f"{pkg}.analysis")
    gn_sample, nonzero_mode_energy = analysis.gn_sample, analysis.nonzero_mode_energy
    parse_config = importlib.import_module(f"{pkg}.config").parse_config
    experiments = importlib.import_module(f"{pkg}.experiments")
    SlabGrid = importlib.import_module(f"{pkg}.fields").SlabGrid

    rng = np.random.default_rng(0)
    gn_slab = SlabGrid(L=4.0, n1=128, period=1.0, n2=12, n3=12, dims=3)
    gn_torus = SlabGrid.torus(1.0, 16, 16, 16, dims=3)
    u_slab, u_torus = rng.standard_normal(gn_slab.shape), rng.standard_normal(gn_torus.shape)
    if hasattr(analysis, "gn_sums"):
        # a width's share of a sample: its width-free sums are taken once
        gn_args = [(u, analysis.gn_sums(u), grid, torus)
                   for u, grid, torus in ((u_slab, gn_slab, False), (u_torus, gn_torus, True))]
    else:
        gn_args = [(u_slab, gn_slab, False), (u_torus, gn_torus, True)]
    fs, g, _, _ = cases(root, pkg, ("slab256x32",))["slab256x32"]
    decay = parse_config(root / "perfbench" / "configs" / "slab2d_decay.ini")
    rho_bar, _, th_bar = experiments._smooth_background(decay.wave_spec(decay.solver.eps), fs)
    prim = fs.primitives(g)
    u, theta = prim[1:4], prim[4]
    phi, zeta = fs.rho - rho_bar, theta - th_bar
    return {"gn_slab128x12x12": (gn_slab.shape, lambda: gn_sample(*gn_args[0])),
            "gn_torus16": (gn_torus.shape, lambda: gn_sample(*gn_args[1])),
            "nonzero_energy_slab256x32": (fs.grid.shape, lambda: nonzero_mode_energy(
                phi, u, zeta, rho_bar, th_bar, fs.grid, g)),
            "gn_piece": (None, lambda: experiments._gn_max_ratios(3, [1.0, 0.5, 0.25], 0, 5))}


def _noop():
    return None


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_steps(solver, fs, g, cfg, ghost) -> int:
    """The steps of solver.run from fs over RUN_HORIZON, counted through the
    module's step, which run calls."""
    step, count = solver.step, [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return step(*args, **kwargs)
    solver.step = counted
    try:
        solver.run(fs, g, cfg, RUN_HORIZON, ghost_source=ghost)
    finally:
        solver.step = step
    return count[0]


def calls(root: Path, pkg: str):
    """Yield the call table {(section, name, call): (shape, zero-argument call,
    units)} of each section of the tree root, imported as the package pkg,
    in timing order; each section is built only when asked for. call is None
    for an analysis or fan-out call. A call's time is reported per unit: per
    step for ``run``, per call otherwise (units 1). The shape of a fan-out
    call, which has no grid, is None."""
    yield {("analysis", name, None): (shape, call, 1)
           for name, (shape, call) in analysis_calls(root, pkg).items()}
    concurrently = importlib.import_module(f"{pkg}.experiments")._concurrently
    git_commit = importlib.import_module(f"{pkg}.config").git_commit
    yield {("fanout", "concurrently", None): (None, lambda: concurrently(
        lambda: None, [(_noop, ())]), 1), ("fanout", "git_commit", None): (None, git_commit, 1)}
    solver = importlib.import_module(f"{pkg}.solver")
    out = {}
    for name, (fs, g, cfg, ghost) in cases(root, pkg).items():
        out["cases", name, "rhs"] = (fs.grid.shape, lambda fs=fs, g=g, cfg=cfg, ghost=ghost:
                                     solver.rhs(fs, g, cfg, ghost, t=fs.time), 1)
        twins = itertools.cycle((fs, fs.copy()))
        out["cases", name, "stable_dt"] = (fs.grid.shape, lambda twins=twins, g=g, cfg=cfg:
                                           solver.stable_dt(next(twins), g, cfg), 1)
        out["cases", name, "step"] = (fs.grid.shape, lambda fs=fs, g=g, cfg=cfg, ghost=ghost:
                                      solver.step(fs, g, cfg, ghost), 1)
        if name == "line768":
            out["cases", name, "run"] = (
                fs.grid.shape, lambda fs=fs, g=g, cfg=cfg, ghost=ghost:
                solver.run(fs, g, cfg, RUN_HORIZON, ghost_source=ghost),
                run_steps(solver, fs, g, cfg, ghost))
    yield out


def kernel_build_s(pkg: str) -> float | None:
    """Median seconds of KERNEL_BUILDS builds of the package's solver kernel,
    each into a fresh temporary directory; None without a kernel."""
    solver = importlib.import_module(f"{pkg}.solver")
    if not hasattr(solver, "_kernel_path"):
        return None
    seconds = []
    for _ in range(KERNEL_BUILDS):
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            solver._kernel_path(solver._KERNEL_SOURCE, Path(tmp))
            seconds.append(time.perf_counter() - t0)
    return round(statistics.median(seconds), 4)


def load_copy(root: Path, tmp: Path, pkg: str) -> None:
    """Import root/src/rarefan from a copy in tmp under the package name pkg."""
    shutil.copytree(root / "src" / "rarefan", tmp / pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    importlib.import_module(pkg)


def timed_rounds(tables: list[dict]) -> dict:
    """key -> row of each call in the call tables of one tree or two (see
    calls), timed in ROUNDS alternating rounds; see the module docstring."""
    numbers = {}
    for key, (_, call, _) in tables[0].items():
        for table in tables:
            table[key][1]()
        numbers[key] = max(1, round(ROUND_SECONDS / max(timeit.timeit(call, number=1), 1e-9)))
    us, faults = ({key: [[] for _ in tables] for key in numbers} for _ in range(2))
    for i in range(ROUNDS):
        for key, number in numbers.items():
            for side in range(len(tables))[::1 if i % 2 == 0 else -1]:
                _, call, units = tables[side][key]
                f0 = _minflt()
                t = timeit.Timer(call).timeit(number=number)
                faults[key][side].append((_minflt() - f0) / (number * units))
                us[key][side].append(t / (number * units) * 1e6)
    out = {}
    for key, number in numbers.items():
        shape = tables[0][key][0]
        (ua, *ub), (fa, *fb) = us[key], faults[key]
        ma = statistics.median(ua)
        row = {"us": round(ma, 2)}
        if shape is not None:
            row["ns_per_cell"] = round(ma * 1e3 / math.prod(shape), 1)
        row.update({"faults": round(statistics.median(fa), 2), "calls_per_round": number})
        if ub:
            mb = statistics.median(ub[0])
            row.update({"us_b": round(mb, 2), "faults_b": round(statistics.median(fb[0]), 2),
                        "ratio": round(mb / ma, 4),
                        "b_wins": sum(y < x for x, y in zip(ua, ub[0]))})
        out[key] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", type=Path, help="checkout whose src/rarefan is timed")
    ap.add_argument("dir_b", type=Path, nargs="?",
                    help="second checkout, timed against DIR in interleaved rounds")
    args = ap.parse_args(argv)
    root = args.dir.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import rarefan
    if Path(rarefan.__file__).resolve().parent != root / "src" / "rarefan":
        ap.error(f"imported rarefan from {rarefan.__file__}, not from {root}/src")

    out = {"dir": str(root), "machine": platform.machine(), "processor": platform.processor(),
           "python": platform.python_version(), "numpy": np.__version__, "rounds": ROUNDS,
           "seconds": ROUND_SECONDS}
    trees = [(root, "rarefan")]
    # the copy of DIR_B stays on disk while the calls run, for any import made late
    with tempfile.TemporaryDirectory() as tmp:
        if args.dir_b is not None:
            out["dir_b"] = str(args.dir_b.resolve())
            load_copy(args.dir_b.resolve(), Path(tmp), "rarefan_b")
            trees.append((args.dir_b.resolve(), "rarefan_b"))
        out["kernel"] = {f"build_s{suffix}": kernel_build_s(pkg)
                         for suffix, (_, pkg) in zip(("", "_b"), trees)}
        for tables in zip(*(calls(r, pkg) for r, pkg in trees)):
            for (section, name, call), row in timed_rounds(tables).items():
                shape = tables[0][section, name, call][0]
                entry = out.setdefault(section, {}).setdefault(
                    name, {} if shape is None else {"shape": list(shape),
                                                    "cells": math.prod(shape)})
                if call is None:
                    entry.update(row)
                    continue
                entry[call] = row
                if call == "run":
                    entry.update(zip(("run_steps", "run_steps_b"),
                                     (table[section, name, call][2] for table in tables)))
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
