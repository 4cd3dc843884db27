#!/usr/bin/env python3
"""Time the solver (layer 2), the analysis observers (layer 3) and the study
layer's fixed costs (layer 4) of a checkout, or of two checkouts interleaved in
one process.

    python scripts/bench_step.py DIR [--repeats 7]
    python scripts/bench_step.py DIR DIR_B

Imports rarefan from DIR/src, so one copy of this script times any checkout
(the parent and a change, say) on the same inputs, as long as the checkout
has ``experiments.pinned_start``; a commit from before it needs that
commit's copy of this script, and two trees on either side of it cannot be
interleaved, so time each with its own copy. The states are the initial
states the studies start from, built by ``experiments.pinned_start``:

- ``line384`` and ``line768``: the eps-sweep of DIR/configs/eps_sweep.ini at
  its first (largest) eps, on its n1 = 384 grid and on the 768-cell grid of
  its refinement pre-check;
- ``slab256x32``: the decay study of DIR/perfbench/configs/slab2d_decay.ini
  (256 x 32 cells, perturbed);
- ``slab256x32_alpha07``: the same state under ``GasParams.normalized(5/3,
  0.7)``, where a face's theta^alpha is a ``pow`` call rather than a square
  root (every shipped config sets alpha = 0.5);
- ``box160x16x16``: the same study on a 3-D grid, ``[grid] n1 = 160,
  n2 = n3 = 16, dims = 3``.

With one DIR, each call is timed with ``timeit``: the number of calls per
repeat is the one ``Timer.autorange`` picks (at least 0.2 s), and the best
of --repeats repeats is reported, in microseconds per call and nanoseconds
per cell, next to the minor page faults per call over those repeats.
``rhs``, ``stable_dt`` and ``step`` are timed on each case; ``step`` is
called on the same state every time, so each call does the same work: one
``stable_dt``, three ``rhs`` and the stages, whose cost is what ``step``
takes beyond one ``stable_dt`` and three ``rhs``. On ``line768``, ``run``
is ``solver.run`` from its state over RUN_HORIZON time units (about 230
steps), reported per step (``run_steps`` of them, counted once per tree):
the loop that sets the ``line1d-sweep`` benchmark's wall time, each step
on the state the last one returned, with ``run``'s own per-step cost.

The sections are built and timed in order: the analysis calls first, with
only the slab256x32 state built, then the fan-out calls, then the solver
cases. A freed allocation of several MB (the 160x16x16 box's states, say)
raises glibc's dynamic mmap threshold, after which arrays of a few hundred
KB come from the heap and no longer fault in on every call; timed after
the cases, an analysis call that allocates such arrays would hide that
cost, which gn-check's loop pays.

With DIR_B as well, DIR_B/src/rarefan is imported from a temporary copy
under the package name ``rarefan_b``, and each tree builds its own states
from its own configs. Every call is then timed in ROUNDS rounds; in each
round both trees make the same number of calls (about ROUND_SECONDS of
DIR's tree), DIR's tree first in even rounds and DIR_B's first in odd ones, so
that drift of the machine's speed falls on both. For each call it prints
each tree's median microseconds per call, their ratio (DIR_B over DIR) and
the number of rounds DIR_B's tree was faster, and each tree's median minor
faults per call. Separate invocations spread by about 15% on a 2-core VM;
interleaved rounds resolve a few percent.

The analysis calls, under ``"analysis"`` in microseconds per call:

- ``gn_slab128x12x12`` and ``gn_torus16``: ``gn_sample`` of a standard-normal
  field on gn-check's slab (pinned x1) and torus grids at width 1;
- ``nonzero_energy_slab256x32``: ``nonzero_mode_energy`` of the slab256x32
  state against the smooth wave, as the decay study's observer calls it.

The study layer's fixed costs, under ``"fanout"`` in microseconds per call:

- ``concurrently``: ``experiments._concurrently(lambda: None, [(noop, ())])``,
  one forked worker that does nothing, started, answered and reaped;
- ``git_commit``: ``config.git_commit()``, which each report's emit calls.

The solver's C kernel, under ``"kernel"``: ``build_s``, the median seconds
of KERNEL_BUILDS builds of the tree's ``_kernel.c`` into fresh temporary
directories, the cost that the first solver call of a checkout pays (and
``build_s_b`` for DIR_B); null for a tree without the kernel.

Prints one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
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


CASES = ("line384", "line768", "slab256x32", "slab256x32_alpha07", "box160x16x16")


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
    """name -> (grid, zero-argument call) of each timed analysis call."""
    import numpy as np
    analysis = importlib.import_module(f"{pkg}.analysis")
    gn_sample, nonzero_mode_energy = analysis.gn_sample, analysis.nonzero_mode_energy
    parse_config = importlib.import_module(f"{pkg}.config").parse_config
    _smooth_background = importlib.import_module(f"{pkg}.experiments")._smooth_background
    SlabGrid = importlib.import_module(f"{pkg}.fields").SlabGrid

    rng = np.random.default_rng(0)
    gn_slab = SlabGrid(L=4.0, n1=128, period=1.0, n2=12, n3=12, dims=3)
    gn_torus = SlabGrid.torus(1.0, 16, 16, 16, dims=3)
    u_slab, u_torus = rng.standard_normal(gn_slab.shape), rng.standard_normal(gn_torus.shape)
    fs, g, _, _ = cases(root, pkg, ("slab256x32",))["slab256x32"]
    decay = parse_config(root / "perfbench" / "configs" / "slab2d_decay.ini")
    rho_bar, _, th_bar = _smooth_background(decay.wave_spec(decay.solver.eps), fs)
    u, theta = fs.velocity(), fs.temperature(g)
    phi, zeta = fs.rho - rho_bar, theta - th_bar
    return {"gn_slab128x12x12": (gn_slab, lambda: gn_sample(u_slab, gn_slab, False)),
            "gn_torus16": (gn_torus, lambda: gn_sample(u_torus, gn_torus, True)),
            "nonzero_energy_slab256x32": (fs.grid, lambda: nonzero_mode_energy(
                phi, u, zeta, rho_bar, th_bar, fs.grid, g))}


def _noop():
    return None


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def best_us(fn, repeats: int) -> tuple[float, float]:
    """Best-of-repeats µs per call of fn, and the minor faults per call over
    all the repeats."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    f0 = _minflt()
    best = min(timer.repeat(repeat=repeats, number=number))
    return best / number * 1e6, (_minflt() - f0) / (repeats * number)


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
    """Yield (section, {(section, case, call): (shape, zero-argument call,
    units)}) for the sections of the tree root, imported as the package pkg,
    in timing order; each section is built only when asked for. A call's
    time is reported per unit: per step for ``run``, per call otherwise
    (units 1). The shape of a fan-out call, which has no grid, is None."""
    yield "analysis", {("analysis", name, "us"): (grid.shape, call, 1)
                       for name, (grid, call) in analysis_calls(root, pkg).items()}
    concurrently = importlib.import_module(f"{pkg}.experiments")._concurrently
    git_commit = importlib.import_module(f"{pkg}.config").git_commit
    yield "fanout", {("fanout", "concurrently", "us"): (None, lambda: concurrently(
        lambda: None, [(_noop, ())]), 1), ("fanout", "git_commit", "us"): (None, git_commit, 1)}
    solver = importlib.import_module(f"{pkg}.solver")
    out = {}
    for name, (fs, g, cfg, ghost) in cases(root, pkg).items():
        out["cases", name, "rhs"] = (fs.grid.shape, lambda fs=fs, g=g, cfg=cfg, ghost=ghost:
                                     solver.rhs(fs, g, cfg, ghost, t=fs.time), 1)
        out["cases", name, "stable_dt"] = (fs.grid.shape, lambda fs=fs, g=g, cfg=cfg:
                                           solver.stable_dt(fs, g, cfg), 1)
        out["cases", name, "step"] = (fs.grid.shape, lambda fs=fs, g=g, cfg=cfg, ghost=ghost:
                                      solver.step(fs, g, cfg, ghost), 1)
        if name == "line768":
            out["cases", name, "run"] = (
                fs.grid.shape, lambda fs=fs, g=g, cfg=cfg, ghost=ghost:
                solver.run(fs, g, cfg, RUN_HORIZON, ghost_source=ghost),
                run_steps(solver, fs, g, cfg, ghost))
    yield "cases", out


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


def interleaved(root: Path, root_b: Path) -> dict:
    """Both trees' calls timed in alternating rounds, a section at a time;
    see the module docstring. The copy of root_b stays on disk while they
    run, for any import made late."""
    out = {"cases": {}, "analysis": {}, "fanout": {}}
    with tempfile.TemporaryDirectory() as tmp:
        load_copy(root_b, Path(tmp), "rarefan_b")
        out["kernel"] = {"build_s": kernel_build_s("rarefan"),
                         "build_s_b": kernel_build_s("rarefan_b")}
        for (section, a), (_, b) in zip(calls(root, "rarefan"), calls(root_b, "rarefan_b")):
            us = {key: ([], []) for key in a}
            faults = {key: ([], []) for key in a}
            numbers = {}
            for key, (_, call, _) in a.items():
                call()
                b[key][1]()
                single = timeit.Timer(call).timeit(number=1)
                numbers[key] = max(1, round(ROUND_SECONDS / max(single, 1e-9)))
            for i in range(ROUNDS):
                for key, number in numbers.items():
                    sides = ((0, a), (1, b)) if i % 2 == 0 else ((1, b), (0, a))
                    for side, tree in sides:
                        _, call, units = tree[key]
                        f0 = _minflt()
                        t = timeit.Timer(call).timeit(number=number)
                        faults[key][side].append((_minflt() - f0) / (number * units))
                        us[key][side].append(t / (number * units) * 1e6)
            for key, (ua, ub) in us.items():
                ma, mb = statistics.median(ua), statistics.median(ub)
                fa, fb = faults[key]
                row = {"us": round(ma, 2), "us_b": round(mb, 2), "ratio": round(mb / ma, 4),
                       "b_wins": sum(y < x for x, y in zip(ua, ub)),
                       "calls_per_round": numbers[key],
                       "faults": round(statistics.median(fa), 2),
                       "faults_b": round(statistics.median(fb), 2)}
                _, name, call = key
                shape, _, units = a[key]
                if shape is None:
                    out[section][name] = row
                    continue
                entry = out[section].setdefault(name, {"shape": list(shape),
                                                       "cells": math.prod(shape)})
                entry[call] = row
                if call == "run":
                    entry["run_steps"], entry["run_steps_b"] = units, b[key][2]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", type=Path, help="checkout whose src/rarefan is timed")
    ap.add_argument("dir_b", type=Path, nargs="?",
                    help="second checkout, timed against DIR in interleaved rounds")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    root = args.dir.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import rarefan
    if Path(rarefan.__file__).resolve().parent != root / "src" / "rarefan":
        ap.error(f"imported rarefan from {rarefan.__file__}, not from {root}/src")

    out = {"dir": str(root), "machine": platform.machine(), "processor": platform.processor(),
           "python": platform.python_version(), "numpy": np.__version__}
    if args.dir_b is not None:
        out.update({"dir_b": str(args.dir_b.resolve()), "rounds": ROUNDS,
                    "seconds": ROUND_SECONDS})
        out.update(interleaved(root, args.dir_b.resolve()))
        print(json.dumps(out, indent=2))
        return 0

    out.update({"repeats": args.repeats, "cases": {}, "analysis": {}, "fanout": {},
                "kernel": {"build_s": kernel_build_s("rarefan")}})
    for _, section_calls in calls(root, "rarefan"):
        for (section, name, call), (shape, fn, units) in section_calls.items():
            us, faults = best_us(fn, args.repeats)
            us, faults = us / units, faults / units
            if shape is None:
                out[section][name] = {"us": round(us, 2), "faults": round(faults, 2)}
                continue
            cells = math.prod(shape)
            entry = out[section].setdefault(name, {"shape": list(shape), "cells": cells})
            prefix = f"{call}_" if section == "cases" else ""
            entry.update({f"{prefix}us": round(us, 2),
                          f"{prefix}ns_per_cell": round(us * 1e3 / cells, 1),
                          f"{prefix}faults": round(faults, 2)})
            if call == "run":
                entry["run_steps"] = units
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
