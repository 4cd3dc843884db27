#!/usr/bin/env python3
"""Time the solver (layer 2) and the analysis observers (layer 3) of a checkout.

    python scripts/bench_step.py DIR [--repeats 7]

Imports rarefan from DIR/src, so one copy of this script times any checkout
(the parent and a change, say) on the same inputs. The states are the
initial states the studies start from:

- ``line384`` and ``line768``: the eps-sweep of DIR/configs/eps_sweep.ini at
  its first (largest) eps, on its n1 = 384 grid and on the 768-cell grid of
  its refinement pre-check;
- ``slab256x32``: the decay study of DIR/perfbench/configs/slab2d_decay.ini
  (256 x 32 cells, perturbed);
- ``box160x16x16``: the same study on a 3-D grid, ``[grid] n1 = 160,
  n2 = n3 = 16, dims = 3``.

Each call is timed with ``timeit``: the number of calls per repeat is the one
``Timer.autorange`` picks (at least 0.2 s), and the best of --repeats
repeats is reported, in microseconds per call and nanoseconds per cell.
``step`` is called on the same state every time, so each call does the same
work: one ``stable_dt`` and three ``rhs``.

The analysis calls, under ``"analysis"`` in microseconds per call:

- ``gn_slab128x12x12`` and ``gn_torus16``: ``gn_sample`` of a standard-normal
  field on gn-check's slab (pinned x1) and torus grids at width 1;
- ``nonzero_energy_slab256x32``: ``nonzero_mode_energy`` of the slab256x32
  state against the smooth wave, as the decay study's observer calls it.

Prints one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
import timeit
from pathlib import Path


def cases(root: Path) -> dict:
    """name -> (FieldSet, GasParams, SolverConfig, ghost source) of each timed state."""
    from rarefan.config import parse_config
    from rarefan.experiments import _perturbation, _pinned_window, sweep_grid
    from rarefan.ansatz import assemble_initial
    from rarefan.solver import profile_ghost_source

    def pinned(cfg, eps, eta, n1=None):
        spec = cfg.wave_spec(eps)
        grid = sweep_grid(spec, cfg, n1)
        fs = assemble_initial(spec, _perturbation(cfg, eta), grid, cfg.gas,
                              window=_pinned_window(spec, grid))
        scfg = cfg.solver.solver_config(eps=eps)
        return fs, cfg.gas, scfg, profile_ghost_source(spec, grid)

    sweep = parse_config(root / "configs" / "eps_sweep.ini")
    eps = max(sweep.experiment.sweep)
    slab = parse_config(root / "perfbench" / "configs" / "slab2d_decay.ini")
    box = dataclasses.replace(slab, grid=dataclasses.replace(slab.grid, n1=160, n2=16, n3=16,
                                                             dims=3))
    return {"line384": pinned(sweep, eps, 0.0),
            "line768": pinned(sweep, eps, 0.0, 2 * sweep.grid.n1),
            "slab256x32": pinned(slab, slab.solver.eps, slab.experiment.eta),
            "box160x16x16": pinned(box, box.solver.eps, box.experiment.eta)}


def analysis_calls(root: Path, fs, g) -> dict:
    """name -> (grid, zero-argument call) of each timed analysis call; fs and
    g are the state and gas of the slab256x32 case."""
    import numpy as np
    from rarefan.analysis import gn_sample, nonzero_mode_energy
    from rarefan.config import parse_config
    from rarefan.experiments import _smooth_background
    from rarefan.fields import SlabGrid

    rng = np.random.default_rng(0)
    gn_slab = SlabGrid(L=4.0, n1=128, period=1.0, n2=12, n3=12, dims=3)
    gn_torus = SlabGrid.torus(1.0, 16, 16, 16, dims=3)
    u_slab, u_torus = rng.standard_normal(gn_slab.shape), rng.standard_normal(gn_torus.shape)
    decay = parse_config(root / "perfbench" / "configs" / "slab2d_decay.ini")
    rho_bar, _, th_bar = _smooth_background(decay.wave_spec(decay.solver.eps), fs)
    u, theta = fs.velocity(), fs.temperature(g)
    phi, zeta = fs.rho - rho_bar, theta - th_bar
    return {"gn_slab128x12x12": (gn_slab, lambda: gn_sample(u_slab, gn_slab, False)),
            "gn_torus16": (gn_torus, lambda: gn_sample(u_torus, gn_torus, True)),
            "nonzero_energy_slab256x32": (fs.grid, lambda: nonzero_mode_energy(
                phi, u, zeta, rho_bar, th_bar, fs.grid, g))}


def best_us(fn, repeats: int) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeats, number=number)) / number * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", type=Path, help="checkout whose src/rarefan is timed")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    root = args.dir.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import rarefan
    from rarefan.solver import rhs, step
    if Path(rarefan.__file__).resolve().parent != root / "src" / "rarefan":
        ap.error(f"imported rarefan from {rarefan.__file__}, not from {root}/src")

    out = {"dir": str(root), "machine": platform.machine(), "processor": platform.processor(),
           "python": platform.python_version(), "numpy": np.__version__,
           "repeats": args.repeats, "cases": {}, "analysis": {}}
    timed = cases(root)
    for name, (fs, g, cfg, ghost) in timed.items():
        cells = fs.rho.size
        rhs_us = best_us(lambda: rhs(fs, g, cfg, ghost, t=fs.time), args.repeats)
        step_us = best_us(lambda: step(fs, g, cfg, ghost), args.repeats)
        out["cases"][name] = {"shape": list(fs.grid.shape), "cells": cells,
                              "rhs_us": round(rhs_us, 2), "step_us": round(step_us, 2),
                              "rhs_ns_per_cell": round(rhs_us * 1e3 / cells, 1),
                              "step_ns_per_cell": round(step_us * 1e3 / cells, 1)}
    for name, (grid, call) in analysis_calls(root, *timed["slab256x32"][:2]).items():
        us = best_us(call, args.repeats)
        out["analysis"][name] = {"shape": list(grid.shape), "us": round(us, 2),
                                 "ns_per_cell": round(us * 1e3 / math.prod(grid.shape), 1)}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
