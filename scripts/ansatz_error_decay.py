#!/usr/bin/env python3
"""Measure the asymptotic-system error terms of the perturbed ansatz.

Evolves the two constant-state backgrounds on a torus cell, tiles their
deviations onto a commensurate slab, builds the ansatz at a ladder of times,
and reports the sup norms of (e0, e1, e2, e3, e4) relative to their
zero-perturbation baselines, with an exponential fit of the decay.

Usage: python scripts/ansatz_error_decay.py [--eta 1e-3] [--out ansatz_errors.csv]
"""

import argparse

import numpy as np

from rarefan.gas import GasParams, PrimState
from rarefan.fields import SlabGrid
from rarefan.waves import WaveSpec
from rarefan.solver import SolverConfig, run
from rarefan.analysis import fit_rate
from rarefan.ansatz import (PerturbationSpec, build_ansatz, ansatz_errors,
                            constant_conserved, perturbed_constant_state, tile_deviation)


def background_snapshots(state, pspec, g, scfg, torus, times):
    """March one periodic background through the sorted sample times."""
    base = constant_conserved(state, g)
    fs = perturbed_constant_state(state, pspec, torus, g)
    snaps = {}
    t_now = 0.0
    for t in times:
        fs, _ = run(fs, g, scfg, horizon=t - t_now)
        t_now = t
        snaps[t] = fs.copy()
    return base, snaps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--eta", type=float, default=1e-3)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--out", default="ansatz_errors.csv")
    args = ap.parse_args()

    g = GasParams.normalized(5.0 / 3.0, 0.5)
    # u1+ chosen so every conserved component ramps monotonically: the blend
    # weights stay inside [0, 1]
    right = PrimState(1.0, 3.0, 1.0)
    spec = WaveSpec(right, g, nu=0.05, delta=0.2)
    period, nt = 0.5, 16
    torus = SlabGrid.torus(period, nt, nt, dims=2)
    # slab x1 spacing equal to the torus spacing so tiling is an exact map
    L = 10.0
    n1 = int(round(2 * L / (period / nt)))
    slab = SlabGrid(L=L, n1=n1, period=period, n2=nt, dims=2)

    scfg = SolverConfig(eps=args.eps, boundary="fully-periodic")
    pspec = PerturbationSpec(eta=args.eta, mode_cap=3, seed=args.seed)
    ladder = np.linspace(0.05, 0.65, 7)
    dt_fd = 2e-3
    times = sorted({round(t + k * dt_fd, 9) for t in ladder for k in (-1, 0, 1)})

    snaps = {}
    for tag, state in (("plus", right), ("minus", spec.left_state())):
        base, ss = background_snapshots(state, pspec, g, scfg, torus, times)
        snaps[tag] = (base, ss)

    rows = []
    for t in ladder:
        trip, base_trip = [], []
        for k in (-1, 0, 1):
            tk = round(t + k * dt_fd, 9)
            dev_p = tile_deviation(snaps["plus"][1][tk], snaps["plus"][0], slab)
            dev_m = tile_deviation(snaps["minus"][1][tk], snaps["minus"][0], slab)
            trip.append(build_ansatz(spec, slab, g, tk, dev_plus=dev_p, dev_minus=dev_m))
            base_trip.append(build_ansatz(spec, slab, g, tk))
        e0, evec, e4 = ansatz_errors(*trip, g, args.eps)
        b0, bvec, b4 = ansatz_errors(*base_trip, g, args.eps)
        row = {"t": float(t),
               "e0": float(np.max(np.abs(e0 - b0))),
               "e1": float(np.max(np.abs(evec[0] - bvec[0]))),
               "e23": float(max(np.max(np.abs(evec[1] - bvec[1])),
                                np.max(np.abs(evec[2] - bvec[2])))),
               "e4": float(np.max(np.abs(e4 - b4)))}
        rows.append(row)
        print(row)

    for key in ("e0", "e1", "e23", "e4"):
        vals = [r[key] for r in rows]
        if all(v > 0 for v in vals):
            rate, r2 = fit_rate(ladder, vals, "exponential")
            print(f"{key}: rate {rate:.3f} (R2 {r2:.3f})")
    with open(args.out, "w") as fh:
        fh.write("t,e0,e1,e23,e4\n")
        for r in rows:
            fh.write(f"{r['t']},{r['e0']},{r['e1']},{r['e23']},{r['e4']}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
