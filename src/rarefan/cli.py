"""Command-line entry point: batch studies and wave/simulation dumps.

Exit codes: 0 all checks pass, 1 any check fails, 2 configuration error,
3 numerical abort (the solver hit a positivity floor or a step-size underflow).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .gas import GasParams, PrimState
from .waves import WaveSpec
from .config import ConfigError, parse_config
from .experiments import DRIVERS, run_wave_dump
from .solver import RunAbort


def _add_common(p: argparse.ArgumentParser, config_required: bool = True):
    p.add_argument("--config", required=config_required, help="INI experiment config")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="override experiment seed")
    p.add_argument("--jobs", type=int, default=1, help="worker pool size for sweeps")
    p.add_argument("--paper-scaling", action="store_true",
                   help="derive nu and delta from the coupled eps scalings")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rarefan",
                                 description="planar rarefaction waves with vacuum: "
                                             "wave construction, viscous runs, studies")
    sub = ap.add_subparsers(dest="command", required=True)

    wave = sub.add_parser("wave", help="dump a wave profile to CSV")
    wave.add_argument("--nu", type=float, default=0.0)
    wave.add_argument("--delta", type=float, default=0.1)
    wave.add_argument("--t", type=float, default=None,
                      help="smooth-profile time; self-similar dump when omitted")
    wave.add_argument("--grid", type=int, default=1001, help="number of sample points")
    wave.add_argument("--gamma", type=float, default=5.0 / 3.0)
    wave.add_argument("--alpha", type=float, default=0.5)
    wave.add_argument("--right", type=float, nargs=3, default=(1.0, 0.0, 1.0),
                      metavar=("RHO", "U1", "THETA"))
    wave.add_argument("--out", default="wave.csv")

    for name in ("simulate", "cutoff-study", "profile-study", "eps-sweep",
                 "decay", "background", "gn-check"):
        p = sub.add_parser(name, help=f"run the {name} driver")
        _add_common(p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "wave":
            g = GasParams.normalized(args.gamma, args.alpha)
            spec = WaveSpec(PrimState(*args.right), g, nu=args.nu, delta=args.delta)
            path = run_wave_dump(spec, args.t, args.grid, args.out)
            print(f"wrote {path}")
            return 0

        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.seed is not None:
            cfg.experiment = dataclasses.replace(cfg.experiment, seed=args.seed)
        if args.paper_scaling:
            cfg.experiment = dataclasses.replace(cfg.experiment, paper_scaling=True)

        driver = DRIVERS[args.command]
        if args.command == "eps-sweep":
            report = driver(cfg, jobs=args.jobs)
        else:
            report = driver(cfg)
        path = report.emit(cfg.out_dir)
        print(report.summary())
        print(f"wrote {path}")
        return 0 if report.passed else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RunAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
