"""Command-line entry point: the study an INI config names.

    rarefan run --config configs/decay.ini [--out DIR]

``run`` calls the driver of the config's ``[experiment] kind``; the wave dump
is the kind ``wave-dump`` (``configs/wave_dump.ini``).

Exit codes: 0 all checks pass, 1 any check fails, 2 configuration error,
3 numerical abort (the solver hit a positivity floor or a step-size underflow).
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config
from .experiments import DRIVERS
from .solver import RunAbort


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rarefan",
                                 description="planar rarefaction waves with vacuum: "
                                             "wave dumps, viscous runs, studies")
    sub = ap.add_subparsers(dest="command", required=True)
    study = sub.add_parser("run", help="run the study named by the config's [experiment] kind")
    study.add_argument("--config", required=True, help="INI experiment config")
    study.add_argument("--out", default=None, help="output directory (overrides config)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.out_dir = args.out
        report = DRIVERS[cfg.experiment.kind](cfg)
        path = report.emit(cfg.out_dir)
        print(report.summary())
        print(f"wrote {path}")
        return 0 if report.passed else 1
    except (ValueError, FileNotFoundError) as exc:   # ConfigError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RunAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
