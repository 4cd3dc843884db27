#!/usr/bin/env python3
"""Run every batch study with the shipped configs and print a verdict table.

Each config's [experiment] kind picks its study; the cheap studies run first.

Usage: python scripts/run_all_studies.py [outdir]
"""

import sys
from pathlib import Path

from rarefan.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

STUDIES = ["cutoff_study.ini", "profile_study.ini", "gn_check.ini", "background.ini",
           "eps_sweep.ini", "decay.ini"]

VERDICTS = {0: "PASS", 1: "FAIL", 2: "CONFIG ERROR", 3: "NUMERICAL ABORT"}


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "out"
    worst = 0
    for ini in STUDIES:
        print(f"=== {ini} ===")
        code = cli_main(["run", "--config", str(CONFIGS / ini), "--out", outdir])
        worst = max(worst, code)
    print(f"\noverall: {VERDICTS[worst]}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
