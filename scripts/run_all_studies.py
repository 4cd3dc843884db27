#!/usr/bin/env python3
"""Run the study of every shipped config, configs/*.ini, and print a verdict table.

Each config's [experiment] kind picks its study; the configs run in name order.

Usage: python scripts/run_all_studies.py [outdir]
"""

import sys
from pathlib import Path

from rarefan.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

VERDICTS = {0: "PASS", 1: "FAIL", 2: "CONFIG ERROR", 3: "NUMERICAL ABORT"}


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "out"
    worst = 0
    for ini in sorted(CONFIGS.glob("*.ini")):
        print(f"=== {ini.name} ===")
        code = cli_main(["run", "--config", str(ini), "--out", outdir])
        worst = max(worst, code)
    print(f"\noverall: {VERDICTS[worst]}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
