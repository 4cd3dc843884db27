#!/usr/bin/env python3
"""Compare the study CSVs of two output directories, ignoring run-specific fields.

Every <kind>.csv found in either directory is compared line by line after
masking the wall_time and config_hash columns and the '# commit=' and
'# config_hash=' header lines. Each other differing line is printed; the exit
status is 1 if there is any (a CSV present on one side only counts), else 0.

Usage: python scripts/diff_study_outputs.py DIR_A DIR_B
"""

import difflib
import sys
from pathlib import Path

MASKED_COLUMNS = ("wall_time", "config_hash")
MASKED_HEADERS = ("# commit=", "# config_hash=")


def masked_lines(path: Path) -> list[str]:
    """Lines of one study CSV with the run-specific fields replaced or dropped."""
    out, keep = [], None
    for line in path.read_text().splitlines():
        if line.startswith(MASKED_HEADERS):
            out.append(line.split("=", 1)[0] + "=*")
        elif line.startswith("#"):
            out.append(line)
        else:
            cells = line.split(",")
            if keep is None:  # the column-name line
                keep = [i for i, c in enumerate(cells) if c not in MASKED_COLUMNS]
            out.append(",".join(cells[i] for i in keep if i < len(cells)))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    differing = 0
    for name in sorted({p.name for d in (dir_a, dir_b) for p in d.glob("*.csv")}):
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {a.parent if a.exists() else b.parent}")
            differing += 1
            continue
        for line in difflib.unified_diff(masked_lines(a), masked_lines(b), str(a), str(b),
                                         n=0, lineterm=""):
            print(line)
            if line[:1] in "+-" and not line.startswith(("+++", "---")):
                differing += 1
    print(f"{differing} differing line(s)", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
