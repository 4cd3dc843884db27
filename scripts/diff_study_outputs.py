#!/usr/bin/env python3
"""Compare the study CSVs of two output directories, ignoring run-specific fields.

Every <kind>.csv found in either directory is compared line by line after
masking the wall_time and config_hash columns and the '# commit=' and
'# config_hash=' header lines. Each other differing line is printed, and for
each differing CSV the largest relative difference |b - a| / |a| of every
numeric column that moved, rows paired in order. The exit status is 1 if
there is any differing line (a CSV present on one side only counts), else 0.

Usage: python scripts/diff_study_outputs.py DIR_A DIR_B
"""

import difflib
import math
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


def table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and data rows of one study CSV (comment lines dropped)."""
    lines = [l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")]
    return (lines[0], lines[1:]) if lines else ([], [])


def relative_differences(a: Path, b: Path) -> dict[str, float]:
    """Largest |b - a| / |a| per numeric column of both CSVs that is not masked."""
    (cols_a, rows_a), (cols_b, rows_b) = table(a), table(b)
    worst: dict[str, float] = {}
    for col in cols_a:
        if col in MASKED_COLUMNS or col not in cols_b:
            continue
        ia, ib = cols_a.index(col), cols_b.index(col)
        for ra, rb in zip(rows_a, rows_b):
            try:
                x, y = float(ra[ia]), float(rb[ib])
            except (IndexError, ValueError):  # empty or non-numeric cell
                continue
            if x == y or (math.isnan(x) and math.isnan(y)):
                rel = 0.0
            elif x == 0.0 or not (math.isfinite(x) and math.isfinite(y)):
                rel = math.inf
            else:
                rel = abs(y - x) / abs(x)
            worst[col] = max(worst.get(col, 0.0), rel)
    return worst


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
        before = differing
        for line in difflib.unified_diff(masked_lines(a), masked_lines(b), str(a), str(b),
                                         n=0, lineterm=""):
            print(line)
            if line[:1] in "+-" and not line.startswith(("+++", "---")):
                differing += 1
        if differing > before:
            moved = {c: r for c, r in relative_differences(a, b).items() if r > 0.0}
            print(f"{name}: largest relative difference per numeric column"
                  + ("" if moved else ": none"))
            for col, rel in moved.items():
                print(f"  {col}: {rel:.3e}")
    print(f"{differing} differing line(s)", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
