#!/usr/bin/env python3
"""Compare the study CSVs of two output directories, ignoring run-specific fields.

Every <kind>.csv found in either directory is compared line by line after
masking the wall_time and config_hash columns and the '# commit=' and
'# config_hash=' header lines. Rows are read with the csv module, so a quoted
cell holding a comma stays one cell. Each other differing line is printed, and
for each differing CSV the largest relative difference |b - a| / |a| and the
largest absolute difference |b - a| of every numeric column that moved, rows
paired in order; the absolute one tells a round-off column (a conservation
drift near 1e-16, say) from a physical move. The exit status is 1 if
there is any differing line (a CSV present on one side only counts), else 0.

Usage: python scripts/diff_study_outputs.py DIR_A DIR_B
"""

import csv
import difflib
import io
import math
import sys
from pathlib import Path

MASKED_COLUMNS = ("wall_time", "config_hash")
MASKED_HEADERS = ("# commit=", "# config_hash=")


def _cells(line: str) -> list[str]:
    return next(csv.reader([line]))


def _line(cells: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def masked_lines(path: Path) -> list[str]:
    """Lines of one study CSV with the run-specific fields replaced or dropped."""
    out, keep = [], None
    for line in path.read_text().splitlines():
        if line.startswith(MASKED_HEADERS):
            out.append(line.split("=", 1)[0] + "=*")
        elif line.startswith("#"):
            out.append(line)
        else:
            cells = _cells(line)
            if keep is None:  # the column-name line
                keep = [i for i, c in enumerate(cells) if c not in MASKED_COLUMNS]
            out.append(_line([cells[i] for i in keep if i < len(cells)]))
    return out


def table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and data rows of one study CSV (comment lines dropped)."""
    lines = [_cells(l) for l in path.read_text().splitlines() if not l.startswith("#")]
    return (lines[0], lines[1:]) if lines else ([], [])


def column_differences(a: Path, b: Path) -> dict[str, tuple[float, float]]:
    """Largest (|b - a| / |a|, |b - a|) per numeric column of both CSVs that is not masked."""
    (cols_a, rows_a), (cols_b, rows_b) = table(a), table(b)
    worst: dict[str, tuple[float, float]] = {}
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
                rel = gap = 0.0
            elif not (math.isfinite(x) and math.isfinite(y)):
                rel = gap = math.inf
            else:
                gap = abs(y - x)
                rel = gap / abs(x) if x != 0.0 else math.inf
            old_rel, old_gap = worst.get(col, (0.0, 0.0))
            worst[col] = (max(old_rel, rel), max(old_gap, gap))
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
            moved = {c: d for c, d in column_differences(a, b).items() if d[0] > 0.0}
            print(f"{name}: largest relative and absolute difference per numeric column"
                  + ("" if moved else ": none"))
            for col, (rel, gap) in moved.items():
                print(f"  {col}: relative {rel:.3e}, absolute {gap:.3e}")
    print(f"{differing} differing line(s)", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
