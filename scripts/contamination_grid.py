#!/usr/bin/env python3
"""Mean-absolute-error pivots of a paper-figures CSV.

Reads the CSV that ``robustmean paper-figures`` writes (outlier counts by
block counts, standardised half-t(4) inliers, point mass at 1000) from a
path, or from stdin when none is given, and prints one mean-absolute-error
pivot per contamination level.

Example:
    robustmean paper-figures --reps 200 --out grid.csv
    python3 scripts/contamination_grid.py grid.csv
"""

import argparse
import csv
import sys

COLUMNS = (("mom", None), ("weighted", 1.0), ("weighted", 2.0), ("trimmed", None))


def label(kind: str, p: float | None) -> str:
    return kind if p is None else f"{kind}(p={p:g})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", nargs="?", default=None, help="paper-figures CSV; stdin when omitted")
    args = parser.parse_args()

    if args.csv is None:
        rows = list(csv.DictReader(sys.stdin))
    else:
        with open(args.csv, newline="", encoding="ascii") as handle:
            rows = list(csv.DictReader(handle))
    cells = {(r["estimator"], float(r["p"]) if r["p"] else None, int(r["k"]), int(r["O"])): r for r in rows}
    header = "  k " + "".join(f"{label(kind, p):>16}" for kind, p in COLUMNS)
    for count in sorted({key[3] for key in cells}):
        table = {key: row for key, row in cells.items() if key[3] == count}
        reps = next(iter(table.values()))["replications"]
        print(f"\nO={count} outliers, mean absolute error over {reps} reps")
        print(header)
        for k in sorted({key[2] for key in table}):
            errors = (float(table[kind, p, k, count]["mean_abs_error"]) for kind, p in COLUMNS)
            print(f"{k:>4}" + "".join(f"{error:>16.5f}" for error in errors))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
