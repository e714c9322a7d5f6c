#!/usr/bin/env python3
"""Desk-scale contamination study.

Runs the full benchmark grid (four outlier counts by eight block counts,
standardised half-t(4) inliers, point mass at 1000) and prints one
mean-absolute-error pivot per contamination level.  Optionally dumps the
raw table in the same CSV layout the CLI emits.

Example:
    python3 scripts/contamination_grid.py --reps 200 --out grid.csv
"""

import argparse

from robustmean import (
    FIGURE_DEFAULT_SEED,
    FIGURE_K_GRID,
    FIGURE_OUTLIER_GRID,
    emit_results,
    figure_grid_table,
)

COLUMNS = (("mom", None), ("weighted", 1.0), ("weighted", 2.0), ("trimmed", None))


def label(kind: str, p: float | None) -> str:
    return kind if p is None else f"{kind}(p={p:g})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=FIGURE_DEFAULT_SEED)
    parser.add_argument("--out", help="also write the raw grid as CSV")
    args = parser.parse_args()

    table = figure_grid_table(args.reps, args.seed)
    header = "  k " + "".join(f"{label(kind, p):>16}" for kind, p in COLUMNS)
    for count in FIGURE_OUTLIER_GRID:
        print(f"\nO={count} outliers, mean absolute error over {args.reps} reps")
        print(header)
        for k in FIGURE_K_GRID:
            cells = (table.metrics(kind, k=k, outliers=count, p=p) for kind, p in COLUMNS)
            print(f"{k:>4}" + "".join(f"{m.mean_abs_error:>16.5f}" for m in cells))

    if args.out:
        emit_results(table, "csv", args.out)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
