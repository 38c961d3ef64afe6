#!/usr/bin/env python3
"""Reproduce the six-node eigenvalue-trajectory picture as a CSV dataset.

Sweeps the exponent for the nodes 1..6 and writes the signed-log scaled
trajectories plus the inertia transition table. The exponent grid returns
a point within 1e-9 of an integer as that integer, and the sweep takes the
zero counts at integers from exact rational arithmetic.

Usage:
    python scripts/figure1_demo.py [--out figure1.csv] [--steps 140]
"""

import argparse
import csv
import sys

from loewnerlab import (
    eigen_trajectories,
    emit_figure1,
    make_point_config,
    sign_change_report,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figure1.csv")
    ap.add_argument("--steps", type=int, default=140)
    ap.add_argument("--r-max", type=float, default=7.0)
    args = ap.parse_args()

    config = make_point_config((1, 2, 3, 4, 5, 6))
    step = args.r_max / args.steps
    sweep = eigen_trajectories(config, step, args.r_max, args.steps)
    header, rows = emit_figure1(sweep, scaling="signed-log")

    # str(mpf) prints at the working precision: keep the sweep's.
    with open(args.out, "w", newline="") as fh, sweep.tol.prec():
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(row[0]))]
                            + [str(v) for v in row[1:1 + config.n]]
                            + [str(c) for c in row[1 + config.n:]])
    print(f"wrote {len(rows)} rows to {args.out}")

    print("\ninertia transitions:")
    for change in sign_change_report(sweep):
        a, b = change.interval
        note = "" if change.brackets_integer else "  ** no integer in interval **"
        print(f"  ({a:.4f}, {b:.4f}): {change.before.as_tuple()} -> "
              f"{change.after.as_tuple()}{note}")

    zero_rows = [row for row in rows if row[1 + config.n + 1] > 0]
    print("\nsingular grid points (zero count > 0):")
    for row in zero_rows:
        print(f"  r = {float(row[0]):.4f}: zeros = {row[1 + config.n + 1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
