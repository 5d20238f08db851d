#!/usr/bin/env python3
"""Distance-matrix benchmark: fractional vs hard membership under capacity.

Expects a dataset directory with points.csv (id,x,y,w) and matrix.csv
(road distances, one row per demand point, one column per candidate site).
Runs the four capacity/membership combinations and prints the summary
table (mean / median / 95% quantile of assigned distances and wall time).
"""

import argparse
import os
import time

import numpy as np

from capclust import (
    CenterSpec, Problem, SolverConfig, distance_summary, matrix_metric, solve,
    validate_problem,
)
from capclust.errors import AllRestartsInfeasible, Infeasible
from capclust.io import load_matrix, load_points


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True, help="directory with points.csv and matrix.csv")
    parser.add_argument("--k", type=int, default=12)
    parser.add_argument("--wide", default="2963,4962")
    parser.add_argument("--tight", default="3962,3963")
    parser.add_argument("--restarts", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--time-budget", type=float, default=60.0,
                        help="seconds per hard allocation call (None-like 0 disables)")
    args = parser.parse_args()
    missing = [name for name in ("points.csv", "matrix.csv") if not os.path.isfile(os.path.join(args.data, name))]
    if missing:
        parser.error(f"{args.data!r} lacks {' and '.join(missing)}: --data needs a directory with "
                     "points.csv (id,x,y,w) and matrix.csv (one row per point, one column per site)")

    points = load_points(f"{args.data}/points.csv")
    D = load_matrix(f"{args.data}/matrix.csv")
    print(f"{len(points)} demand points, {D.shape[1]} candidate sites, k={args.k}")
    windows = {
        "wide": tuple(float(x) for x in args.wide.split(",")),
        "tight": tuple(float(x) for x in args.tight.split(",")),
    }

    print(f"{'membership':<12} {'limits':<6} {'mean':>7} {'median':>7} {'q95':>7} {'time (s)':>9}")
    for membership in ("fractional", "hard"):
        for label, window in windows.items():
            problem = validate_problem(Problem(
                points=points, metric=matrix_metric(D),
                centers=CenterSpec(k=args.k, placement="discrete"),
                membership=membership, capacity=window,
            ))
            budget = args.time_budget if (membership == "hard" and args.time_budget > 0) else None
            config = SolverConfig(restarts=args.restarts, rng_seed=args.seed, time_budget=budget)
            t0 = time.monotonic()
            try:
                sol = solve(problem, config)
            except (Infeasible, AllRestartsInfeasible) as exc:
                elapsed = time.monotonic() - t0
                print(f"{membership:<12} {label:<6} {'infeasible':>23}  {elapsed:9.1f}  ({exc})")
                continue
            elapsed = time.monotonic() - t0
            s = distance_summary(problem, sol)
            gap = sol.diagnostics.get("optimality_gap")
            note = f"  (gap {gap:.2%})" if gap else ""
            print(f"{membership:<12} {label:<6} {s['mean']:7.3f} {s['median']:7.3f} "
                  f"{s['q95']:7.3f} {elapsed:9.1f}{note}")
            loads = sol.assignment.loads(np.array([p.a for p in points]))
            print(f"{'':<19} loads [{loads.min():.0f}, {loads.max():.0f}]")


if __name__ == "__main__":
    main()
