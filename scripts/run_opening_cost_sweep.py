#!/usr/bin/env python3
"""Opening-cost sweep: pick the number of centers on a synthetic instance.

Solves the instance once per k with no opening cost, overlays a grid of
opening penalties analytically, and prints the per-penalty argmin plus the
consensus choice alongside the elbow diagnostics (first differences of the
base curve).
"""

import argparse

from capclust import (
    CenterSpec, GenSpec, Problem, SolverConfig, aic_bic_lambda, generate_dataset,
    sqeuclidean, sweep_k,
)
from capclust.io import load_points


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", default=None, help="points CSV; default: synthetic benchmark data")
    parser.add_argument("--k-min", type=int, default=6)
    parser.add_argument("--k-max", type=int, default=14)
    parser.add_argument("--lambdas", default="0,0.002,0.004,0.006,0.008")
    parser.add_argument("--capacity", default=None, help="L,U")
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.points:
        points = load_points(args.points)
    else:
        points, _ = generate_dataset(GenSpec.benchmark(rng_seed=args.seed))
    capacity = None
    if args.capacity:
        lo, hi = args.capacity.split(",")
        capacity = (float(lo), float(hi))
    problem = Problem(points=points, metric=sqeuclidean(), centers=CenterSpec(k=args.k_min),
                      membership="fractional" if capacity else "hard", capacity=capacity)
    lambdas = [float(x) for x in args.lambdas.split(",")]
    report = sweep_k(problem, range(args.k_min, args.k_max + 1), lambdas,
                     SolverConfig(restarts=args.restarts, rng_seed=args.seed))

    header = "k    base objective " + " ".join(f"lam={lam:g}" for lam in lambdas)
    print(header)
    for k in report.k_values:
        if k in report.base_objectives:
            cells = " ".join(f"{report.penalized[lam][k]:12.4f}" for lam in lambdas)
            print(f"{k:<4d} {report.base_objectives[k]:14.4f} {cells}")
        else:
            print(f"{k:<4d} failed: {report.errors.get(k)}")
    print("\nfirst differences of the base curve (drops; read the elbow visually):")
    for k, d in report.first_differences().items():
        print(f"  k={k}: {d:+.4f}")
    print("\nargmin per penalty:", {f"{lam:g}": report.argmin_k.get(lam) for lam in lambdas})
    print("consensus k:", report.consensus_k)

    n = len(points)
    if report.base_objectives:
        k_star = report.consensus_k
        base = report.base_objectives[k_star]
        sigma2 = base / (2 * n)  # crude plug-in variance from the distortion
        lam_aic, lam_bic = aic_bic_lambda(max(sigma2, 1e-12), n)
        print(f"guideline penalties from plug-in variance {sigma2:.4g}: "
              f"AIC {lam_aic:.4g}, BIC {lam_bic:.4g}")


if __name__ == "__main__":
    main()
