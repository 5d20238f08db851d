"""Command-line interface: solve, sweep, generate, evaluate.

Exit codes: 0 success, 1 usage/validation error or not enough memory,
2 infeasible, 3 parse error, 4 time budget exhausted (best incumbent
written).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import io, metrics, plotting
from .errors import AllRestartsInfeasible, CapclustError, Infeasible, ParseError, ValidationError
from .evaluation import PER_DEMAND, PER_POINT, adjusted_rand_index, summarize_distances
from .model import CenterSpec, Problem, validate_problem
from .selection import sweep_k
from .solver import SolverConfig, solve


def _parse_metric(text: str, matrix: np.ndarray | None) -> metrics.MetricSpec:
    if text.startswith("threshold:"):
        try:
            return metrics.threshold(float(text.split(":", 1)[1]))
        except ValueError:
            raise ValidationError(f"threshold radius must be a number (got {text!r})") from None
    if text == "matrix":
        if matrix is None:
            raise ValidationError("--metric matrix needs --matrix FILE")
        return metrics.matrix_metric(matrix)
    if text in (metrics.SQEUCLIDEAN, metrics.EUCLIDEAN, metrics.MANHATTAN):
        return metrics.MetricSpec(text)
    raise ValidationError(f"unknown metric {text!r}")


def _parse_capacity(value) -> tuple[float, float]:
    """An "L,U" flag or a two-number list from a config file."""
    lo, hi = value.split(",") if isinstance(value, str) else value
    return float(lo), float(hi)


def _add_problem_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--points", required=True)
    sub.add_argument("--candidates")
    sub.add_argument("--matrix")
    sub.add_argument("--metric", default=None)
    sub.add_argument("--capacity", default=None)
    sub.add_argument("--membership", choices=["hard", "fractional"], default=None)
    sub.add_argument("--outlier-lambda", type=float, default=None)
    sub.add_argument("--opening-lambda", type=float, default=None)
    sub.add_argument("--fixed", default=None)
    sub.add_argument("--release-lambda", type=float, default=None)
    sub.add_argument("--restarts", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--time-budget", type=float, default=None)
    sub.add_argument("--config", default=None, help="JSON file with defaults for the flags above")
    sub.add_argument("--emit-timing", action="store_true", help="include wall time in the solution document (breaks byte-for-byte reproducibility)")
    sub.add_argument("--out", required=True)


def _merged(args: argparse.Namespace, key: str, default, kind):
    """Flags override config-file values override defaults; a set value is converted by ``kind``.

    A number given as a boolean, and an ``int`` given as a number that is not
    whole, raise ValidationError instead of being converted.
    """
    value = getattr(args, key.replace("-", "_"))
    if value is None:
        value = args._config.get(key)
    if value is None:
        return default
    numbers = value if isinstance(value, list) else [value]
    if (kind is not str and any(isinstance(v, bool) for v in numbers)
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"{key}: cannot use {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{key}: cannot use {value!r}") from None


def _build_problem(args: argparse.Namespace, k: int) -> Problem:
    points = io.load_points(args.points)
    matrix = io.load_matrix(args.matrix) if args.matrix else None
    candidates = io.load_candidates(args.candidates) if args.candidates else None
    metric = _parse_metric(_merged(args, "metric", "sqeuclidean", str), matrix)
    placement = "discrete" if (candidates is not None or matrix is not None) else "continuous"
    fixed = io.load_fixed(args.fixed) if args.fixed else []
    problem = Problem(
        points=points,
        metric=metric,
        centers=CenterSpec(
            k=k,
            placement=placement,
            candidates=candidates,
            fixed=tuple(fixed),
            release_penalty=_merged(args, "release-lambda", math.inf, float),
        ),
        membership=_merged(args, "membership", "hard", str),
        capacity=_merged(args, "capacity", None, _parse_capacity),
        outlier_penalty=_merged(args, "outlier-lambda", None, float),
        opening_penalty=_merged(args, "opening-lambda", 0.0, float),
    )
    return validate_problem(problem)


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    try:
        return SolverConfig(
            restarts=_merged(args, "restarts", 10, int),
            rng_seed=_merged(args, "seed", 0, int),
            time_budget=_merged(args, "time-budget", None, float),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = _build_problem(args, k=args.k)
    config = _solver_config(args)
    solution = solve(problem, config)
    os.makedirs(args.out, exist_ok=True)
    doc_path = os.path.join(args.out, "solution.txt")
    io.write_solution(problem, solution, doc_path, emit_timing=args.emit_timing)
    if plotting.can_plot(problem):
        plotting.render_plot(problem, solution, os.path.join(args.out, "plot.svg"))
    else:
        print("plot skipped: instance lacks coordinate geometry", file=sys.stderr)
    obj = solution.objective
    print(f"total {obj.total:.6g} (distance {obj.distance_term:.6g}, outlier {obj.outlier_term:.6g}, "
          f"opening {obj.opening_term:.6g}, release {obj.release_term:.6g})")
    print(f"released centers: {sorted(solution.released) or 'none'}")
    print(f"wall time: {solution.diagnostics.get('wall_time_s', 0.0):.2f}s; wrote {doc_path}")
    if solution.diagnostics.get("optimality_gap"):
        print(f"time budget exhausted; incumbent gap {solution.diagnostics['optimality_gap']:.3g}", file=sys.stderr)
        return 4
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        k_lo, k_hi = map(int, args.k_range.split(".."))
    except ValueError:
        raise ValidationError(f"--k-range expects A..B (got {args.k_range!r})") from None
    if k_lo > k_hi:
        raise ValidationError(f"--k-range {args.k_range!r} is empty")
    try:
        lambdas = [float(x) for x in args.lambda_grid.split(",")]
    except ValueError:
        raise ValidationError(f"--lambda-grid expects comma-separated numbers (got {args.lambda_grid!r})") from None
    problem = _build_problem(args, k=k_lo)
    # The top of the range, checked before the sweep spends time or memory on the range.
    validate_problem(dataclasses.replace(problem, centers=dataclasses.replace(problem.centers, k=k_hi)))
    config = _solver_config(args)
    report = sweep_k(problem, range(k_lo, k_hi + 1), lambdas, config)
    os.makedirs(args.out, exist_ok=True)
    lines = ["k base " + " ".join(f"lam={lam:g}" for lam in lambdas)]
    for k in report.k_values:
        if k in report.base_objectives:
            row = [str(k), repr(report.base_objectives[k])]
            row += [repr(report.penalized[lam][k]) for lam in lambdas]
            lines.append(" ".join(row))
        else:
            lines.append(f"{k} failed {report.errors.get(k, '')}")
    lines.append("argmin " + " ".join(f"{lam:g}->{report.argmin_k.get(lam)}" for lam in lambdas))
    lines.append(f"consensus {report.consensus_k}")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(args.out, "sweep.txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    if not report.base_objectives:  # every k failed, each with AllRestartsInfeasible
        raise AllRestartsInfeasible(f"no k in {k_lo}..{k_hi} solved")
    if report.consensus_k is not None and report.consensus_k in report.solutions:
        best = report.solutions[report.consensus_k]
        trial_problem = validate_problem(dataclasses.replace(
            problem, centers=dataclasses.replace(problem.centers, k=report.consensus_k), opening_penalty=0.0,
        ))
        io.write_solution(trial_problem, best, os.path.join(args.out, f"solution_k{report.consensus_k}.txt"),
                          emit_timing=args.emit_timing)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .datagen import GenSpec, generate_dataset  # loads scipy.special, which no other command needs

    raw = io.load_json_object(args.spec, "spec")
    if args.seed is not None:
        raw["rng_seed"] = args.seed
    try:  # every value comes from the spec file, so a type or value error is the file's
        for key in ("cluster_sizes", "shape_range", "scale_range", "weight_range", "edge_weighted"):
            if key in raw and raw[key] is not None:
                raw[key] = tuple(raw[key])
        points, labels = generate_dataset(GenSpec(**raw))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"spec: {exc}") from None
    io.write_points(points, args.out)
    stem, _ext = os.path.splitext(args.out)
    labels_path = stem + "_labels.csv"
    io.write_labels(labels_path, [p.id for p in points], labels)
    print(f"wrote {len(points)} points to {args.out} and labels to {labels_path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    doc = io.read_solution(args.solution)
    truth = io.load_labels(args.truth)
    labels = doc.labels()
    common = sorted(set(labels) & set(truth))
    if not common:  # an index of no points would read as a perfect match
        raise ValidationError(f"truth and solution share no point id (of {len(labels)}/{len(truth)} ids)")
    if len(common) != len(labels) or len(common) != len(truth):
        print(f"warning: truth and solution share {len(common)} of "
              f"{len(labels)}/{len(truth)} ids", file=sys.stderr)
    ari = adjusted_rand_index([labels[i] for i in common], [truth[i] for i in common])
    print(f"ARI {ari:.6f}")
    dist = doc.point_distances()
    if dist:
        values = np.array([dist[pid] for pid in sorted(dist)])
        weights = np.array([doc.point_weights[pid] for pid in sorted(dist)])
        for weighting in (PER_POINT, PER_DEMAND):
            stats = summarize_distances(values, weights, weighting)
            print(f"{weighting}: mean {stats['mean']:.6g} median {stats['median']:.6g} q95 {stats['q95']:.6g}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the parser of each subcommand, whose usage errors raise ValidationError.

    The usage line still goes to stderr first; ``main`` then prints the
    error and returns 1, where argparse would exit 2, the code for
    infeasible.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="capclust", description="Capacitated, constrained spatial clustering")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("--k", type=int, required=True)
    _add_problem_flags(p_solve)

    p_sweep = sub.add_parser("sweep", help="solve over a range of k and overlay opening costs")
    p_sweep.add_argument("--k-range", required=True)
    p_sweep.add_argument("--lambda-grid", required=True)
    _add_problem_flags(p_sweep)

    p_gen = sub.add_parser("generate", help="generate a synthetic benchmark dataset")
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)

    p_eval = sub.add_parser("evaluate", help="score a solution document against ground truth")
    p_eval.add_argument("--solution", required=True)
    p_eval.add_argument("--truth", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args._config = io.load_json_object(args.config, "config") if getattr(args, "config", None) else {}
        unknown = sorted(set(args._config) - {"metric", "capacity", "membership", "outlier-lambda", "opening-lambda",
                                              "release-lambda", "restarts", "seed", "time-budget"})
        if unknown:  # a misspelt key would otherwise leave its flag at the default
            raise ValidationError(f"config: unknown key {', '.join(map(repr, unknown))}")
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_evaluate(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (Infeasible, AllRestartsInfeasible) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (CapclustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
