"""The four benchmark workloads: seeded inputs and capclust commands.

Every workload is a batch of capclust commands built from the benchmark's
``--seed`` alone.  The program only sees the files written here and the
command-line flags; the same seed writes byte-identical files.
``small=True`` shrinks every workload to one small command for the
benchmark's own tests while keeping its structure.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from capclust.datagen import GenSpec, generate_dataset


@dataclass
class Instance:
    """Generated inputs of one workload plus what the output checker needs."""

    command: str                 # "solve" or "sweep"
    flags: list[str]             # capclust flags after the command, without --out
    xy: np.ndarray               # (n, 2) point coordinates
    w: np.ndarray                # demand weights (gamma is 0, so w' = w)
    metric: str
    k_values: list[int]          # one k for solve, the swept range for sweep
    a: np.ndarray | None = None  # capacity coefficients; None means a = w
    membership: str = "hard"
    capacity: tuple[float, float] | None = None
    outlier_lambda: float | None = None
    release_lambda: float | None = None
    fixed: np.ndarray | None = None         # (m, 2) fixed-center coordinates
    matrix: np.ndarray | None = None        # (n, s) point-to-site costs
    sites: np.ndarray | None = None         # (s, 2) candidate-site coordinates
    lambdas: list[float] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.xy.shape[0]

    @property
    def capacity_coeffs(self) -> np.ndarray:
        return self.w if self.a is None else self.a

    def argv(self, out_dir: str) -> list[str]:
        return [self.command, *self.flags, "--out", out_dir]


def _window(a: np.ndarray, k: int, slack: float = 0.2) -> tuple[float, float]:
    """Capacity window of +-slack around the mean load sum(a) / k."""
    mean = float(np.sum(a)) / k
    return (1.0 - slack) * mean, (1.0 + slack) * mean


def _fmt(v: float) -> str:
    return repr(float(v))


@cache
def _population(factor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    base = GenSpec.benchmark(rng_seed=0)
    spec = replace(base, cluster_sizes=tuple(round(2 * factor * s) for s in base.cluster_sizes),
                   n_outliers=round(2 * factor * base.n_outliers))
    points, labels = generate_dataset(spec)
    return np.array([p.coords for p in points]), np.array([p.w for p in points]), labels


def _benchmark_sample(seed: int, factor: float) -> tuple[np.ndarray, np.ndarray]:
    """Points of the GenSpec.benchmark family with cluster sizes times ``factor``.

    The cluster layout (shapes, scales, grid cells) is the family's layout
    for generator seed 0, drawn at twice the size; the workload seed keeps
    exactly half of every cluster and of the injected outliers.  Drawing
    the layout from the workload seed too would make the work per command
    vary by about 30% from seed to seed (cluster spreads range over two
    orders of magnitude), far more than the changes the benchmark must
    resolve.
    """
    xy, w, labels = _population(factor)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    keep = np.sort(np.concatenate([
        rng.choice(members, size=members.size // 2, replace=False)
        for members in (np.flatnonzero(labels == lab) for lab in np.unique(labels))
    ]))
    return xy[keep], w[keep]


def euclid_outlier(seed: int, small: bool = False) -> Instance:
    # Why: Weiszfeld, the repeated (n, k) distance matrices (metrics, model),
    # release decisions, the solution file and the SVG do the work (traced:
    # location 70%, metrics 20% of self time).  Allocation is a plain argmin
    # (under 1%), so allocation changes should show no change here.
    xy, w = _benchmark_sample(seed, 0.5 if small else 2.5)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    fixed = xy[rng.choice(len(xy), size=3, replace=False)]
    k, restarts = (8, 2) if small else (20, 6)
    release = 20.0 if small else 400.0
    return Instance(
        command="solve",
        flags=["--k", str(k), "--metric", "euclidean", "--outlier-lambda", "0.2",
               "--release-lambda", _fmt(release), "--restarts", str(restarts), "--seed", str(seed)],
        xy=xy, w=w, metric="euclidean", k_values=[k], outlier_lambda=0.2,
        release_lambda=release, fixed=fixed,
    )


def cap_fractional(seed: int, small: bool = False) -> Instance:
    # Why: the min-cost-flow LP does the work (traced: mincostflow 81% and
    # allocation 13% of self time).  Location is a weighted mean, so
    # Weiszfeld and distance-matrix changes should show no change here.
    xy, w = _benchmark_sample(seed, 0.25)
    k, restarts = (4, 2) if small else (5, 8)
    lo, hi = _window(w, k)
    return Instance(
        command="solve",
        flags=["--k", str(k), "--metric", "sqeuclidean", "--membership", "fractional",
               "--capacity", f"{_fmt(lo)},{_fmt(hi)}", "--restarts", str(restarts), "--seed", str(seed)],
        xy=xy, w=w, metric="sqeuclidean", k_values=[k], membership="fractional", capacity=(lo, hi),
    )


def cap_hard(seed: int, small: bool = False) -> Instance:
    # Why: the only workload where branch and bound runs (hundreds to
    # thousands of nodes per command; mincostflow 85% of self time).  It
    # uses the allocation layer differently from cap-fractional, so a solver
    # swap that helps one regime and hurts the other shows.  With no time
    # budget, node counts and the objective are deterministic.  Not gated:
    # the node count varies tenfold between instances, see README.md.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    n, k, restarts = (24, 3, 2) if small else (60, 4, 4)
    xy = rng.uniform(0.0, 1.0, size=(n, 2))
    w = np.ones(n)
    a = rng.integers(1, 6, size=n).astype(float)
    lo, hi = _window(a, k)
    return Instance(
        command="solve",
        flags=["--k", str(k), "--metric", "sqeuclidean", "--membership", "hard",
               "--capacity", f"{_fmt(lo)},{_fmt(hi)}", "--restarts", str(restarts), "--seed", str(seed)],
        xy=xy, w=w, a=a, metric="sqeuclidean", k_values=[k], membership="hard", capacity=(lo, hi),
    )


def matrix_sweep(seed: int, small: bool = False) -> Instance:
    # Why: discrete k-means++ seeding (a per-point Python loop; solver 63%
    # of self time), the per-k loop of selection, repeated validate_problem
    # and io.load_matrix (io 10%) do the work.  There is no capacity and no
    # Weiszfeld, so the allocation and continuous-location layers are idle.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    n, s, k_lo, k_hi, restarts = (200, 20, 2, 5, 2) if small else (3000, 120, 5, 24, 8)
    xy = rng.uniform(0.0, 100.0, size=(n, 2))
    w = rng.uniform(1.0, 10.0, size=n)
    sites = rng.uniform(0.0, 100.0, size=(s, 2))
    detour = rng.uniform(1.0, 1.5, size=(n, s))
    matrix = np.sqrt(((xy[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)) * detour
    lambdas = [2000.0, 5000.0, 10000.0, 20000.0, 40000.0]
    return Instance(
        command="sweep",
        flags=["--k-range", f"{k_lo}..{k_hi}", "--lambda-grid", ",".join(f"{x:g}" for x in lambdas),
               "--metric", "matrix", "--restarts", str(restarts), "--seed", str(seed)],
        xy=xy, w=w, metric="matrix", k_values=list(range(k_lo, k_hi + 1)),
        matrix=matrix, sites=sites, lambdas=lambdas,
    )


def _batch(build, count: int):
    """A workload of ``count`` commands, each on its own instance drawn from the seed.

    One command's time varies by 20-30% from instance to instance (restarts
    take 4 to 17 descent iterations; Weiszfeld runs sometimes hit their
    iteration cap), so the continuous workloads average over a batch.
    """
    def make(seed: int, small: bool = False) -> list[Instance]:
        return [build(int(np.random.SeedSequence([seed, j]).generate_state(1)[0] >> 1), small)
                for j in range(1 if small else count)]
    return make


WORKLOADS = {
    "euclid-outlier": _batch(euclid_outlier, 28),
    "cap-fractional": _batch(cap_fractional, 30),
    "cap-hard": _batch(cap_hard, 1),
    "matrix-sweep": _batch(matrix_sweep, 1),
}


def write_inputs(inst: Instance, directory: str) -> Instance:
    """Write the instance's CSV files and add their flags to the command."""
    os.makedirs(directory, exist_ok=True)
    points = os.path.join(directory, "points.csv")
    a = inst.capacity_coeffs
    with open(points, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "x", "y", "w", "gamma", "a", "q"])
        for i in range(inst.n):
            out.writerow([i, _fmt(inst.xy[i, 0]), _fmt(inst.xy[i, 1]), _fmt(inst.w[i]), "0.0", _fmt(a[i]), 1])
    files = {"points": points}
    if inst.fixed is not None:
        files["fixed"] = os.path.join(directory, "fixed.csv")
        with open(files["fixed"], "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["x", "y"])
            out.writerows([[_fmt(x), _fmt(y)] for x, y in inst.fixed])
    if inst.matrix is not None:
        files["matrix"] = os.path.join(directory, "matrix.csv")
        with open(files["matrix"], "w", newline="") as fh:
            csv.writer(fh).writerows([[_fmt(v) for v in row] for row in inst.matrix])
    if inst.sites is not None:
        files["candidates"] = os.path.join(directory, "sites.csv")
        with open(files["candidates"], "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["x", "y"])
            out.writerows([[_fmt(x), _fmt(y)] for x, y in inst.sites])
    inst.files = files
    inst.flags = inst.flags + [arg for name, path in files.items() for arg in (f"--{name}", path)]
    return inst
