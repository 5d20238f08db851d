#!/usr/bin/env python3
"""Record and replay the continuous location calls of two checkouts on one benchmark workload.

    python3 scripts/location_replay.py OLD NEW --workload euclid-outlier --seed 1 --passes 10

OLD and NEW are the roots of two checkouts, loaded into this one
interpreter as ``scripts/ab_time.py`` loads them (``capclust_old`` and
``capclust_new``).  Each side runs every command of the workload once
through its ``cli.main``, on the inputs that this checkout's
``bench/workloads.py`` writes for the workload and seed, and every
``update_centers_continuous`` call its solver makes is recorded with its
arguments and its result.  The script prints each side's calls, clusters
and summed per-cluster iterations.

It then checks that every cluster NEW relocates gets, to the last bit,
the ``CenterUpdate`` row (coordinates, iterations, convergence) that OLD
gave a cluster with the same points and masses, and exits with status 1
naming the first one that does not, or that OLD never relocated.

Last, it replays each side's own recorded calls through its own
``location`` module, in ``--passes`` pairs; the side that goes first
alternates from pair to pair.  It prints each side's median and
quartiles of the seconds per replay, and the median and quartiles of the
new/old ratio of the pairs.  A command that exits with a nonzero status
stops the script with status 1.
"""

import argparse
import contextlib
import gc
import io
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_time import WORKLOADS, load_cli, write_inputs  # noqa: E402  (sets one BLAS thread before numpy)

import numpy as np  # noqa: E402


def record(cli, commands: list, tmp: str) -> list[tuple]:
    """Every ``update_centers_continuous`` call ``cli``'s solver makes over one pass: (args, result)."""
    solver = sys.modules[cli.__name__.rsplit(".", 1)[0] + ".solver"]
    real, calls = solver.update_centers_continuous, []

    def recording(kind, xy, masses, starts):
        update = real(kind, xy, masses, starts)
        calls.append(((kind, np.array(xy), np.array(masses), np.array(starts)), update))
        return update

    solver.update_centers_continuous = recording
    try:
        for j, inst in enumerate(commands):
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = cli.main(inst.argv(os.path.join(tmp, f"out{j}")))
            if rc != 0:
                raise RuntimeError(f"command {j} exited {rc}:\n{log.getvalue()}")
    finally:
        solver.update_centers_continuous = real
    return calls


def clusters(calls: list):
    """Each recorded cluster's key and its (coords, iterations, converged) row, call after call."""
    for (_kind, xy, masses, starts), update in calls:
        ends = np.append(starts[1:], len(masses))
        for r, (s, e) in enumerate(zip(starts, ends)):
            yield xy[s:e].tobytes() + masses[s:e].tobytes(), (update.coords[r].tobytes(), int(update.iterations[r]),
                                                              bool(update.converged[r]))


def _described(row: tuple) -> str:
    coords, iterations, converged = row
    return f"{np.frombuffer(coords).tolist()} after {iterations} iterations, converged {converged}"


def mismatch(old: list, new: list) -> str | None:
    """The first cluster NEW relocates that OLD relocated otherwise or never, described; None when none."""
    known = dict(clusters(old))
    for n, (key, row) in enumerate(clusters(new)):
        if key not in known:
            return f"cluster {n} of NEW was never relocated by OLD"
        if known[key] != row:
            return f"cluster {n} of NEW: {_described(row)}; OLD: {_described(known[key])}"
    return None


def replay(location, calls: list) -> float:
    """Seconds to run the recorded calls again through ``location.update_centers_continuous``."""
    gc.collect()
    start = time.perf_counter()
    for args, _ in calls:
        location.update_centers_continuous(*args)
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", metavar="OLD", help="root of the checkout to compare against")
    parser.add_argument("new", metavar="NEW", help="root of the changed checkout")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=10, help="timed replay pairs (default 10)")
    parser.add_argument("--small", action="store_true", help="one small command, as the benchmark's tests run")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    sides = {"old": load_cli(args.old, "capclust_old"), "new": load_cli(args.new, "capclust_new")}
    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        commands = [write_inputs(inst, os.path.join(tmp, f"in{j}"))
                    for j, inst in enumerate(WORKLOADS[args.workload](args.seed, args.small))]
        try:
            for side, cli in sides.items():
                recorded[side] = record(cli, commands, os.path.join(tmp, side))
        except RuntimeError as exc:
            parser.exit(1, f"{exc}\n")
    print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands, {args.passes} pairs")
    for side, calls in recorded.items():
        count = sum(len(starts) for (_kind, _xy, _masses, starts), _ in calls)
        iterations = sum(int(update.iterations.sum()) for _, update in calls)
        print(f"{side}: {len(calls)} calls, {count} clusters, {iterations} iterations")
    wrong = mismatch(recorded["old"], recorded["new"])
    if wrong:
        parser.exit(1, f"{wrong}\n")
    print("every cluster of new matches old")
    locations = {side: sys.modules[f"capclust_{side}.location"] for side in sides}
    times: dict[str, list[float]] = {"old": [], "new": []}
    for p in range(args.passes):
        for side in ("old", "new") if p % 2 == 0 else ("new", "old"):
            times[side].append(replay(locations[side], recorded[side]))
    for side, values in times.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        print(f"{side} seconds per replay: median {median:.6f} q1 {q1:.6f} q3 {q3:.6f}")
    q1, median, q3 = np.percentile(np.divide(times["new"], times["old"]), [25, 50, 75])
    print(f"new/old per pair: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} over {args.passes} pairs")


if __name__ == "__main__":
    main()
