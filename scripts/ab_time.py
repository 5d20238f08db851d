#!/usr/bin/env python3
"""Time two checkouts of capclust on one benchmark workload, in alternating passes.

    python3 scripts/ab_time.py OLD NEW --workload euclid-outlier --seed 1 --passes 10

OLD and NEW are the roots of two checkouts.  Each one's ``src/capclust``
is loaded as a package of its own (``capclust_old`` and ``capclust_new``)
into this one interpreter, so both sides run the same inputs under the
same load on the machine.  The inputs are those of the workload and seed
in this checkout's ``bench/workloads.py``, which is only read, written
once into a temporary directory (as ``output_digest.py`` does).

A pass runs every command of the workload once through one side's
``cli.main``; a command's time is that call, made after a garbage
collection.  Each side first runs one untimed pass.  Then the sides take
turns in whole passes, the side that goes first alternating from one pair
of passes to the next.  The script prints each side's median and
quartiles of the seconds per command (a pass's time over its number of
commands) and in how many pairs the new side's pass took less time.  A
command that exits with a nonzero status stops the script with status 1.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.append(os.path.join(ROOT, "src"))  # the inputs' generator, after PYTHONPATH

from workloads import WORKLOADS, write_inputs  # noqa: E402


def load_cli(checkout: str, name: str):
    """The ``cli`` module of ``checkout``'s ``src/capclust``, imported as the package ``name``."""
    package = os.path.join(os.path.abspath(checkout), "src", "capclust")
    spec = importlib.util.spec_from_file_location(name, os.path.join(package, "__init__.py"),
                                                  submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_pass(cli, commands: list, out: str) -> float:
    """Seconds per command of one pass of ``commands``, the workload's instances, writing under ``out``."""
    total = 0.0
    log = io.StringIO()
    for j, inst in enumerate(commands):
        argv = inst.argv(os.path.join(out, f"out{j}"))
        gc.collect()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            rc = cli.main(argv)
            total += time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"command {j} ({' '.join(argv)}) exited {rc}:\n{log.getvalue()}")
    return total / len(commands)


def compare(old_cli, new_cli, commands: list, passes: int, tmp: str) -> dict[str, list[float]]:
    """Seconds per command of each side's timed passes, after one untimed pass each."""
    sides = {"old": old_cli, "new": new_cli}
    for side, cli in sides.items():
        run_pass(cli, commands, os.path.join(tmp, side))
    times: dict[str, list[float]] = {"old": [], "new": []}
    for p in range(passes):
        for side in ("old", "new") if p % 2 == 0 else ("new", "old"):
            times[side].append(run_pass(sides[side], commands, os.path.join(tmp, side)))
    return times


def report(times: dict[str, list[float]]) -> list[str]:
    lines = []
    for side, values in times.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        lines.append(f"{side} seconds per command: median {median:.6f} q1 {q1:.6f} q3 {q3:.6f}")
    won = sum(new < old for old, new in zip(times["old"], times["new"]))
    lines.append(f"new faster in {won} of {len(times['new'])} passes")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", metavar="OLD", help="root of the checkout to compare against")
    parser.add_argument("new", metavar="NEW", help="root of the changed checkout")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=10, help="timed passes per side (default 10)")
    parser.add_argument("--small", action="store_true", help="one small command, as the benchmark's tests run")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    old_cli, new_cli = load_cli(args.old, "capclust_old"), load_cli(args.new, "capclust_new")
    with tempfile.TemporaryDirectory() as tmp:
        commands = [write_inputs(inst, os.path.join(tmp, f"in{j}"))
                    for j, inst in enumerate(WORKLOADS[args.workload](args.seed, args.small))]
        try:
            times = compare(old_cli, new_cli, commands, args.passes, tmp)
        except RuntimeError as exc:
            parser.exit(1, f"{exc}\n")
    print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands, {args.passes} passes")
    print("\n".join(report(times)))


if __name__ == "__main__":
    main()
