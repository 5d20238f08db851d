#!/usr/bin/env python3
"""Time two checkouts of capclust on one benchmark workload, in alternating passes.

    python3 scripts/ab_time.py OLD NEW --workload euclid-outlier --seed 1 --passes 10
    python3 scripts/ab_time.py OLD NEW --workload cap-fractional --seed 1 --passes 10 --fresh

OLD and NEW are the roots of two checkouts.  Each one's ``src/capclust``
is loaded as a package of its own (``capclust_old`` and ``capclust_new``)
into this one interpreter, so both sides run the same inputs under the
same load on the machine.  The inputs are those of the workload and seed
in this checkout's ``bench/workloads.py``, which is only read, written
once into a temporary directory (as ``output_digest.py`` does).

A pass runs every command of the workload once through each side's
``cli.main``; a command's time is that call, made after a garbage
collection.  Each side first runs one untimed pass.  In a timed pass the
two sides run each command back to back, a pair, and the side that goes
first alternates from one pair to the next: the CPU's speed drifts within
a pass, and a pair sees the same speed on both sides.  The script prints
each side's median and quartiles of the seconds per command (a pass's
time over its number of commands), in how many passes the new side took
less time, the median and quartiles of the new/old ratio of the pairs'
times, and in how many pairs the new side took less time, ties (equal
times) counting for neither side.  A command that exits with a nonzero status stops the
script with status 1.

With ``--fresh`` each command runs as its own ``python3 -m capclust.cli``
process, with that side's ``src`` on ``PYTHONPATH``, so its time includes
starting the interpreter and every import.  A minimal launcher
(``python3 -S``, importing only ``os``, ``sys`` and ``time``) starts it and
times it, and reads its peak resident memory from ``wait4``.  Linux
carries the launcher's own peak (about 9 MB) into that figure across
``exec``; a command's peak is above it, so the figure is the command's own
``VmHWM``.  The script then also prints each side's median and largest
peak in MB.

As ``bench/run.py`` does, the script sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before numpy loads, so
both sides, in process or ``--fresh``, run on one BLAS thread.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):  # before numpy, here and in every child
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

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


def run_command(cli, inst, out: str) -> tuple[float, float | None]:
    """Seconds of one call of ``cli.main`` on the workload instance ``inst``, writing under ``out``.

    The peak memory is None: in process there is none per command.
    """
    argv = inst.argv(out)
    log = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"command {' '.join(argv)} exited {rc}:\n{log.getvalue()}")
    return seconds, None


# Runs the command in its arguments with stdout discarded; prints its exit
# code, wall seconds and peak resident memory in KiB (ru_maxrss).
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def fresh_command(src: str, inst, out: str) -> tuple[float, float | None]:
    """Seconds of one command as a new process on ``src``, and its peak MB."""
    argv = inst.argv(out)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, sys.executable, "-m", "capclust.cli", *argv],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"the launcher of command {' '.join(argv)} failed:\n{done.stderr}")
    rc, seconds, maxrss_kib = done.stdout.split()
    if rc != "0":
        raise RuntimeError(f"command {' '.join(argv)} exited {rc}:\n{done.stderr}")
    return float(seconds), int(maxrss_kib) / 1024.0


def compare(sides: dict, commands: list, passes: int, tmp: str, run):
    """Each side's timed passes by ``run`` (``run_command`` or ``fresh_command``), and each pair's new/old ratio.

    A pass is (seconds per command, peak MBs).  Each side first runs one
    untimed pass; then every command runs on both sides back to back, the
    side that goes first alternating from pair to pair.
    """
    for side, handle in sides.items():
        for j, inst in enumerate(commands):
            run(handle, inst, os.path.join(tmp, side, f"out{j}"))
    results: dict[str, list] = {"old": [], "new": []}
    ratios = []
    for p in range(passes):
        seconds: dict[str, list[float]] = {"old": [], "new": []}
        peaks: dict[str, list[float]] = {"old": [], "new": []}
        for j, inst in enumerate(commands):
            pair = p * len(commands) + j
            for side in ("old", "new") if pair % 2 == 0 else ("new", "old"):
                took, peak = run(sides[side], inst, os.path.join(tmp, side, f"out{j}"))
                seconds[side].append(took)
                if peak is not None:
                    peaks[side].append(peak)
            ratios.append(seconds["new"][-1] / seconds["old"][-1])
        for side in results:
            results[side].append((sum(seconds[side]) / len(commands), peaks[side]))
    return results, ratios


def report(results: dict[str, list[tuple[float, list[float]]]], ratios: list[float]) -> list[str]:
    times = {side: [seconds for seconds, _peaks in passes] for side, passes in results.items()}
    lines = []
    for side, values in times.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        lines.append(f"{side} seconds per command: median {median:.6f} q1 {q1:.6f} q3 {q3:.6f}")
    won = sum(new < old for old, new in zip(times["old"], times["new"]))
    lines.append(f"new faster in {won} of {len(times['new'])} passes")
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    lines.append(f"new/old per pair: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} over {len(ratios)} pairs")
    ties = ratios.count(1.0)
    lines.append(f"new faster in {sum(r < 1 for r in ratios)} of {len(ratios)} pairs ({ties} ties)")
    for side, passes in results.items():
        peaks = [mb for _seconds, pass_peaks in passes for mb in pass_peaks]
        if peaks:
            lines.append(f"{side} VmHWM MB per command: median {np.median(peaks):.1f} max {max(peaks):.1f}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", metavar="OLD", help="root of the checkout to compare against")
    parser.add_argument("new", metavar="NEW", help="root of the changed checkout")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=10, help="timed passes per side (default 10)")
    parser.add_argument("--small", action="store_true", help="one small command, as the benchmark's tests run")
    parser.add_argument("--fresh", action="store_true", help="run each command as its own process")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.fresh:
        sides = {"old": os.path.join(os.path.abspath(args.old), "src"),
                 "new": os.path.join(os.path.abspath(args.new), "src")}
        run = fresh_command
    else:
        sides = {"old": load_cli(args.old, "capclust_old"), "new": load_cli(args.new, "capclust_new")}
        run = run_command
    with tempfile.TemporaryDirectory() as tmp:
        commands = [write_inputs(inst, os.path.join(tmp, f"in{j}"))
                    for j, inst in enumerate(WORKLOADS[args.workload](args.seed, args.small))]
        try:
            results, ratios = compare(sides, commands, args.passes, tmp, run)
        except RuntimeError as exc:
            parser.exit(1, f"{exc}\n")
    mode = ", fresh processes" if args.fresh else ""
    print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands, {args.passes} passes{mode}")
    print("\n".join(report(results, ratios)))


if __name__ == "__main__":
    main()
