"""One workload process: import capclust, run the workload's commands, report.

Usage: python3 worker.py SPEC.json REPORT.json

SPEC holds the source directory, the workload's capclust commands (argv
lists with ``{out}`` where the output directory goes), the seconds to
measure, and whether to trace.  The process runs ``capclust.cli.main`` in
process.  One pass runs every command once; passes repeat while another
one is expected to fit in the seconds asked for, and at least one runs.
A traced run takes the first half of the commands and runs each twice in
a row, untraced and then under the tracer, so the two times pair up.
REPORT gets each run's exit status, wall time and the time of the
calibration chunk that follows it (plus its per-layer metrics when
traced), the import time of ``capclust.cli`` and the process's peak
resident memory.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback
from functools import cache

from spans import Tracer, per_layer


@cache
def _big_array():
    import numpy as np

    return np.linspace(0.0, 1.0, 3000 * 120).reshape(3000, 120)


def calibrate() -> float:
    """Seconds for a fixed chunk of interpreter, small-array and large-array work.

    Timed after every command.  The CPU this benchmark was tuned on speeds
    up and slows down by up to 40% over tens of seconds, and this chunk
    slows down with it, so dividing by it cancels most of that drift.  The
    mix follows the program's: Python loops over small numpy arrays, and
    passes over (n, k) arrays larger than the L2 cache.
    """
    import numpy as np  # not at module level: importing capclust.cli must pay for numpy

    big = _big_array()
    start = time.perf_counter()
    xy = np.linspace(0.0, 1.0, 800).reshape(400, 2)
    acc = 0.0
    for i in range(3000):
        acc += float(((xy - xy[i % 400]) ** 2).sum(axis=1).min())
    counts: dict[int, int] = {}
    for i in range(100000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    for i in range(40):
        acc += float((big * big[i]).sum()) + float(np.argmin(big + i, axis=1).sum())
    return time.perf_counter() - start


def _run(cli, argv: list[str], out: str, log) -> dict:
    argv = [out if a == "{out}" else a for a in argv]
    gc.collect()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit):  # a crash or an argparse exit is a failed operation
            rc = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
    return {"out": out, "rc": rc, "wall_s": wall, "cal_s": calibrate()}


def _traced_run(cli, argv: list[str], out: str, log, report: dict) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        report.setdefault("unpatched", tracer.unpatched())
        report.setdefault("wrapped", sorted(tracer.wrapped))
        run = _run(cli, argv, out, log)
    finally:
        tracer.uninstall()
    run["layers"] = per_layer(tracer, run["wall_s"])
    return run


def main(spec_path: str, report_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    from capclust import cli
    report: dict = {"import_s": time.perf_counter() - start, "passes": []}

    commands = spec["commands"]
    if spec["trace"]:
        commands = commands[: (len(commands) + 1) // 2]
    passes = report["passes"]
    report["cal0_s"] = calibrate()
    elapsed = 0.0
    with open(os.path.join(spec["out_root"], "program.log"), "w") as log:
        while not passes or elapsed * (len(passes) + 1) / len(passes) <= spec["seconds"]:
            pass_start = time.perf_counter()
            runs = []
            for j, argv in enumerate(commands):
                out = os.path.join(spec["out_root"], f"p{len(passes)}-{j}")
                run = _run(cli, argv, out, log)
                if spec["trace"]:
                    run["traced"] = _traced_run(cli, argv, out + "-traced", log, report)
                runs.append(run)
            passes.append(runs)
            elapsed += time.perf_counter() - pass_start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
