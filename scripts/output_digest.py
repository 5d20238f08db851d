#!/usr/bin/env python3
"""Print a SHA-256 digest of every file a benchmark workload's commands write.

Writes the workload's seeded inputs with ``bench/workloads.py`` into a
temporary directory, runs each command through ``capclust.cli.main`` and
prints one ``<relative path> <sha256>`` line per written file, sorted by
path.  Two checkouts write byte-identical outputs exactly when their
digests are equal, so comparing them takes one ``diff``:

    PYTHONPATH=src python3 scripts/output_digest.py --workload cap-fractional --seed 1 > new.txt
    PYTHONPATH=../other/src python3 scripts/output_digest.py --workload cap-fractional --seed 1 > old.txt
    diff old.txt new.txt

With ``--values`` it prints the answers instead of digests: for each
solution document, one ``<relative path> total <objective>`` line and one
``<relative path> c <index> <x> <y>`` (or ``<site>``) line per center, all
with ``repr``.  A change that alters only the order of floating-point sums
differs there in the last digits, which a ``diff`` of two such listings
shows value by value.

The capclust package is the one on ``PYTHONPATH``, else this checkout's
``src``; ``bench/`` is only read.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.append(os.path.join(ROOT, "src"))  # after PYTHONPATH, so another checkout's package wins

from workloads import WORKLOADS, write_inputs  # noqa: E402

from capclust import cli  # noqa: E402
from capclust.io import SCHEMA, read_solution  # noqa: E402


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _outputs(workload: str, seed: int, small: bool, tmp: str) -> list[tuple[str, str]]:
    """Runs the workload's commands under ``tmp``; (relative path, path) of each written file, sorted.

    Raises RuntimeError when a command fails.
    """
    written = []
    for j, inst in enumerate(WORKLOADS[workload](seed, small)):
        write_inputs(inst, os.path.join(tmp, f"in{j}"))
        out = os.path.join(tmp, f"out{j}")
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(inst.argv(out))
        if rc != 0:
            raise RuntimeError(f"command {j} ({' '.join(inst.argv(out))}) exited {rc}:\n{log.getvalue()}")
        for root, _dirs, files in os.walk(out):
            written += [(os.path.relpath(os.path.join(root, name), tmp), os.path.join(root, name)) for name in files]
    return sorted(written)


def digest(workload: str, seed: int, small: bool = False) -> list[str]:
    """``<relative path> <sha256>`` of each output file, sorted; raises RuntimeError when a command fails."""
    with tempfile.TemporaryDirectory() as tmp:
        return [f"{rel} {_sha256(path)}" for rel, path in _outputs(workload, seed, small, tmp)]


def values(workload: str, seed: int, small: bool = False) -> list[str]:
    """The total objective and center locations of each solution document, as lines."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for rel, path in _outputs(workload, seed, small, tmp):
            with open(path, encoding="utf-8") as fh:
                if fh.readline().rstrip("\n") != SCHEMA:
                    continue
            doc = read_solution(path)
            lines.append(f"{rel} total {doc.objective['total']!r}")
            for center in doc.centers:
                where = " ".join(map(repr, center["xy"])) if "xy" in center else str(center["site"])
                lines.append(f"{rel} c {center['index']} {where}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true", help="one small command per workload")
    parser.add_argument("--values", action="store_true", help="print objectives and centers, not digests")
    args = parser.parse_args()
    try:
        lines = (values if args.values else digest)(args.workload, args.seed, args.small)
    except RuntimeError as exc:
        parser.exit(1, f"{exc}\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
