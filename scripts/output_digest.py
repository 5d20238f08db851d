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

``--seed`` takes several seeds (``--seed 1 2 3``); each seed's lines then
come in turn, with ``seed<N>/`` in front of every path.  ``--workload``
takes several workloads in the same way, each under ``<workload>/``, so
one command lists every workload and seed of a checkout:

    PYTHONPATH=src python3 scripts/output_digest.py --workload euclid-outlier cap-fractional --seed 1 2 3

With ``--values`` it prints the answers instead of digests: for each
solution document, one ``<relative path> total <objective>`` line and one
``<relative path> c <index> <x> <y>`` (or ``<site>``) line per center, all
with ``repr``.  A change that alters only the order of floating-point sums
differs there in the last digits, which a ``diff`` of two such listings
shows value by value.

With ``--compare OLD NEW`` it reads two such ``--values`` listings and
prints how far their answers lie apart: the largest relative difference
between totals, the largest difference between center coordinates (after
matching each document's centers as sets), and the documents whose
centers agree only as sets, that is, with their labels permuted:

    python3 scripts/output_digest.py --compare old.txt new.txt

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

import numpy as np

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


def _read_values(path: str) -> dict[str, tuple[float, np.ndarray]]:
    """Document -> (total, (k, width) centers in index order) from a ``--values`` listing."""
    totals, centers = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rel, kind, *rest = line.split()
            if kind == "total":
                totals[rel] = float(rest[0])
            else:
                centers.setdefault(rel, []).append((int(rest[0]), [float(v) for v in rest[1:]]))
    return {rel: (total, np.array([xy for _j, xy in sorted(centers.get(rel, []))])) for rel, total in totals.items()}


def compare(old: dict, new: dict) -> list[str]:
    """Lines that tell how far two ``_read_values`` results lie apart."""
    lines = [f"only in OLD {rel}" for rel in sorted(old.keys() - new.keys())]
    lines += [f"only in NEW {rel}" for rel in sorted(new.keys() - old.keys())]
    shared = sorted(old.keys() & new.keys())
    totals, centers, permuted = [(0.0, "-")], [(0.0, "-")], []
    for rel in shared:
        (t_old, c_old), (t_new, c_new) = old[rel], new[rel]
        scale = max(abs(t_old), abs(t_new))
        totals.append((abs(t_old - t_new) / scale if scale else 0.0, rel))
        if c_old.shape != c_new.shape:
            lines.append(f"center count differs {rel} {len(c_old)} {len(c_new)}")
            continue
        # each old center's nearest new one; labels are permuted when that is another bijection
        gap = np.abs(c_old[:, None, :] - c_new[None, :, :]).max(axis=2)
        index, match = np.arange(len(c_old)), np.argmin(gap, axis=1)
        if np.array_equal(np.sort(match), index) and not np.array_equal(match, index):
            permuted.append(rel)
        else:
            match = index
        centers.append((float(gap[index, match].max()), rel))
    worst_total, worst_center = (max(found, key=lambda item: item[0]) for found in (totals, centers))
    lines.append(f"documents {len(shared)}")
    lines.append(f"total max_rel_diff {worst_total[0]!r} {worst_total[1]}")
    lines.append(f"center max_abs_diff {worst_center[0]!r} {worst_center[1]}")
    lines.append(f"permuted_documents {len(permuted)}")
    return lines + [f"permuted {rel}" for rel in permuted]


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), help="one or more workloads")
    parser.add_argument("--seed", type=int, nargs="+", help="one or more workload seeds")
    parser.add_argument("--small", action="store_true", help="one small command per workload")
    parser.add_argument("--values", action="store_true", help="print objectives and centers, not digests")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --values listings")
    args = parser.parse_args()
    if args.compare:
        lines = compare(*map(_read_values, args.compare))
    elif args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required unless --compare is given")
    else:
        listing = values if args.values else digest
        by_workload, by_seed = len(args.workload) > 1, len(args.seed) > 1
        try:
            lines = [(f"{workload}/" if by_workload else "") + (f"seed{seed}/" if by_seed else "") + line
                     for workload in args.workload for seed in args.seed
                     for line in listing(workload, seed, args.small)]
        except RuntimeError as exc:
            parser.exit(1, f"{exc}\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
