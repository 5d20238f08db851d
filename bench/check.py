"""Output checker: every written document is parsed and recomputed from the inputs.

An operation is one ``solve`` command, or one k of a ``sweep``.  It fails
when the command exits non-zero, when a document cannot be parsed, or when
any recomputed quantity disagrees with what the program wrote.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from capclust.io import read_solution

REL_TOL = 1e-9


@dataclass
class Outcome:
    attempted: int
    failed: int
    objective: float | None
    problems: list[str] = field(default_factory=list)


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _recomputed_distances(inst, centers: list[dict], pids: np.ndarray, cols: np.ndarray) -> np.ndarray:
    if inst.metric == "matrix":
        sites = np.array([c["site"] for c in centers], dtype=int)
        return inst.matrix[pids, sites[cols]]
    cxy = np.array([c["xy"] for c in centers], dtype=float)
    diff = inst.xy[pids] - cxy[cols]
    sq = (diff * diff).sum(axis=1)
    return np.sqrt(sq) if inst.metric == "euclidean" else sq


def check_solution(inst, path: str, k: int) -> tuple[float | None, list[str]]:
    """Return (the document's total objective, problems found)."""
    try:
        doc = read_solution(path)
    except Exception as exc:  # any unreadable document is a failed operation
        return None, [f"{os.path.basename(path)}: unreadable: {type(exc).__name__}: {exc}"]
    problems: list[str] = []
    try:
        problems += _check_document(inst, doc, k)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed document: {type(exc).__name__}: {exc}")
    total = doc.objective.get("total")
    return total, [f"{os.path.basename(path)}: {p}" for p in problems]


def _check_document(inst, doc, k: int) -> list[str]:
    problems: list[str] = []
    n = inst.n
    if doc.meta.get("n") != str(n) or doc.meta.get("k") != str(k) or len(doc.centers) != k:
        return [f"expected n={n} k={k}, document has {doc.meta} and {len(doc.centers)} centers"]
    if sorted(doc.point_weights) != list(range(n)):
        return ["point ids differ from the input"]
    if any(doc.point_weights[i] != inst.w[i] for i in range(n)):
        problems.append("point weights differ from the input")
    if [c["index"] for c in doc.centers] != list(range(k)):
        problems.append("centers are not numbered 0..k-1")
    released = 0
    for j, c in enumerate(doc.centers):
        fixed = inst.fixed is not None and j < len(inst.fixed)
        if c["status"] == "released":
            released += 1
            if not fixed or inst.release_lambda is None or math.isinf(inst.release_lambda):
                problems.append(f"center {j} released without a finite release penalty")
        elif fixed and (c["status"] != "fixed" or tuple(c["xy"]) != tuple(inst.fixed[j])):
            problems.append(f"fixed center {j} moved without being released")

    m = np.array(doc.memberships, dtype=float).reshape(-1, 4)
    pids, cols, y, d = m[:, 0].astype(int), m[:, 1].astype(int), m[:, 2], m[:, 3]
    if ((cols < 0) | (cols >= k)).any() or (y <= 0).any():
        return problems + ["membership rows name an unknown center or a non-positive share"]
    d_re = _recomputed_distances(inst, doc.centers, pids, cols)
    bad = np.flatnonzero(np.abs(d - d_re) > REL_TOL * np.maximum(1.0, np.abs(d_re)))
    if bad.size:
        problems.append(f"{bad.size} membership distances disagree with the inputs "
                        f"(point {pids[bad[0]]}: wrote {float(d[bad[0]])!r}, recomputed {float(d_re[bad[0]])!r})")

    o = np.array(doc.outliers, dtype=float).reshape(-1, 2)
    o_pids, o_y = o[:, 0].astype(int), o[:, 1]
    if o_pids.size and inst.outlier_lambda is None:
        problems.append("outlier rows without an outlier penalty")
    row = np.zeros(n)
    np.add.at(row, pids, y)
    np.add.at(row, o_pids, o_y)
    hard = inst.membership == "hard"
    if hard:
        if not (np.all(y == 1.0) and np.all(o_y == 1.0) and np.all(row == 1.0)):
            problems.append("hard membership rows are not single 0/1 assignments")
    elif np.abs(row - 1.0).max(initial=0.0) > 1e-6:
        problems.append(f"row sums differ from q=1 by up to {np.abs(row - 1.0).max():.3g}")

    a = inst.capacity_coeffs
    loads = [math.fsum(a[pids[cols == j]] * y[cols == j]) for j in range(k)]
    for j, load in enumerate(loads):
        if not _close(load, doc.loads.get(j, math.nan)):
            problems.append(f"center {j}: written load {doc.loads.get(j)!r} != recomputed {load!r}")
    if inst.capacity is not None:
        lo, hi = inst.capacity
        slack = 0.0 if hard else 1e-6 * max(1.0, hi)
        outside = [j for j, load in enumerate(loads) if not lo - slack <= load <= hi + slack]
        if outside:
            problems.append(f"loads of centers {outside} leave the window [{lo!r}, {hi!r}]")

    w = inst.w
    distance = math.fsum(w[pids] * y * d_re)
    outlier = (inst.outlier_lambda or 0.0) * math.fsum(w[o_pids] * o_y)
    opening = float(doc.meta.get("opening_lambda", 0.0)) * k
    release = (inst.release_lambda or 0.0) * released if released else 0.0
    total = distance + outlier + opening + release
    if not _close(total, doc.objective.get("total", math.nan)):
        problems.append(f"objective total {doc.objective.get('total')!r} != recomputed {total!r}")
    return problems


def check_solve(inst, out_dir: str, rc) -> Outcome:
    if rc != 0:
        return Outcome(1, 1, None, [f"exit status {rc!r}"])
    total, problems = check_solution(inst, os.path.join(out_dir, "solution.txt"), inst.k_values[0])
    return Outcome(1, 1 if problems else 0, None if problems else total, problems)


def check_sweep(inst, out_dir: str, rc) -> Outcome:
    ks = inst.k_values
    if rc != 0:
        return Outcome(len(ks), len(ks), None, [f"exit status {rc!r}"])
    try:
        with open(os.path.join(out_dir, "sweep.txt")) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return Outcome(len(ks), len(ks), None, [f"sweep.txt unreadable: {exc}"])
    rows = {}
    for line in lines[1:]:
        parts = line.split()
        if parts and parts[0].isdigit():
            rows[int(parts[0])] = parts[1:]
    base: dict[int, float] = {}
    problems: list[str] = []
    for k in ks:
        parts = rows.get(k)
        try:
            values = [float(v) for v in parts]
        except (TypeError, ValueError):
            problems.append(f"k={k}: row missing or failed: {parts}")
            continue
        expected = [values[0] + lam * k for lam in inst.lambdas]
        if len(values) != 1 + len(inst.lambdas) or values[1:] != expected or not values[0] > 0:
            problems.append(f"k={k}: penalized values {values[1:]} != base + lambda*k")
            continue
        base[k] = values[0]
    failed = len(ks) - len(base)
    consensus = lines[-1].split() if lines else []
    if base:
        votes = [min(base, key=lambda k: (base[k] + lam * k, k)) for lam in inst.lambdas]
        best = min(set(votes), key=lambda k: (-votes.count(k), k))
        if consensus != ["consensus", str(best)]:
            problems.append(f"consensus line {consensus} != recomputed {best}")
            failed += 1
        else:
            total, doc_problems = check_solution(inst, os.path.join(out_dir, f"solution_k{best}.txt"), best)
            if not doc_problems and total != base[best]:
                doc_problems = [f"solution_k{best}.txt total {total!r} != sweep base {base[best]!r}"]
            if doc_problems:
                problems += doc_problems
                failed += 1
    failed = min(failed, len(ks))
    objective = math.fsum(base.values()) if not failed else None
    return Outcome(len(ks), failed, objective, problems)


def check_output(inst, out_dir: str, rc) -> Outcome:
    return (check_sweep if inst.command == "sweep" else check_solve)(inst, out_dir, rc)
