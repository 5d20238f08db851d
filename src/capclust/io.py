"""CSV ingestion and the structured solution document.

Every input file is read as UTF-8 by one line reader; a malformed file
raises ParseError with its line and, where one cell is at fault, column.
Points CSV columns: id, x, y, w, gamma, a, q; gamma/a/q may be left blank
and default to 0 / w / 1.  The solution document is a line-oriented text
format with a versioned schema tag; floats are written with repr so a
read-back reproduces every numeric field exactly, and runs with the same
seed produce byte-identical documents (timing is only included on request
for that reason).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import NegativeValue, ParseError, RaggedMatrix
from .model import NOISE_LABEL, PointTable, Problem, Solution

SCHEMA = "capclust-solution 1"


def _read(path, what) -> tuple[list[str], ParseError | None]:
    """The lines of a UTF-8 file, endings kept, read in one pass and checked in one more.

    The second item is the ParseError of the file's first byte that is not
    UTF-8, and then the lines stop before that byte's line; it is None for
    a UTF-8 file.  A leading byte-order mark, as spreadsheet programs write
    it, is dropped.
    """
    # surrogateescape keeps such a byte, as a lone surrogate, in its line to name the column
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = fh.readlines()
    if not all(map(str.isascii, lines)):  # an ASCII line is UTF-8, and str.isascii reads a flag
        for line, row in enumerate(lines, start=1):
            try:
                row.encode("utf-8")
            except UnicodeEncodeError as exc:
                return lines[:line - 1], ParseError(f"{what} file is not UTF-8", line, exc.start + 1)
    return lines, None


def _checked(lines: list[str], fault: ParseError | None):
    """Yield ``lines``, then raise ``fault`` when there is one (``_read``)."""
    yield from lines
    if fault is not None:
        raise fault


def _lines(path, what):
    """Yield the lines of a UTF-8 file, endings kept; a byte that is not UTF-8 raises ParseError at its line."""
    return _checked(*_read(path, what))


def _rows(lines, what):
    """Yield ``(line, stripped cells)`` for each CSV row of ``lines`` that is not blank, lazily."""
    reader = csv.reader(lines)
    line = 1
    try:
        for row in reader:
            cells = [c.strip() for c in row]
            if any(cells):
                yield line, cells
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"{what} file: {exc}", reader.line_num) from None


def _table(path, what):
    """The header's line and lower-cased cells, and the rows after it; an empty file raises ParseError."""
    return _header(_rows(_lines(path, what), what), what)


def _header(rows, what):
    """The first of ``rows`` (``_rows``) as its line and lower-cased cells, and the rest of them."""
    for line, cells in rows:
        return line, [c.lower() for c in cells], rows
    raise ParseError(f"empty {what} file", 1)


def _cell(row: list[str], index: int, line: int, what: str) -> str:
    """Cell ``index`` (0-based) of a row; a short row raises ParseError at column index + 1."""
    if index >= len(row):
        raise ParseError(f"missing {what}", line, index + 1)
    return row[index]


def _parse_float(row: list[str], index: int, line: int, what: str) -> float:
    raw = _cell(row, index, line, what)
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"{what}: not a number: {raw!r}", line, index + 1) from None
    if not math.isfinite(value):
        raise ParseError(f"{what}: not a finite number: {raw!r}", line, index + 1)
    return value


def _parse_int(row: list[str], index: int, line: int, what: str) -> int:
    raw = _cell(row, index, line, what)
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{what} must be an integer: {raw!r}", line, index + 1) from None


def _xy_rows(rows, header: list[str], line: int, message: str) -> list[tuple[float, float]]:
    """The x and y columns, named in ``header``, of every remaining row."""
    try:
        ix, iy = header.index("x"), header.index("y")
    except ValueError:
        raise ParseError(message, line) from None
    return [(_parse_float(row, ix, ln, "x"), _parse_float(row, iy, ln, "y")) for ln, row in rows]


_POINT_COLUMNS = ["id", "x", "y", "w", "gamma", "a", "q"]
_MAX_COVERAGE = np.iinfo(np.int64).max  # q is kept in an int64 column


def load_points(path) -> PointTable:
    """The points of a CSV file with columns id,x,y,w[,gamma[,a[,q]]].

    The file is read, and checked to be UTF-8, once.  numpy reads a plain
    file's lines in one pass, and its columns become the table.
    A file it rejects, or reads as non-finite, negative or with q < 1, goes
    through the per-cell parser, which also reads quoted cells and blank
    cells, and names the line and column of a bad cell.  A point with
    w = 0, gamma > 0 and a = 0 is a pseudo point.
    """
    lines, fault = _read(path, "points")
    line, cols, rows = _header(_rows(_checked(lines, fault), "points"), "points")
    if len(cols) < 4 or cols != _POINT_COLUMNS[: len(cols)]:
        raise ParseError(f"points header must be id,x,y,w[,gamma[,a[,q]]] (got {','.join(cols)})", line)
    # after a byte that is not UTF-8 the per-cell parser names the first fault, which may come before it
    table = None if fault else _point_table(lines[line:], len(cols))
    if table is None:
        points = _point_cells(rows)
        if not points:
            raise ParseError("no points in file", line + 1)
        return points
    w = table["w"]
    gamma = table["gamma"] if len(cols) > 4 else np.zeros_like(w)
    a = table["a"] if len(cols) > 5 else w
    return PointTable(table["id"], np.column_stack([table["x"], table["y"]]), w, gamma, a,
                      table["q"] if len(cols) > 6 else None, pseudo=(w == 0) & (gamma > 0) & (a == 0))


def _point_table(lines: list[str], n_cols: int):
    """The rows after the header, ``lines``, as one structured array; None where numpy or a check rejects one."""
    names = _POINT_COLUMNS[:n_cols]
    table = _numpy_rows(lines, ndmin=1, dtype=[(name, np.int64 if name in ("id", "q") else float) for name in names])
    if table is None:
        return None
    floats = [table[name] for name in names[1:6]]  # x, y, then w, gamma and a, which must not be negative
    if not all(np.isfinite(v).all() for v in floats) or any((v < 0).any() for v in floats[2:]):
        return None
    if n_cols > 6 and (table["q"] < 1).any():
        return None
    return table


def _numpy_rows(lines: list[str], **loadtxt_args):
    """The CSV rows of ``lines`` in one ``np.loadtxt`` pass; None where it rejects them."""
    if not any(map(str.strip, lines)):  # loadtxt only warns on a file without data
        return None
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, **loadtxt_args)
    except ValueError:
        return None


def _point_cells(rows) -> PointTable:
    """The points of the rows after the header, parsed cell by cell."""
    points = []
    for line, row in rows:
        pid = _parse_int(row, 0, line, "id")
        x = _parse_float(row, 1, line, "x")
        y = _parse_float(row, 2, line, "y")
        w = _parse_float(row, 3, line, "w")
        if w < 0:
            raise NegativeValue(f"weight w={w}", line, 4)
        row = row + [""] * 3  # gamma, a and q may be absent as well as blank
        gamma = _parse_float(row, 4, line, "gamma") if row[4] else 0.0
        if gamma < 0:
            raise NegativeValue(f"gamma={gamma}", line, 5)
        a = _parse_float(row, 5, line, "a") if row[5] else w
        if a < 0:
            raise NegativeValue(f"a={a}", line, 6)
        q = _parse_int(row, 6, line, "q") if row[6] else 1
        if q < 1:
            raise NegativeValue(f"q={q}", line, 7)
        if q > _MAX_COVERAGE:
            raise ParseError(f"q={q} is too large", line, 7)
        points.append((pid, (x, y), w, gamma, a, q, w == 0 and gamma > 0 and a == 0))
    return PointTable(*map(list, zip(*points))) if points else PointTable([], [], [])


def write_points(points, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_POINT_COLUMNS)
        for p in points:
            writer.writerow([p.id, repr(p.coords[0]), repr(p.coords[1]), repr(p.w), repr(p.gamma), repr(p.a), p.q])


def load_candidates(path) -> np.ndarray:
    line, header, rows = _table(path, "candidates")
    sites = _xy_rows(rows, header, line, "candidates header needs x and y columns")
    if not sites:
        raise ParseError("no candidate sites in file", line + 1)
    return np.asarray(sites, dtype=float)


def load_matrix(path) -> np.ndarray:
    """A finite, non-negative cost matrix, one CSV row per point.

    numpy reads a plain file in one pass.  A file it rejects or reads as
    negative or non-finite goes through the per-cell parser, which also
    reads quoted cells and whitespace-only rows, and names the line and
    column of a bad cell.
    """
    lines, fault = _read(path, "matrix")
    values = None if fault else _numpy_rows(lines, ndmin=2)
    if values is not None and np.isfinite(values).all() and (values >= 0).all():
        return values
    return _matrix_cells(_checked(lines, fault))


def _matrix_cells(lines) -> np.ndarray:
    rows: list[np.ndarray] = []
    for line, cells in _rows(lines, "matrix"):
        try:
            values = np.array(cells, dtype=float)
            parsed = bool(np.isfinite(values).all())
        except ValueError:
            parsed = False
        if not parsed:  # the scalar parser names the first bad cell
            values = np.array([_parse_float(cells, i, line, "matrix entry") for i in range(len(cells))])
        negative = np.flatnonzero(values < 0)
        if negative.size:
            raise NegativeValue(f"matrix entry {values[negative[0]]}", line, int(negative[0]) + 1)
        if rows and values.size != rows[0].size:
            raise RaggedMatrix(f"row has {values.size} entries, expected {rows[0].size}", line)
        rows.append(values)
    if not rows:
        raise ParseError("empty matrix file", 1)
    return np.vstack(rows)


def load_fixed(path):
    """Fixed-center file: either x,y coordinate rows or a single site column."""
    line, header, rows = _table(path, "fixed-centers")
    if "site" in header:
        col = header.index("site")
        fixed = [_parse_int(row, col, ln, "site") for ln, row in rows]
    else:
        fixed = _xy_rows(rows, header, line, "fixed-centers header needs x,y or site")
    if not fixed:
        raise ParseError("no fixed centers in file", line + 1)
    return fixed


def write_labels(path, ids, labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for pid, lab in zip(ids, labels):
            writer.writerow([pid, int(lab)])


def load_labels(path) -> dict[int, int]:
    line, header, rows = _table(path, "labels")
    if header[:2] != ["id", "label"]:
        raise ParseError("labels header must be id,label", line)
    labels: dict[int, int] = {}
    for ln, row in rows:
        point = _parse_int(row, 0, ln, "id")
        if point in labels:
            raise ParseError(f"id {point} repeats", ln, 1)
        labels[point] = _parse_int(row, 1, ln, "label")
    if not labels:
        raise ParseError("no labels in file", line + 1)
    return labels


def load_json_object(path, what: str) -> dict:
    """A UTF-8 JSON file whose top level is an object; anything else raises ParseError."""
    try:
        value = json.loads("".join(_lines(path, what)))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} file: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(value, dict):
        raise ParseError(f"{what} file must hold a JSON object, not {type(value).__name__}", 1)
    return value


@dataclass
class SolutionDocument:
    """Parsed form of a written solution, sufficient for evaluation."""

    schema: str
    objective: dict[str, float]
    meta: dict[str, str]
    centers: list[dict]
    point_weights: dict[int, float]
    memberships: list[tuple[int, int, float, float]]  # point id, center, y, distance
    outliers: list[tuple[int, float]]
    loads: dict[int, float]
    coverage_flags: list[int]
    diagnostics: dict[str, str]
    timing: float | None = None

    def labels(self) -> dict[int, int]:
        """Hardened label per point id; ties prefer centers over the outlier."""
        best: dict[int, tuple[float, int]] = {}
        for pid in self.point_weights:
            best[pid] = (0.0, NOISE_LABEL)
        for pid, j, y, _d in self.memberships:
            if y > best[pid][0] or (y == best[pid][0] and best[pid][1] == NOISE_LABEL):
                best[pid] = (y, j)
        for pid, y in self.outliers:
            if y > best[pid][0]:
                best[pid] = (y, NOISE_LABEL)
        return {pid: lab for pid, (_y, lab) in best.items()}

    def point_distances(self) -> dict[int, float]:
        """Membership-weighted distance per point; pure outliers excluded."""
        num: dict[int, float] = {}
        den: dict[int, float] = {}
        for pid, _j, y, d in self.memberships:
            num[pid] = num.get(pid, 0.0) + y * d
            den[pid] = den.get(pid, 0.0) + y
        return {pid: num[pid] / den[pid] for pid in num if den[pid] > 1e-12}


def write_solution(problem: Problem, solution: Solution, path, emit_timing: bool = False) -> None:
    """Serialize a solution to the structured text document."""
    spec = problem.centers
    discrete = problem.placement == "discrete"
    obj = solution.objective
    D = metrics.distances_to_centers(problem, solution.centers)
    y = solution.assignment.y
    lines: list[str] = [SCHEMA]
    lines.append(
        "objective distance {} outlier {} opening {} release {} total {}".format(
            repr(obj.distance_term), repr(obj.outlier_term), repr(obj.opening_term),
            repr(obj.release_term), repr(obj.total),
        )
    )
    lines.append(
        f"problem n {problem.n} k {problem.k} metric {problem.metric.kind} "
        f"membership {problem.membership} placement {problem.placement}"
    )
    if problem.capacity is not None:
        lines.append(f"capacity {repr(float(problem.capacity[0]))} {repr(float(problem.capacity[1]))}")
    if problem.outlier_penalty is not None:
        lines.append(f"outlier_lambda {repr(float(problem.outlier_penalty))}")
    lines.append(f"opening_lambda {repr(float(problem.opening_penalty))}")
    if spec.n_fixed:
        lines.append(f"release_lambda {repr(float(spec.release_penalty))}")

    lines.append(f"centers {problem.k}")
    for j in range(problem.k):
        if j < spec.n_fixed:
            status = "released" if j in solution.released else "fixed"
        else:
            status = "free"
        if discrete:
            entry = f"c {j} site {int(solution.centers[j])} {status}"
            if status == "released":
                entry += f" orig {int(spec.fixed[j])}"
        else:
            cx, cy = solution.centers[j]
            entry = f"c {j} xy {repr(float(cx))} {repr(float(cy))} {status}"
            if status == "released":
                fx, fy = spec.fixed[j]
                entry += f" orig {repr(float(fx))} {repr(float(fy))}"
        lines.append(entry)

    order = problem.id_order
    ids = problem.ids[order]
    lines.append(f"points {problem.n}")
    lines.extend(f"p {pid} {w!r}" for pid, w in zip(ids.tolist(), problem.weights[order].tolist()))

    # Rows in id order, each row's centers in index order.
    y_sorted = np.asarray(y, dtype=float)[order]
    rows, cols = np.nonzero(y_sorted[:, :problem.k] > 1e-12)
    lines.append(f"memberships {rows.size}")
    lines.extend(
        f"m {pid} {j} {val!r} {d!r}"
        for pid, j, val, d in zip(ids[rows].tolist(), cols.tolist(), y_sorted[rows, cols].tolist(),
                                  D[order[rows], cols].tolist())
    )

    out_rows = np.flatnonzero(y_sorted[:, -1] > 1e-12) if solution.assignment.has_outlier else np.zeros(0, int)
    lines.append(f"outliers {out_rows.size}")
    lines.extend(f"o {pid} {val!r}" for pid, val in zip(ids[out_rows].tolist(), y_sorted[out_rows, -1].tolist()))

    loads = solution.assignment.loads(problem.capacity_coeffs)
    lines.append(f"loads {problem.k}")
    for j in range(problem.k):
        lines.append(f"l {j} {repr(float(loads[j]))}")

    flags = solution.diagnostics.get("coverage_slots_on_outlier", [])
    lines.append(f"coverage_flags {len(flags)}")
    for pid in flags:
        lines.append(f"f {pid}")

    diag = solution.diagnostics
    gap = diag.get("optimality_gap")
    lines.append(
        "diagnostics iterations {} restarts {} empty_reseeds {} weiszfeld_unconverged {} gap {}".format(
            diag.get("iterations", 0), diag.get("restarts", 1), diag.get("empty_reseeds", 0),
            diag.get("weiszfeld_unconverged", 0), repr(float(gap)) if gap is not None else "none",
        )
    )
    if emit_timing and "wall_time_s" in diag:
        lines.append(f"timing wall_s {repr(float(diag['wall_time_s']))}")
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Counted blocks: header tag -> (row tag, number of values after the row tag).
_BLOCK_ROWS = {"points": ("p", 2), "memberships": ("m", 4), "outliers": ("o", 2), "loads": ("l", 2),
               "coverage_flags": ("f", 1)}


def read_solution(path) -> SolutionDocument:
    """Parse a solution document; any short, malformed or unterminated one raises ParseError."""
    lines = [ln.rstrip("\r\n") for ln in _lines(path, "solution")]
    if not lines or lines[0] != SCHEMA:
        raise ParseError(f"unknown solution schema: {lines[0] if lines else ''!r}", 1)
    doc = SolutionDocument(
        schema=lines[0], objective={}, meta={}, centers=[], point_weights={},
        memberships=[], outliers=[], loads={}, coverage_flags=[], diagnostics={},
    )
    n_lines = len(lines)
    at = 1  # 0-based index of the line being parsed, for error messages

    def row(tag: str, sizes: tuple[int, ...]) -> list[str]:
        """Line ``at`` split into words: ``tag`` followed by one of ``sizes`` values."""
        if at >= n_lines:
            raise ParseError(f"document ends inside a block; expected a {tag!r} line", at + 1)
        parts = lines[at].split()
        if not parts or parts[0] != tag or len(parts) - 1 not in sizes:
            raise ParseError(f"expected a {tag!r} line with {' or '.join(map(str, sizes))} values", at + 1)
        return parts

    def pairs(parts: list[str]) -> dict[str, str]:
        if len(parts) % 2 == 0:
            raise ParseError(f"{parts[0]} line needs key-value pairs", at + 1)
        return dict(zip(parts[1::2], parts[2::2]))

    def finite(raw: str) -> float:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        return value

    def count(parts: list[str]) -> int:
        value = int(row(parts[0], (1,))[1])
        if value < 0:
            raise ParseError(f"negative {parts[0]} count {value}", at + 1)
        return value

    try:
        while at < n_lines:
            parts = lines[at].split()
            if not parts:
                at += 1
                continue
            tag = parts[0]
            if tag == "end":
                break
            if tag == "objective":
                doc.objective = {key: float(val) for key, val in pairs(parts).items()}
            elif tag == "problem":
                doc.meta.update(pairs(parts))
            elif tag == "capacity":
                doc.meta["capacity"] = " ".join(row(tag, (2,))[1:])
            elif tag in ("outlier_lambda", "opening_lambda", "release_lambda"):
                doc.meta[tag] = row(tag, (1,))[1]
            elif tag == "centers":
                for _ in range(count(parts)):
                    at += 1
                    sub = row("c", (4, 5, 6, 8))
                    entry: dict = {"index": int(sub[1]), "kind": sub[2], "status": None}
                    if sub[2] == "xy" and len(sub) in (6, 9):
                        entry["xy"] = (float(sub[3]), float(sub[4]))
                        entry["status"] = sub[5]
                        if len(sub) > 6:
                            entry["orig"] = (float(sub[7]), float(sub[8]))
                    elif sub[2] == "site" and len(sub) in (5, 7):
                        entry["site"] = int(sub[3])
                        entry["status"] = sub[4]
                        if len(sub) > 5:
                            entry["orig"] = int(sub[6])
                    else:
                        raise ParseError("malformed centers block", at + 1)
                    doc.centers.append(entry)
            elif tag in _BLOCK_ROWS:
                row_tag, size = _BLOCK_ROWS[tag]
                for _ in range(count(parts)):
                    at += 1
                    sub = row(row_tag, (size,))
                    if row_tag in ("m", "o", "f") and int(sub[1]) not in doc.point_weights:
                        raise ParseError(f"point id {sub[1]} is not in the points block", at + 1)
                    if tag == "points":
                        if int(sub[1]) in doc.point_weights:
                            raise ParseError(f"point id {sub[1]} repeats in the points block", at + 1)
                        doc.point_weights[int(sub[1])] = finite(sub[2])
                    elif tag == "memberships":
                        doc.memberships.append((int(sub[1]), int(sub[2]), finite(sub[3]), finite(sub[4])))
                    elif tag == "outliers":
                        doc.outliers.append((int(sub[1]), finite(sub[2])))
                    elif tag == "loads":
                        doc.loads[int(sub[1])] = finite(sub[2])
                    else:
                        doc.coverage_flags.append(int(sub[1]))
            elif tag == "diagnostics":
                doc.diagnostics = pairs(parts)
            elif tag == "timing":
                doc.timing = float(row(tag, (2,))[2])
            else:
                raise ParseError(f"unknown tag {tag!r}", at + 1)
            at += 1
        else:
            raise ParseError("missing end tag", n_lines)
    except ValueError as exc:
        raise ParseError(f"malformed value: {exc}", at + 1) from None
    return doc
