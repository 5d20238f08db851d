import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from capclust import (
    CenterSpec, Point, PointTable, Problem, SolverConfig, euclidean, matrix_metric, solve, sqeuclidean,
    validate_problem,
)
from capclust.cli import main
from capclust.errors import NegativeValue, ParseError, RaggedMatrix
from capclust.io import (
    load_candidates, load_fixed, load_labels, load_matrix, load_points, read_solution,
    write_labels, write_points, write_solution,
)
from capclust.plotting import render_plot


def test_defaults_for_blank_optional_columns(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("id,x,y,w,gamma,a,q\n7,1.5,2.5,10,,,\n")
    pts = load_points(f)
    assert len(pts) == 1
    p = pts[0]
    assert (p.id, p.coords, p.w, p.gamma, p.a, p.q) == (7, (1.5, 2.5), 10.0, 0.0, 10.0, 1)


def test_short_header_allowed(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("id,x,y,w\n1,0,0,2\n2,1,1,3\n")
    pts = load_points(f)
    assert [p.a for p in pts] == [2.0, 3.0]


def test_bad_header_is_parse_error(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("x,y,w\n1,2,3\n")
    with pytest.raises(ParseError):
        load_points(f)


def test_negative_weight_reports_line_and_column(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("id,x,y,w\n1,0,0,2\n2,1,1,-3\n")
    with pytest.raises(NegativeValue) as err:
        load_points(f)
    assert err.value.line == 3
    assert err.value.column == 4


POINT_FILES = {
    "plain": "id,x,y,w\n0,1,2,3\n1,4,5,6\n",
    "all-columns": "id,x,y,w,gamma,a,q\n0,1,2,3,0.5,3,2\n1,-1e-3,2.5e2,0,4,0,1\n",
    "crlf": "id,x,y,w\r\n0,1,2,3\r\n1,2,3,4\r\n",
    "spaces": "id,x,y,w\n0, 1 , 2,3\n",
    "blank-lines": "id,x,y,w\n\n0,1,2,3\n\n1,2,3,4\n",
    "byte-order-mark": "\ufeffid,x,y,w\n0,1,2,3\n",
    "reprs": "id,x,y,w\n0,0.1,1e-300,1.7976931348623157e308\n1,-0.0,5e-324,0.30000000000000004\n",
    "underscores": "id,x,y,w\n1_000,1_0,2,3\n",
    "signs": "id,x,y,w\n+5,+1,-2,.5\n",
    "blank-optional": "id,x,y,w,gamma,a,q\n0,1,2,3,,,\n",
    "quoted": 'id,x,y,w\n0,"1",2,3\n',
    "trailing-comma": "id,x,y,w\n0,1,2,3,\n",
    "header-only": "id,x,y,w\n",
    "float-id": "id,x,y,w\n0,1,2,3\n1.0,1,2,3\n",
    "huge-id": "id,x,y,w\n99999999999999999999,1,2,3\n",
    "hex": "id,x,y,w\n0,0x10,2,3\n",
    "exponent-id": "id,x,y,w\n1e3,1,2,3\n",
    "nan": "id,x,y,w\n0,nan,2,3\n",
    "inf-weight": "id,x,y,w\n0,1,2,inf\n",
    "overflow": "id,x,y,w\n0,1e400,2,3\n",
    "negative-weight": "id,x,y,w\n0,1,2,3\n1,1,2,-3\n",
    "negative-gamma": "id,x,y,w,gamma\n0,1,2,3,-1\n",
    "zero-q": "id,x,y,w,gamma,a,q\n0,1,2,3,0,0,0\n",
    "fraction-q": "id,x,y,w,gamma,a,q\n0,1,2,3,0,3,1.5\n",
    "huge-q": "id,x,y,w,gamma,a,q\n0,1,2,3,0,3,99999999999999999999\n",
    "short-row": "id,x,y,w\n0,1,2,3\n1,2,3\n",
    "text": "id,x,y,w\n0,a,2,3\n",
    "comment": "id,x,y,w\n0,1,2,3 # c\n",
    "blank-row": "id,x,y,w\n ,,, \n",
}


@pytest.mark.parametrize("name", POINT_FILES)
def test_point_fast_path_matches_the_per_cell_parser(tmp_path, monkeypatch, name):
    from capclust import io

    f = tmp_path / "pts.csv"
    f.write_text(POINT_FILES[name], encoding="utf-8", newline="")

    def outcome():
        try:
            return load_points(f)
        except ParseError as exc:
            return type(exc), str(exc), exc.line, exc.column

    fast = outcome()
    monkeypatch.setattr(io, "_point_table", lambda *args: None)
    assert fast == outcome()


@pytest.mark.parametrize("name", ["plain", "all-columns", "crlf", "spaces", "blank-lines", "byte-order-mark", "reprs"])
def test_plain_point_files_take_the_fast_path(tmp_path, monkeypatch, name):
    from capclust import io

    f = tmp_path / "pts.csv"
    f.write_text(POINT_FILES[name], encoding="utf-8", newline="")
    monkeypatch.setattr(io, "_point_cells", None)
    assert load_points(f)


@pytest.mark.parametrize("row, column", [
    ("2,nan,1,3", 2), ("2,1,inf,3", 3), ("2,1,1,nan", 4), ("2,1,1,3,-inf", 5), ("2,1,1,3,0,Infinity", 6),
])
def test_non_finite_point_value_reports_line_and_column(tmp_path, row, column):
    f = tmp_path / "pts.csv"
    f.write_text(f"id,x,y,w,gamma,a\n1,0,0,2\n{row}\n")
    with pytest.raises(ParseError, match="not a finite number") as err:
        load_points(f)
    assert (err.value.line, err.value.column) == (3, column)


@pytest.mark.parametrize("ids", [[2**53 + 1, 3, 2**53], [2**64 + 1, 3, 2**64]], ids=["int64", "past-int64"])
def test_loaded_points_give_the_columns_of_their_points(tmp_path, monkeypatch, ids):
    # Ids past 2**53 lose digits as floats and ids past int64 take the per-cell parser; all must stay exact.
    from capclust import io

    rows = [(ids[0], 0.5, 1.5, 2.0, 0.0, 2.0, 1), (ids[1], -1.0, 2.0, 0.0, 4.0, 0.0, 1),
            (ids[2], 1e-300, 0.1, 1.5, 0.25, 3.0, 2)]
    f = tmp_path / "pts.csv"
    f.write_text("id,x,y,w,gamma,a,q\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    points = tuple(Point(pid, (x, y), w, g, a, q, pseudo=w == 0 and g > 0 and a == 0)
                   for pid, x, y, w, g, a, q in rows)
    cells = io._point_cells(io._table(f, "points")[2])
    if ids[0] < 2**63:
        monkeypatch.setattr(io, "_point_cells", None)  # the file takes the numpy path
    loaded = load_points(f)
    assert loaded == cells == PointTable.of(points)
    assert list(loaded) == list(cells) == list(points)
    problems = [Problem(points=given, metric=sqeuclidean(), centers=CenterSpec(k=1))
                for given in (loaded, cells, points)]
    for name in ("coords", "weights", "gammas", "effective_weights", "capacity_coeffs", "coverages", "pseudo_mask",
                 "ids", "id_order"):
        first, *rest = (getattr(problem, name) for problem in problems)
        assert all(other.dtype == first.dtype and np.array_equal(other, first) for other in rest), name
    for problem in problems:
        assert problem.ids.tolist() == ids and all(type(pid) is int for pid in problem.ids)
        assert problem.id_order.tolist() == [1, 2, 0]
        assert problem.pseudo_mask.tolist() == [False, True, False]


def test_pseudo_point_inferred_from_zero_demand(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("id,x,y,w,gamma,a,q\n1,0,0,0,5.0,0,1\n")
    assert load_points(f)[0].pseudo


def test_ragged_matrix_reports_line(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2,3\n4,5\n")
    with pytest.raises(RaggedMatrix) as err:
        load_matrix(f)
    assert err.value.line == 2


def test_negative_matrix_entry(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3,-4\n")
    with pytest.raises(NegativeValue):
        load_matrix(f)


def test_non_finite_matrix_entry_reports_line_and_column(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3,nan\n")
    with pytest.raises(ParseError, match="not a finite number") as err:
        load_matrix(f)
    assert (err.value.line, err.value.column) == (2, 2)


def test_matrix_roundtrip_values(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1.5,2.25\n0,4.125\n")
    D = load_matrix(f)
    assert D.tolist() == [[1.5, 2.25], [0.0, 4.125]]


_MATRIX_LAYOUTS = {
    "plain": lambda cells, rng: ",".join(cells) + "\n",
    "blank-lines": lambda cells, rng: "\n" * int(rng.integers(0, 2)) + ",".join(cells) + "\n",
    "crlf": lambda cells, rng: ",".join(cells) + "\r\n",
    "spaces": lambda cells, rng: ",".join(" " * int(rng.integers(0, 3)) + c + " \t"[: int(rng.integers(0, 3))]
                                          for c in cells) + "\n",
    "quoted": lambda cells, rng: ",".join(f'"{c}"' if rng.random() < 0.2 else c for c in cells) + "\n",
}


@pytest.mark.parametrize("bom", [False, True], ids=["no-bom", "bom"])
@pytest.mark.parametrize("layout", sorted(_MATRIX_LAYOUTS))
def test_fast_matrix_read_equals_the_per_cell_parser(tmp_path, monkeypatch, layout, bom):
    from capclust import io

    per_cell = []
    real = io._matrix_cells
    monkeypatch.setattr(io, "_matrix_cells", lambda lines: per_cell.append(lines) or real(lines))
    rng = np.random.default_rng(sorted(_MATRIX_LAYOUTS).index(layout))
    for n, m in [(1, 1), (1, 5), (7, 1), (40, 12)]:
        D = rng.uniform(0, 1, (n, m)) * 10.0 ** rng.integers(-8, 8, (n, m))
        D[rng.random((n, m)) < 0.1] = 0.0
        text = "".join(_MATRIX_LAYOUTS[layout]([repr(float(v)) for v in row], rng) for row in D)
        f = tmp_path / f"m{n}x{m}.csv"
        f.write_bytes(("\ufeff" if bom else "").encode() + text.encode())
        got = load_matrix(f)
        assert got.tobytes() == D.tobytes() and got.shape == D.shape
        assert got.tobytes() == real(io._lines(f, "matrix")).tobytes()
    # every layout but the quoted one is read in one numpy pass
    assert (len(per_cell) > 0) == (layout == "quoted")


@pytest.mark.parametrize("load, data, line, column", [
    (load_points, b"id,x,y,w\n0,0,0,1\n1,\xff,0,1\n", 3, 3),
    (load_points, b"id,x,y,w\n0,0,0,1\n1,2,0,1\n2,3,\xff4,1\n3,1,1,1\n", 4, 5),
    (load_candidates, b"x,y\n1,2\n3\n", 3, 2),
    (load_labels, b"", 1, 0),
    (load_labels, b"id,label\n", 2, 0),
    (load_labels, b"id,label\n1,2\n3\n", 3, 2),
    (load_labels, b"id,label\n3,1\n2,0\n3,0\n", 4, 1),
    (load_fixed, b"site\n\n \nx\n", 4, 1),
    (load_fixed, b"x,y\n", 2, 0),
    (load_fixed, b"site\n\n", 2, 0),
    (load_matrix, b"1," + b"2" * 200_000 + b"\n", 1, 0),
    (load_matrix, b"1,2\n# 3,4\n", 2, 1),
    # a bad cell before a byte that is not UTF-8 is the first fault
    (load_matrix, b"a,1\n\xff,2\n", 1, 1),
    (load_points, b"id,x,y,w\n0,a,0,1\n1,\xff,0,1\n", 2, 2),
], ids=["not-utf8", "not-utf8-after-header", "short-row", "empty", "labels-header-only", "short-label",
        "repeated-label-id", "blank-rows", "fixed-xy-header-only", "fixed-site-header-only", "field-over-limit",
        "comment-line", "matrix-bad-cell-first", "points-bad-cell-first"])
def test_malformed_csv_reports_line_and_column(tmp_path, load, data, line, column):
    f = tmp_path / "in.csv"
    f.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load(f)
    assert (err.value.line, err.value.column) == (line, column)


def test_plain_point_file_is_opened_once(tmp_path, monkeypatch):
    from capclust import io

    f = tmp_path / "pts.csv"
    f.write_text(POINT_FILES["all-columns"], encoding="utf-8", newline="")
    opened = []
    monkeypatch.setattr(io, "open", lambda *args, **kwargs: opened.append(args[0]) or open(*args, **kwargs),
                        raising=False)
    monkeypatch.setattr(io, "_point_cells", None)  # the numpy path
    assert load_points(f)
    assert opened == [f]


@pytest.mark.parametrize("text, error", [('"1",2\n3,4\n', None), ("1,2\n3,x\n", (2, 2))], ids=["quoted", "bad-cell"])
def test_matrix_file_numpy_rejects_is_opened_once(tmp_path, monkeypatch, text, error):
    # The per-cell parser reads the lines load_matrix already holds.
    from capclust import io

    f = tmp_path / "m.csv"
    f.write_text(text)
    opened = []
    monkeypatch.setattr(io, "open", lambda *args, **kwargs: opened.append(args[0]) or open(*args, **kwargs),
                        raising=False)
    if error is None:
        assert load_matrix(f).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    else:
        with pytest.raises(ParseError) as err:
            load_matrix(f)
        assert (err.value.line, err.value.column) == error
    assert opened == [f]


def test_candidates_need_xy_header(tmp_path):
    f = tmp_path / "c.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        load_candidates(f)
    f.write_text("id,x,y\n0,1,2\n1,3,4\n")
    assert load_candidates(f).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
                          st.floats(0, 1e4), st.floats(0, 100)),
                min_size=1, max_size=8))
def test_points_write_load_roundtrip_exact(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("rt")
    pts = [Point(i, coords=(x, y), w=w, gamma=g) for i, (x, y, w, g) in enumerate(rows)]
    path = tmp / "pts.csv"
    write_points(pts, path)
    back = load_points(path)
    for p, q in zip(pts, back):
        assert p.coords == q.coords
        assert p.w == q.w and p.gamma == q.gamma and p.a == q.a and p.q == q.q


def test_byte_order_mark_is_ignored(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"id,x,y,w\n1,0.5,2,3\n2,1,1,1\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_points(marked) == load_points(plain)


def test_large_point_file_loads_every_row(tmp_path):
    rng = np.random.default_rng(70)
    rows = ["id,x,y,w"]
    for i in range(2732):
        x, y = rng.uniform(0, 100, 2)
        rows.append(f"{i},{x},{y},{rng.integers(1, 2000)}")
    f = tmp_path / "stations.csv"
    f.write_text("\n".join(rows) + "\n")
    assert len(load_points(f)) == 2732


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels(path, [3, 1, 2], [0, 1, -1])
    assert load_labels(path) == {3: 0, 1: 1, 2: -1}


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    rng = np.random.default_rng(71)
    pts = []
    for j, (cx, cy) in enumerate([(0, 0), (6, 0)]):
        for _ in range(10):
            x, y = rng.normal([cx, cy], 0.4)
            pts.append(Point(len(pts), coords=(x, y), w=float(rng.uniform(1, 3))))
    pts.append(Point(len(pts), coords=(3.0, 8.0), w=2.0))  # far point becomes the outlier
    prob = validate_problem(Problem(points=tuple(pts), metric=euclidean(),
                                    centers=CenterSpec(k=2), membership="fractional",
                                    capacity=(5.0, 40.0), outlier_penalty=2.0))
    sol = solve(prob, SolverConfig(restarts=3, rng_seed=2))
    return prob, sol


def test_solution_document_roundtrip(solved, tmp_path):
    prob, sol = solved
    path = tmp_path / "solution.txt"
    write_solution(prob, sol, path)
    doc = read_solution(path)
    assert doc.objective["total"] == sol.objective.total
    assert doc.objective["distance"] == sol.objective.distance_term
    assert int(doc.meta["n"]) == prob.n and int(doc.meta["k"]) == prob.k
    y = sol.assignment.y
    total_memberships = int((y[:, :2] > 1e-12).sum())
    assert len(doc.memberships) == total_memberships
    for pid, j, val, d in doc.memberships:
        i = pid  # ids are positional in this fixture
        assert val == y[i, j]
    assert doc.loads[0] == sol.assignment.loads(prob.capacity_coeffs)[0]


def test_written_document_is_stable_bytes(solved, tmp_path):
    prob, sol = solved
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_solution(prob, sol, a)
    write_solution(prob, sol, b)
    assert a.read_bytes() == b.read_bytes()


def test_membership_rows_sum_to_coverage(solved, tmp_path):
    prob, sol = solved
    path = tmp_path / "solution.txt"
    write_solution(prob, sol, path)
    doc = read_solution(path)
    sums = {}
    for pid, _j, val, _d in doc.memberships:
        sums[pid] = sums.get(pid, 0.0) + val
    for pid, val in doc.outliers:
        sums[pid] = sums.get(pid, 0.0) + val
    for pid, total in sums.items():
        assert total == pytest.approx(1.0, abs=1e-6)


def test_timing_only_with_flag(solved, tmp_path):
    prob, sol = solved
    bare = tmp_path / "bare.txt"
    timed = tmp_path / "timed.txt"
    write_solution(prob, sol, bare)
    write_solution(prob, sol, timed, emit_timing=True)
    assert "timing" not in bare.read_text()
    assert "timing wall_s" in timed.read_text()
    assert read_solution(timed).timing is not None


def test_released_center_lists_original_location(tmp_path):
    rng = np.random.default_rng(72)
    pts = tuple(Point(i, coords=tuple(rng.normal([0, 0], 0.5)), w=1.0) for i in range(12))
    prob = validate_problem(Problem(points=pts, metric=sqeuclidean(),
                                    centers=CenterSpec(k=1, fixed=((8.0, 8.0),), release_penalty=0.1)))
    sol = solve(prob, SolverConfig(restarts=2, rng_seed=0))
    assert 0 in sol.released
    path = tmp_path / "sol.txt"
    write_solution(prob, sol, path)
    doc = read_solution(path)
    assert doc.centers[0]["status"] == "released"
    assert doc.centers[0]["orig"] == (8.0, 8.0)


def test_truncated_document_is_parse_error_at_every_cut(solved, tmp_path):
    prob, sol = solved
    path = tmp_path / "sol.txt"
    write_solution(prob, sol, path)
    lines = path.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.txt"
    for keep in range(1, len(lines)):
        cut.write_text("".join(lines[:keep]))
        with pytest.raises(ParseError) as err:
            read_solution(cut)
        assert 1 <= err.value.line <= keep + 1


@pytest.mark.parametrize("bad, line", [
    ("points -1\n", 4), ("centers 1\nc 0 xy 1.0\n", 5), ("loads 1\nl 0\n", 5),
    ("objective total\n", 4), ("memberships 1\nm 0 0 0.5 x\n", 5), ("outliers 1\nf 0\n", 5),
    ("points 1\np 0 1.0\nmemberships 1\nm 5 0 1.0 0.5\n", 7), ("points 1\np 0 1.0\noutliers 1\no 5 1.0\n", 7),
    ("points 1\np 0 1.0\ncoverage_flags 1\nf 5\n", 7),
    ("points 1\np 0 nan\n", 5), ("points 1\np 0 1.0\nmemberships 1\nm 0 0 1.0 inf\n", 7),
    ("points 1\np 0 1.0\nmemberships 1\nm 0 0 nan 0.5\n", 7), ("points 1\np 0 1.0\noutliers 1\no 0 -inf\n", 7),
    ("loads 1\nl 0 nan\n", 5), ("points 4\np 1 1.0\np 2 1.0\np 1 2.0\np 3 1.0\n", 7),
])
def test_malformed_block_is_parse_error_with_line(tmp_path, bad, line):
    path = tmp_path / "sol.txt"
    path.write_text("capclust-solution 1\nproblem n 1 k 1\nopening_lambda 0.0\n" + bad + "end\n")
    with pytest.raises(ParseError) as err:
        read_solution(path)
    assert err.value.line == line


def test_document_labels_and_distances(solved, tmp_path):
    prob, sol = solved
    path = tmp_path / "sol.txt"
    write_solution(prob, sol, path)
    doc = read_solution(path)
    labels = doc.labels()
    direct = sol.assignment.hard_labels()
    for i in range(prob.n):
        assert labels[prob.points[i].id] == direct[i]
    dists = doc.point_distances()
    assert all(v >= 0 for v in dists.values())


def test_plot_deterministic_and_glyph_counts(solved, tmp_path):
    prob, sol = solved
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_plot(prob, sol, a)
    render_plot(prob, sol, b)
    assert a.read_bytes() == b.read_bytes()
    svg = a.read_text()
    assert svg.count("<path") == prob.k  # one cross per center
    hollow = svg.count('fill="none" \nstroke') + svg.count('fill="none" stroke="#333333"')
    outliers = int((sol.assignment.hard_labels() == -1).sum())
    assert hollow == outliers


def test_plot_without_outliers_has_no_hollow_markers(tmp_path):
    rng = np.random.default_rng(73)
    pts = tuple(Point(i, coords=tuple(rng.normal([0, 0], 1)), w=1.0) for i in range(8))
    prob = validate_problem(Problem(points=pts, metric=sqeuclidean(), centers=CenterSpec(k=2)))
    sol = solve(prob, SolverConfig(restarts=2, rng_seed=1))
    path = tmp_path / "p.svg"
    render_plot(prob, sol, path)
    assert 'stroke="#333333"' not in path.read_text()


def _per_point_rows(problem, solution):
    """The ``points`` through ``outliers`` blocks of a solution document, one point and column at a time."""
    from capclust import metrics

    D = metrics.distances_to_centers(problem, solution.centers)
    y = solution.assignment.y
    order = problem.id_order.tolist()
    lines = [f"points {problem.n}"]
    for i in order:
        lines.append(f"p {problem.points[i].id} {repr(float(problem.points[i].w))}")
    entries = []
    for i in order:
        for j in range(problem.k):
            if y[i, j] > 1e-12:
                entries.append((problem.points[i].id, j, y[i, j], D[i, j]))
    lines.append(f"memberships {len(entries)}")
    for pid, j, val, d in entries:
        lines.append(f"m {pid} {j} {repr(float(val))} {repr(float(d))}")
    out_entries = []
    if solution.assignment.has_outlier:
        for i in order:
            if y[i, -1] > 1e-12:
                out_entries.append((problem.points[i].id, y[i, -1]))
    lines.append(f"outliers {len(out_entries)}")
    for pid, val in out_entries:
        lines.append(f"o {pid} {repr(float(val))}")
    return lines


def _per_point_svg(problem, solution):
    """The SVG of ``render_plot``, scaling and formatting one point and one center at a time."""
    from capclust.plotting import _H, _MARGIN, _W, PALETTE, _fmt

    xy = problem.coords
    spec = problem.centers
    if spec.placement == "discrete":
        centers_xy = spec.candidates[np.asarray(solution.centers, dtype=int)]
    else:
        centers_xy = np.asarray(solution.centers, dtype=float)
    everything = np.vstack([xy, centers_xy])
    lo = everything.min(axis=0)
    span = np.maximum(everything.max(axis=0) - lo, 1e-12)

    def sx(x):
        return _MARGIN + (x - lo[0]) / span[0] * (_W - 2 * _MARGIN)

    def sy(y):
        return _H - _MARGIN - (y - lo[1]) / span[1] * (_H - 2 * _MARGIN)

    labels = solution.assignment.hard_labels()
    w = problem.weights
    wmax = float(w.max()) if w.size and w.max() > 0 else 1.0
    radii = 1.5 + 4.5 * np.sqrt(np.maximum(w, 0.0) / wmax)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        f'<rect width="{int(_W)}" height="{int(_H)}" fill="white"/>',
    ]
    for i in range(problem.n):
        cx, cy, r = sx(xy[i, 0]), sy(xy[i, 1]), radii[i]
        if labels[i] == -1:
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="none" '
                         f'stroke="#333333" stroke-width="1.2"/>')
        else:
            color = PALETTE[int(labels[i]) % len(PALETTE)]
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{color}" fill-opacity="0.75"/>')
    for j in range(problem.k):
        cx, cy = sx(centers_xy[j, 0]), sy(centers_xy[j, 1])
        if j < spec.n_fixed and j not in solution.released:
            parts.append(f'<rect x="{_fmt(cx - 5)}" y="{_fmt(cy - 5)}" width="10" height="10" '
                         f'fill="none" stroke="black" stroke-width="2"/>')
        parts.append(f'<path d="M {_fmt(cx - 6)} {_fmt(cy)} H {_fmt(cx + 6)} M {_fmt(cx)} {_fmt(cy - 6)} '
                     f'V {_fmt(cy + 6)}" stroke="black" stroke-width="2.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _output_cases():
    rng = np.random.default_rng(74)
    blobs = [tuple(rng.normal(c, 0.6)) for c in [(0, 0), (6, 0), (3, 5)] for _ in range(12)]
    far = [(20.0, 20.0), (-15.0, 9.0)]
    pts = tuple(Point(i, coords=xy, w=float(rng.uniform(0.5, 3))) for i, xy in enumerate(blobs + far))
    # hard membership, outliers, one fixed center released and one kept fixed
    yield "hard-outlier-released", Problem(
        points=pts, metric=euclidean(), outlier_penalty=4.0,
        centers=CenterSpec(k=3, fixed=((9.0, 9.0), (6.0, 0.0)), release_penalty=0.5))
    # loads of about 20.8, 18.2 and 21.0 without a window, so both limits bind and the optimum splits points
    yield "fractional-capacity", Problem(
        points=pts[:-2], metric=sqeuclidean(), membership="fractional", capacity=(19.5, 20.5),
        centers=CenterSpec(k=3))
    D = rng.uniform(1.0, 9.0, size=(20, 6))
    yield "matrix", Problem(points=tuple(Point(i, w=float(rng.uniform(1, 2))) for i in range(20)),
                            metric=matrix_metric(D), outlier_penalty=3.0,
                            centers=CenterSpec(k=3, placement="discrete"))
    ids = rng.permutation(1000)[:len(pts)] * 7 + 3
    yield "unsorted-ids", Problem(
        points=tuple(Point(int(pid), coords=p.coords, w=p.w) for pid, p in zip(ids, pts)),
        metric=euclidean(), outlier_penalty=4.0, centers=CenterSpec(k=3))


@pytest.mark.parametrize("name, problem", list(_output_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_written_files_equal_the_per_point_loops(tmp_path, name, problem):
    prob = validate_problem(problem)
    sol = solve(prob, SolverConfig(restarts=2, rng_seed=5))
    assigned = sol.assignment.y[:, :prob.k]
    if name == "hard-outlier-released":
        assert sol.released == {1}  # the far fixed center stays, the one in a blob moves
    if prob.has_outlier_column:
        assert sol.assignment.outlier_column.any()
    if name == "fractional-capacity":
        assert ((assigned > 1e-6) & (assigned < 1 - 1e-6)).any()
    if name == "unsorted-ids":
        assert prob.id_order.tolist() != list(range(prob.n))
    path = tmp_path / "solution.txt"
    write_solution(prob, sol, path)
    lines = path.read_text().splitlines()
    start = lines.index(f"points {prob.n}")
    end = next(i for i, line in enumerate(lines) if line.startswith("loads "))
    assert lines[start:end] == _per_point_rows(prob, sol)
    if prob.coords is not None:
        render_plot(prob, sol, tmp_path / "plot.svg")
        assert (tmp_path / "plot.svg").read_text() == _per_point_svg(prob, sol)


# Short byte strings that break CSV and document syntax: separators, line
# breaks, quotes, bytes that are not UTF-8, digits and signs.
_CHUNKS = st.one_of(
    st.sampled_from([b"", b",", b"\n", b"\r", b'"', b"\xff", b"\xc3", b"-", b"9", b"nan", b"1e999"]),
    st.binary(min_size=1, max_size=3),
)


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with one to four spans (up to three bytes, or the whole tail) replaced by a chunk."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out)))
        span = draw(st.sampled_from([0, 1, 2, 3, len(out)]))
        out[at:at + span] = draw(_CHUNKS)
    return bytes(out)


@pytest.mark.parametrize("load, data", [
    (load_points, b"id,x,y,w,gamma,a,q\n0,1.5,2.5,3,0.5,2,1\n1,0,0,1,,,\n"),
    (load_candidates, b"id,x,y\n0,1,2\n1,3,4\n"),
    (load_matrix, b"0,1.5\n3,0\n"),
    (load_fixed, b"x,y\n1,2\n3,4\n"),
    (load_fixed, b"site\n0\n2\n"),
    (load_labels, b"id,label\n0,1\n1,-1\n"),
], ids=["points", "candidates", "matrix", "fixed-xy", "fixed-site", "labels"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(draw=st.data())
def test_mutated_csv_loads_or_raises_parse_error(tmp_path_factory, load, data, draw):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(draw.draw(mutated(data)))
    try:
        load(path)
    except ParseError:
        pass


@pytest.fixture(scope="module")
def written(solved, tmp_path_factory):
    prob, sol = solved
    directory = tmp_path_factory.mktemp("written")
    write_solution(prob, sol, directory / "solution.txt")
    write_labels(directory / "truth.csv", [p.id for p in prob.points], sol.assignment.hard_labels())
    return directory


@settings(max_examples=80, deadline=None, derandomize=True)
@given(draw=st.data())
def test_evaluate_mutated_document_exits_0_or_3(written, draw):
    doc = written / "mutated.txt"
    doc.write_bytes(draw.draw(mutated((written / "solution.txt").read_bytes())))
    assert main(["evaluate", "--solution", str(doc), "--truth", str(written / "truth.csv")]) in (0, 3)
