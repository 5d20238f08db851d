import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from capclust import (
    CenterSpec, Point, Problem, SolverConfig, euclidean, solve, sqeuclidean,
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


@pytest.mark.parametrize("row, column", [
    ("2,nan,1,3", 2), ("2,1,inf,3", 3), ("2,1,1,nan", 4), ("2,1,1,3,-inf", 5), ("2,1,1,3,0,Infinity", 6),
])
def test_non_finite_point_value_reports_line_and_column(tmp_path, row, column):
    f = tmp_path / "pts.csv"
    f.write_text(f"id,x,y,w,gamma,a\n1,0,0,2\n{row}\n")
    with pytest.raises(ParseError, match="not a finite number") as err:
        load_points(f)
    assert (err.value.line, err.value.column) == (3, column)


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


@pytest.mark.parametrize("load, data, line, column", [
    (load_points, b"id,x,y,w\n0,0,0,1\n1,\xff,0,1\n", 3, 3),
    (load_candidates, b"x,y\n1,2\n3\n", 3, 2),
    (load_labels, b"", 1, 0),
    (load_labels, b"id,label\n1,2\n3\n", 3, 2),
    (load_fixed, b"site\n\n \nx\n", 4, 1),
    (load_matrix, b"1," + b"2" * 200_000 + b"\n", 1, 0),
], ids=["not-utf8", "short-row", "empty", "short-label", "blank-rows", "field-over-limit"])
def test_malformed_csv_reports_line_and_column(tmp_path, load, data, line, column):
    f = tmp_path / "in.csv"
    f.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load(f)
    assert (err.value.line, err.value.column) == (line, column)


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
    ("loads 1\nl 0 nan\n", 5),
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
