import numpy as np
import pytest
from scipy import stats

from capclust import GenSpec, generate_dataset, sample_gamma_copula_cluster
from capclust.model import NOISE_LABEL


def small_spec(**kw):
    defaults = dict(cluster_sizes=(5, 8, 12), scale_range=(0.0, 1.0), n_outliers=4, rng_seed=3)
    defaults.update(kw)
    return GenSpec(**defaults)


def test_label_counts_match_cluster_sizes_exactly():
    spec = small_spec()
    points, labels = generate_dataset(spec)
    counts = [int((labels == c).sum()) for c in range(3)]
    assert counts == [5, 8, 12]
    assert int((labels == NOISE_LABEL).sum()) == 4
    assert len(points) == 5 + 8 + 12 + 4


def test_weights_inside_configured_range():
    points, _ = generate_dataset(small_spec(weight_range=(2.0, 9.0)))
    w = np.array([p.w for p in points])
    assert (w >= 2.0).all() and (w <= 9.0).all()


def test_outliers_inside_true_point_bounding_box():
    points, labels = generate_dataset(small_spec(n_outliers=15))
    xy = np.array([p.coords for p in points])
    true_xy = xy[labels != NOISE_LABEL]
    noise_xy = xy[labels == NOISE_LABEL]
    lo, hi = true_xy.min(axis=0), true_xy.max(axis=0)
    assert (noise_xy >= lo - 1e-12).all() and (noise_xy <= hi + 1e-12).all()


def test_deterministic_given_seed():
    a_pts, a_lab = generate_dataset(small_spec())
    b_pts, b_lab = generate_dataset(small_spec())
    assert np.array_equal(a_lab, b_lab)
    assert all(p.coords == q.coords and p.w == q.w for p, q in zip(a_pts, b_pts))


def test_no_outliers_means_no_noise_label():
    _, labels = generate_dataset(small_spec(n_outliers=0))
    assert NOISE_LABEL not in labels


def test_shrink_one_leaves_spread_unscaled():
    # shrink scales every cloud about its grid anchor, so per-cluster spread
    # under shrink 0.5 is exactly half the spread under shrink 1.
    full_pts, labels = generate_dataset(small_spec(shrink=1.0, n_outliers=0))
    half_pts, _ = generate_dataset(small_spec(shrink=0.5, n_outliers=0))
    full = np.array([p.coords for p in full_pts])
    half = np.array([p.coords for p in half_pts])
    for c in range(3):
        mask = labels == c
        assert np.allclose(full[mask].std(axis=0), 2 * half[mask].std(axis=0), rtol=1e-9)


def test_edge_weighted_clusters_grow_toward_rim():
    spec = small_spec(cluster_sizes=(40, 40), edge_weighted=(0,), n_outliers=0)
    points, labels = generate_dataset(spec)
    xy = np.array([p.coords for p in points])
    w = np.array([p.w for p in points])
    mask = labels == 0
    center = xy[mask].mean(axis=0)
    r = np.sqrt(((xy[mask] - center) ** 2).sum(axis=1))
    # weights correlate strongly with radius in the designated cluster
    assert np.corrcoef(r, w[mask])[0, 1] > 0.9


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        GenSpec(cluster_sizes=())
    with pytest.raises(ValueError):
        GenSpec(cluster_sizes=(3,), weight_range=(5.0, 1.0))
    with pytest.raises(ValueError):
        GenSpec(cluster_sizes=(3,), shrink=0.0)
    with pytest.raises(ValueError):
        GenSpec(cluster_sizes=(3,), rho=1.0)


@pytest.mark.parametrize("field", ["shape_range", "scale_range"])
@pytest.mark.parametrize("bounds", [(-1.0, 5.0), (0.0, 0.0), (0.0, -2.0), (float("nan"), 1.0),
                                    (0.0, float("inf"))])
def test_gamma_ranges_need_a_nonnegative_low_and_positive_high_end(field, bounds):
    with pytest.raises(ValueError, match=field):
        GenSpec(cluster_sizes=(3,), **{field: bounds})
    GenSpec(cluster_sizes=(3,), **{field: (0.0, 1e-3)})


@pytest.mark.parametrize("field, value", [
    ("weight_range", (float("nan"), 1.0)),
    ("weight_range", (1.0, float("inf"))),
    ("weight_range", (-5.0, 1.0)),
    ("grid_side", float("nan")),
    ("grid_side", float("inf")),
    ("grid_side", -3.0),
    ("grid_side", 0.0),
])
def test_bad_weight_range_and_grid_side_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        GenSpec(cluster_sizes=(3,), **{field: value})


@pytest.mark.parametrize("scale_range", [(0.0, 1e308), (0.0, 1e200)])
def test_scale_range_with_non_finite_draws_rejected(scale_range):
    with pytest.raises(ValueError, match="scale_range too large"):
        generate_dataset(GenSpec(scale_range=scale_range))


def test_zero_weight_low_end_and_positive_grid_side_accepted():
    points, _ = generate_dataset(small_spec(weight_range=(0.0, 2.0), grid_side=7.5))
    assert all(0.0 <= p.w <= 2.0 for p in points)


def test_zero_correlation_unit_shape_gives_exponential_marginals():
    rng = np.random.default_rng(55)
    sample = sample_gamma_copula_cluster(10_000, shape=(1.0, 1.0), scale=(2.0, 3.0),
                                         rho=0.0, rng=rng)
    for c, scale in ((0, 2.0), (1, 3.0)):
        stat = stats.kstest(sample[:, c], "expon", args=(0, scale))
        assert stat.pvalue > 0.01


def test_sample_mean_matches_gamma_mean_within_three_se():
    rng = np.random.default_rng(56)
    shape, scale = (4.0, 2.5), (1.5, 0.8)
    n = 10_000
    sample = sample_gamma_copula_cluster(n, shape, scale, rho=0.3, rng=rng)
    for c in range(2):
        mean = shape[c] * scale[c]
        se = np.sqrt(shape[c]) * scale[c] / np.sqrt(n)
        assert abs(sample[:, c].mean() - mean) < 3 * se


@pytest.mark.parametrize("rho", [-0.6, 0.6])
def test_sample_correlation_sign_matches_rho(rho):
    rng = np.random.default_rng(57)
    sample = sample_gamma_copula_cluster(10_000, (2.0, 5.0), (1.0, 2.0), rho=rho, rng=rng)
    got = np.corrcoef(sample[:, 0], sample[:, 1])[0, 1]
    assert np.sign(got) == np.sign(rho)
    assert abs(got) > 0.2


def test_benchmark_spec_produces_paper_scale_population():
    points, labels = generate_dataset(GenSpec.benchmark(rng_seed=1))
    assert len(points) == 520
    assert int((labels == NOISE_LABEL).sum()) == 20
    counts = sorted(int((labels == c).sum()) for c in range(10))
    assert counts == [20, 20, 40, 40, 50, 50, 60, 60, 80, 80]
