import inspect

import pytest

import capclust
from capclust import solver


PUBLIC = [
    "Assignment", "CenterSpec", "GenSpec", "MetricSpec", "ObjectiveBreakdown", "Point", "PointTable", "Problem",
    "Solution", "SolverConfig", "SweepReport", "adjusted_rand_index", "aic_bic_lambda", "allocate",
    "decide_release", "descend", "distance_summary", "errors", "euclidean", "evaluate_objective",
    "generate_dataset", "kmeanspp_init", "manhattan", "matrix_metric", "sample_gamma_copula_cluster", "solution_labels", "solve", "sqeuclidean",
    "sweep_k", "threshold", "update_center_discrete", "update_centers_continuous", "validate_problem",
]


def test_the_public_names_are_exactly_these():
    # A public name is added or dropped only by editing this list.
    assert capclust.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in capclust.__all__:
        obj = getattr(capclust, name)
        assert obj is not None
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__.startswith("capclust.")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from capclust import *", namespace)
    assert set(capclust.__all__) <= set(namespace)
    assert namespace["solve"] is solver.solve


def test_dir_lists_every_public_name():
    assert set(capclust.__all__) <= set(dir(capclust))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        capclust.no_such_name  # noqa: B018


def test_lookups_cache_no_function_in_the_package(monkeypatch):
    # A wrapper rebound in the defining module must be what the package
    # returns, so the package namespace may hold no copy of a function.
    for name in capclust.__all__:
        getattr(capclust, name)
    assert not set(vars(capclust)) & (set(capclust.__all__) - {"errors"})
    monkeypatch.setattr(solver, "solve", lambda *args, **kwargs: None)
    assert capclust.solve is solver.solve
