"""Capacitated, constrained spatial clustering and location-allocation.

Minimizes weighted point-to-center distances plus outlier, opening-cost
and center-release penalties under membership and capacity constraints,
by block coordinate descent with exact allocation subproblem solvers.

The public names below load their submodule on first access (PEP 562), so
``import capclust`` costs nothing until a name is used; a lookup returns
the submodule's current binding and stores nothing here.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it (a submodule maps to itself)
_HOME = {
    "errors": "errors",
    "allocate": "allocation",
    **dict.fromkeys(("GenSpec", "generate_dataset", "sample_gamma_copula_cluster"), "datagen"),
    **dict.fromkeys(("adjusted_rand_index", "distance_summary", "solution_labels"), "evaluation"),
    **dict.fromkeys(("decide_release", "update_center_discrete", "update_centers_continuous"), "location"),
    **dict.fromkeys(("MetricSpec", "euclidean", "manhattan", "matrix_metric", "sqeuclidean", "threshold"), "metrics"),
    **dict.fromkeys(("Assignment", "CenterSpec", "ObjectiveBreakdown", "Point", "PointTable", "Problem", "Solution",
                     "evaluate_objective", "validate_problem"), "model"),
    **dict.fromkeys(("SweepReport", "aic_bic_lambda", "sweep_k"), "selection"),
    **dict.fromkeys(("SolverConfig", "descend", "kmeanspp_init", "solve"), "solver"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
