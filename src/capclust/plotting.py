"""Static SVG rendering of a solved instance.

The SVG is written directly (no plotting library) so output is
byte-identical across runs for the same solution: points as circles
colored by hardened cluster, marker area proportional to demand, centers
as crosses, fixed centers as squares, outliers as hollow markers.
"""

from __future__ import annotations

import numpy as np

from .errors import CapclustError
from .model import NOISE_LABEL, Problem, Solution

PALETTE = [
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
]

_W, _H, _MARGIN = 720.0, 560.0, 40.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def can_plot(problem: Problem) -> bool:
    """Plots need point coordinates and, under discrete placement, site coordinates."""
    if problem.coords is None:
        return False
    return problem.placement != "discrete" or problem.centers.candidates is not None


def render_plot(problem: Problem, solution: Solution, path) -> None:
    """Write the solution as an SVG file; requires coordinate geometry."""
    if not can_plot(problem):
        raise CapclustError("cannot plot an instance without coordinates for points and sites")
    xy = problem.coords
    spec = problem.centers
    if problem.placement == "discrete":
        centers_xy = spec.candidates[np.asarray(solution.centers, dtype=int)]
    else:
        centers_xy = np.asarray(solution.centers, dtype=float)

    everything = np.vstack([xy, centers_xy])
    lo = everything.min(axis=0)
    hi = everything.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)

    def scaled(at: np.ndarray) -> tuple[list[float], list[float]]:
        """SVG x and y of each row of ``at``."""
        sx = _MARGIN + (at[:, 0] - lo[0]) / span[0] * (_W - 2 * _MARGIN)
        sy = _H - _MARGIN - (at[:, 1] - lo[1]) / span[1] * (_H - 2 * _MARGIN)
        return sx.tolist(), sy.tolist()

    labels = solution.assignment.hard_labels()
    w = problem.weights
    wmax = float(w.max()) if w.size and w.max() > 0 else 1.0
    radii = 1.5 + 4.5 * np.sqrt(np.maximum(w, 0.0) / wmax)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        f'<rect width="{int(_W)}" height="{int(_H)}" fill="white"/>',
    ]
    for cx, cy, r, label in zip(*scaled(xy), radii.tolist(), labels.tolist()):
        if label == NOISE_LABEL:
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="none" '
                f'stroke="#333333" stroke-width="1.2"/>'
            )
        else:
            color = PALETTE[label % len(PALETTE)]
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{color}" fill-opacity="0.75"/>'
            )
    for j, (cx, cy) in enumerate(zip(*scaled(centers_xy))):
        if j < spec.n_fixed and j not in solution.released:
            parts.append(
                f'<rect x="{_fmt(cx - 5)}" y="{_fmt(cy - 5)}" width="10" height="10" '
                f'fill="none" stroke="black" stroke-width="2"/>'
            )
        parts.append(
            f'<path d="M {_fmt(cx - 6)} {_fmt(cy)} H {_fmt(cx + 6)} M {_fmt(cx)} {_fmt(cy - 6)} '
            f'V {_fmt(cy + 6)}" stroke="black" stroke-width="2.2"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
