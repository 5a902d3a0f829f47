"""Planar 1-median by grid scan: the reference that cross-checks the solver.

It shares no code path with Weiszfeld iteration.  The initial grid covers
the bounding box of the input points (the minimizer lies in their convex
hull) at the requested step; each refinement round re-scans a +/-2-cell
window around the incumbent at 10x resolution.

Each scan is ``kernels.grid_min_2d``, a pruned scan that is exact with
respect to the full one.  The distance sum is k-Lipschitz, so a block of
cells whose centre value, less k times the distance to its farthest cell and
a rounding margin 2δ, still lies strictly above the best value found so far
holds no minimum and is skipped.  Cells tied at the minimum are never
skipped, so value and cell are those of a scan of every cell, bit for bit.
The bound, δ and the tie argument are stated in ``kernels``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, VivianiError
from .kernels import grid_min_2d

_PAD_CELLS = 2


def grid_median(points, step: float = 1e-3, refine_rounds: int = 3,
                refine_factor: int = 10) -> tuple[np.ndarray, float]:
    """Return ``(point, objective)`` minimizing the distance sum on the grid.

    ``points`` is a (k, 2) array-like.  The result is an upper bound on the
    true minimum that tightens to ~(final step)^2 times the local curvature.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatch("grid search is implemented for 2-D point sets")
    if not np.all(np.isfinite(pts)):
        raise VivianiError("points must be finite")
    if step <= 0.0:
        raise VivianiError("step must be positive")
    px = np.ascontiguousarray(pts[:, 0])
    py = np.ascontiguousarray(pts[:, 1])

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    nx = int(math.ceil((hi[0] - lo[0]) / step)) + 1
    ny = int(math.ceil((hi[1] - lo[1]) / step)) + 1
    best, bix, biy = grid_min_2d(px, py, lo[0], lo[1], nx, ny, step)
    bx = lo[0] + bix * step
    by = lo[1] + biy * step

    for _ in range(refine_rounds):
        x0 = bx - _PAD_CELLS * step
        y0 = by - _PAD_CELLS * step
        step = step / refine_factor
        m = 2 * _PAD_CELLS * refine_factor + 1
        val, bix, biy = grid_min_2d(px, py, x0, y0, m, m, step)
        if val < best:
            best = val
            bx = x0 + bix * step
            by = y0 + biy * step

    return np.array([bx, by]), float(best)
