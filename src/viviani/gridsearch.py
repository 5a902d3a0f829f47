"""Planar 1-median by grid scan, a reference that shares no code path with
Weiszfeld iteration.

Only the benchmark's trace-mode cross-check (``perfbench``) still runs it;
the tests judge the solver by the duality gap and by closed forms.  This
module stays until the benchmark's next change drops that check.

The initial grid covers the bounding box of the input points (the minimizer
lies in their convex hull) at the requested step; each refinement round
re-scans a +/-2-cell window around the incumbent at 10x resolution.  Each
scan is ``kernels.grid_min_2d``, looked up in this module at call time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, VivianiError
from .kernels import grid_min_2d

_PAD_CELLS = 2
_REFINE_FACTOR = 10


def grid_median(points, step: float = 1e-3,
                refine_rounds: int = 3) -> tuple[np.ndarray, float]:
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
        step = step / _REFINE_FACTOR
        m = 2 * _PAD_CELLS * _REFINE_FACTOR + 1
        val, bix, biy = grid_min_2d(px, py, x0, y0, m, m, step)
        if val < best:
            best = val
            bx = x0 + bix * step
            by = y0 + biy * step

    return np.array([bx, by]), float(best)
