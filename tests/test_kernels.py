"""The grid kernel against reference scans, and grid-search sanity.

The grid serves only the benchmark's trace-mode cross-check; the solver's
tests judge its answers by the duality gap and by closed forms.

``grid_min_2d`` scans the grid in chunks of rows.  ``whole_grid_scan``
evaluates the same per-cell formula on the whole grid at once, so the two
must agree bit for bit, ties included, wherever the chunk boundaries fall.
``naive_scan`` is a pure-Python ``math.hypot`` reference.
"""

import math

import numpy as np
import pytest

from viviani.errors import DimensionMismatch
from viviani.gridsearch import grid_median
from viviani.kernels import grid_min_2d


def whole_grid_scan(px, py, x0, y0, nx, ny, step):
    """The kernel's cell formula on the whole grid in one array.

    Returns ``(best_value, best_ix, best_iy)`` for the first minimal cell in
    row-major (iy-outer) order.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    xs = x0 + step * np.arange(nx)
    ys = y0 + step * np.arange(ny)
    acc = np.zeros((ny, nx))
    for j in range(px.size):
        dx = xs - px[j]
        dy = ys - py[j]
        acc += np.sqrt(dx * dx + (dy * dy)[:, None])
    flat = int(np.argmin(acc))
    return float(acc.flat[flat]), flat % nx, flat // nx


def naive_scan(px, py, x0, y0, nx, ny, step):
    best, bix, biy = math.inf, 0, 0
    for iy in range(ny):
        for ix in range(nx):
            x, y = x0 + ix * step, y0 + iy * step
            v = sum(math.hypot(x - a, y - b) for a, b in zip(px, py))
            if v < best:
                best, bix, biy = v, ix, iy
    return best, bix, biy


def assert_exact(px, py, x0, y0, nx, ny, step):
    got = grid_min_2d(px, py, x0, y0, nx, ny, step)
    assert got == whole_grid_scan(px, py, x0, y0, nx, ny, step)
    assert type(got[0]) is float
    value, ix, iy = got
    x, y = x0 + ix * step, y0 + iy * step
    assert value == pytest.approx(
        math.fsum(math.hypot(x - a, y - b) for a, b in zip(px, py)), rel=1e-12)
    return got


def test_matches_naive_scan():
    rng = np.random.default_rng(0)
    for _ in range(5):
        k = int(rng.integers(1, 6))
        px = rng.uniform(-1, 1, size=k)
        py = rng.uniform(-1, 1, size=k)
        got = grid_min_2d(px, py, -0.5, -0.25, 7, 9, 0.17)
        want = naive_scan(px, py, -0.5, -0.25, 7, 9, 0.17)
        assert got[1:] == want[1:]
        assert got[0] == pytest.approx(want[0], rel=1e-12)


def test_rejects_empty():
    with pytest.raises(ValueError):
        grid_min_2d(np.empty(0), np.empty(0), 0.0, 0.0, 3, 3, 0.1)


class TestExactAgainstExhaustiveScan:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_seeded_sets(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(3):
            px = rng.uniform(-1, 1, size=k)
            py = rng.uniform(-1, 1, size=k)
            nx, ny = (int(n) for n in rng.integers(150, 301, size=2))
            step = 2.0 / max(nx, ny)
            assert_exact(px, py, -1.0, -1.0, nx, ny, step)

    def test_refine_windows(self):
        # the 41x41 windows grid_median re-scans around its incumbent
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(3, 9))
            pts = rng.uniform(-1, 1, size=(k, 2))
            cx, cy = pts.mean(axis=0)
            for step in (1e-4, 1e-5, 1e-6):
                assert_exact(pts[:, 0], pts[:, 1], cx - 20 * step, cy - 20 * step,
                             41, 41, step)

    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 300), (300, 1), (2, 300),
                                       (300, 2), (1, 65), (64, 1), (3, 129)])
    def test_thin_grids(self, nx, ny):
        rng = np.random.default_rng(nx * 1000 + ny)
        for k in (1, 3, 8):
            px = rng.uniform(-1, 1, size=k)
            py = rng.uniform(-1, 1, size=k)
            assert_exact(px, py, -1.0, -1.0, nx, ny, 2.0 / max(nx, ny))

    def test_ties_in_a_symmetric_square(self):
        corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        step, n = 1.0 / 64, 128
        x0 = -(n - 1) / 2 * step
        value, ix, iy = assert_exact(corners[:, 0], corners[:, 1], x0, x0, n, n, step)

        def at(cell):  # a 1x1 scan computes the cell's value by the same formula
            cx, cy = cell
            return whole_grid_scan(corners[:, 0], corners[:, 1], x0 + step * cx,
                                   x0 + step * cy, 1, 1, step)[0]

        centre = [(63, 63), (64, 63), (63, 64), (64, 64)]  # iy-outer order
        ties = [cell for cell in centre if at(cell) == value]
        assert len(ties) > 1
        assert (ix, iy) == ties[0]

    def test_ties_along_a_segment(self):
        # every cell on the segment between two points has the value 1 exactly
        got = assert_exact([0.0, 1.0], [0.0, 0.0], -0.5, -0.5, 256, 128, 1.0 / 64)
        assert got == (1.0, 32, 32)

    def test_duplicate_points(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(4, 2))
        pts = np.vstack([pts, pts[:3], pts[:1]])
        assert_exact(pts[:, 0], pts[:, 1], -1.0, -1.0, 257, 201, 1.0 / 128)

    def test_offset_origin(self):
        rng = np.random.default_rng(12)
        pts = 1e6 + rng.uniform(-1, 1, size=(6, 2))
        lo = pts.min(axis=0)
        assert_exact(pts[:, 0], pts[:, 1], lo[0], lo[1], 300, 300, 1e-2)
        assert_exact(pts[:, 0], pts[:, 1], lo[0], lo[1], 41, 41, 1e-7)


class TestGridMedian:
    def test_single_point(self):
        p, v = grid_median(np.array([[0.3, -0.7]]))
        assert v == pytest.approx(0.0, abs=1e-9)
        assert p == pytest.approx([0.3, -0.7], abs=1e-6)

    def test_square_center(self):
        corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        p, v = grid_median(corners, step=1e-2)
        assert p == pytest.approx([0.0, 0.0], abs=1e-4)
        assert v == pytest.approx(4 * math.sqrt(2), abs=1e-7)

    def test_refinement_tightens(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(5, 2))
        _, coarse = grid_median(pts, step=1e-2, refine_rounds=0)
        _, fine = grid_median(pts, step=1e-2, refine_rounds=3)
        assert fine <= coarse + 1e-15

    def test_requires_2d(self):
        with pytest.raises(DimensionMismatch):
            grid_median(np.zeros((3, 3)))
