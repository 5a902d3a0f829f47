import math

import numpy as np
import pytest

import viviani.fermat as fermat
from viviani import (
    CoincidesWithAnchor,
    DimensionMismatch,
    MedianStatus,
    PointSet,
    VivianiError,
    direction_sum_at,
    geometric_median,
    grid_median,
    total_distance,
)

from helpers import equilateral_triangle, random_unit, rotation_2d

SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def count_norm_calls(monkeypatch) -> list:
    """Count ``np.linalg.norm`` calls from here on: the solver's distance
    evaluations, one per call whatever its batch."""
    norm = np.linalg.norm
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


class TestPointSet:
    def test_requires_points(self):
        with pytest.raises(VivianiError):
            PointSet(np.zeros((0, 2)))

    def test_requires_finite(self):
        with pytest.raises(VivianiError):
            PointSet(np.array([[0.0, np.inf]]))

    def test_single_point_ok(self):
        ps = PointSet(np.array([[1.0, 2.0, 3.0]]))
        assert ps.k == 1 and ps.dimension == 3


class TestTotalDistance:
    def test_three_four_five(self):
        assert total_distance((0, 0), np.array([[3.0, 4.0]])) == 5.0

    def test_at_an_input_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert total_distance((0, 0), pts) == 1.0

    def test_square_corners(self):
        assert total_distance((0, 0), SQUARE) == pytest.approx(4 * math.sqrt(2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            total_distance((0, 0, 0), SQUARE)


class TestDirectionSum:
    def test_zero_at_triangle_center(self):
        tri = equilateral_triangle(2.0)
        center = tri.mean(axis=0)
        assert np.linalg.norm(direction_sum_at(center, tri)) <= 1e-12

    def test_zero_at_square_center(self):
        assert np.linalg.norm(direction_sum_at((0, 0), SQUARE)) <= 1e-12

    def test_two_point_example(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        s = direction_sum_at((0.5, 0.5), pts)
        assert s == pytest.approx([0.0, -math.sqrt(2)], abs=1e-12)

    def test_coincides_with_anchor(self):
        with pytest.raises(CoincidesWithAnchor):
            direction_sum_at((1.0, 1.0), SQUARE)


class TestGeometricMedian:
    def test_equilateral_triangle_center(self):
        tri = equilateral_triangle(2.0, center=(5.0, -3.0))
        res = geometric_median(tri)
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert res.point == pytest.approx([5.0, -3.0], abs=1e-9)
        assert res.residual <= 3 * 3e-8

    def test_wide_angle_anchor(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [-10.0, 1.0]])
        res = geometric_median(pts)
        assert res.status is MedianStatus.ANCHOR_OPTIMUM
        assert res.anchor_index == 0
        assert res.point.tolist() == [0.0, 0.0]
        # anchor certificate holds
        others = pts[1:] - pts[0]
        cert = np.linalg.norm((others / np.linalg.norm(others, axis=1)[:, None]).sum(axis=0))
        assert cert <= 1.0 + 1e-9
        # brute force agrees the anchor is best
        _, obj = grid_median(pts, step=1e-2)
        assert res.objective <= obj + 1e-6

    def test_square_corners(self):
        res = geometric_median(SQUARE)
        assert res.point == pytest.approx([0.0, 0.0], abs=1e-9)
        assert res.objective == pytest.approx(4 * math.sqrt(2), abs=1e-9)

    def test_right_isoceles_interior(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = geometric_median(pts)
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        _, obj = grid_median(pts)
        assert res.objective <= obj + 1e-6

    def test_single_point(self):
        res = geometric_median(np.array([[2.0, 3.0]]))
        assert res.status is MedianStatus.ANCHOR_OPTIMUM
        assert res.anchor_index == 0
        assert res.objective == 0.0

    def test_duplicate_points_all_equal(self):
        pts = np.tile(np.array([[1.5, -2.0]]), (5, 1))
        res = geometric_median(pts)
        assert res.status is MedianStatus.ANCHOR_OPTIMUM
        assert res.objective == 0.0
        assert res.point.tolist() == [1.5, -2.0]

    def test_two_points_midpoint(self):
        pts = np.array([[0.0, 0.0], [2.0, 2.0]])
        res = geometric_median(pts)
        assert res.status is MedianStatus.NON_UNIQUE_COLLINEAR
        assert res.point == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_collinear_even_count(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [10.0, 10.0]])
        res = geometric_median(pts)
        assert res.status is MedianStatus.NON_UNIQUE_COLLINEAR
        # midpoint of the middle order statistics
        assert res.point == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_collinear_odd_count(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0]])
        res = geometric_median(pts)
        assert res.status is MedianStatus.NON_UNIQUE_COLLINEAR
        assert res.point == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(6, 2))
        a = geometric_median(pts)
        b = geometric_median(pts)
        assert a.point.tolist() == b.point.tolist()
        assert a.iterations == b.iterations

    def test_dimension_generic(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1, 1, size=(7, 5))
        res = geometric_median(pts)
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert np.linalg.norm(direction_sum_at(res.point, pts)) <= 7 * 1e-8


class TestSolverProperties:
    def test_monotone_descent(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            k = int(rng.integers(3, 9))
            pts = rng.uniform(-1, 1, size=(k, 2))
            res = geometric_median(pts, record_history=True)
            h = np.array(res.history)
            assert np.all(np.diff(h) <= 1e-12)

    def test_acceptance_instances_take_little_work(self, monkeypatch):
        # The rescue runs as soon as the fixed-point step slows, so these
        # end after a handful of steps instead of crawling to convergence.
        rng = np.random.default_rng(2024)
        calls = count_norm_calls(monkeypatch)
        histories = []
        for _ in range(200):
            k = int(rng.integers(3, 9))
            pts = rng.uniform(-1.0, 1.0, size=(k, 2))
            histories.append(geometric_median(pts, record_history=True).history)
        assert len(calls) <= 15000
        for h in histories:
            assert np.all(np.diff(h) <= 1e-12)  # non-increasing up to rounding

    def test_interior_certificate(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            k = int(rng.integers(3, 9))
            pts = rng.uniform(-1, 1, size=(k, 2))
            res = geometric_median(pts)
            if res.status is MedianStatus.INTERIOR_OPTIMUM:
                assert np.linalg.norm(direction_sum_at(res.point, pts)) <= k * 1e-8

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            k = int(rng.integers(3, 9))
            pts = rng.uniform(-1, 1, size=(k, 2))
            res = geometric_median(pts)
            _, obj = grid_median(pts)
            assert res.objective <= obj + 1e-6

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            k = int(rng.integers(3, 8))
            pts = rng.uniform(-1, 1, size=(k, 2))
            base = geometric_median(pts)
            R = rotation_2d(rng.uniform(0, 2 * np.pi))
            t = rng.uniform(-5, 5, size=2)
            moved = geometric_median(pts @ R.T + t)
            assert moved.point == pytest.approx(R @ base.point + t, abs=1e-8)
            assert moved.objective == pytest.approx(base.objective, abs=1e-8)

    def test_certificate_for_offset_shrunken_clouds(self):
        # tiny clouds far from the origin: the anchor capture ball can sit
        # below the floating-point resolution of the iterate, so anchor
        # optima must be certified directly rather than reached
        rng = np.random.default_rng(18)
        for _ in range(100):
            k = int(rng.integers(3, 9))
            pts = rng.uniform(-1, 1, size=(k, 2)) * 0.01 + rng.uniform(-5, 5, size=2)
            res = geometric_median(pts)
            if res.status is MedianStatus.INTERIOR_OPTIMUM:
                assert np.linalg.norm(direction_sum_at(res.point, pts)) <= k * 1e-8
            elif res.status is MedianStatus.ANCHOR_OPTIMUM:
                assert res.residual <= 1.0 + 1e-9

    def test_certificate_on_nearly_collinear_clouds(self):
        # almost-flat valleys stall the fixed-point iteration; the Newton
        # polish must still reach the certificate
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = int(rng.integers(3, 9))
            t = np.sort(rng.uniform(-1, 1, size=k))
            wobble = 10 ** rng.uniform(-8, -3)
            pts = np.column_stack([t, wobble * rng.uniform(-1, 1, size=k)])
            res = geometric_median(pts)
            assert res.iterations < 2000
            if res.status is MedianStatus.INTERIOR_OPTIMUM:
                assert np.linalg.norm(direction_sum_at(res.point, pts)) <= k * 1e-8

    def test_wide_angle_triangles_anchor_rule(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            # apex angle >= 120 degrees + 1e-3: the apex is the optimum
            ang = rng.uniform(2 * np.pi / 3 + 1e-3, np.pi - 0.05)
            r1, r2 = rng.uniform(0.5, 3.0, size=2)
            apex = rng.uniform(-2, 2, size=2)
            rot = rotation_2d(rng.uniform(0, 2 * np.pi))
            arms = np.array([[r1 * 1.0, 0.0], [r2 * np.cos(ang), r2 * np.sin(ang)]])
            pts = np.vstack([apex, apex + arms @ rot.T])
            res = geometric_median(pts)
            assert res.status is MedianStatus.ANCHOR_OPTIMUM
            assert res.anchor_index == 0
            assert np.allclose(res.point, apex)


def _exhaustive_anchor(pts, eta):
    """Reference for the pruned scan: test every anchor in index order."""
    for idx in range(pts.shape[0]):
        rnorm, mult, _ = fermat._anchor_certificate(pts, idx, eta)
        if rnorm <= mult + fermat.ANCHOR_SLACK:
            return idx
    return None


def _units(rng, m, n):
    v = rng.normal(size=(m, n))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _scan_instance(rng, family, n):
    k = int(rng.integers(3, 40))
    if family == "cloud":
        pts = rng.normal(size=(k, n))
    elif family == "duplicates":
        # m + 1 copies of one point against m + 0..2 others
        m = int(rng.integers(1, 5))
        pts = np.vstack([np.repeat(rng.normal(size=(1, n)), m + 1, axis=0),
                         rng.normal(size=(m + int(rng.integers(0, 3)), n))])
    elif family == "valley":
        t = np.sort(rng.uniform(-1, 1, size=k))
        wobble = 10 ** rng.uniform(-8, -2)
        pts = np.outer(t, random_unit(rng, n)) + wobble * rng.normal(size=(k, n))
    elif family == "star":
        # a centre with nearly opposite spokes: the centre is often optimal
        half = k // 2 + 1
        v = _units(rng, half, n)
        w = -v + rng.uniform(0, 0.3) * rng.normal(size=v.shape)
        w /= np.linalg.norm(w, axis=1)[:, None]
        c = rng.normal(size=n)
        pts = np.vstack([c, c + v * rng.uniform(0.2, 3, size=(half, 1)),
                         c + w * rng.uniform(0.2, 3, size=(half, 1))])
    else:  # ring around a centre point
        c = rng.normal(size=n)
        pts = np.vstack([c, c + _units(rng, k, n) * rng.uniform(0.5, 1.5)])
    return rng.permutation(pts * 10 ** rng.uniform(-3, 3))


class TestAnchorScan:
    FAMILIES = ("cloud", "duplicates", "valley", "star", "ring")

    def test_pruned_scan_matches_exhaustive(self):
        rng = np.random.default_rng(20)
        found = 0
        for trial in range(100):
            n = int(rng.choice([2, 3, 5]))
            pts = _scan_instance(rng, self.FAMILIES[trial % 5], n)
            spread = fermat._spread(pts)
            eta = fermat.ANCHOR_ETA * spread
            expected = _exhaustive_anchor(pts, eta)
            found += expected is not None
            median = geometric_median(pts).point
            probes = [median + 10 ** rng.uniform(-12, 0) * spread * random_unit(rng, n)
                      for _ in range(3)]
            probes.append(pts.mean(axis=0))
            i = int(rng.integers(pts.shape[0]))
            probes.append(pts[i] + 1e-9 * spread * random_unit(rng, n))
            for X in probes:
                near = int(np.argmin(np.linalg.norm(pts - X, axis=1)))
                hit = fermat._certified_anchor(pts, X, eta, near)
                assert (None if hit is None else hit[0]) == expected
        assert 20 <= found <= 80  # both outcomes are exercised

    def test_rescue_tests_few_anchors(self, monkeypatch):
        calls = []
        certificate = fermat._anchor_certificate

        def counted(*args):
            calls.append(args[1])
            return certificate(*args)

        monkeypatch.setattr(fermat, "_anchor_certificate", counted)
        pts = np.random.default_rng(0).normal(size=(2000, 3))
        res = geometric_median(pts)
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert len(calls) <= 10


class TestNewtonPolish:
    @pytest.mark.parametrize("seed, k", [(6, 5000), (11, 2000)])
    def test_polish_ends_without_stalling(self, seed, k):
        pts = np.random.default_rng(seed).normal(size=(k, 3))
        res = geometric_median(pts, record_history=True)
        h = np.array(res.history)
        assert len(h) <= 30
        assert np.all(np.diff(h) <= 1e-12)
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert np.linalg.norm(direction_sum_at(res.point, pts)) <= fermat.RESIDUAL_TARGET

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_polish_stops_below_float_spacing(self, seed, monkeypatch):
        # Neighbouring floats near 1e12 are 1.2e-4 apart, so the polish soon
        # proposes steps that round back to X.  It must give up at once
        # instead of halving the step 60 times on each of its attempts.
        pts = np.random.default_rng(seed).normal(size=(7, 2)) + 1e12
        norm = np.linalg.norm
        polish = fermat._newton_polish
        changes = []

        def watched(pts, X, *args):
            Y = polish(pts, X, *args)
            before = norm(pts - X, axis=1).sum()
            changes.append(norm(pts - Y, axis=1).sum() - before)
            return Y

        monkeypatch.setattr(fermat, "_newton_polish", watched)
        calls = count_norm_calls(monkeypatch)
        geometric_median(pts)
        assert len(calls) <= 150
        assert changes and max(changes) <= 0.0

    def test_anchor_crawl_ends_in_few_evaluations(self, monkeypatch):
        # Weiszfeld contracts slowly here, and a Newton step started early
        # is pulled toward a non-optimal anchor by its 1/d curvature: with
        # no cap on its line search it zig-zags in at 20-30 halvings a step.
        pts = np.array([[0.20035193, 1.10638436], [-0.38464513, -0.37840187],
                        [0.03263215, 0.72138213], [1.10574733, -0.61397436],
                        [-0.61100375, 0.48235737], [0.42739118, 0.88109948]])
        calls = count_norm_calls(monkeypatch)
        res = geometric_median(pts)
        evaluations = len(calls)
        monkeypatch.undo()
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert np.linalg.norm(direction_sum_at(res.point, pts)) <= len(pts) * 1e-8
        assert evaluations <= 100

    def test_optimum_beside_a_close_pair(self, monkeypatch):
        # The optimum lies 6e-5 from a pair of points 2.2e-5 apart.  Weiszfeld
        # crawls toward the pair, and full Newton steps overshoot it by far
        # more than a few halvings can correct; the first trial has to stop
        # short of the pair for the polish to get there.
        pts = np.array([[0.06938911, -0.44405775], [-0.14658296, -0.34541768],
                        [-0.37095435, 0.80772057], [-0.37093939, 0.80770428]])
        calls = count_norm_calls(monkeypatch)
        res = geometric_median(pts)
        evaluations = len(calls)
        monkeypatch.undo()
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert np.linalg.norm(direction_sum_at(res.point, pts)) <= len(pts) * 1e-8
        assert evaluations <= 150
