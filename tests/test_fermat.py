import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import viviani
import viviani.fermat as fermat
from viviani import (
    CoincidesWithAnchor,
    DimensionMismatch,
    MedianStatus,
    PointSet,
    VivianiError,
    direction_sum_at,
    fermat_to_viviani,
    geometric_median,
    grid_median,
    total_distance,
)

from helpers import count_calls, equilateral_triangle, random_unit, rotation_2d

#: The fixed planar set whose rescaled copies the median benchmark solves.
SCALE_BASE = np.array([[0.0, 0.0], [3.0, 0.5], [1.0, 2.5], [2.2, -1.3], [-0.7, 1.1]])

SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def count_distance_passes(monkeypatch) -> list:
    """Count calls of ``fermat._distances`` from here on: the solver's
    distance passes, one per call whatever its batch."""
    return count_calls(monkeypatch, fermat, "_distances")


def count_svd_calls(monkeypatch) -> list:
    """Count ``np.linalg.svd`` calls from here on."""
    return count_calls(monkeypatch, np.linalg, "svd")


def record_anchor_tests(monkeypatch) -> list:
    """Record the anchor index of every ``fermat._anchor_certificate`` call
    from here on; each call still runs."""
    tested = []
    certificate = fermat._anchor_certificate

    def recorded(pts, idx, *rest):
        tested.append(idx)
        return certificate(pts, idx, *rest)

    monkeypatch.setattr(fermat, "_anchor_certificate", recorded)
    return tested


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

    def test_points_are_column_major_and_read_only(self):
        src = np.arange(12.0).reshape(4, 3)
        ps = PointSet(src)
        assert ps.points.flags.f_contiguous
        assert not ps.points.flags.writeable
        assert ps.points.tolist() == src.tolist()
        assert not np.shares_memory(ps.points, src)


class TestNorm:
    def test_bit_identical_to_numpy(self):
        # One vector per case, entries spread from 1e-200 to 1e200 so that
        # the sum of squares overflows or underflows in some of them: both
        # sides must then give the same inf or 0.
        rng = np.random.default_rng(30)
        overflowed = underflowed = 0
        with np.errstate(over="ignore", under="ignore"):
            for trial in range(3000):
                n = int(rng.integers(1, 40))
                v = rng.normal(size=n)
                if trial % 3:
                    v *= 10.0 ** rng.choice([-200.0, 200.0], size=n if trial % 2 else 1)
                expected = float(np.linalg.norm(v))
                assert fermat._norm(v) == expected
                overflowed += expected == math.inf
                underflowed += expected == 0.0
        assert overflowed >= 100 and underflowed >= 100


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

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"max_iter": 0}, {"max_iter": -3},
    ], ids=["tol=0", "tol=-1", "tol=nan", "max_iter=0", "max_iter=-3"])
    def test_bad_arguments_rejected_before_the_points(self, kwargs):
        # No iterate would back the answer's status, so nothing is solved;
        # the arguments are checked before the points are even read.
        with pytest.raises(VivianiError, match="tol must be positive|max_iter must be"):
            geometric_median(np.zeros((0, 2)), **kwargs)
        with pytest.raises(VivianiError, match="tol must be positive|max_iter must be"):
            geometric_median(SQUARE, **kwargs)

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


    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
    def test_capture_restart_leaves_its_point(self, offset):
        # The centroid is point 0, which is not optimal (its direction sum
        # has norm 1.99), so the first pass restarts from it.  At +1e9 a
        # restart of eta * 1e3 is below the float spacing there and would
        # round back onto the point, pass after pass, until max_iter.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.1], [1.0, -0.1],
                        [-3.0, 0.0]]) + offset
        res = geometric_median(pts)
        assert res.iterations <= 50
        assert res.objective < total_distance(pts[0], pts)


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
        calls = count_distance_passes(monkeypatch)
        histories = []
        for _ in range(200):
            k = int(rng.integers(3, 9))
            pts = rng.uniform(-1.0, 1.0, size=(k, 2))
            histories.append(geometric_median(pts, record_history=True).history)
        assert len(calls) <= 4000
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


def _collinearity_corpus(rng):
    """Point sets on and near a line: exact, with relative noise 1e-16 to
    1e-8, scales 1e-5 to 1e5, k = 3..30, n = 2..5, some with duplicates;
    plus k = 2 and n = 1."""
    for trial in range(3000):
        if trial % 50 == 0:
            yield rng.normal(size=(2, int(rng.integers(1, 6))))
            continue
        if trial % 50 == 1:
            yield rng.normal(size=(int(rng.integers(2, 31)), 1))
            continue
        k, n = int(rng.integers(3, 31)), int(rng.integers(2, 6))
        t = rng.uniform(-1.0, 1.0, size=k)
        pts = rng.normal(size=n) + np.outer(t, random_unit(rng, n))
        if trial % 4:
            pts = pts + 10 ** rng.uniform(-16, -8) * rng.normal(size=(k, n))
        if trial % 7 == 0:
            pts[rng.integers(k, size=k // 3)] = pts[0]
        yield pts * 10 ** rng.uniform(-5, 5)


class TestCollinearity:
    def test_certificate_keeps_the_svd_verdict(self, monkeypatch):
        svd = np.linalg.svd
        calls = count_svd_calls(monkeypatch)
        verdicts = {True: 0, False: 0}
        cleared = 0
        for pts in _collinearity_corpus(np.random.default_rng(21)):
            C = pts - pts.mean(axis=0)
            before = len(calls)
            line = fermat._is_collinear(C, fermat._distances(C))
            cleared += len(calls) == before
            k, n = C.shape
            s = svd(C, full_matrices=False)[1]
            expected = n == 1 or k == 2 or bool(s[1] <= fermat.COLLINEAR_RATIO * s[0])
            assert (line is not None) == expected
            verdicts[expected] += 1
            if line is not None:
                assert abs(np.linalg.norm(line) - 1.0) <= 1e-12
        # both verdicts occur, and the certificate alone settles many sets
        assert min(verdicts.values()) >= 500
        assert cleared >= 500

    def test_large_noncollinear_solve_runs_no_svd(self, monkeypatch):
        calls = count_svd_calls(monkeypatch)
        res = geometric_median(np.random.default_rng(3).normal(size=(1000, 50)))
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert calls == []


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

    def test_rescue_tests_few_anchors(self, monkeypatch):
        tested = record_anchor_tests(monkeypatch)
        pts = np.random.default_rng(0).normal(size=(2000, 3))
        res = geometric_median(pts)
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert len(tested) <= 10

    def test_each_anchor_is_tested_once_per_solve(self, monkeypatch):
        # The anchor condition depends on the points alone, so no solve
        # needs to test an anchor twice, however often it comes near it.
        rng = np.random.default_rng(20)
        sets = [_scan_instance(rng, self.FAMILIES[trial % 5], int(rng.choice([2, 3, 5])))
                for trial in range(300)]
        sets += [SCALE_BASE * scale for scale in (1e-300, 1e-160, 1e160)]
        tested = record_anchor_tests(monkeypatch)
        anchors = several = 0
        with np.errstate(over="ignore"):  # the 1e160 copy overflows its norms
            for pts in sets:
                tested.clear()
                res = geometric_median(pts)
                assert len(tested) == len(set(tested))
                anchors += res.status is MedianStatus.ANCHOR_OPTIMUM
                several += len(tested) >= 2
        assert anchors >= 50 and several >= 20

    @pytest.mark.parametrize("pts, optimal", [
        # The polish walks toward point 1, which is optimal.  Tested only as
        # the nearest anchor, it is reached by halving the distance each
        # Newton step, about 40 passes; tested when it caps the polish's
        # step, it is taken at once.
        ([[-0.7258660708708504, -0.043587246452589115],
          [0.4503053944510131, -0.27637280066013115],
          [0.41565984569573067, -0.2379548810517778],
          [0.6692205367701218, -0.3227443771154724]], 1),
        # A flat valley: the polish walks along it toward point 1, which
        # fails its certificate by 3e-7, and point 0 just beyond it is
        # optimal.  Tested once point 1 has capped a second step, point 0
        # ends the solve; else the polish crawls onto point 1 by halves
        # (about 45 passes) before the capture restart gets past it.
        ([[-2.0206228582445753, 0.8045620876943644], [-2.03111415356723, 0.7645257073474933],
          [-2.338561239623574, -0.40676171284501916], [-2.150588182810179, 0.30946134327031327],
          [-2.0144702756988693, 0.8280285763139501], [-1.9533848820085915, 1.0606883487388379],
          [-2.4345838130992705, -0.7722210789544864], [-1.979649867194779, 0.9606302009611757]], 0),
    ], ids=["capped-point", "beyond-a-failing-point"])
    def test_anchor_met_by_the_polish_ends_the_solve(self, pts, optimal, monkeypatch):
        calls = count_distance_passes(monkeypatch)
        res = geometric_median(np.array(pts))
        assert res.status is MedianStatus.ANCHOR_OPTIMUM
        assert res.anchor_index == optimal
        assert len(calls) <= 12

    def test_lowest_passing_copy_is_reported(self):
        # Three copies of one point, apart by far less than the coincidence
        # threshold, outweigh the two others wherever they sit in the list.
        # Each copy passes, whichever the solver meets first; the lowest
        # index among them is reported.
        rng = np.random.default_rng(31)
        for _ in range(20):
            copies = rng.normal(size=(1, 2)) + 1e-15 * rng.normal(size=(3, 2))
            pts = np.vstack([copies, rng.normal(size=(2, 2))])
            order = rng.permutation(5)
            res = geometric_median(pts[order])
            assert res.status is MedianStatus.ANCHOR_OPTIMUM
            assert res.anchor_index == int(np.flatnonzero(order < 3)[0])


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

        def watched(pts, X, *args, **kwargs):
            out = polish(pts, X, *args, **kwargs)
            before = norm(pts - X, axis=1).sum()
            changes.append(norm(pts - out[0], axis=1).sum() - before)
            return out

        monkeypatch.setattr(fermat, "_newton_polish", watched)
        calls = count_distance_passes(monkeypatch)
        geometric_median(pts)
        assert len(calls) <= 60
        assert changes and max(changes) <= 0.0

    def test_anchor_crawl_ends_in_few_evaluations(self, monkeypatch):
        # Weiszfeld contracts slowly here, and a Newton step started early
        # is pulled toward a non-optimal anchor by its 1/d curvature: with
        # no cap on its line search it zig-zags in at 20-30 halvings a step.
        pts = np.array([[0.20035193, 1.10638436], [-0.38464513, -0.37840187],
                        [0.03263215, 0.72138213], [1.10574733, -0.61397436],
                        [-0.61100375, 0.48235737], [0.42739118, 0.88109948]])
        calls = count_distance_passes(monkeypatch)
        res = geometric_median(pts)
        evaluations = len(calls)
        monkeypatch.undo()
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert np.linalg.norm(direction_sum_at(res.point, pts)) <= len(pts) * 1e-8
        assert evaluations <= 40

    def test_optimum_beside_a_close_pair(self, monkeypatch):
        # The optimum lies 6e-5 from a pair of points 2.2e-5 apart.  Weiszfeld
        # crawls toward the pair, and full Newton steps overshoot it by far
        # more than a few halvings can correct; the first trial has to stop
        # short of the pair for the polish to get there.
        pts = np.array([[0.06938911, -0.44405775], [-0.14658296, -0.34541768],
                        [-0.37095435, 0.80772057], [-0.37093939, 0.80770428]])
        calls = count_distance_passes(monkeypatch)
        res = geometric_median(pts)
        evaluations = len(calls)
        monkeypatch.undo()
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert np.linalg.norm(direction_sum_at(res.point, pts)) <= len(pts) * 1e-8
        assert evaluations <= 50


class TestWorkspace:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts the minor page faults of glibc's allocator")
    def test_large_solves_reuse_their_memory(self):
        # Each solve allocates its (k, n) memory as one block, so glibc keeps
        # the pages for the next solve instead of handing them back to the
        # OS.  A fresh interpreter: earlier allocations in this process can
        # raise the allocator's thresholds and hide the faults.  Its
        # environment sets no malloc tunable and preloads no other
        # allocator, so it measures glibc's default thresholds.
        src = str(Path(viviani.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("MALLOC_", "GLIBC_TUNABLES", "LD_PRELOAD"))}
        env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        code = textwrap.dedent("""
            import resource
            import numpy as np
            from viviani import geometric_median
            for k, n in [(1000, 50), (10000, 3)]:
                pts = np.random.default_rng(5).normal(size=(k, n))
                for _ in range(2):
                    geometric_median(pts)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                for _ in range(10):
                    geometric_median(pts)
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        faults = [int(line) for line in proc.stdout.split()]
        assert len(faults) == 2 and max(faults) < 100, faults

    def test_polish_hands_back_the_differences_of_its_point(self, monkeypatch):
        # The polish's slabs and the certificates' scratch are distinct: an
        # anchor tested mid-polish must not overwrite the live differences.
        polish = fermat._newton_polish
        checked = []

        def watched(pts, *args, **kwargs):
            X, diff, d, hit = polish(pts, *args, **kwargs)
            checked.append(np.array_equal(diff, pts - X)
                           and np.array_equal(d, fermat._distances(pts - X)))
            return X, diff, d, hit

        monkeypatch.setattr(fermat, "_newton_polish", watched)
        rng = np.random.default_rng(960000)
        for _ in range(400):
            # near-collinear sets, as in the planar benchmark's flat valleys
            k = int(rng.integers(5, 9))
            e = random_unit(rng, 2)
            t = rng.uniform(-1.0, 1.0, k)
            w = 10.0 ** rng.uniform(-6.0, -3.0) * rng.normal(size=k)
            geometric_median(rng.normal(size=2) + t[:, None] * e
                             + w[:, None] * np.array([-e[1], e[0]]))
        assert len(checked) >= 100 and all(checked)

    def test_distance_passes_take_few_arrays(self):
        # One frame copy of the points, differences taken in place over it,
        # and the normals divided in place: a (k, n) float array is a slab.
        k, n = 100000, 3
        slab = k * n * 8
        pts = np.random.default_rng(3).normal(size=(k, n))
        P = geometric_median(pts).point
        tracemalloc.start()
        try:
            total_distance(np.full(n, 0.25), pts)
            distance_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            fermat_to_viviani(pts, P)
            dual_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert distance_peak <= 3 * slab
        assert dual_peak <= 4 * slab
