import math

import numpy as np
import pytest

from viviani import (
    CoincidesWithAnchor,
    HyperplaneSet,
    MedianStatus,
    MixedSigns,
    NotAFermatPoint,
    NotViviani,
    SpokeViolation,
    VivianiError,
    fermat_to_viviani,
    geometric_median,
    is_viviani,
    polygon_to_hyperplanes,
    regular_polygon,
    spoke_points_median_check,
    total_distance,
    viviani_defect,
    viviani_to_fermat,
    viviani_values,
)
from viviani.polytope import ConvexPolygon

from helpers import equilateral_triangle, random_viviani_set

SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def interior_instance(rng, k, n):
    """Random point set whose median is an interior optimum."""
    while True:
        pts = rng.uniform(-1, 1, size=(k, n))
        res = geometric_median(pts)
        if res.status is MedianStatus.INTERIOR_OPTIMUM:
            return pts, res


class TestFermatToViviani:
    def test_square_corners(self):
        S = fermat_to_viviani(SQUARE, (0.0, 0.0))
        assert len(S) == 4
        assert is_viviani(S, 4e-6)
        r = math.sqrt(2.0)
        assert S.offsets - S.normals @ (0.0, 0.0) == pytest.approx([r] * 4, abs=1e-12)
        x = np.random.default_rng(1).uniform(-3, 3, size=(10, 2))
        assert viviani_values(x, S) == pytest.approx(np.full(10, 4 * r), abs=1e-9)

    def test_triangle_centroid(self):
        tri = equilateral_triangle(2.0)
        center = tri.mean(axis=0)
        S = fermat_to_viviani(tri, center)
        assert viviani_defect(S) <= 3e-6
        # planes pass through the original points
        through = S.offsets - np.sum(S.normals * tri, axis=1)
        assert np.all(np.abs(through) <= 1e-12 * (1 + np.abs(S.offsets)))

    def test_rejects_anchor(self):
        with pytest.raises(CoincidesWithAnchor):
            fermat_to_viviani(SQUARE, (1.0, 1.0))

    def test_rejects_non_fermat_point(self):
        with pytest.raises(NotAFermatPoint):
            fermat_to_viviani(SQUARE, (0.9, 0.0))


class TestVivianiToFermat:
    def triangle_set(self):
        return polygon_to_hyperplanes(ConvexPolygon(equilateral_triangle(2.0)))

    def test_interior_point_recovered(self):
        S = self.triangle_set()
        rng = np.random.default_rng(2)
        tri = equilateral_triangle(2.0)
        for _ in range(5):
            w = rng.dirichlet(np.ones(3))
            P = w @ tri
            feet = viviani_to_fermat(S, P)
            assert feet.k == 3
            res = geometric_median(feet)
            assert np.linalg.norm(res.point - P) <= 1e-6

    def test_feet_are_projections(self):
        # Each foot lies on its plane, at the signed distance from P along
        # that plane's normal.
        rng = np.random.default_rng(0)
        for _ in range(100):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            N = random_viviani_set(rng, n, k).normals
            P = rng.uniform(-5, 5, size=n)
            d = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 3.0, size=k)
            S = HyperplaneSet.from_arrays(N, N @ P + d)
            d = S.offsets - N @ P
            feet = viviani_to_fermat(S, P).points
            on = S.offsets - np.sum(S.normals * feet, axis=1)
            assert np.all(np.abs(on) <= 1e-12 * (1 + np.abs(S.offsets)))
            disp = feet - P
            assert np.linalg.norm(disp, axis=1) == pytest.approx(np.abs(d), abs=1e-12)
            along = np.sum(disp * S.normals, axis=1)
            assert np.abs(disp - along[:, None] * S.normals).max() <= 1e-12

    def test_pentagon_centroid(self):
        pent = regular_polygon(5)
        S = polygon_to_hyperplanes(pent)
        P = np.zeros(2)
        feet = viviani_to_fermat(S, P)
        res = geometric_median(feet)
        assert np.linalg.norm(res.point - P) <= 1e-6

    def test_mixed_signs_rejected(self):
        S = self.triangle_set()
        with pytest.raises(MixedSigns):
            viviani_to_fermat(S, (10.0, 10.0))

    def test_one_sided_slack_scales_with_the_planes(self):
        # Vertices and edge midpoints lie on one or two planes; rounding in
        # c - n.P grows with the size of the pentagon, and so does the slack.
        # A point 1e-6 R outside one edge is rejected at every size.
        for R in (1.0, 1e6, 1e12):
            pent = regular_polygon(5, R)
            S = polygon_to_hyperplanes(pent)
            v = pent.vertices
            mids = 0.5 * (v + np.roll(v, -1, axis=0))
            for P in np.vstack([v, mids]):
                viviani_to_fermat(S, P)
            with pytest.raises(MixedSigns):
                viviani_to_fermat(S, mids[0] + 1e-6 * R * S.normals[0])

    def test_not_viviani_rejected(self):
        S = HyperplaneSet.from_arrays(np.array([[1.0, 0.0], [0.0, 1.0]]), [1.0, 1.0])
        with pytest.raises(NotViviani):
            viviani_to_fermat(S, (0.0, 0.0))

    def test_value_equals_objective(self):
        # for one-sided P the signed sum is +/- the distance sum to the feet
        S = self.triangle_set()
        tri = equilateral_triangle(2.0)
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(3))
        P = w @ tri
        feet = viviani_to_fermat(S, P)
        assert viviani_values(P[None, :], S)[0] == pytest.approx(total_distance(P, feet),
                                                               abs=1e-12)

    def test_all_negative_side_accepted(self):
        # flipping every normal flips all signed distances; an interior point
        # becomes one-sided negative and the identity gains a minus sign
        S = self.triangle_set()
        flipped = HyperplaneSet.from_arrays(-S.normals, -S.offsets)
        tri = equilateral_triangle(2.0)
        P = tri.mean(axis=0)
        feet = viviani_to_fermat(flipped, P)
        res = geometric_median(feet)
        assert np.linalg.norm(res.point - P) <= 1e-6
        assert viviani_values(P[None, :], flipped)[0] == pytest.approx(
            -total_distance(P, feet), abs=1e-12
        )


class TestRoundTrip:
    def test_reproduces_points_and_median(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 25:
            k = int(rng.integers(3, 8))
            n = int(rng.choice([2, 3]))
            pts, res = interior_instance(rng, k, n)
            S = fermat_to_viviani(pts, res.point)
            assert viviani_defect(S) <= k * 1e-6
            feet = viviani_to_fermat(S, res.point)
            assert np.abs(feet.points - pts).max() <= 1e-8
            re_solved = geometric_median(feet)
            assert np.linalg.norm(re_solved.point - res.point) <= 1e-6
            done += 1

    def test_challengers_lose(self):
        rng = np.random.default_rng(5)
        pts, res = interior_instance(rng, 5, 2)
        S = fermat_to_viviani(pts, res.point)
        feet = viviani_to_fermat(S, res.point)
        best = total_distance(res.point, feet)
        for _ in range(50):
            Q = res.point + rng.uniform(-2, 2, size=2)
            if np.linalg.norm(Q - res.point) < 1e-9:
                continue
            assert best < total_distance(Q, feet) + 1e-12


class TestSpokeCheck:
    def test_hexagon_vertices(self):
        hexagon = regular_polygon(6, circumradius=2.0, center=(1.0, 1.0))
        assert spoke_points_median_check(hexagon, hexagon.vertices)

    def test_pentagon_random_spokes(self):
        rng = np.random.default_rng(6)
        pent = regular_polygon(5, circumradius=1.5, center=(-2.0, 0.5), phase=0.7)
        center = pent.vertices.mean(axis=0)
        for _ in range(10):
            s = rng.uniform(0.1, 1.0, size=5)
            B = center + s[:, None] * (pent.vertices - center)
            assert spoke_points_median_check(pent, B)

    def test_off_spoke_rejected(self):
        square = regular_polygon(4)
        center = square.vertices.mean(axis=0)
        B = center + 0.5 * (square.vertices - center)
        B[2] = B[2] + np.array([0.0, 0.05])  # spoke 2 runs along x; step off it
        with pytest.raises(SpokeViolation):
            spoke_points_median_check(square, B)

    def test_irregular_polygon_rejected(self):
        quad = ConvexPolygon(np.array([[0.0, 0], [3, 0], [4, 2], [1, 2]]))
        with pytest.raises(VivianiError):
            spoke_points_median_check(quad, quad.vertices)
