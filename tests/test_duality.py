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
    OrientedHyperplane,
    SpokeViolation,
    VivianiError,
    fermat_to_viviani,
    geometric_median,
    is_viviani,
    make_hyperplane_from_anchor,
    polygon_to_hyperplanes,
    project_onto,
    regular_polygon,
    signed_distance,
    spoke_points_median_check,
    total_distance,
    viviani_defect,
    viviani_to_fermat,
    viviani_value,
)
from viviani.polytope import ConvexPolygon

from helpers import equilateral_triangle

SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def interior_instance(rng, k, n):
    """Random point set whose median is an interior optimum."""
    while True:
        pts = rng.uniform(-1, 1, size=(k, n))
        res = geometric_median(pts)
        if res.status is MedianStatus.INTERIOR_OPTIMUM:
            return pts, res


class TestProjectOnto:
    def test_axis_plane(self):
        p = OrientedHyperplane(np.array([1.0, 0.0]), 1.0)
        assert project_onto((3, 0), p).tolist() == [1.0, 0.0]

    def test_point_on_plane(self):
        p = OrientedHyperplane(np.array([1.0, 0.0]), 1.0)
        assert project_onto((1, 7), p).tolist() == [1.0, 7.0]

    def test_tilted_plane(self):
        p = OrientedHyperplane(np.array([3 / 5, 4 / 5]), 2.0)
        foot = project_onto((0, 0), p)
        assert foot == pytest.approx([6 / 5, 8 / 5], abs=1e-12)
        assert abs(signed_distance(foot, p)) <= 1e-12

    def test_projection_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            p = make_hyperplane_from_anchor(rng.normal(size=n), rng.uniform(-3, 3, size=n))
            x = rng.uniform(-5, 5, size=n)
            foot = project_onto(x, p)
            d = signed_distance(x, p)
            assert abs(signed_distance(foot, p)) <= 1e-12 * (1 + abs(p.offset))
            assert np.linalg.norm(foot - x) == pytest.approx(abs(d), abs=1e-12)
            # displacement parallel to the normal
            disp = foot - x
            assert np.linalg.norm(disp - (disp @ p.normal) * p.normal) <= 1e-12


class TestFermatToViviani:
    def test_square_corners(self):
        S = fermat_to_viviani(SQUARE, (0.0, 0.0))
        assert len(S) == 4
        assert is_viviani(S, 4e-6)
        r = math.sqrt(2.0)
        dists = [signed_distance((0.0, 0.0), p) for p in S]
        assert dists == pytest.approx([r] * 4, abs=1e-12)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=2)
            assert viviani_value(x, S) == pytest.approx(4 * r, abs=1e-9)

    def test_triangle_centroid(self):
        tri = equilateral_triangle(2.0)
        center = tri.mean(axis=0)
        S = fermat_to_viviani(tri, center)
        assert viviani_defect(S) <= 3e-6
        # planes pass through the original points
        for p, pt in zip(S, tri):
            assert abs(signed_distance(pt, p)) <= 1e-12 * (1 + abs(p.offset))

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
        assert viviani_value(P, S) == pytest.approx(total_distance(P, feet), abs=1e-12)

    def test_all_negative_side_accepted(self):
        # flipping every normal flips all signed distances; an interior point
        # becomes one-sided negative and the identity gains a minus sign
        S = self.triangle_set()
        flipped = HyperplaneSet(
            tuple(OrientedHyperplane(-p.normal, -p.offset) for p in S)
        )
        tri = equilateral_triangle(2.0)
        P = tri.mean(axis=0)
        feet = viviani_to_fermat(flipped, P)
        res = geometric_median(feet)
        assert np.linalg.norm(res.point - P) <= 1e-6
        assert viviani_value(P, flipped) == pytest.approx(
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
