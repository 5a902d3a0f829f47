"""The benchmark's checks accept right answers and reject wrong ones.

Run with ``python3 -m pytest perfbench/tests``.
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed
from workloads import cancelling_normals, closing_sides

SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


class TestMedian:
    def test_accepts_the_centre_of_a_square(self):
        checks.check_median(SQUARE, [0.0, 0.0], 4 * math.sqrt(2.0))
        assert abs(checks.median_gap(SQUARE, [0.0, 0.0])) < 1e-15

    def test_rejects_a_point_off_the_median(self):
        with pytest.raises(CheckFailed, match="duality gap"):
            checks.check_median(SQUARE, [1e-3, 0.0],
                                float(np.linalg.norm(SQUARE - [1e-3, 0.0], axis=1).sum()))

    def test_rejects_a_wrong_objective(self):
        with pytest.raises(CheckFailed, match="objective"):
            checks.check_median(SQUARE, [0.0, 0.0], 5.0)

    @pytest.mark.parametrize("objective", [math.inf, math.nan])
    def test_rejects_a_non_finite_objective(self, objective):
        with pytest.raises(CheckFailed, match="not finite"):
            checks.check_median(SQUARE, [0.0, 0.0], objective)

    def test_anchor_with_copies_absorbs_the_residual(self):
        # three copies of the origin outweigh two other points
        pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0], [0.0, 1.0]])
        checks.check_median(pts, [0.0, 0.0], 2.0)

    def test_rejects_a_non_optimal_anchor(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 3.0]])
        obj = float(np.linalg.norm(pts, axis=1).sum())
        with pytest.raises(CheckFailed, match="duality gap"):
            checks.check_median(pts, [0.0, 0.0], obj)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160])
    def test_scale_free(self, scale):
        obj = 4 * math.sqrt(2.0) * scale
        checks.check_median(SQUARE * scale, [0.0, 0.0], obj)

    def test_coincident_points(self):
        pts = np.ones((3, 2))
        checks.check_median(pts, [1.0, 1.0], 0.0)
        with pytest.raises(CheckFailed):
            checks.check_median(pts, [1.0, 1.0], 1.0)


class TestCollinear:
    PTS = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 6.0], [4.0, 8.0]])

    def objective(self, x):
        return float(np.linalg.norm(self.PTS - x, axis=1).sum())

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_accepts_any_point_between_the_middle_two(self, t):
        x = (1 - t) * self.PTS[1] + t * self.PTS[2]
        checks.check_collinear_median(self.PTS, x, self.objective(x))

    def test_rejects_a_point_outside_the_median_interval(self):
        x = self.PTS[0] + 0.5 * (self.PTS[1] - self.PTS[0])
        with pytest.raises(CheckFailed, match="outside"):
            checks.check_collinear_median(self.PTS, x, self.objective(x))

    def test_rejects_a_point_off_the_line(self):
        x = np.array([2.0, 4.0]) + 1e-6 * np.array([2.0, -1.0])
        with pytest.raises(CheckFailed, match="off the common line"):
            checks.check_collinear_median(self.PTS, x, self.objective(x))


class TestLcg:
    def test_jump_ahead_matches_stepping(self):
        state = seed = 12345
        for steps in range(1, 200):
            state = (checks.LCG_MULT * state + checks.LCG_INC) & checks.LCG_MASK
            assert checks.lcg_state(seed, steps) == state

    def test_coordinates_match_the_stream(self):
        pts = checks.lcg_points(7, 50, 3, -1.0, 1.0)
        for j in (0, 1, 2, 77, 149):
            assert pts.reshape(-1)[j] == checks.lcg_coordinate(7, j, -1.0, 1.0)

    def test_library_stream_matches(self):
        from viviani import sample_points
        pts = sample_points(3, 40, 2**63 + 5, -2.0, 2.0)
        checks.check_draws(pts, 2**63 + 5, -2.0, 2.0, range(120))

    def test_rejects_a_changed_draw(self):
        pts = checks.lcg_points(3, 10, 2, 0.0, 1.0)
        pts[4, 1] = np.nextafter(pts[4, 1], 2.0)
        with pytest.raises(CheckFailed, match="draw 9"):
            checks.check_draws(pts, 3, 0.0, 1.0, [0, 9])


class TestValuesAndDuality:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.N = cancelling_normals(rng, 4, 6)
        self.c = rng.uniform(0.5, 2.0, len(self.N))
        self.P = rng.normal(size=(20, 4))

    def test_generated_normals_are_unit_and_cancel(self):
        assert np.allclose(np.linalg.norm(self.N, axis=1), 1.0, atol=1e-15)
        assert np.linalg.norm(self.N.sum(axis=0)) < 1e-14

    def test_closing_sides_close(self):
        rng = np.random.default_rng(1)
        for k in range(3, 13):
            s = closing_sides(rng, k)
            theta = 2 * np.pi * np.arange(k) / k
            assert np.all(s > 0)
            assert abs(s @ np.cos(theta)) + abs(s @ np.sin(theta)) < 1e-12

    def test_values_follow_the_affine_identity(self):
        vals = (self.c[None, :] - self.P @ self.N.T).sum(axis=1)
        checks.check_values(self.P, vals, self.N, self.c)
        with pytest.raises(CheckFailed, match="affine identity"):
            checks.check_values(self.P, vals + 1e-6, self.N, self.c)

    def test_non_viviani_values_spread(self):
        N, c = np.eye(4), self.c[:4]
        vals = (c[None, :] - self.P @ N.T).sum(axis=1)
        checks.check_values(self.P, vals, N, c, viviani=False)
        with pytest.raises(CheckFailed, match="spread"):
            checks.check_values(self.P, vals, N, c)

    def test_feet_and_spoke_planes(self):
        x = np.zeros(4)
        feet = checks.feet_of(self.N, self.c, x)
        checks.check_feet(feet, self.N, self.c, x)
        checks.check_spoke_planes(self.N, self.c, feet)
        with pytest.raises(CheckFailed, match="perpendiculars"):
            checks.check_feet(feet + 1e-6, self.N, self.c, x)
        with pytest.raises(CheckFailed, match="not zero"):
            checks.check_spoke_planes(np.eye(4), self.c[:4], feet[:4])

    def test_roundtrip(self):
        a = np.array([0.1, 0.2])
        checks.check_roundtrip("x", "x", [a], [a.copy()])
        with pytest.raises(CheckFailed):
            checks.check_roundtrip("x", "y", [a], [a])
        with pytest.raises(CheckFailed):
            checks.check_roundtrip("x", "x", [a], [np.nextafter(a, 1.0)])


class TestCliOutputs:
    def test_svg_root(self):
        checks.check_svg(b'<svg xmlns="http://www.w3.org/2000/svg" width="1"/>')
        with pytest.raises(CheckFailed, match="not <svg>"):
            checks.check_svg(b"<html/>")
        with pytest.raises(CheckFailed, match="not XML"):
            checks.check_svg(b"<svg")

    def test_fields(self):
        assert checks.parse_fields("n=3 min=1.5 max=2.0") == {"n": "3", "min": "1.5", "max": "2.0"}

    def test_doc_planes(self):
        N, c = checks.doc_planes('{"dimension": 1, "planes": [{"normal": [1.0], "offset": 2.0}]}')
        assert N.tolist() == [[1.0]] and c.tolist() == [2.0]
