import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import viviani
from viviani import (
    ClosureViolation,
    ConvexPolygon,
    ConvexPolytopeH,
    DomainError,
    HyperplaneSet,
    InvalidPolygon,
    InvalidPolytope,
    NonPositiveLength,
    QuadrilateralClass,
    TriangleClass,
    UnknownSolid,
    VivianiError,
    apothem,
    classify_quadrilateral,
    classify_triangle,
    is_viviani_polygon,
    make_equiangular_polygon,
    platonic_solid_normals,
    polygon_to_hyperplanes,
    regular_polygon,
    tetrahedron_family,
    unsigned_distance_sum,
    viviani_defect,
    viviani_values,
)
from viviani.geometry import _directions

from helpers import (
    closing_equiangular_sides,
    equilateral_triangle,
    random_convex_quadrilateral,
    random_equilateral_triangle,
    random_parallelogram,
    random_triangle,
)


class TestConvexPolygon:
    def test_clockwise_is_reoriented(self):
        ccw = ConvexPolygon(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
        cw = ConvexPolygon(np.array([[0.0, 0], [0, 1], [1, 1], [1, 0]]))
        centroid = np.array([0.5, 0.5])
        for S in (polygon_to_hyperplanes(ccw), polygon_to_hyperplanes(cw)):
            assert np.all(S.offsets - S.normals @ centroid > 0)

    def test_rejects_nonconvex(self):
        dart = np.array([[0.0, 0], [4, 0], [1, 1], [0, 4]])
        with pytest.raises(InvalidPolygon):
            ConvexPolygon(dart)

    def test_rejects_collinear_edge(self):
        with pytest.raises(InvalidPolygon):
            ConvexPolygon(np.array([[0.0, 0], [1, 0], [2, 0], [1, 1]]))

    def test_rejects_repeated_vertex(self):
        with pytest.raises(InvalidPolygon):
            ConvexPolygon(np.array([[0.0, 0], [1, 0], [1, 0], [0, 1]]))

    def test_rejects_too_few(self):
        with pytest.raises(InvalidPolygon):
            ConvexPolygon(np.array([[0.0, 0], [1, 0]]))


class TestPolygonToHyperplanes:
    def test_unit_square(self):
        square = ConvexPolygon(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
        S = polygon_to_hyperplanes(square)
        normals = S.normals.tolist()
        assert normals == [[0, -1], [1, 0], [0, 1], [-1, 0]]
        assert S.offsets.tolist() == [0, 1, 1, 0]

    def test_equilateral_normals_at_120_degrees(self):
        tri = ConvexPolygon(equilateral_triangle(2.0))
        S = polygon_to_hyperplanes(tri)
        N = S.normals
        for i in range(3):
            for j in range(i + 1, 3):
                assert float(N[i] @ N[j]) == pytest.approx(-0.5, abs=1e-12)
        assert viviani_defect(S) <= 1e-12

    def test_right_triangle_hypotenuse(self):
        tri = ConvexPolygon(np.array([[0.0, 0], [4, 0], [0, 3]]))
        S = polygon_to_hyperplanes(tri)
        assert S.normals[1] == pytest.approx([3 / 5, 4 / 5], abs=1e-15)
        assert S.offsets[1] == pytest.approx(12 / 5, abs=1e-15)

    def test_outward_orientation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            poly = random_convex_quadrilateral(rng)
            S = polygon_to_hyperplanes(poly)
            centroid = poly.vertices.mean(axis=0)
            assert np.all(S.offsets - S.normals @ centroid > 0)

    def test_edges_lie_on_their_planes(self):
        rng = np.random.default_rng(1)
        poly = random_triangle(rng)
        S = polygon_to_hyperplanes(poly)
        v = poly.vertices
        for vertex in (v, np.roll(v, -1, axis=0)):  # each edge's two endpoints
            on = S.offsets - np.sum(S.normals * vertex, axis=1)
            assert np.all(np.abs(on) <= 1e-12 * (1 + np.abs(S.offsets)))


    def test_matches_one_plane_per_edge_bit_for_bit(self):
        # The vectorised build against one plane per edge, built as the
        # per-plane construction it replaced built it: the direction
        # normalised on its own, the offset its dot with the first vertex.
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(3, 16))
            R = 10.0 ** rng.uniform(-8, 8)
            poly = regular_polygon(k, R, center=rng.normal(size=2) * R * 10.0 ** rng.uniform(-1, 3),
                                   phase=rng.uniform(0.0, 2.0 * np.pi))
            v = poly.vertices
            normals = [_directions(np.array([[d[1], -d[0]]]))[0]
                       for d in np.roll(v, -1, axis=0) - v]
            S = polygon_to_hyperplanes(poly)
            assert S.normals.tolist() == [n.tolist() for n in normals]
            assert S.offsets.tolist() == [float(n @ v[i]) for i, n in enumerate(normals)]

    def test_short_edges_are_judged_relative_to_the_diameter(self):
        # A hexagon of circumradius 1e-12 is a valid polygon; its edge
        # normals are 1e-12 long before normalising, which an absolute 1e-12
        # threshold rejected as a zero normal.
        poly = regular_polygon(6, 1e-12)
        S = polygon_to_hyperplanes(poly)
        assert is_viviani_polygon(poly)
        assert S.offsets == pytest.approx(np.full(6, apothem(6, 1e-12)), rel=1e-12)

    @pytest.mark.parametrize("R", [1e-200, 1e-160, 1e154, 1e200])
    def test_hexagon_at_any_scale(self, R):
        # Squared lengths of these edges underflow or overflow unless they
        # are scaled first.
        poly = regular_polygon(6, R)
        assert poly.diameter == pytest.approx(math.sqrt(7.0) * R, rel=1e-12)
        assert is_viviani_polygon(poly)


class TestVivianiPolygon:
    def test_equilateral_true(self):
        assert is_viviani_polygon(ConvexPolygon(equilateral_triangle(1.0)))

    def test_parallelogram_true(self):
        quad = ConvexPolygon(np.array([[0.0, 0], [3, 0], [4, 2], [1, 2]]))
        assert is_viviani_polygon(quad)

    def test_trapezoid_false(self):
        quad = ConvexPolygon(np.array([[0.0, 0], [4, 0], [3, 2], [1, 2]]))
        assert not is_viviani_polygon(quad)


class TestClassifiers:
    def test_equilateral(self):
        tri = ConvexPolygon(np.array([[0.0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]))
        assert classify_triangle(tri) is TriangleClass.EQUILATERAL

    def test_right_triangle(self):
        tri = ConvexPolygon(np.array([[0.0, 0], [4, 0], [0, 3]]))
        assert classify_triangle(tri) is TriangleClass.NOT_EQUILATERAL

    def test_rotated_translated_equilateral(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert classify_triangle(random_equilateral_triangle(rng)) is TriangleClass.EQUILATERAL

    def test_triangle_arity_check(self):
        with pytest.raises(VivianiError):
            classify_triangle(ConvexPolygon(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])))

    def test_parallelogram_examples(self):
        quad = ConvexPolygon(np.array([[0.0, 0], [3, 0], [4, 2], [1, 2]]))
        assert classify_quadrilateral(quad) is QuadrilateralClass.PARALLELOGRAM
        trap = ConvexPolygon(np.array([[0.0, 0], [4, 0], [3, 2], [1, 2]]))
        assert classify_quadrilateral(trap) is QuadrilateralClass.NOT_PARALLELOGRAM
        square = ConvexPolygon(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
        assert classify_quadrilateral(square) is QuadrilateralClass.PARALLELOGRAM

    def test_triangle_characterization_sample(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tri = random_equilateral_triangle(rng) if rng.random() < 0.5 else random_triangle(rng)
            viviani = is_viviani_polygon(tri, tol=1e-6)
            equilateral = classify_triangle(tri, side_tol=1e-6) is TriangleClass.EQUILATERAL
            assert viviani == equilateral

    def test_quadrilateral_characterization_sample(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            if rng.random() < 0.5:
                quad = random_parallelogram(rng)
            else:
                quad = random_convex_quadrilateral(rng)
            viviani = is_viviani_polygon(quad, tol=1e-6)
            para = classify_quadrilateral(quad, tol=1e-6) is QuadrilateralClass.PARALLELOGRAM
            assert viviani == para


class TestEquiangular:
    def test_rectangle(self):
        rect = make_equiangular_polygon([2, 1, 2, 1])
        assert rect.vertices == pytest.approx(
            np.array([[0.0, 0], [2, 0], [2, 1], [0, 1]]), abs=1e-12
        )

    def test_regular_pentagon_defect(self):
        pent = make_equiangular_polygon([1, 1, 1, 1, 1])
        assert viviani_defect(polygon_to_hyperplanes(pent)) <= 1e-12

    def test_closure_violation(self):
        with pytest.raises(ClosureViolation):
            make_equiangular_polygon([1, 1, 2])

    def test_nonpositive_side(self):
        with pytest.raises(NonPositiveLength):
            make_equiangular_polygon([1, -1, 1, 1])

    def test_too_few_sides(self):
        with pytest.raises(VivianiError):
            make_equiangular_polygon([1, 1])

    @pytest.mark.parametrize("sides", [
        [1 + 2.5e-9, 1, 1], [1, 1 + 2.5e-9, 1], [1 + 2e-9, 1, 1, 1, 1, 1],
    ], ids=["first-side", "second-side", "hexagon"])
    def test_accepted_residual_is_closed(self, sides):
        # Every side list that passes the closure check gives an equiangular
        # polygon, Viviani like every other (paper, Example 3), also when
        # its residual is near the 1e-9 limit.
        G = make_equiangular_polygon(sides)
        assert is_viviani_polygon(G)
        assert viviani_defect(polygon_to_hyperplanes(G)) <= 1e-15

    def test_closing_must_leave_every_side_positive(self):
        # The list nearly closes with its 1e-11 sides.  Side 0 longer by 4e-9
        # leaves a residual that the check accepts, and projecting it out
        # takes about 7e-10 from side 1.
        with pytest.raises(NonPositiveLength):
            make_equiangular_polygon([2 + 4e-9, 1e-11, 1, 1, 1, 1e-11])

    def test_random_closing_sides(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = int(rng.integers(3, 13))
            poly = make_equiangular_polygon(closing_equiangular_sides(rng, k))
            assert poly.k == k
            assert viviani_defect(polygon_to_hyperplanes(poly)) <= 1e-9


class TestPlatonic:
    COUNTS = {
        "tetrahedron": 4,
        "cube": 6,
        "octahedron": 8,
        "dodecahedron": 12,
        "icosahedron": 20,
    }

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_face_counts_units_and_defect(self, name):
        S = platonic_solid_normals(name)
        assert len(S) == self.COUNTS[name]
        assert np.abs(np.linalg.norm(S.normals, axis=1) - 1.0).max() <= 1e-12
        assert viviani_defect(S) <= 1e-12

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_origin_inside_uniform_inradius(self, name):
        S = platonic_solid_normals(name)
        offs = S.offsets
        assert np.all(offs > 0)
        assert offs.max() - offs.min() <= 1e-12

    def test_cube_axis_aligned(self):
        S = platonic_solid_normals("cube")
        assert sorted(S.normals.tolist()) == sorted(
            [[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
        )

    def test_tetrahedron_pairwise_dots(self):
        N = platonic_solid_normals("tetrahedron").normals
        for i in range(4):
            for j in range(i + 1, 4):
                assert float(N[i] @ N[j]) == pytest.approx(-1 / 3, abs=1e-12)

    def test_unknown_solid(self):
        with pytest.raises(UnknownSolid):
            platonic_solid_normals("teapot")


class TestTetrahedronFamily:
    def test_quarter_turn_normals(self):
        S = tetrahedron_family(math.pi / 2)
        r = math.sqrt(2) / 2
        expected = np.array([
            [r, 0.5, 0.5],
            [-r, 0.5, 0.5],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ])
        assert S.normals == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(S.normals.sum(axis=0)) <= 1e-12

    def test_unit_normals_across_range(self):
        for t in np.linspace(0.01, math.pi - 0.01, 100):
            S = tetrahedron_family(float(t))
            assert np.abs(np.linalg.norm(S.normals, axis=1) - 1.0).max() <= 1e-12
            assert viviani_defect(S) <= 1e-12

    @pytest.mark.parametrize("t", [0.0, math.pi, -0.3, 4.0])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            tetrahedron_family(t)

    def test_constant_value_is_four(self):
        S = tetrahedron_family(1.0)
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, size=(10, 3))
        assert viviani_values(x, S) == pytest.approx(np.full(10, 4.0), abs=1e-12)


class TestUnsignedSum:
    def test_regular_pentagon_interior_constant(self):
        k, R = 5, 1.0
        pent = regular_polygon(k, R)
        S = polygon_to_hyperplanes(pent)
        expected = k * apothem(k, R)
        rng = np.random.default_rng(7)
        hits = 0
        while hits < 5:
            x = rng.uniform(-R, R, size=2)
            if np.all(S.offsets - S.normals @ x > 1e-6):
                assert unsigned_distance_sum(x, S) == pytest.approx(expected, abs=1e-12)
                hits += 1

    def test_exterior_strictly_larger(self):
        k, R = 5, 1.0
        S = polygon_to_hyperplanes(regular_polygon(k, R))
        expected = k * apothem(k, R)
        rng = np.random.default_rng(8)
        hits = 0
        while hits < 5:
            x = rng.uniform(-3 * R, 3 * R, size=2)
            if np.min(S.offsets - S.normals @ x) < -1e-3:
                assert unsigned_distance_sum(x, S) > expected
                hits += 1

    def test_interior_matches_signed_value(self):
        rng = np.random.default_rng(9)
        poly = random_convex_quadrilateral(rng)
        S = polygon_to_hyperplanes(poly)
        w = rng.dirichlet(np.ones(4))
        interior = w @ poly.vertices
        assert unsigned_distance_sum(interior, S) == pytest.approx(
            viviani_values(interior[None, :], S)[0], abs=1e-12
        )


class TestPolytopeH:
    def cube_set(self):
        normals = np.vstack([np.eye(3), -np.eye(3)])
        return HyperplaneSet.from_arrays(normals, np.ones(6))

    def test_cube_accepted(self):
        poly = ConvexPolytopeH(self.cube_set())
        x = poly.interior_point()
        assert np.all(poly.halfspaces.offsets - poly.halfspaces.normals @ x > 0)

    def test_only_a_hyperplane_set_is_accepted(self):
        S = self.cube_set()
        for rows in (list(S), tuple(S), (S.normals, S.offsets)):
            with pytest.raises(VivianiError, match="must be a HyperplaneSet"):
                ConvexPolytopeH(rows)

    def test_unbounded_rejected(self):
        normals = np.vstack([np.eye(3), -np.eye(3)])[:5]  # open on one side
        S = HyperplaneSet.from_arrays(normals, np.ones(5))
        with pytest.raises(InvalidPolytope):
            ConvexPolytopeH(S)

    def test_infeasible_rejected(self):
        # x <= 0 together with x >= 1, boxed in y
        normals = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        offsets = np.array([0.0, -1.0, 1.0, 1.0])
        with pytest.raises(InvalidPolytope):
            ConvexPolytopeH(HyperplaneSet.from_arrays(normals, offsets))

    def test_duplicate_plane_rejected(self):
        normals = np.vstack([np.eye(3), -np.eye(3), np.eye(3)[:1]])
        S = HyperplaneSet.from_arrays(normals, np.ones(7))
        with pytest.raises(InvalidPolytope):
            ConvexPolytopeH(S)

    @pytest.mark.parametrize(
        "name", ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"]
    )
    def test_platonic_solids_accepted(self, name):
        ConvexPolytopeH(platonic_solid_normals(name))

    def assert_strictly_inside(self, poly):
        N, c = poly.halfspaces.normals, poly.halfspaces.offsets
        assert float((N @ poly.interior_point() - c).max()) < 0.0

    def test_small_box_far_from_origin_accepted(self):
        # A 2e-8 box at (50, 30) gets the verdict it gets at the origin.
        N = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        poly = ConvexPolytopeH(HyperplaneSet.from_arrays(N, N @ [50.0, 30.0] + 1e-8))
        self.assert_strictly_inside(poly)

    @staticmethod
    def tilted_set(eps, seed):
        """20 "top" normals with first coordinate eps, 40 "bottom" ones with a
        negative first coordinate, all at offset 1 in R^4.

        Bounded for eps > 0, but only just: direction e1 meets the top
        planes at slope eps.  At eps = 0, N e1 <= 0 and e1 escapes.
        """
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(20, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        top = np.column_stack([np.full(20, eps), math.sqrt(1.0 - eps * eps) * v])
        bottom = rng.normal(size=(40, 4))
        bottom[:, 0] = -np.abs(bottom[:, 0])
        bottom /= np.linalg.norm(bottom, axis=1)[:, None]
        return HyperplaneSet.from_arrays(np.vstack([top, bottom]), np.ones(60))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nearly_unbounded_set_accepted(self, seed):
        self.assert_strictly_inside(ConvexPolytopeH(self.tilted_set(0.001, seed)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_escape_direction_rejected_as_unbounded(self, seed):
        with pytest.raises(InvalidPolytope, match="unbounded"):
            ConvexPolytopeH(self.tilted_set(0.0, seed))

    def test_verdict_ignores_scale_shift_and_order(self):
        # The cube plus the redundant plane x <= 2.  Offsets are compared
        # against the region's own scale, so at 1e-12 the planes x <= 1e-12
        # and x <= 2e-12 stay distinct.
        N = np.vstack([np.eye(3), -np.eye(3), np.eye(3)[:1]])
        c = np.r_[np.ones(6), 2.0]
        rng = np.random.default_rng(14)
        for scale in (1e-12, 1.0, 1e12):
            for shift in (0.0, 1.0, 1e4, 1e8):
                for _ in range(3):
                    x = rng.uniform(-1.0, 1.0, size=3) * shift * scale
                    p = rng.permutation(7)
                    S = HyperplaneSet.from_arrays(N[p], (scale * c + N @ x)[p])
                    self.assert_strictly_inside(ConvexPolytopeH(S))

    def test_duplicate_reports_first_pair(self):
        normals = np.vstack([np.eye(2), -np.eye(2), -np.eye(2)[1:], np.eye(2)[:1]])
        S = HyperplaneSet.from_arrays(normals, np.ones(6))
        with pytest.raises(InvalidPolytope, match="halfspaces 0 and 5 coincide"):
            ConvexPolytopeH(S)

    def test_tetrahedron_family_are_polytopes(self):
        # The paper's irregular Viviani tetrahedra enclose genuine regions.
        for t in np.linspace(0.01, math.pi - 0.01, 100):
            poly = ConvexPolytopeH(tetrahedron_family(float(t)))
            self.assert_strictly_inside(poly)
            again = ConvexPolytopeH(tetrahedron_family(float(t))).interior_point()
            assert again.tobytes() == poly.interior_point().tobytes()

    @staticmethod
    def modules_after_import() -> list[str]:
        """``sys.modules`` of a fresh interpreter after ``import viviani,
        viviani.cli``."""
        src = str(Path(viviani.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        code = "import sys, viviani, viviani.cli; print('\\n'.join(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_import_loads_no_scipy(self):
        # scipy is imported on the first ConvexPolytopeH construction only.
        modules = self.modules_after_import()
        assert "viviani.cli" in modules
        assert [m for m in modules if m.split(".")[0] == "scipy"] == []

    def test_import_loads_no_grid(self):
        # Only the benchmark's trace-mode cross-check imports the grid.
        modules = self.modules_after_import()
        assert "viviani.cli" in modules
        assert "viviani.gridsearch" not in modules
        assert "viviani.kernels" not in modules


class TestRegularPolygon:
    def test_vertices_on_circle(self):
        poly = regular_polygon(7, 2.5, center=(1.0, -2.0), phase=0.3)
        d = np.linalg.norm(poly.vertices - np.array([1.0, -2.0]), axis=1)
        assert d == pytest.approx(np.full(7, 2.5), abs=1e-12)

    def test_apothem_matches_plane_distance(self):
        k, R = 9, 1.0
        S = polygon_to_hyperplanes(regular_polygon(k, R))
        center = np.zeros(2)
        assert S.offsets - S.normals @ center == pytest.approx(np.full(k, apothem(k, R)),
                                                               abs=1e-12)
