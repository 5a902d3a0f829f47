"""Acceptance suite: every shipped guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  Everything is seeded; the whole module is desk-scale and
finishes in well under a minute with the compiled kernel.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from viviani import (
    MedianStatus,
    TriangleClass,
    QuadrilateralClass,
    apothem,
    classify_quadrilateral,
    classify_triangle,
    direction_sum_at,
    fermat_to_viviani,
    geometric_median,
    is_viviani_polygon,
    level_set_direction,
    make_equiangular_polygon,
    parse_document,
    platonic_solid_normals,
    polygon_to_hyperplanes,
    regular_polygon,
    tetrahedron_family,
    total_distance,
    unsigned_distance_sum,
    viviani_defect,
    viviani_to_fermat,
    viviani_values,
)
from viviani.cli import run_cli
from viviani.geometry import HyperplaneSet
from viviani.polytope import ConvexPolygon

from helpers import (
    affinely_independent_points,
    assert_median_answer,
    closing_equiangular_sides,
    equilateral_triangle,
    random_convex_quadrilateral,
    random_equilateral_triangle,
    random_hyperplane_set,
    random_parallelogram,
    random_triangle,
    random_viviani_set,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"


def report(num: int, label: str):
    print(f"[{num:2d}/14] {label}: PASS")


@pytest.fixture(scope="module")
def median_instances():
    """200 seeded 2-D instances (k in 3..8) solved with history."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(200):
        k = int(rng.integers(3, 9))
        pts = rng.uniform(-1.0, 1.0, size=(k, 2))
        out.append((pts, geometric_median(pts, record_history=True)))
    return out


def test_constant_value_iff_normals_cancel():
    rng = np.random.default_rng(1)
    for i in range(500):
        n = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(2, 11))
        S = random_viviani_set(rng, n, k, target=1e-12)
        pts = affinely_independent_points(rng, n)
        vals = viviani_values(pts, S)
        spread = vals.max() - vals.min()
        assert spread <= 1e-9 * (1.0 + np.abs(vals).max())
    report(1, "constant value on repaired zero-sum sets")


def test_unit_step_changes_value_by_minus_defect():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 500:
        n = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(1, 11))
        S = random_hyperplane_set(rng, n, k)
        delta = viviani_defect(S)
        if delta < 0.1:
            continue
        u = level_set_direction(S)
        P = rng.uniform(-2.0, 2.0, size=n)
        v_after, v_before = viviani_values(np.array([P + u, P]), S)
        drop = v_after - v_before
        assert abs(drop + delta) <= 1e-10
        checked += 1
    report(2, "unit step along the gradient drops v by the defect")


def test_triangle_characterization():
    rng = np.random.default_rng(3)
    for i in range(1000):
        tri = random_equilateral_triangle(rng) if i % 2 == 0 else random_triangle(rng)
        viviani = is_viviani_polygon(tri, tol=1e-6)
        equilateral = classify_triangle(tri, side_tol=1e-6) is TriangleClass.EQUILATERAL
        assert viviani == equilateral
    report(3, "Viviani triangles are exactly the equilateral ones")


def test_quadrilateral_characterization():
    rng = np.random.default_rng(4)
    for i in range(1000):
        quad = random_parallelogram(rng) if i % 2 == 0 else random_convex_quadrilateral(rng)
        viviani = is_viviani_polygon(quad, tol=1e-6)
        para = classify_quadrilateral(quad, tol=1e-6) is QuadrilateralClass.PARALLELOGRAM
        assert viviani == para
    report(4, "Viviani quadrilaterals are exactly the parallelograms")


def test_equiangular_polygons_cancel():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(3, 13))
        poly = make_equiangular_polygon(closing_equiangular_sides(rng, k))
        assert viviani_defect(polygon_to_hyperplanes(poly)) <= 1e-9
    report(5, "random equiangular polygons cancel")


def test_platonic_solids_cancel():
    for name in ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"):
        S = platonic_solid_normals(name)
        assert np.abs(np.linalg.norm(S.normals, axis=1) - 1.0).max() <= 1e-12
        assert viviani_defect(S) <= 1e-12
    report(6, "all five regular polyhedra cancel")


def test_tetrahedron_family_cancels():
    for t in np.linspace(0.01, math.pi - 0.01, 100):
        S = tetrahedron_family(float(t))
        assert np.abs(np.linalg.norm(S.normals, axis=1) - 1.0).max() <= 1e-12
        assert viviani_defect(S) <= 1e-12
    r = math.sqrt(2.0) / 2.0
    S = tetrahedron_family(math.pi / 2.0)
    expected = np.array([
        [r, 0.5, 0.5],
        [-r, 0.5, 0.5],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, -1.0],
    ])
    assert np.abs(S.normals - expected).max() <= 1e-12
    report(7, "tetrahedron family cancels across its parameter range")


def test_median_matches_exact_oracles(median_instances):
    # The gap is weak duality, computed apart from the solver; k = 3 and 4
    # have closed forms.
    for pts, result in median_instances:
        assert_median_answer(pts, result)
        h = np.array(result.history)
        assert np.all(np.diff(h) <= 1e-12)
    report(8, "medians within a 1e-10 duality gap and on the exact 3- and 4-point "
              "answers, descending monotonically")


def test_interior_certificate(median_instances):
    interior = 0
    for pts, result in median_instances:
        if result.status is MedianStatus.INTERIOR_OPTIMUM:
            k = pts.shape[0]
            assert np.linalg.norm(direction_sum_at(result.point, pts)) <= k * 1e-8
            interior += 1
    assert interior >= 100  # the distribution produces plenty of interior optima
    report(9, "interior optima certify: unit directions sum to ~zero")


def test_duality_round_trip():
    rng = np.random.default_rng(10)
    done = 0
    while done < 100:
        k = int(rng.integers(3, 8))
        n = int(rng.choice([2, 3]))
        pts = rng.uniform(-1.0, 1.0, size=(k, n))
        result = geometric_median(pts)
        if result.status is not MedianStatus.INTERIOR_OPTIMUM:
            continue
        P = result.point
        S = fermat_to_viviani(pts, P)
        assert viviani_defect(S) <= k * 1e-6
        feet = viviani_to_fermat(S, P)
        assert np.abs(feet.points - pts).max() <= 1e-8
        re_solved = geometric_median(feet)
        assert np.linalg.norm(re_solved.point - P) <= 1e-6
        best = total_distance(P, feet)
        challengers = 0
        while challengers < 50:
            Q = P + rng.uniform(-1.0, 1.0, size=n)
            if np.linalg.norm(Q - P) < 1e-6:
                continue
            assert best < total_distance(Q, feet) + 1e-12
            challengers += 1
        done += 1
    report(10, "median -> planes -> feet round-trip reproduces the input")


def test_regular_polygon_distance_sums():
    rng = np.random.default_rng(11)
    for k in range(3, 13):
        R = float(rng.uniform(0.5, 3.0))
        poly = regular_polygon(k, R, center=rng.uniform(-2, 2, size=2),
                               phase=float(rng.uniform(0, 2 * math.pi)))
        S = polygon_to_hyperplanes(poly)
        center = poly.vertices.mean(axis=0)
        constant = k * apothem(k, R)
        interior = exterior = 0
        while interior < 20:
            x = center + rng.uniform(-R, R, size=2)
            if np.all(S.offsets - S.normals @ x > 1e-9):
                assert abs(unsigned_distance_sum(x, S) - constant) <= 1e-9
                interior += 1
        while exterior < 20:
            x = center + rng.uniform(-4 * R, 4 * R, size=2)
            if np.min(S.offsets - S.normals @ x) < -1e-3 * R:
                assert unsigned_distance_sum(x, S) > constant
                exterior += 1
    report(11, "interior unsigned sums are k*apothem; exterior sums exceed it")


def test_spoke_configurations_recover_center():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(3, 13))
        R = float(rng.uniform(0.5, 3.0))
        center = rng.uniform(-3, 3, size=2)
        poly = regular_polygon(k, R, center=center, phase=float(rng.uniform(0, 2 * math.pi)))
        s = rng.uniform(0.1, 1.0, size=k)
        B = center + s[:, None] * (poly.vertices - center)
        result = geometric_median(B)
        assert np.linalg.norm(result.point - center) <= 1e-6 * R
    report(12, "medians of spoke points sit at the polygon center")


def test_derived_constants():
    rng = np.random.default_rng(13)

    cube = HyperplaneSet.from_arrays(
        np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
                 dtype=float),
        [1, 0, 1, 0, 1, 0],
    )
    for _ in range(10):
        v = viviani_values(rng.uniform(-3, 3, size=(1, 3)), cube)[0]
        assert abs(v - 3.0) <= 1e-9

    tri = polygon_to_hyperplanes(ConvexPolygon(equilateral_triangle(2.0)))
    for _ in range(10):
        v = viviani_values(rng.uniform(-3, 3, size=(1, 2)), tri)[0]
        assert abs(v - math.sqrt(3.0)) <= 1e-9

    family = tetrahedron_family(1.0)  # all four offsets are 1
    for _ in range(10):
        v = viviani_values(rng.uniform(-3, 3, size=(1, 3)), family)[0]
        assert abs(v - 4.0) <= 1e-9
    report(13, "derived constants: cube 3, side-2 triangle sqrt(3), family 4")


def test_cli_end_to_end(capsys, tmp_path):
    pentagon = str(FIXTURES / "pentagon.json")
    cube = str(FIXTURES / "cube.json")
    corners = str(FIXTURES / "square_corners.json")
    trapezoid = str(FIXTURES / "trapezoid.json")

    def run_twice(*argv, expect):
        code1 = run_cli(list(argv))
        out1 = capsys.readouterr().out
        code2 = run_cli(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == expect, f"{argv}: exit {code1}/{code2}, wanted {expect}"
        assert out1 == out2, f"{argv}: stdout not deterministic"
        return out1

    out = run_twice("check", pentagon, expect=0)
    assert "viviani=true" in out
    run_twice("check", trapezoid, expect=1)
    run_twice("check", corners, expect=3)  # wrong payload kind
    assert run_cli(["check", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    out = run_twice("sample", cube, "--count", "100", "--seed", "7", expect=0)
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["spread"]) <= 1e-9

    out = run_twice("median", corners, expect=0)
    payload = json.loads(out)
    assert payload["point"] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert payload["objective"] == pytest.approx(4 * math.sqrt(2), abs=1e-9)

    out = run_twice("dualize", corners, expect=0)
    dual = tmp_path / "dual.json"
    dual.write_text(out)
    assert viviani_defect(parse_document(out).to_hyperplane_set()) <= 4e-6

    out = run_twice("project", str(dual), "--point", "0.1,0.2", expect=0)
    feet_doc = parse_document(out)
    assert float(feet_doc.metadata["recovery_error"]) <= 1e-6

    out = run_twice("generate", "platonic", "dodecahedron", expect=0)
    assert len(parse_document(out).planes) == 12
    out = run_twice("generate", "equiangular", "--sides", "2,1,2,1", expect=0)
    assert parse_document(out).kind == "polygon"
    out = run_twice("generate", "example5", "--t", "1.5", expect=0)
    assert viviani_defect(parse_document(out).to_hyperplane_set()) <= 1e-12

    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_cli(["plot", pentagon, "--out", str(svg_a)]) == 0
    assert run_cli(["plot", pentagon, "--out", str(svg_b)]) == 0
    capsys.readouterr()
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert svg_a.read_bytes().startswith(b"<?xml")

    report(14, "CLI runs end-to-end, deterministically, with documented exits")
