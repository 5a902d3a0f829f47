"""Scaled and shifted copies of a point set give the same answers.

The median solver and the functions that measure a point set from a query
point (``total_distance``, ``direction_sum_at``, ``fermat_to_viviani``) take
their distances in one power-of-two scale frame, so a copy scaled anywhere
from 1e-300 to 1e300, or shifted by up to 1e12, is handled as the set itself
is.  The polygon layer (side lengths, classifiers, equiangular closure, the
spoke check, SVG normals) and ``viviani project`` take their lengths through
``geometry._lengths`` and ``geometry._directions``, so scaled polygons get
the unscaled verdicts.  The solver, ``ConvexPolygon`` and the SVG viewport
divide a point set by its unit before they take any difference, so sets
near the float maximum get the answers of their exactly scaled-down copies.
A shifted copy is compared with the translate it really is,
``(P + shift) - shift``, which floats hold exactly, and its answers within
the float spacing at the shift, which is all that floats can represent
there.  These tests run under ``error::RuntimeWarning``, so any overflow on
the way fails them.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from viviani import (
    ClosureViolation,
    ConvexPolygon,
    MedianStatus,
    QuadrilateralClass,
    SpokeViolation,
    TriangleClass,
    VivianiError,
    classify_quadrilateral,
    classify_triangle,
    direction_sum_at,
    fermat_to_viviani,
    geometric_median,
    is_viviani_polygon,
    make_equiangular_polygon,
    points_document,
    polygon_document,
    polygon_to_hyperplanes,
    regular_polygon,
    render_svg,
    serialize_document,
    spoke_points_median_check,
    total_distance,
)
from viviani import fermat
from viviani.cli import run_cli

from helpers import count_calls

#: The fixed planar set whose rescaled copies the median benchmark solves.
SCALE_BASE = np.array([[0.0, 0.0], [3.0, 0.5], [1.0, 2.5], [2.2, -1.3], [-0.7, 1.1]])
#: A query point that every shift below moves exactly.
QUERY = np.array([0.5, 0.25])
SCALES = (1e-300, 1e-160, 1e160, 1e300)
SHIFTS = (1e6, 1e9, 1e12)


class Copy:
    """``base * scale + shift`` with one of the two trivial."""

    def __init__(self, base, scale=1.0, shift=0.0):
        self.base = base if shift == 0.0 else (base + shift) - shift
        self.scale, self.shift = scale, shift
        self.points = self.to_copy(self.base)
        # answers agree within 1e-9 of the base's unit scale, plus the
        # float spacing at the shift
        self.tol = 1e-9 + 4.0 * float(np.spacing(shift))

    def __repr__(self):
        return f"x{self.scale:g}" if self.shift == 0.0 else f"+{self.shift:g}"

    def to_copy(self, x):
        return x * self.scale + self.shift

    def back(self, y):
        return (y - self.shift) / self.scale


COPIES = ([Copy(SCALE_BASE, scale=s) for s in SCALES]
          + [Copy(SCALE_BASE, shift=t) for t in SHIFTS])


def non_increasing(history) -> bool:
    """No entry rises above the one before by more than a few roundings."""
    h = np.array(history)
    return bool(np.all(np.diff(h) <= 4.0 * np.spacing(h[:-1])))


def outcome(f, *args):
    try:
        return f(*args)
    except VivianiError as exc:  # the two sides must fail alike
        return type(exc)


class TestMedian:
    def test_copies_keep_status_anchor_and_point(self):
        for c in COPIES:
            base = geometric_median(c.base)
            res = geometric_median(c.points, record_history=True)
            assert res.status is base.status is MedianStatus.INTERIOR_OPTIMUM, c
            assert res.anchor_index == base.anchor_index, c
            assert np.abs(c.back(res.point) - base.point).max() <= c.tol, c
            assert res.objective / c.scale == pytest.approx(base.objective, rel=1e-12), c
            assert res.residual <= fermat.RESIDUAL_TARGET, c
            assert non_increasing(res.history), c

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shifted_random_sets(self, seed):
        # At +1e12 neighbouring floats are 1.2e-4 apart; the solver still
        # descends monotonically and lands within that spacing.
        pts = np.random.default_rng(seed).normal(size=(7, 2))
        for shift in SHIFTS:
            c = Copy(pts, shift=shift)
            base = geometric_median(c.base)
            res = geometric_median(c.points, record_history=True)
            assert res.status is base.status, c
            assert res.anchor_index == base.anchor_index, c
            assert np.abs(c.back(res.point) - base.point).max() <= c.tol, c
            assert non_increasing(res.history), c

    def test_large_set_runs_no_polish(self, monkeypatch):
        # Ordinary inputs are not divided and ``tol`` stays in the caller's
        # units.  Dividing this set by its half-width and stopping in those
        # units stops one step early, where a Newton polish is needed.
        polishes = count_calls(monkeypatch, fermat, "_newton_polish")
        res = geometric_median(np.random.default_rng(5).normal(size=(1000, 50)))
        assert res.status is MedianStatus.INTERIOR_OPTIMUM
        assert polishes == []


class TestQueries:
    def test_total_distance(self):
        for c in COPIES:
            got = total_distance(c.to_copy(QUERY), c.points) / c.scale
            assert got == pytest.approx(total_distance(QUERY, c.base), rel=1e-14), c

    def test_direction_sum_at(self):
        for c in COPIES:
            got = direction_sum_at(c.to_copy(QUERY), c.points)
            assert np.abs(got - direction_sum_at(QUERY, c.base)).max() <= 1e-14, c

    def test_fermat_to_viviani(self):
        # The base's median, moved to the copy's floats: at +1e12 it is
        # 6e-5 off the copy's optimum, too far for the k * 1e-6 certificate
        # on both sides alike.
        for c in COPIES:
            P = c.to_copy(geometric_median(c.base).point)
            got = outcome(fermat_to_viviani, c.points, P)
            want = outcome(fermat_to_viviani, c.base, c.back(P))
            if isinstance(want, type):
                assert got is want, c
                continue
            assert not isinstance(got, type), (c, got)
            assert np.abs(got.normals - want.normals).max() <= 1e-12, c
            shift = got.normals.sum(axis=1) * c.shift
            offsets = (got.offsets - shift) / c.scale
            assert np.abs(offsets - want.offsets).max() <= c.tol, c


def _strict(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("scale", [1e160, 1e-300])
def test_cli_median_reports_a_finite_objective(scale, tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(serialize_document(points_document(SCALE_BASE * scale)))
    code = run_cli(["median", str(path)])
    out = json.loads(capsys.readouterr().out, parse_constant=_strict)
    base = geometric_median(SCALE_BASE)
    assert code == 0
    assert out["status"] == "interior_optimum"
    assert math.isfinite(out["objective"])
    assert out["objective"] / scale == pytest.approx(base.objective, rel=1e-12)


# --- the polygon layer ------------------------------------------------------

#: The powers of two among these scale every float exactly.
POLYGON_SCALES = (1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300,
                  2.0 ** 600, 2.0 ** -600, 2.0 ** 1000, 2.0 ** -1000)
FIXTURES = Path(__file__).parent.parent / "fixtures"
PENTAGON = np.array(json.loads((FIXTURES / "pentagon.json").read_text())
                    ["polygon"]["vertices"])
#: (vertices, classifier, the class that means Viviani)
SHAPES = (
    (regular_polygon(3).vertices, classify_triangle, TriangleClass.EQUILATERAL),
    (np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0]]), classify_triangle,
     TriangleClass.EQUILATERAL),
    (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), classify_quadrilateral,
     QuadrilateralClass.PARALLELOGRAM),
    (np.array([[0.0, 0.0], [4.0, 0.0], [3.0, 2.0], [1.0, 2.0]]), classify_quadrilateral,
     QuadrilateralClass.PARALLELOGRAM),
)


def is_power_of_two(x) -> bool:
    return math.frexp(x)[0] == 0.5


@pytest.mark.parametrize("scale", POLYGON_SCALES, ids=lambda s: f"x{s:g}")
class TestPolygons:
    def test_classifiers_keep_the_unscaled_verdict(self, scale):
        for verts, classify, viviani in SHAPES:
            base, G = ConvexPolygon(verts), ConvexPolygon(verts * scale)
            got = classify(G)
            assert got is classify(base), (verts, got)
            assert (got is viviani) == is_viviani_polygon(G) == is_viviani_polygon(base)

    def test_side_lengths(self, scale):
        want = ConvexPolygon(PENTAGON).side_lengths()
        got = ConvexPolygon(PENTAGON * scale).side_lengths()
        if is_power_of_two(scale):
            assert np.array_equal(got, want * scale)
        assert got / scale == pytest.approx(want, rel=1e-15)

    def test_equiangular_polygon_closes(self, scale):
        sides = np.array([2.0, 1.0, 2.0, 1.0])
        G = make_equiangular_polygon(sides * scale)
        base = make_equiangular_polygon(sides)
        assert np.abs(G.vertices / scale - base.vertices).max() <= 1e-15
        assert is_viviani_polygon(G)

    def test_spoke_check(self, scale):
        pent = regular_polygon(5, circumradius=1.5, center=(-2.0, 0.5), phase=0.7)
        center = pent.vertices.mean(axis=0)
        B = center + np.linspace(0.2, 1.0, 5)[:, None] * (pent.vertices - center)
        assert spoke_points_median_check(ConvexPolygon(pent.vertices * scale), B * scale)
        B[2] += (0.0, 0.05)
        with pytest.raises(SpokeViolation, match="point 2"):
            spoke_points_median_check(ConvexPolygon(pent.vertices * scale), B * scale)

    def test_svg(self, scale):
        want = render_svg(polygon_document(ConvexPolygon(PENTAGON)))
        got = render_svg(polygon_document(ConvexPolygon(PENTAGON * scale)))
        if is_power_of_two(scale):
            assert got == want
        number = r"-?\d+\.\d{3}"
        assert re.sub(number, "#", got) == re.sub(number, "#", want)
        assert np.abs(np.array(re.findall(number, got), dtype=float)
                      - np.array(re.findall(number, want), dtype=float)).max() <= 0.001

    def test_cli_project_reports_a_finite_recovery_error(self, scale, tmp_path, capsys):
        cube = json.loads((FIXTURES / "cube.json").read_text())
        for plane in cube["planes"]:
            plane["offset"] *= scale
        path = tmp_path / "cube.json"
        path.write_text(json.dumps(cube))
        point = ",".join(repr(x * scale) for x in (0.3, 0.4, 0.6))
        assert run_cli(["project", str(path), "--point", point]) == 0
        captured = capsys.readouterr()
        err = float(captured.err.strip().removeprefix("recovery_error="))
        assert 0.0 <= err <= 1e-9 * scale
        assert json.loads(captured.out)["metadata"]["recovery_error"] == repr(err)


# --- finite inputs near the float maximum -----------------------------------

#: Finite sets whose widths, differences or centroid sums exceed the float
#: maximum unless the set is divided by its unit first: one spanning
#: +-1e308, and one of a single sign whose coordinate sums overflow.
NEAR_MAX = {
    "spanning": np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308], [3e307, -5e307]]),
    "same_sign": np.array([[1e308, 1e308], [1.5e308, 1e308], [1e308, 1.5e308],
                           [1.3e308, 1.2e308]]),
}
#: Query points of the sets above, off every input point.
NEAR_MAX_QUERY = {"spanning": np.array([2e307, -1e297]),
                  "same_sign": np.array([1.2e308, 1.15e308])}
#: The exact scale of the copies the near-maximum sets are compared with.
TINY = 2.0 ** -1000
NEAR_MAX_POLYGONS = {
    "triangle": np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]]),
    "square": np.array([[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308],
                        [-1e308, 1e308]]),
}


class TestNearTheFloatMaximum:
    def test_median_equals_that_of_the_quarter_scale_copy(self):
        P = NEAR_MAX["spanning"]
        res, quarter = geometric_median(P), geometric_median(P / 4)
        assert res.status is quarter.status is MedianStatus.INTERIOR_OPTIMUM
        assert np.array_equal(res.point, 4 * quarter.point)
        assert res.residual == quarter.residual <= fermat.RESIDUAL_TARGET
        assert res.iterations == quarter.iterations
        # the true distance sum, about 3.5e308, exceeds the float maximum
        assert res.objective == math.inf
        assert quarter.objective == pytest.approx(8.82e307, rel=1e-3)

    @pytest.mark.parametrize("name", NEAR_MAX)
    def test_median_equals_that_of_the_tiny_copy(self, name):
        P = NEAR_MAX[name]
        res, tiny = geometric_median(P), geometric_median(P * TINY)
        assert res.status is tiny.status
        assert res.anchor_index == tiny.anchor_index
        assert np.array_equal(res.point, tiny.point / TINY)
        assert res.residual == tiny.residual
        assert res.iterations == tiny.iterations

    @pytest.mark.parametrize("name", NEAR_MAX)
    def test_queries_equal_those_of_the_tiny_copy(self, name):
        P, X = NEAR_MAX[name], NEAR_MAX_QUERY[name]
        assert total_distance(X, P) == total_distance(X * TINY, P * TINY) / TINY
        assert np.array_equal(direction_sum_at(X, P), direction_sum_at(X * TINY, P * TINY))
        X = geometric_median(P).point if name == "spanning" else X
        got = outcome(fermat_to_viviani, P, X)
        want = outcome(fermat_to_viviani, P * TINY, X * TINY)
        if isinstance(want, type):
            assert got is want
            return
        assert np.array_equal(got.normals, want.normals)
        assert np.array_equal(got.offsets, want.offsets / TINY)

    @pytest.mark.parametrize("name", NEAR_MAX_POLYGONS)
    def test_polygons_keep_the_verdicts_of_the_tiny_copy(self, name):
        verts = NEAR_MAX_POLYGONS[name]
        G, H = ConvexPolygon(verts), ConvexPolygon(verts * TINY)
        assert np.array_equal(G.vertices, H.vertices / TINY)
        assert np.array_equal(polygon_to_hyperplanes(G).normals,
                              polygon_to_hyperplanes(H).normals)
        classify = classify_triangle if G.k == 3 else classify_quadrilateral
        assert classify(G) is classify(H)
        assert is_viviani_polygon(G) == is_viviani_polygon(H)
        if name == "square":
            assert classify(G) is QuadrilateralClass.PARALLELOGRAM
            assert is_viviani_polygon(G)

    def test_equiangular_polygon_of_the_largest_sides(self):
        sides = np.full(3, 1e308)
        G, H = make_equiangular_polygon(sides), make_equiangular_polygon(sides * TINY)
        assert np.array_equal(G.vertices, H.vertices / TINY)
        assert is_viviani_polygon(G)

    def test_sides_near_the_maximum_that_do_not_close(self):
        sides = np.ones(12)
        sides[[0, 1, 11]] = 1.7e308
        with pytest.raises(ClosureViolation, match="of the perimeter exceeds 1e-9"):
            make_equiangular_polygon(sides)

    def test_spoke_check_of_a_near_maximum_pentagon(self):
        G = regular_polygon(5, circumradius=1.5e308)
        assert spoke_points_median_check(G, G.vertices / 2)

    @pytest.mark.parametrize("name", list(NEAR_MAX) + list(NEAR_MAX_POLYGONS))
    def test_svg_equals_that_of_the_tiny_copy(self, name):
        if name in NEAR_MAX:
            def document(scale):
                return points_document(NEAR_MAX[name] * scale)
        else:
            def document(scale):
                return polygon_document(ConvexPolygon(NEAR_MAX_POLYGONS[name] * scale))
        assert render_svg(document(1.0)) == render_svg(document(TINY))
