import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viviani import (
    DimensionMismatch,
    HyperplaneSet,
    NonUnitNormal,
    VivianiError,
    fermat_to_viviani,
    is_viviani,
    level_set_direction,
    normal_sum,
    parse_document,
    planes_document,
    polygon_to_hyperplanes,
    regular_polygon,
    serialize_document,
    tetrahedron_family,
    viviani_defect,
    viviani_gradient,
    viviani_values,
)
import viviani.geometry as geometry
from viviani.geometry import _directions, _lengths, _scale_unit, _unit_box
from viviani.polytope import ConvexPolygon, make_equiangular_polygon

from helpers import (
    affinely_independent_points,
    count_calls,
    equilateral_triangle,
    random_hyperplane_set,
    random_unit,
    random_viviani_set,
)


def unit_cube_planes():
    """Outward faces of [0, 1]^3, built inline as an independent fixture."""
    normals = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    offsets = [1, 0, 1, 0, 1, 0]
    return HyperplaneSet.from_arrays(np.array(normals, dtype=float), offsets)


def value(P, S) -> float:
    """v at the single point ``P``."""
    return float(viviani_values(np.asarray(P, dtype=float)[None, :], S)[0])


class TestConstruction:
    def test_rejects_non_unit_normal(self):
        with pytest.raises(NonUnitNormal):
            HyperplaneSet.from_arrays([[2.0, 0.0]], [1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(VivianiError):
            HyperplaneSet.from_arrays([[np.nan, 0.0]], [0.0])
        with pytest.raises(VivianiError):
            HyperplaneSet.from_arrays([[1.0, 0.0]], [np.inf])

    def test_set_requires_planes(self):
        with pytest.raises(VivianiError):
            HyperplaneSet.from_arrays(np.zeros((0, 2)), [])

    def test_set_requires_uniform_dimension(self):
        with pytest.raises(DimensionMismatch, match="mixed dimensions"):
            HyperplaneSet.from_arrays([[1.0, 0.0], [1.0, 0.0, 0.0]], [0.0, 0.0])

    def test_from_arrays_is_the_only_constructor(self):
        rows = list(unit_cube_planes())
        for args in ((), (rows,)):
            with pytest.raises(TypeError, match="HyperplaneSet.from_arrays"):
                HyperplaneSet(*args)

    def test_arrays_are_read_only(self):
        row = next(iter(HyperplaneSet.from_arrays([[0.6, 0.8]], [0.0])))
        with pytest.raises(ValueError):
            row.normal[0] = 5.0


class TestSignedDistance:
    """The value of a one-plane set is the signed distance to its plane."""

    def setup_method(self):
        self.plane = HyperplaneSet.from_arrays([[1.0, 0.0]], [1.0])  # {x = 1}

    def test_normal_points_away(self):
        assert value((0, 0), self.plane) == 1.0

    def test_normal_points_toward(self):
        assert value((3, 0), self.plane) == -2.0

    def test_on_plane(self):
        assert value((1, 7), self.plane) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            value((0, 0, 0), self.plane)

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            normal = random_unit(rng, n)
            S = HyperplaneSet.from_arrays([normal], [normal @ rng.uniform(-3, 3, size=n)])
            x = rng.uniform(-5, 5, size=n)
            assert (value(x, S) < 0) == (float(normal @ x) > S.offsets[0])

    def test_flip_antisymmetry(self):
        rng = np.random.default_rng(3)
        S = random_hyperplane_set(rng, 2, 5)
        flipped = HyperplaneSet.from_arrays(-S.normals, -S.offsets)
        x = rng.uniform(-5, 5, size=(20, 2))
        assert viviani_values(x, S) == pytest.approx(-viviani_values(x, flipped), abs=1e-15)


class TestValue:
    def test_antiparallel_pair_constant(self):
        S = HyperplaneSet.from_arrays(np.array([[-1.0, 0.0], [1.0, 0.0]]), [0.0, 1.0])
        rng = np.random.default_rng(1)
        pts = rng.uniform(-10, 10, size=(20, 2))
        assert viviani_values(pts, S) == pytest.approx(np.ones(20), abs=1e-12)

    def test_equilateral_triangle_height(self):
        # constant equals the height: side * sqrt(3) / 2
        side = 2.0
        expected = side * math.sqrt(3.0) / 2.0
        tri = ConvexPolygon(equilateral_triangle(side))
        S = polygon_to_hyperplanes(tri)
        centroid = tri.vertices.mean(axis=0)
        assert value(centroid, S) == pytest.approx(expected, abs=1e-12)
        rng = np.random.default_rng(2)
        interior = rng.dirichlet(np.ones(3), size=3) @ tri.vertices
        assert viviani_values(interior, S) == pytest.approx(np.full(3, expected), abs=1e-12)

    def test_unit_cube_constant(self):
        S = unit_cube_planes()
        rng = np.random.default_rng(3)
        x = rng.uniform(-4, 4, size=(10, 3))
        assert viviani_values(x, S) == pytest.approx(np.full(10, 3.0), abs=1e-12)

    def test_values_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        S = random_hyperplane_set(rng, 3, 5)
        pts = rng.uniform(-2, 2, size=(7, 3))
        batch = viviani_values(pts, S)
        for i in range(7):
            want = sum(row.offset - float(row.normal @ pts[i]) for row in S)
            assert batch[i] == pytest.approx(want, abs=1e-12)


class TestNormalSum:
    def test_family_member_cancels(self):
        S = tetrahedron_family(math.pi / 2)
        assert np.linalg.norm(normal_sum(S)) <= 1e-12

    def test_cube_cancels(self):
        assert np.linalg.norm(normal_sum(unit_cube_planes())) == 0.0

    def test_single_plane(self):
        S = HyperplaneSet.from_arrays(np.array([[1.0, 0.0]]), [0.5])
        assert normal_sum(S).tolist() == [1.0, 0.0]


class TestDefectAndPredicate:
    def test_viviani_set_zero(self):
        rng = np.random.default_rng(5)
        S = random_viviani_set(rng, 3, 6)
        assert viviani_defect(S) <= 1e-12
        assert is_viviani(S)

    def test_single_plane_defect_one(self):
        S = HyperplaneSet.from_arrays(np.array([[0.0, 1.0]]), [0.0])
        assert viviani_defect(S) == pytest.approx(1.0, abs=1e-15)

    def test_right_triangle_defect(self):
        # hand-built outward edge normals of (0,0), (4,0), (0,3):
        # (0,-1), (3/5,4/5), (-1,0); their sum is (-2/5, -1/5)
        expected = math.sqrt(0.4**2 + 0.2**2)
        tri = ConvexPolygon(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
        defect = viviani_defect(polygon_to_hyperplanes(tri))
        assert defect == pytest.approx(expected, abs=1e-12)
        assert defect > 0.1

    def test_non_equilateral_triangle_not_viviani(self):
        tri = ConvexPolygon(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
        assert not is_viviani(polygon_to_hyperplanes(tri))

    def test_equiangular_pentagon_viviani(self):
        S = polygon_to_hyperplanes(make_equiangular_polygon([1, 1, 1, 1, 1]))
        assert is_viviani(S)

    def test_offset_independence(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            S = random_hyperplane_set(rng, 3, 5)
            new_offsets = rng.uniform(-100, 100, size=5)
            T = HyperplaneSet.from_arrays(S.normals, new_offsets)
            assert viviani_defect(S) == viviani_defect(T)

    def test_tol_must_be_positive(self):
        with pytest.raises(VivianiError):
            is_viviani(unit_cube_planes(), tol=0.0)

    def test_nan_tol_is_rejected(self):
        with pytest.raises(VivianiError):
            is_viviani(unit_cube_planes(), tol=float("nan"))


class TestGradientAndLevelSets:
    def test_gradient_of_viviani_set_vanishes(self):
        rng = np.random.default_rng(8)
        S = random_viviani_set(rng, 2, 5)
        assert np.linalg.norm(viviani_gradient(S)) <= 1e-12

    def test_single_plane_gradient(self):
        S = HyperplaneSet.from_arrays(np.array([[0.6, 0.8]]), [1.0])
        assert viviani_gradient(S) == pytest.approx([-0.6, -0.8], abs=1e-15)

    def test_duplicate_planes_allowed(self):
        S = HyperplaneSet.from_arrays([[0.0, 1.0], [0.0, 1.0]], [2.0, 2.0])
        assert viviani_gradient(S) == pytest.approx([0.0, -2.0], abs=1e-15)

    def test_level_direction_none_for_viviani(self):
        rng = np.random.default_rng(9)
        assert level_set_direction(random_viviani_set(rng, 3, 4)) is None

    def test_level_direction_single_plane(self):
        S = HyperplaneSet.from_arrays(np.array([[0.0, 1.0]]), [3.0])
        u = level_set_direction(S)
        assert u == pytest.approx([0.0, 1.0], abs=1e-15)
        P = np.array([0.7, -1.3])
        for t in (0.5, 1.0, 2.0):
            drop = value(P + t * u, S) - value(P, S)
            assert drop == pytest.approx(-t, abs=1e-12)

    def test_level_direction_two_planes(self):
        S = HyperplaneSet.from_arrays(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.0, 0.0])
        r = math.sqrt(2.0) / 2.0
        assert level_set_direction(S) == pytest.approx([r, r], abs=1e-15)

    def test_unit_step_drops_by_defect(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            S = random_hyperplane_set(rng, n, int(rng.integers(1, 8)))
            delta = viviani_defect(S)
            if delta <= 1e-9:
                continue
            u = level_set_direction(S)
            P = rng.uniform(-2, 2, size=n)
            assert value(P + u, S) - value(P, S) == pytest.approx(
                -delta, abs=1e-10
            )

    def test_constant_at_affinely_independent_points(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            S = random_viviani_set(rng, n, int(rng.integers(2, 9)))
            pts = affinely_independent_points(rng, n)
            vals = viviani_values(pts, S)
            spread = vals.max() - vals.min()
            assert spread <= 1e-9 * (1.0 + np.abs(vals).max())


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=6),
)
def test_affine_identity(data, n, k):
    """v(Q) - v(P) always equals gradient . (Q - P), Viviani or not."""
    finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
    raws = data.draw(
        st.lists(
            st.lists(finite, min_size=n, max_size=n).filter(
                lambda v: np.linalg.norm(v) > 1e-6
            ),
            min_size=k,
            max_size=k,
        )
    )
    anchors = data.draw(st.lists(st.lists(finite, min_size=n, max_size=n), min_size=k, max_size=k))
    normals = np.array(raws) / np.linalg.norm(raws, axis=1)[:, None]
    S = HyperplaneSet.from_arrays(normals, np.sum(normals * anchors, axis=1))
    P = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    Q = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    vP, vQ = viviani_values(np.array([P, Q]), S).tolist()
    lhs = vQ - vP
    rhs = float(viviani_gradient(S) @ (Q - P))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(vP) + abs(vQ))


class TestArrayStorage:
    def test_arrays_are_stored_read_only(self):
        S = unit_cube_planes()
        assert S.normals.shape == (6, 3) and S.offsets.shape == (6,)
        assert S.normals is S.normals  # stored, not rebuilt per access
        with pytest.raises(ValueError):
            S.normals[0, 0] = 2.0
        with pytest.raises(ValueError):
            S.offsets[0] = 2.0
        with pytest.raises(AttributeError):
            S.normals = np.eye(3)

    def test_from_arrays_copies_its_input(self):
        N = np.array([[1.0, 0.0], [0.0, 1.0]])
        c = np.array([1.0, 2.0])
        S = HyperplaneSet.from_arrays(N, c)
        N[0, 0], c[0] = -1.0, 5.0
        assert S.normals.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert S.offsets.tolist() == [1.0, 2.0]

    def test_rows_as_planes(self):
        # The contract that readers of ``doc.planes`` rely on: one row per
        # plane, with ``.normal`` and ``.offset``, on every pass.
        rng = np.random.default_rng(21)
        S = random_hyperplane_set(rng, 3, 7)
        assert len(S) == 7 and S.dimension == 3
        for _ in range(2):
            rows = list(S)
            assert len(rows) == 7
            for i, row in enumerate(rows):
                assert row.normal.tolist() == S.normals[i].tolist()
                assert row.offset == S.offsets[i] and type(row.offset) is float

    def test_rows_rebuild_the_set(self):
        rng = np.random.default_rng(22)
        S = random_hyperplane_set(rng, 4, 9)
        T = HyperplaneSet.from_arrays([row.normal for row in S], [row.offset for row in S])
        assert T.normals.tolist() == S.normals.tolist()
        assert T.offsets.tolist() == S.offsets.tolist()


def non_unit_message(normal) -> str:
    return f"normal has length {np.linalg.norm(normal)!r}, expected 1 within 1e-09"


class TestFromArraysErrors:
    """``from_arrays`` checks whole arrays at once, and raises for the first
    bad row: a non-finite normal, then a non-unit normal, then a non-finite
    offset, each with its own class and message."""

    ROWS = 40

    def base(self):
        rng = np.random.default_rng(23)
        N = rng.normal(size=(self.ROWS, 3))
        N /= np.linalg.norm(N, axis=1)[:, None]
        return N, rng.uniform(-2.0, 2.0, size=self.ROWS)

    @pytest.mark.parametrize("later", ["nan coordinate", "long normal"])
    @pytest.mark.parametrize("row", [0, 17, 39])
    @pytest.mark.parametrize("fault, cls", [
        ("nan coordinate", VivianiError),
        ("inf coordinate", VivianiError),
        ("long normal", NonUnitNormal),
        ("slightly long normal", NonUnitNormal),
        ("nan offset", VivianiError),
        ("inf offset", VivianiError),
    ])
    def test_first_bad_row_raises_its_error(self, fault, cls, row, later):
        N, c = self.base()
        if fault == "nan coordinate":
            N[row, 1] = np.nan
        elif fault == "inf coordinate":
            N[row, 2] = -np.inf
        elif fault == "long normal":
            N[row] *= 2.0
        elif fault == "slightly long normal":
            N[row] *= 1.0 + 3e-9
        elif fault == "nan offset":
            c[row] = np.nan
        else:
            c[row] = np.inf
        if fault.endswith("coordinate"):
            want = cls, "vector coordinates must be finite"
        elif fault.endswith("normal"):
            want = cls, non_unit_message(N[row])
        else:
            want = cls, "offset must be finite"
        # A later bad row must not win: a NaN, which a whole-array finiteness
        # check would report first, or a normal of length 3, whose message
        # differs from every fault above.
        if row < self.ROWS - 1 and later == "nan coordinate":
            N[-1, 0] = np.nan
        elif row < self.ROWS - 1:
            N[-1] *= 3.0
        with pytest.raises(VivianiError) as err:
            HyperplaneSet.from_arrays(N, c)
        assert (type(err.value), str(err.value)) == want

    def test_a_row_with_several_faults_raises_for_its_normal_first(self):
        rows = [[1.0, 0.0], [np.nan, 0.0], [2.0, 0.0]]
        with pytest.raises(VivianiError) as err:
            HyperplaneSet.from_arrays(rows, [0.0, np.inf, np.inf])
        assert (type(err.value), str(err.value)) == (
            VivianiError, "vector coordinates must be finite")
        with pytest.raises(NonUnitNormal) as err:
            HyperplaneSet.from_arrays(rows[::2], [0.0, np.inf])
        assert str(err.value) == non_unit_message([2.0, 0.0])

    def test_messages(self):
        cases = [
            ([[1.0, 0.0], [np.nan, 0.0]], [0.0, 0.0], "vector coordinates must be finite"),
            ([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0],
             f"normal has length {np.float64(2.0)!r}, expected 1 within 1e-09"),
            ([[1.0, 0.0], [0.0, 1.0]], [0.0, np.inf], "offset must be finite"),
            ([[1.0, 0.0]], [0.0, 1.0], "need one offset per normal row"),
            (np.zeros((0, 2)), [], "a hyperplane set must contain at least one plane"),
            (np.zeros((1, 0)), [0.0], "vector needs at least one coordinate"),
        ]
        for N, c, message in cases:
            with pytest.raises(VivianiError) as err:
                HyperplaneSet.from_arrays(N, c)
            assert str(err.value) == message

    def test_unit_threshold_is_inclusive_as_per_plane(self):
        # The bulk check must accept and reject exactly the rows that the
        # single-vector test |np.linalg.norm(n) - 1| <= 1e-9 does, right at
        # the threshold: these norms lie within a few float spacings of
        # 1 + 1e-9, where rounding decides.
        rng = np.random.default_rng(24)
        N = rng.normal(size=(2000, 3))
        N /= np.linalg.norm(N, axis=1)[:, None]
        N *= (1.0 + 1e-9) * (1.0 + rng.integers(-3, 4, size=2000) * 2.0 ** -52)[:, None]
        verdicts = []
        for n in N:
            verdicts.append(abs(float(np.linalg.norm(n)) - 1.0) <= 1e-9)
            try:
                HyperplaneSet.from_arrays([n], [0.0])
                got = True
            except NonUnitNormal:
                got = False
            assert got == verdicts[-1]
        assert 100 < sum(verdicts) < 1900  # both sides of the threshold seen

    def test_row_flagged_by_the_screen_but_accepted_does_not_hide_later_faults(
        self, monkeypatch
    ):
        # Should the vectorised norm screen ever flag a row that the row
        # check accepts, a later bad row must still raise.
        screen = geometry._unit_deviation
        monkeypatch.setattr(geometry, "_unit_deviation",
                            lambda N: screen(N) + (np.arange(len(N)) == 0))
        N, c = self.base()
        HyperplaneSet.from_arrays(N, c)  # row 0 flagged, then accepted
        c[17] = np.nan
        with pytest.raises(VivianiError, match="offset must be finite"):
            HyperplaneSet.from_arrays(N, c)


class TestNoPerPlaneObjects:
    """The hot paths build arrays; only iterating a set builds one
    :class:`Plane` per row."""

    def test_fermat_to_viviani(self, monkeypatch):
        rng = np.random.default_rng(25)
        half = rng.normal(size=(5000, 3))
        pts = np.vstack([half, -half])  # the origin's spokes cancel exactly
        calls = count_calls(monkeypatch, geometry, "Plane")
        S = fermat_to_viviani(pts, np.zeros(3))
        assert len(S) == 10_000 and len(calls) == 0

    def test_document_round_trip(self, monkeypatch):
        S = random_hyperplane_set(np.random.default_rng(26), 3, 10_000)
        calls = count_calls(monkeypatch, geometry, "Plane")
        text = serialize_document(planes_document(S))
        again = parse_document(text)
        assert serialize_document(again) == text
        assert len(calls) == 0

    def test_polygon_to_hyperplanes(self, monkeypatch):
        calls = count_calls(monkeypatch, geometry, "Plane")
        S = polygon_to_hyperplanes(regular_polygon(12, 3.0))
        assert len(S) == 12 and len(calls) == 0

    def test_counter_sees_per_plane_construction(self, monkeypatch):
        calls = count_calls(monkeypatch, geometry, "Plane")
        rows = list(HyperplaneSet.from_arrays([[1.0, 0.0], [0.0, 1.0]], [0.0, 2.0]))
        assert len(calls) == 2 and rows[1].offset == 2.0


class TestScaleUnit:
    """``_scale_unit`` picks powers of two; ``_unit_box`` is a point set's unit."""

    def test_ordinary_lengths_are_not_divided(self):
        for length in (0.0, 2.0 ** -400, 1.0, 3e12, 2.0 ** 400):
            assert _scale_unit(length) == 1.0

    def test_extreme_lengths_map_into_one_to_two(self):
        for length in (5e-324, 1e-300, 1e300, 1.7e308):
            u = _scale_unit(length)
            assert math.frexp(u)[0] == 0.5 and 1.0 <= length / u < 2.0

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_non_finite_lengths_are_refused(self, length):
        with pytest.raises(VivianiError, match="finite"):
            _scale_unit(length)

    def test_unit_box_of_a_set_spanning_the_float_range(self):
        A = np.array([[-1.7e308, 0.0], [1.7e308, 1e308]])
        u, lo, hi = _unit_box(A)
        assert u == 2.0 ** 1023
        assert np.array_equal(lo, A.min(axis=0) / u)
        assert np.array_equal(hi, A.max(axis=0) / u)
        assert np.isfinite(hi - lo).all()

    def test_unit_box_leaves_ordinary_sets_alone(self):
        A = np.random.default_rng(27).normal(size=(20, 3)) * 1e6 + 1e12
        u, lo, hi = _unit_box(A)
        assert u == 1.0
        assert np.array_equal(lo, A.min(axis=0)) and np.array_equal(hi, A.max(axis=0))

    @pytest.mark.parametrize("raw, unit", [
        ((1e-13, 0.0), [1.0, 0.0]),
        ((1e-300, 0.0), [1.0, 0.0]),
        ((5e-324, 0.0), [1.0, 0.0]),
        ((1e300, 1e300), [math.sqrt(0.5), math.sqrt(0.5)]),
    ], ids=["1e-13", "1e-300", "5e-324", "1e300"])
    def test_directions_of_any_length(self, raw, unit):
        # only the zero vector has no direction; a point-space length
        # threshold, or squaring before scaling, rejected these
        A = np.array([raw])  # one row: the unit is that of its own length
        assert _directions(A)[0].tolist() == pytest.approx(unit, abs=1e-15)
        assert _lengths(A)[0] == pytest.approx(math.hypot(*raw), rel=1e-15)
