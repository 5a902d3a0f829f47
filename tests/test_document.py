import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viviani import (
    DocumentSyntaxError,
    HyperplaneSet,
    NormalizationWarning,
    NormTolerance,
    SchemaError,
    VivianiError,
    load_document,
    make_equiangular_polygon,
    parse_document,
    planes_document,
    points_document,
    polygon_document,
    regular_polygon,
    serialize_document,
)
from viviani.polytope import ConvexPolygon, platonic_solid_normals

from helpers import random_hyperplane_set

FIXTURES = sorted((Path(__file__).parent.parent / "fixtures").glob("*.json"))


def reference_serialize(doc) -> str:
    """The per-entry ``json.dumps`` formatter, kept as the reference that
    ``serialize_document`` must match byte for byte."""
    obj: dict = {"dimension": doc.dimension}
    if doc.planes is not None:
        obj["planes"] = [
            {"normal": [float(v) for v in p.normal], "offset": float(p.offset)}
            for p in doc.planes
        ]
    elif doc.polygon is not None:
        obj["polygon"] = {
            "vertices": [[float(a), float(b)] for a, b in doc.polygon.vertices]
        }
    else:
        obj["points"] = [[float(v) for v in row] for row in doc.points]
    if doc.metadata:
        obj["metadata"] = dict(sorted(doc.metadata.items()))
    segments = [f'"dimension": {obj["dimension"]}']
    if "planes" in obj:
        rows = ",\n    ".join(
            f'{{"normal": {json.dumps(e["normal"])}, "offset": {json.dumps(e["offset"])}}}'
            for e in obj["planes"]
        )
        segments.append(f'"planes": [\n    {rows}\n  ]')
    elif "polygon" in obj:
        rows = ",\n      ".join(json.dumps(v) for v in obj["polygon"]["vertices"])
        segments.append(f'"polygon": {{\n    "vertices": [\n      {rows}\n    ]\n  }}')
    else:
        rows = ",\n    ".join(json.dumps(p) for p in obj["points"])
        segments.append(f'"points": [\n    {rows}\n  ]')
    if "metadata" in obj:
        segments.append(f'"metadata": {json.dumps(obj["metadata"], sort_keys=True)}')
    return "{\n  " + ",\n  ".join(segments) + "\n}\n"


def doc_equal(a, b) -> bool:
    if a.dimension != b.dimension or a.kind != b.kind or a.metadata != b.metadata:
        return False
    if a.kind == "planes":
        return (a.planes.normals.tolist() == b.planes.normals.tolist()
                and a.planes.offsets.tolist() == b.planes.offsets.tolist())
    if a.kind == "polygon":
        return a.polygon.vertices.tolist() == b.polygon.vertices.tolist()
    return a.points.tolist() == b.points.tolist()


class TestParse:
    def test_minimal_planes_doc(self):
        doc = parse_document('{"dimension":2,"planes":[{"normal":[1,0],"offset":1}]}')
        assert doc.kind == "planes"
        assert doc.planes.normals.tolist() == [[1.0, 0.0]]
        assert doc.planes.offsets.tolist() == [1.0]

    def test_norm_tolerance_rejected(self):
        with pytest.raises(NormTolerance):
            parse_document('{"dimension":2,"planes":[{"normal":[2,0],"offset":1}]}')

    def test_near_unit_renormalized_with_warning(self):
        text = json.dumps(
            {"dimension": 2, "planes": [{"normal": [1.0 + 3e-8, 0.0], "offset": 1.0}]}
        )
        with pytest.warns(NormalizationWarning):
            doc = parse_document(text)
        assert abs(np.linalg.norm(doc.planes.normals[0]) - 1.0) <= 1e-15

    def test_within_1e9_kept_verbatim(self):
        value = 1.0 + 2e-10
        text = json.dumps({"dimension": 2, "planes": [{"normal": [value, 0.0], "offset": 0.0}]})
        doc = parse_document(text)
        assert doc.planes.normals[0, 0] == value

    def test_two_payloads_rejected(self):
        with pytest.raises(SchemaError):
            parse_document(
                '{"dimension":2,"planes":[{"normal":[1,0],"offset":1}],"points":[[0,0]]}'
            )

    def test_no_payload_rejected(self):
        with pytest.raises(SchemaError):
            parse_document('{"dimension":2}')

    def test_syntax_error_carries_position(self):
        with pytest.raises(DocumentSyntaxError) as err:
            parse_document('{"dimension": 2,\n  "points": [[0, 0],]\n}')
        assert "line 2" in str(err.value)

    def test_schema_error_names_path(self):
        with pytest.raises(SchemaError) as err:
            parse_document('{"dimension":2,"points":[[0,0],[1,"x"]]}')
        assert "points[1]" in str(err.value)

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            parse_document('{"dimension":3,"points":[[0,0]]}')

    def test_non_finite_rejected(self):
        with pytest.raises(SchemaError):
            parse_document('{"dimension":2,"points":[[0,NaN]]}')

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            parse_document('{"dimension":2,"points":[[0,0]],"color":"red"}')

    def test_polygon_must_be_2d(self):
        with pytest.raises(SchemaError):
            parse_document('{"dimension":3,"polygon":{"vertices":[[0,0],[1,0],[0,1]]}}')

    def test_nonconvex_polygon_rejected(self):
        with pytest.raises(SchemaError):
            parse_document(
                '{"dimension":2,"polygon":{"vertices":[[0,0],[4,0],[1,1],[0,4]]}}'
            )

    def test_metadata_must_be_strings(self):
        with pytest.raises(SchemaError):
            parse_document('{"dimension":2,"points":[[0,0]],"metadata":{"a":1}}')

    def test_bytes_accepted(self):
        doc = parse_document(b'{"dimension":2,"points":[[0,0]]}')
        assert doc.kind == "points"

    def test_invalid_utf8(self):
        with pytest.raises(DocumentSyntaxError):
            parse_document(b'{"dimension": 2\xff}')


class TestRoundTrip:
    @pytest.mark.parametrize("build", [
        lambda: planes_document(platonic_solid_normals("dodecahedron"),
                                metadata={"b": "2", "a": "1"}),
        lambda: points_document(np.array([[0.25, -1.5, 3.125], [1e-17, 2.0, -0.0]])),
        lambda: polygon_document(ConvexPolygon(np.array([[0.0, 0], [4, 0], [3, 2], [1, 2]]))),
    ])
    def test_parse_serialize_parse_identity(self, build):
        doc = build()
        text = serialize_document(doc)
        again = parse_document(text)
        assert doc_equal(doc, again)
        assert serialize_document(again) == text

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_point_payload_round_trip_any_floats(self, rows):
        doc = points_document(np.array(rows, dtype=float))
        again = parse_document(serialize_document(doc))
        assert again.points.tolist() == doc.points.tolist()
        assert serialize_document(again) == serialize_document(doc)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_not_written(self, bad):
        # JSON has no number for them, so such a document could not be
        # read back
        with pytest.raises(VivianiError, match="finite"):
            points_document([[0.0, 1.0], [bad, 0.0]])

    def test_document_payload_accessors(self):
        doc = points_document([[0.0, 0.0], [1.0, 1.0]])
        assert doc.point_array().shape == (2, 2)
        with pytest.raises(VivianiError):
            doc.to_hyperplane_set()
        planes = planes_document(platonic_solid_normals("cube"))
        assert len(planes.to_hyperplane_set()) == 6
        with pytest.raises(VivianiError):
            planes.point_array()


def planes_text(entries, dim=2) -> str:
    return json.dumps({"dimension": dim, "planes": entries})


def plane(normal, offset=1.0) -> dict:
    return {"normal": normal, "offset": offset}


UNIT = plane([1.0, 0.0])


class TestBulkErrors:
    """Entries are checked as whole arrays, yet the error names the first bad
    entry and path exactly as an entry-by-entry walk would."""

    @pytest.mark.parametrize("bad, where, what", [
        (plane([True, 0.0]), "planes[{i}].normal[0]", "expected a number"),
        (plane([1.0, "0"]), "planes[{i}].normal[1]", "expected a number"),
        (plane([1.0, None]), "planes[{i}].normal[1]", "expected a number"),
        (plane([1.0]), "planes[{i}].normal", "expected 2 coordinates, got 1"),
        (plane(1.0), "planes[{i}].normal", "expected an array of numbers"),
        (plane([1.0, 0.0], False), "planes[{i}].offset", "expected a number"),
        (plane([1.0, 0.0], "1"), "planes[{i}].offset", "expected a number"),
        ([1.0, 0.0], "planes[{i}]", "expected an object"),
        ({"normal": [1.0, 0.0]}, "planes[{i}]",
         "expected exactly the keys 'normal' and 'offset'"),
    ])
    @pytest.mark.parametrize("i", [0, 5, 999])
    def test_planes_schema_error_names_entry(self, bad, where, what, i):
        entries = [UNIT] * 1000
        entries[i] = bad
        if i < 999:
            entries[999] = plane([1.0, "late"])  # a later fault must not win
        with pytest.raises(SchemaError) as err:
            parse_document(planes_text(entries))
        assert str(err.value) == f"{where.format(i=i)}: {what}"

    @pytest.mark.parametrize("literal, where", [
        ('{"normal": [1, NaN], "offset": 1}', "planes[3].normal[1]"),
        ('{"normal": [Infinity, 0], "offset": 1}', "planes[3].normal[0]"),
        ('{"normal": [1, 0], "offset": -Infinity}', "planes[3].offset"),
    ])
    def test_non_finite_number_named(self, literal, where):
        row = '{"normal": [0, 1], "offset": 2}'
        text = ('{"dimension": 2, "planes": [' + ", ".join([row] * 3 + [literal] + [row])
                + "]}")
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert str(err.value) == f"{where}: number must be finite"

    @pytest.mark.parametrize("text, message", [
        ('{"dimension": 2, "points": [[0, 0], [1, NaN]]}', "points[1][1]: number must be finite"),
        ('{"dimension": 2, "points": [[0, 0], [1, true]]}', "points[1][1]: expected a number"),
        ('{"dimension": 2, "points": [[0, 0], [1, "2"]]}', "points[1][1]: expected a number"),
        ('{"dimension": 2, "points": [[0, 0], [1]]}', "points[1]: expected 2 coordinates, got 1"),
        ('{"dimension": 2, "points": [[0, 0], 3]}', "points[1]: expected an array of numbers"),
        ('{"dimension": 2, "polygon": {"vertices": [[0, 0], [1, 0], [0, false]]}}',
         "polygon.vertices[2][1]: expected a number"),
    ])
    def test_points_and_vertices_named(self, text, message):
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("i", [0, 999])
    def test_integer_beyond_float_range_named(self, i):
        rows = [[0, 0]] * 1000
        rows[i] = [1, 10 ** 400]
        with pytest.raises(SchemaError) as err:
            parse_document(json.dumps({"dimension": 2, "points": rows}))
        assert str(err.value) == f"points[{i}][1]: number beyond the float range"

    def test_norm_tolerance_names_first_entry(self):
        entries = [UNIT] * 50
        entries[7] = plane([2.0, 0.0])
        entries[20] = plane([1.0, "x"])
        with pytest.raises(NormTolerance) as err:
            parse_document(planes_text(entries))
        assert str(err.value) == "planes[7]: normal off unit length by 1.000e+00 (limit 1e-06)"

    def test_schema_error_before_norm_error_wins(self):
        entries = [UNIT] * 50
        entries[7] = plane([1.0, "x"])
        entries[20] = plane([2.0, 0.0])
        with pytest.raises(SchemaError) as err:
            parse_document(planes_text(entries))
        assert str(err.value) == "planes[7].normal[1]: expected a number"

    def test_one_warning_per_off_unit_row_in_order(self):
        entries = [UNIT] * 30
        off = {3: 1.0 + 3e-8, 11: 1.0 - 4e-7, 26: 1.0 + 9e-7}
        for i, scale in off.items():
            entries[i] = plane([0.6 * scale, 0.8 * scale])
        entries[15] = plane([0.6, 0.8 + 2e-10])  # within 1e-9: kept as given
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            doc = parse_document(planes_text(entries))
        assert [w.category for w in caught] == [NormalizationWarning] * 3
        assert [str(w.message).split(":")[0] for w in caught] == [
            f"planes[{i}]" for i in off
        ]
        for i in off:  # renormalised one row at a time, as a single vector
            n = np.array(entries[i]["normal"])
            assert doc.planes.normals[i].tolist() == (n / np.linalg.norm(n)).tolist()
        assert doc.planes.normals[15].tolist() == [0.6, 0.8 + 2e-10]

    def test_warnings_before_the_error_are_kept(self):
        entries = [plane([1.0 + 3e-8, 0.0]), plane([1.0 + 3e-6, 0.0]), plane([1.0 + 3e-8, 0.0])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NormTolerance) as err:
                parse_document(planes_text(entries))
        assert [str(w.message) for w in caught] == [
            "planes[0]: normal off unit length by 3.000e-08; renormalizing"
        ]
        assert str(err.value) == "planes[1]: normal off unit length by 3.000e-06 (limit 1e-06)"


class TestArrayDocuments:
    def test_planes_document_holds_the_set(self):
        S = platonic_solid_normals("icosahedron")
        doc = planes_document(S)
        assert doc.planes is S
        assert doc.to_hyperplane_set() is S

    def test_parsed_planes_are_a_set(self):
        doc = parse_document(planes_text([UNIT, plane([0, 1], 2)]))
        assert isinstance(doc.planes, HyperplaneSet)
        assert doc.to_hyperplane_set() is doc.planes
        assert doc.planes.normals.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert doc.planes.offsets.tolist() == [1.0, 2.0]

    def test_integers_are_read_as_floats(self):
        doc = parse_document('{"dimension": 2, "points": [[1, -0], [12345678901234567891, 3]]}')
        assert doc.points.dtype == float
        assert doc.points.tolist() == [[1.0, 0.0], [float(12345678901234567891), 3.0]]


def seeded_documents():
    rng = np.random.default_rng(31)
    docs = []
    for n in (1, 2, 3, 7):
        S = random_hyperplane_set(rng, n, int(rng.integers(1, 30)), offset_scale=1e3)
        docs.append(planes_document(S, metadata={"b": "2", "a": 'q"\u00e9'}))
    special = np.array([-0.0, 5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0, 2.0 ** 60, -7.0])
    N = np.zeros((8, 2))
    N[:, 0] = 1.0
    N[1] = [-0.0, -1.0]
    docs.append(planes_document(HyperplaneSet.from_arrays(N, special)))
    docs.append(points_document(special.reshape(4, 2)))
    docs.append(points_document([[1, 2, 3], [-4, 0, 6]]))  # integer input
    docs.append(points_document(rng.normal(size=(50, 4)) * 10.0 ** rng.uniform(-300, 300, (50, 4))))
    docs.append(polygon_document(regular_polygon(9, 1e-7, center=(5e-324, -0.0))))
    docs.append(polygon_document(make_equiangular_polygon([1, 2, 3, 1, 2, 3])))
    return docs


class TestByteIdentity:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
    def test_fixtures(self, path):
        doc = load_document(path)
        assert serialize_document(doc) == reference_serialize(doc)

    def test_four_fixtures_present(self):
        assert len(FIXTURES) == 4

    @pytest.mark.parametrize("i", range(len(seeded_documents())))
    def test_seeded_documents(self, i):
        doc = seeded_documents()[i]
        assert serialize_document(doc) == reference_serialize(doc)

    def test_ten_thousand_planes(self):
        doc = planes_document(random_hyperplane_set(np.random.default_rng(32), 3, 10_000))
        text = serialize_document(doc)
        assert text == reference_serialize(doc)
        assert serialize_document(parse_document(text)) == text
