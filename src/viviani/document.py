"""JSON interchange documents.

A document carries exactly one payload -- oriented planes, a convex
polygon, or a point list -- plus its ambient dimension and a free-form
string-to-string metadata map:

    {"dimension": 2,
     "planes": [{"normal": [0.0, 1.0], "offset": 1.0}, ...],
     "metadata": {"note": "..."}}

    {"dimension": 2, "polygon": {"vertices": [[0.0, 0.0], [1.0, 0.0], ...]}}

    {"dimension": 3, "points": [[0.0, 0.0, 0.0], ...]}

Normals are accepted as given when unit to 1e-9, renormalized with a
:class:`NormalizationWarning` when off by up to 1e-6, and rejected beyond
that.  Serialization uses shortest round-trip float formatting (Python's
repr), so parse -> serialize -> parse is the identity on the model.

Payloads are read and written as whole arrays: a planes document holds a
:class:`HyperplaneSet`, and number lists are type-checked in bulk; entries
are walked one by one only to name the first bad one.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    DocumentSyntaxError,
    InvalidPolygon,
    NormalizationWarning,
    NormTolerance,
    SchemaError,
    VivianiError,
)
from .geometry import HyperplaneSet, _unit_deviation
from .polytope import ConvexPolygon, polygon_to_hyperplanes

_PAYLOAD_KEYS = ("planes", "polygon", "points")
_PLANE_KEYS = {"normal", "offset"}
_NUMBER_TYPES = {int, float}


@dataclass(frozen=True, eq=False)
class ConfigDocument:
    """Validated in-memory form of one interchange document."""

    dimension: int
    planes: HyperplaneSet | None = None
    polygon: ConvexPolygon | None = None
    points: np.ndarray | None = None
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        if self.planes is not None:
            return "planes"
        if self.polygon is not None:
            return "polygon"
        return "points"

    def to_hyperplane_set(self) -> HyperplaneSet:
        """Planes of a planes- or polygon-document."""
        if self.planes is not None:
            return self.planes
        if self.polygon is not None:
            return polygon_to_hyperplanes(self.polygon)
        raise VivianiError("document holds points, not planes")

    def point_array(self) -> np.ndarray:
        if self.points is None:
            raise VivianiError("document holds no points")
        return self.points


def _require(cond: bool, where: str, what: str):
    if not cond:
        raise SchemaError(f"{where}: {what}")


def _as_number(x, where: str) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool),
             where, "expected a number")
    try:
        v = float(x)
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError(f"{where}: number beyond the float range") from None
    _require(np.isfinite(v), where, "number must be finite")
    return v


def _as_coords(x, dim: int, where: str) -> list[float]:
    _require(isinstance(x, list), where, "expected an array of numbers")
    _require(len(x) == dim, where, f"expected {dim} coordinates, got {len(x)}")
    return [_as_number(v, f"{where}[{i}]") for i, v in enumerate(x)]


def _ingest_normal(coords, where: str) -> np.ndarray:
    n = np.array(coords)
    dev = abs(float(np.linalg.norm(n)) - 1.0)
    if dev <= 1e-9:
        return n
    if dev <= 1e-6:
        warnings.warn(
            f"{where}: normal off unit length by {dev:.3e}; renormalizing",
            NormalizationWarning,
            stacklevel=4,
        )
        return n / np.linalg.norm(n)
    raise NormTolerance(f"{where}: normal off unit length by {dev:.3e} (limit 1e-06)")


def _numbers(values) -> np.ndarray | None:
    """``values`` as a float array, or None unless each is a finite JSON number."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        return None
    try:
        a = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return a if np.isfinite(a).all() else None


def _number_rows(rows, dim: int) -> np.ndarray | None:
    """``rows`` as a (len(rows), dim) array, or None unless each row is a
    list of ``dim`` finite JSON numbers."""
    if not ({list}.issuperset(map(type, rows)) and {dim}.issuperset(map(len, rows))):
        return None
    a = _numbers(list(chain.from_iterable(rows)))
    return None if a is None else a.reshape(len(rows), dim)


def _coord_rows(rows, dim: int, where: str) -> np.ndarray:
    """(len(rows), dim) array of coordinate lists; a bad entry raises a
    :class:`SchemaError` naming it, as ``where.format(i)`` plus ``[j]``."""
    a = _number_rows(rows, dim)
    if a is None:
        a = np.array([_as_coords(r, dim, where.format(i)) for i, r in enumerate(rows)])
    return a


def _plane_rows(entries, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Normals and offsets of a planes payload.

    Checked as whole arrays; only when some entry is malformed are they
    walked in order, so that the error names the first bad one.  Normals
    off unit length are renormalized or rejected row by row, in order.
    """
    N = c = None
    if all(type(e) is dict and e.keys() == _PLANE_KEYS for e in entries):
        N = _number_rows([e["normal"] for e in entries], dim)
        c = _numbers([e["offset"] for e in entries])
    if N is None or c is None:
        normals, offsets = [], []
        for i, e in enumerate(entries):
            where = f"planes[{i}]"
            _require(isinstance(e, dict), where, "expected an object")
            _require(set(e) == _PLANE_KEYS, where,
                     "expected exactly the keys 'normal' and 'offset'")
            normals.append(_ingest_normal(_as_coords(e["normal"], dim, f"{where}.normal"), where))
            offsets.append(_as_number(e["offset"], f"{where}.offset"))
        return np.array(normals), np.array(offsets)
    for i in np.flatnonzero(~(_unit_deviation(N) <= 1e-9)):
        N[i] = _ingest_normal(N[i], f"planes[{i}]")
    return N, c


def parse_document(text: str | bytes) -> ConfigDocument:
    """Parse and validate one JSON document.

    Syntax problems raise :class:`DocumentSyntaxError` with line and column;
    structural problems raise :class:`SchemaError` naming the offending
    JSON path.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentSyntaxError(f"input is not UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    _require(isinstance(raw, dict), "document", "expected a JSON object")
    unknown = set(raw) - {"dimension", "metadata", *_PAYLOAD_KEYS}
    if unknown:
        raise SchemaError(f"document: unknown keys {sorted(unknown)}")
    _require("dimension" in raw, "document", "missing 'dimension'")
    dim = raw["dimension"]
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
             "dimension", "expected an integer >= 1")

    present = [k for k in _PAYLOAD_KEYS if k in raw]
    if len(present) != 1:
        raise SchemaError(f"document: exactly one of {list(_PAYLOAD_KEYS)} required, "
                          f"found {present or 'none'}")

    metadata = raw.get("metadata", {})
    _require(isinstance(metadata, dict), "metadata", "expected an object")
    for mk, mv in metadata.items():
        _require(isinstance(mk, str) and isinstance(mv, str),
                 f"metadata[{mk!r}]", "keys and values must be strings")

    kind = present[0]
    if kind == "planes":
        entries = raw["planes"]
        _require(isinstance(entries, list) and entries, "planes",
                 "expected a nonempty array")
        S = HyperplaneSet.from_arrays(*_plane_rows(entries, dim))
        return ConfigDocument(dimension=dim, planes=S, metadata=dict(metadata))

    if kind == "polygon":
        _require(dim == 2, "polygon", "polygon documents must have dimension 2")
        poly = raw["polygon"]
        _require(isinstance(poly, dict) and set(poly) == {"vertices"},
                 "polygon", "expected an object with the single key 'vertices'")
        verts = poly["vertices"]
        _require(isinstance(verts, list) and len(verts) >= 3, "polygon.vertices",
                 "expected an array of at least 3 vertices")
        coords = _coord_rows(verts, 2, "polygon.vertices[{}]")
        try:
            polygon = ConvexPolygon(coords)
        except InvalidPolygon as exc:
            raise SchemaError(f"polygon.vertices: {exc}") from exc
        return ConfigDocument(dimension=2, polygon=polygon, metadata=dict(metadata))

    entries = raw["points"]
    _require(isinstance(entries, list) and entries, "points", "expected a nonempty array")
    pts = _coord_rows(entries, dim, "points[{}]")
    pts.flags.writeable = False
    return ConfigDocument(dimension=dim, points=pts, metadata=dict(metadata))


def _json_rows(A: np.ndarray) -> list[str]:
    """Each row of ``A`` as ``json.dumps`` writes it, without the brackets.

    One ``json.dumps`` call formats every number: finite floats in
    shortest round-trip form (``float.__repr__``).  Number texts hold no
    brackets, so splitting at ``"], ["`` recovers the rows.
    """
    return json.dumps(A.tolist())[2:-2].split("], [")


def serialize_document(doc: ConfigDocument) -> str:
    """Deterministic JSON text for ``doc``: one entry per line, floats in
    shortest round-trip form, metadata keys sorted."""
    segments = [f'"dimension": {doc.dimension}']
    if doc.planes is not None:
        offsets = json.dumps(doc.planes.offsets.tolist())[1:-1].split(", ")
        rows = ",\n    ".join(
            f'{{"normal": [{n}], "offset": {c}}}'
            for n, c in zip(_json_rows(doc.planes.normals), offsets)
        )
        segments.append(f'"planes": [\n    {rows}\n  ]')
    elif doc.polygon is not None:
        rows = "],\n      [".join(_json_rows(doc.polygon.vertices))
        segments.append(f'"polygon": {{\n    "vertices": [\n      [{rows}]\n    ]\n  }}')
    else:
        rows = "],\n    [".join(_json_rows(doc.points))
        segments.append(f'"points": [\n    [{rows}]\n  ]')
    if doc.metadata:
        segments.append(f'"metadata": {json.dumps(doc.metadata, sort_keys=True)}')
    return "{\n  " + ",\n  ".join(segments) + "\n}\n"


def load_document(path) -> ConfigDocument:
    with open(path, "rb") as fh:
        return parse_document(fh.read())


def planes_document(S: HyperplaneSet, metadata: dict[str, str] | None = None) -> ConfigDocument:
    return ConfigDocument(dimension=S.dimension, planes=S, metadata=dict(metadata or {}))


def points_document(points, dimension: int | None = None,
                    metadata: dict[str, str] | None = None) -> ConfigDocument:
    """Points document for ``points``; non-finite coordinates are rejected,
    since no JSON number can carry them back."""
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    if not np.isfinite(pts).all():
        raise VivianiError("point coordinates must be finite")
    pts.flags.writeable = False
    return ConfigDocument(dimension=dimension or pts.shape[1], points=pts,
                          metadata=dict(metadata or {}))


def polygon_document(G: ConvexPolygon, metadata: dict[str, str] | None = None) -> ConfigDocument:
    return ConfigDocument(dimension=2, polygon=G, metadata=dict(metadata or {}))
