"""Oriented hyperplanes and signed-distance sums.

An oriented hyperplane in R^n is stored as a unit normal ``n`` and a scalar
offset ``c``; the hyperplane is ``{x : n.x = c}`` and the normal points into
the half-space ``n.x > c``.  The signed distance of a point ``P`` is
``c - n.P``: zero on the plane, *negative* when the normal points into the
half-space containing ``P``, and ``|c - n.P|`` is always the Euclidean
distance to the plane.

For a finite multiset of oriented hyperplanes the value function

    v(P) = sum of signed distances from P to each plane

is affine with gradient ``-(n_1 + ... + n_k)``.  It is therefore constant
exactly when the unit normals cancel; we call such a set *Viviani* (after
the classical constant-sum theorem for equilateral triangles).  The norm of
the normal sum is the *defect*: the rate at which v changes per unit length
along the normal-sum direction.

A :class:`HyperplaneSet` stores such a multiset as arrays: a (k, n) array
of unit normals and a (k,) array of offsets, both read-only, validated in
one vectorised pass by :meth:`HyperplaneSet.from_arrays`, its only
constructor.  There is no validated single-plane type: one plane is a set
of one row, the functions here take whole sets and whole arrays of
points, and iterating a set yields plain ``(normal, offset)`` rows.

Tolerances follow one rule.  Point-space tolerances (coincidence,
one-sidedness, degeneracy) scale with the magnitude of their operands, so
translating or scaling an input never changes a verdict.  Normal-space
tolerances (the defect, unit length) stay absolute, since unit normals have
no scale.  Point-space lengths are taken in one place, :func:`_lengths`
and :func:`_directions`: both divide by the power of two of
:func:`_scale_unit`, which is exact and leaves ordinary magnitudes
untouched, so their squares neither overflow nor underflow.  A point set's
own unit is chosen in one place too, :func:`_unit_box`, from half-widths
that cannot overflow; the median solver, :class:`~viviani.ConvexPolygon`
and the SVG viewport divide by it before they take any difference, so
every finite input keeps its differences finite.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonUnitNormal, VivianiError

#: Absolute tolerance on the defect below which a set counts as Viviani.
#: The defect is a sum of at most k unit vectors, so an absolute threshold
#: is scale-free in the coordinates.
DEFAULT_TOL = 1e-9

_UNIT_SLACK = 1e-9


def as_vector(coords, dim: int | None = None) -> np.ndarray:
    """Validate and return ``coords`` as a read-only float vector.

    Entries must be finite and the length at least 1; ``dim``, when given,
    pins the expected dimension.
    """
    v = np.array(coords, dtype=float, copy=True).reshape(-1)
    if v.size < 1:
        raise VivianiError("vector needs at least one coordinate")
    if not np.all(np.isfinite(v)):
        raise VivianiError("vector coordinates must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    v.flags.writeable = False
    return v


class Plane(NamedTuple):
    """One row of a :class:`HyperplaneSet`, as iterating the set yields it:
    ``normal`` is a row of ``normals``, ``offset`` the matching offset."""

    normal: np.ndarray
    offset: float


class HyperplaneSet:
    """Nonempty ordered multiset of oriented hyperplanes of one dimension.

    Stored as two arrays: ``normals`` (k, n), one unit normal per row, and
    ``offsets`` (k,).  Both attributes are the stored arrays themselves, not
    copies, and are read-only; copy them before modifying.  Build a set
    with :meth:`from_arrays`, which validates whole arrays in one pass.
    Iterating yields one :class:`Plane` per row.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("build a HyperplaneSet with HyperplaneSet.from_arrays")

    def __setattr__(self, name, value):
        raise AttributeError(f"HyperplaneSet is immutable; cannot set {name!r}")

    @classmethod
    def from_arrays(cls, normals, offsets) -> "HyperplaneSet":
        """Set with the rows of ``normals`` and the entries of ``offsets``.

        Both are copied.  The first bad row raises: a NaN or infinite
        normal coordinate :class:`VivianiError`, a normal whose length is
        not 1 within 1e-9 :class:`NonUnitNormal`, an infinite or NaN offset
        :class:`VivianiError`, checked in that order.  Normal rows of
        different lengths raise :class:`DimensionMismatch`.
        """
        try:
            normals = np.array(normals, dtype=float)
        except ValueError:
            if len({np.shape(row) for row in normals}) > 1:
                raise DimensionMismatch("mixed dimensions in hyperplane set") from None
            raise
        return cls._own(normals, np.array(offsets, dtype=float))

    @classmethod
    def _own(cls, normals: np.ndarray, offsets: np.ndarray) -> "HyperplaneSet":
        """:meth:`from_arrays` without the copies, for float arrays that
        nothing else holds: the set keeps them and makes them read-only."""
        offsets = offsets.reshape(-1)
        if normals.ndim != 2 or normals.shape[0] != offsets.size:
            raise VivianiError("need one offset per normal row")
        if offsets.size == 0:
            raise VivianiError("a hyperplane set must contain at least one plane")
        ok = (_unit_deviation(normals) <= _UNIT_SLACK) & np.isfinite(offsets)
        for i in np.flatnonzero(~ok):
            _check_row(normals[i], offsets[i])
        normals.flags.writeable = False
        offsets.flags.writeable = False
        S = object.__new__(cls)
        object.__setattr__(S, "normals", normals)
        object.__setattr__(S, "offsets", offsets)
        return S

    @property
    def dimension(self) -> int:
        return self.normals.shape[1]

    def __len__(self) -> int:
        return self.normals.shape[0]

    def __iter__(self) -> Iterator[Plane]:
        return map(Plane, self.normals, self.offsets.tolist())

    def __repr__(self) -> str:
        return (f"HyperplaneSet.from_arrays({self.normals.tolist()}, "
                f"{self.offsets.tolist()})")


def _check_row(normal: np.ndarray, offset: float) -> None:
    """Raise for a row that :meth:`HyperplaneSet.from_arrays` refuses; the
    whole-array screen hands it every row it flags, in row order."""
    length = np.linalg.norm(as_vector(normal))
    if abs(float(length) - 1.0) > _UNIT_SLACK:
        raise NonUnitNormal(f"normal has length {length!r}, expected 1 within {_UNIT_SLACK}")
    if not math.isfinite(offset):
        raise VivianiError("offset must be finite")


def _scale_unit(length: float) -> float:
    """The power of two that point-space quantities of magnitude ``length``
    are divided by before they are squared: 1 when ``length`` lies in
    [2^-400, 2^400] (or is 0), so ordinary inputs are not divided at all;
    else the power of two that brings ``length`` into [1, 2).  An infinite
    or NaN ``length`` (an overflowed difference) raises :class:`VivianiError`."""
    if length == 0.0 or 2.0 ** -400 <= length <= 2.0 ** 400:
        return 1.0
    if not math.isfinite(length):
        raise VivianiError(f"a scale needs a finite length, got {length!r}")
    return math.ldexp(1.0, math.frexp(length)[1] - 1)


def _unit_box(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``(u, lo, hi)``: the unit of the point set whose rows are ``A``, and
    the corners of its bounding box divided by it.

    ``u`` is the :func:`_scale_unit` power of two of the largest box
    half-width, taken as ``0.5 max - 0.5 min``, which cannot overflow for
    finite rows; so it is 1 for ordinary inputs.  Callers divide the points
    by ``u`` before they take any difference, and then no difference,
    centroid or squared distance of the set overflows or underflows.  The
    division is exact wherever its quotients stay normal floats, so there
    it changes no bit of a result that did not overflow without it.
    """
    hi, lo = A.max(axis=0), A.min(axis=0)
    u = _scale_unit(float((0.5 * hi - 0.5 * lo).max()))
    if u != 1.0:
        hi /= u
        lo /= u
    return u, lo, hi


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, each rounded exactly as ``a @ b``.

    So ``np.sqrt(_row_dots(A, A))`` equals ``np.linalg.norm`` row by row,
    bit for bit, and vectorised checks keep the per-vector thresholds.
    """
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def _lengths(A: np.ndarray) -> np.ndarray:
    """Euclidean length of each point-space row of ``A``, at any scale.

    The rows are divided by the power of two of :func:`_scale_unit` for
    ``max|A|`` before they are squared, and only when it is not 1, so
    ordinary rows get ``np.sqrt(_row_dots(A, A))`` bit for bit.
    """
    u = _scale_unit(float(np.abs(A).max()))
    if u == 1.0:
        return np.sqrt(_row_dots(A, A))
    A = A / u
    return u * np.sqrt(_row_dots(A, A))


def _directions(A: np.ndarray) -> np.ndarray:
    """The rows of ``A`` divided by their lengths, at any scale: unit rows
    taken after the division of :func:`_lengths`.  Rows must be nonzero."""
    u = _scale_unit(float(np.abs(A).max()))
    if u != 1.0:
        A = A / u
    return A / np.sqrt(_row_dots(A, A))[:, None]


def _unit_deviation(normals: np.ndarray) -> np.ndarray:
    """``|‖n‖ - 1|`` for each row ``n``, as a single vector's check computes it."""
    return np.abs(np.sqrt(_row_dots(normals, normals)) - 1.0)


def viviani_values(points, S: HyperplaneSet) -> np.ndarray:
    """The value v at each row of ``points``: the sum of the signed
    distances ``offsets - normals @ x`` from that row to every plane of
    ``S``.  For one point ``x``, ``viviani_values(x[None, :], S)[0]``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != S.dimension:
        raise DimensionMismatch(
            f"points have dimension {pts.shape[1]}, planes {S.dimension}"
        )
    return np.sum(S.offsets[None, :] - pts @ S.normals.T, axis=1)


def normal_sum(S: HyperplaneSet) -> np.ndarray:
    """Componentwise sum of the unit normals."""
    out = np.sum(S.normals, axis=0)
    out.flags.writeable = False
    return out


def viviani_defect(S: HyperplaneSet) -> float:
    """Norm of the normal sum; zero exactly for Viviani sets.

    Equals the magnitude of the gradient of v, i.e. how fast the
    signed-distance sum drifts per unit length in the worst direction.
    """
    return float(np.linalg.norm(normal_sum(S)))


def is_viviani(S: HyperplaneSet, tol: float = DEFAULT_TOL) -> bool:
    """Whether the signed-distance sum of ``S`` is constant (defect <= tol).

    Depends only on the unit normals, never on the offsets.
    """
    if not tol > 0:
        raise VivianiError("tolerance must be positive")
    return viviani_defect(S) <= tol


def viviani_gradient(S: HyperplaneSet) -> np.ndarray:
    """Gradient of the (affine) signed-distance sum: minus the normal sum.

    For any two points P, Q: ``v(Q) - v(P) == gradient . (Q - P)``.
    """
    out = -np.sum(S.normals, axis=0)
    out.flags.writeable = False
    return out


def level_set_direction(S: HyperplaneSet) -> np.ndarray | None:
    """Unit direction along which v decreases fastest, or None if constant.

    None when ``S`` is Viviani at the default tolerance.  Otherwise returns
    ``normal_sum / defect``; a unit step along it changes v by exactly minus
    the defect, and the level sets of v are the hyperplanes orthogonal to it.
    """
    s = normal_sum(S)
    d = float(np.linalg.norm(s))
    if d <= DEFAULT_TOL:
        return None
    out = s / d
    out.flags.writeable = False
    return out

