"""Convex polygons and polytopes as oriented hyperplane sets.

The planar types store counterclockwise vertex lists; converting to
hyperplanes yields one plane per edge with the normal pointing away from
the interior, so every interior point has all signed distances positive.
Generators cover the families with identically-cancelling outward normals:
equiangular polygons, the five regular polyhedra, and a one-parameter
family of irregular tetrahedra.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ClosureViolation,
    DomainError,
    InvalidPolygon,
    InvalidPolytope,
    NonPositiveLength,
    UnknownSolid,
    VivianiError,
)
from .geometry import (
    DEFAULT_TOL,
    HyperplaneSet,
    _directions,
    _lengths,
    _row_dots,
    _scale_unit,
    _unit_box,
    as_vector,
    is_viviani,
)

_REL_EPS = 1e-12  # relative threshold for degeneracy checks, scaled by diameter


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Strictly convex polygon, vertices stored counterclockwise.

    Clockwise input is reoriented silently (orientation is presentation, the
    outward-normal contract is what matters).  Repeated vertices or collinear
    edges are rejected.  "Diameter" below always means the bounding-box
    diagonal, which is within sqrt(2) of the true diameter.  The polygon
    works in its own frame: its vertices divided by the power of two of
    ``geometry._unit_box``, not centred, so its edges keep their bits.  The
    box, the orientation, repeated-vertex and convexity tests, the edges,
    :meth:`side_lengths`, the classifiers' comparisons and the directions
    of :func:`polygon_to_hyperplanes` are all taken there, so they hold for
    every finite input.  Only :attr:`diameter` and :meth:`side_lengths`
    return to the caller's unit, so they overflow where the true value
    exceeds the float maximum, and only there.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise InvalidPolygon("vertices must be an (k, 2) array")
        if v.shape[0] < 3:
            raise InvalidPolygon("a polygon needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise InvalidPolygon("vertex coordinates must be finite")
        u, lo, hi = _unit_box(v)
        diam = float(np.linalg.norm(hi - lo))
        if diam <= 0.0:
            raise InvalidPolygon("all vertices coincide")
        # shoelace sign, taken about the first vertex; flip clockwise input
        # to counterclockwise
        s = v / u
        e, f = s - s[0], _next_rows(s) - s[0]
        if float(np.sum(e[:, 0] * f[:, 1] - f[:, 0] * e[:, 1])) < 0.0:
            v, s = v[::-1].copy(), s[::-1]
        edges = _next_rows(s) - s
        if np.any(np.linalg.norm(edges, axis=1) <= _REL_EPS * diam):
            raise InvalidPolygon("repeated vertices")
        turn = _next_rows(edges)
        cross = edges[:, 0] * turn[:, 1] - edges[:, 1] * turn[:, 0]
        if np.any(cross <= _REL_EPS * diam * diam):
            raise InvalidPolygon("polygon is not strictly convex")
        v.flags.writeable = False
        edges.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        # the frame: its unit, and the diameter and edges in that unit
        object.__setattr__(self, "_unit", u)
        object.__setattr__(self, "_diam", diam)
        object.__setattr__(self, "_edges", edges)

    @property
    def k(self) -> int:
        return self.vertices.shape[0]

    @property
    def diameter(self) -> float:
        return self._unit * self._diam

    def side_lengths(self) -> np.ndarray:
        return self._unit * _lengths(self._edges)


def _next_rows(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, -1, axis=0)``: row i holds row i + 1, cyclically."""
    return np.concatenate((a[1:], a[:1]))


class TriangleClass(Enum):
    EQUILATERAL = "equilateral"
    NOT_EQUILATERAL = "not_equilateral"


class QuadrilateralClass(Enum):
    PARALLELOGRAM = "parallelogram"
    NOT_PARALLELOGRAM = "not_parallelogram"


def polygon_to_hyperplanes(G: ConvexPolygon) -> HyperplaneSet:
    """One oriented line per edge, normal pointing away from the interior.

    Each line passes through both endpoints of its edge; for counterclockwise
    vertices the outward normal of edge direction (dx, dy) is (dy, -dx).
    :class:`ConvexPolygon` guarantees every edge is longer than 1e-12 of
    the diameter, so every edge length here is positive, at any scale.
    """
    normals = _directions(G._edges[:, ::-1] * (1.0, -1.0))
    return HyperplaneSet.from_arrays(normals, _row_dots(normals, G.vertices))


def is_viviani_polygon(G: ConvexPolygon, tol: float = DEFAULT_TOL) -> bool:
    """Whether the polygon's outward edge normals cancel (defect <= tol)."""
    return is_viviani(polygon_to_hyperplanes(G), tol)


def classify_triangle(G: ConvexPolygon, side_tol: float = 1e-9) -> TriangleClass:
    """Equilateral iff all three side lengths agree within side_tol * diameter.

    At matching tolerances this agrees with :func:`is_viviani_polygon`: the
    triangles with cancelling outward normals are exactly the equilateral ones.
    """
    if G.k != 3:
        raise VivianiError(f"expected a triangle, got {G.k} vertices")
    s = _lengths(G._edges)
    if float(s.max() - s.min()) <= side_tol * G._diam:
        return TriangleClass.EQUILATERAL
    return TriangleClass.NOT_EQUILATERAL


def classify_quadrilateral(G: ConvexPolygon, tol: float = 1e-9) -> QuadrilateralClass:
    """Parallelogram iff both pairs of opposite edge vectors are negatives.

    Tolerance is relative to the diameter.  Agrees with
    :func:`is_viviani_polygon` at matching tolerances: the quadrilaterals
    with cancelling outward normals are exactly the parallelograms.
    """
    if G.k != 4:
        raise VivianiError(f"expected a quadrilateral, got {G.k} vertices")
    e = G._edges
    if float(_lengths(e[:2] + e[2:]).max()) <= tol * G._diam:
        return QuadrilateralClass.PARALLELOGRAM
    return QuadrilateralClass.NOT_PARALLELOGRAM


def unsigned_distance_sum(P, S: HyperplaneSet) -> float:
    """Sum of |signed distance| from ``P`` to each plane of ``S``.

    Inside a convex polytope with outward normals this coincides with the
    signed sum; outside it is strictly larger.
    """
    x = as_vector(P, dim=S.dimension)
    return float(np.sum(np.abs(S.offsets - S.normals @ x)))


def make_equiangular_polygon(side_lengths) -> ConvexPolygon:
    """Equiangular k-gon with the given side lengths.

    Edge i runs in direction (cos, sin) of angle 2*pi*i/k, starting at the
    origin, so every exterior angle equals 2*pi/k.  The lengths must close:
    sum of s_i * (cos, sin)(2*pi*i/k) must vanish within 1e-9 of the
    perimeter, else :class:`ClosureViolation`.  A residual above its own
    rounding error is then projected out of the sides, so the outward edge
    normals of the result are the k equally spaced unit vectors and the
    polygon is Viviani at any accepted residual; the projected sides must
    stay positive (:class:`NonPositiveLength`).  The sides are divided by
    the power of two of ``geometry._scale_unit`` for the longest before any
    sum, so every finite input whose vertices are finite builds.
    """
    s = np.asarray(side_lengths, dtype=float).reshape(-1)
    k = s.size
    if k < 3:
        raise VivianiError("an equiangular polygon needs at least 3 sides")
    if not np.all(np.isfinite(s)):
        raise NonPositiveLength("side lengths must be finite")
    if np.any(s <= 0.0):
        raise NonPositiveLength("side lengths must be strictly positive")
    u = _scale_unit(float(s.max()))
    if u != 1.0:
        s = s / u
    theta = 2.0 * np.pi * np.arange(k) / k
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    residual = s @ dirs
    perimeter = float(s.sum())
    miss = float(_lengths(residual[None, :])[0])
    if miss > 1e-9 * perimeter:
        raise ClosureViolation(
            f"side lengths do not close: residual {miss / perimeter:.3g} "
            f"of the perimeter exceeds 1e-9"
        )
    if miss > (k + 2) * 2.0 ** -52 * perimeter:
        # the sides nearest to s that close: dirs.T @ dirs is k/2 times I
        s = s - (2.0 / k) * (dirs @ residual)
        if np.any(s <= 0.0):
            raise NonPositiveLength("closing the side lengths leaves a side non-positive")
    steps = dirs * s[:, None]
    vertices = np.vstack([np.zeros(2), np.cumsum(steps[:-1], axis=0)])
    return ConvexPolygon(vertices if u == 1.0 else u * vertices)


def regular_polygon(k: int, circumradius: float = 1.0, center=(0.0, 0.0),
                    phase: float = 0.0) -> ConvexPolygon:
    """Regular k-gon with the given circumradius, center and first-vertex angle."""
    if k < 3:
        raise VivianiError("a polygon needs at least 3 vertices")
    if circumradius <= 0.0:
        raise NonPositiveLength("circumradius must be positive")
    c = as_vector(center, dim=2)
    ang = phase + 2.0 * np.pi * np.arange(k) / k
    return ConvexPolygon(c + circumradius * np.column_stack([np.cos(ang), np.sin(ang)]))


def apothem(k: int, circumradius: float = 1.0) -> float:
    """Center-to-side distance of a regular k-gon."""
    return circumradius * math.cos(math.pi / k)


# --- regular polyhedra ------------------------------------------------------

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _cyclic(coords):
    x, y, z = coords
    return [(x, y, z), (z, x, y), (y, z, x)]


def _signs(pattern):
    """All sign choices applied to the nonzero entries of each pattern."""
    out = []
    for p in pattern:
        nz = [i for i, c in enumerate(p) if c != 0.0]
        for bits in range(1 << len(nz)):
            q = list(p)
            for b, i in enumerate(nz):
                if bits >> b & 1:
                    q[i] = -q[i]
            out.append(tuple(q))
    return sorted(set(out))


def _unit_rows(rows) -> np.ndarray:
    """Unit rows of the solids' exact unit-scale constants, rounded as
    ``np.linalg.norm(a, axis=1)`` rounds them, which the generated face
    planes are pinned to; point-space rows go through
    ``geometry._directions``."""
    a = np.asarray(rows, dtype=float)
    return a / np.linalg.norm(a, axis=1)[:, None]


@functools.cache
def _icosahedron_data():
    """Unit icosahedron vertices plus its 20 face-center directions.

    Faces are the triangles of the edge graph (nearest-neighbor pairs of the
    golden-ratio coordinates).  Face centroids of antipodal faces are exact
    negations, so the returned directions cancel exactly in floating point.
    Computed once; the arrays are read-only.
    """
    raw = np.array(_signs(_cyclic((0.0, 1.0, _PHI))))
    d2 = ((raw[:, None, :] - raw[None, :, :]) ** 2).sum(axis=-1)
    edge2 = d2[d2 > 0].min()
    adj = (d2 > 0) & (d2 <= edge2 * (1.0 + 1e-9))
    centers = []
    m = raw.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            if not adj[i, j]:
                continue
            for l in range(j + 1, m):
                if adj[i, l] and adj[j, l]:
                    centers.append(raw[i] + raw[j] + raw[l])
    verts, faces = _unit_rows(raw), _unit_rows(centers)
    verts.flags.writeable = False
    faces.flags.writeable = False
    return verts, faces


_SOLIDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")


def platonic_solid_normals(name: str) -> HyperplaneSet:
    """Face planes of the unit-circumradius regular polyhedron ``name``.

    Centered at the origin in a fixed orientation (cube axis-aligned, the
    others from the usual golden-ratio coordinates).  Face normals are the
    vertex directions of the dual solid; each offset is the largest dot
    product of a vertex with the face normal, i.e. the inradius, so the
    planes are exactly the supporting planes of the faces and all normals
    point outward.
    """
    if name not in _SOLIDS:
        raise UnknownSolid(f"unknown solid {name!r}; expected one of {_SOLIDS}")
    if name == "tetrahedron":
        verts = _unit_rows([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
        normals = -verts
    elif name == "cube":
        verts = _unit_rows(_signs([(1.0, 1.0, 1.0)]))
        normals = np.vstack([np.eye(3), -np.eye(3)])
    elif name == "octahedron":
        verts = np.vstack([np.eye(3), -np.eye(3)])
        normals = _unit_rows(_signs([(1.0, 1.0, 1.0)]))
    elif name == "dodecahedron":
        ico_verts, ico_faces = _icosahedron_data()
        verts, normals = ico_faces, ico_verts
    else:
        verts, normals = _icosahedron_data()
    offsets = (verts @ normals.T).max(axis=0)
    return HyperplaneSet.from_arrays(normals, offsets)


def tetrahedron_family(t: float) -> HyperplaneSet:
    """Irregular tetrahedra, one for each t in (0, pi), all with defect zero.

    The four face planes are tangent to the unit sphere (offset 1) with unit
    normals

        ( cos(t/2), sin(t)/2, (1 - cos t)/2)
        (-cos(t/2), sin(t)/2, (1 - cos t)/2)
        ( 0, -sin t, cos t)
        ( 0, 0, -1)

    which cancel identically in t.  Endpoints are excluded: at t = 0 or pi
    two normals coincide and the region degenerates.
    """
    t = float(t)
    if not 0.0 < t < math.pi:
        raise DomainError(f"t must lie strictly between 0 and pi, got {t!r}")
    half = math.cos(t / 2.0)
    sy = math.sin(t) / 2.0
    sz = (1.0 - math.cos(t)) / 2.0
    normals = np.array([
        [half, sy, sz],
        [-half, sy, sz],
        [0.0, -math.sin(t), math.cos(t)],
        [0.0, 0.0, -1.0],
    ])
    return HyperplaneSet.from_arrays(normals, np.ones(4))


# --- validated H-representation ----------------------------------------------

_LP_TOL = 1e-9  # both LP thresholds, in normal space and unit-scale coordinates


@dataclass(frozen=True, eq=False)
class ConvexPolytopeH:
    """Bounded full-dimensional intersection of half-spaces {x : n.x <= c}.

    Construction checks that the planes are pairwise distinct as oriented
    objects, then decides boundedness and interior nonemptiness with two
    small linear programs (scipy's HiGHS, imported on first use), so the
    verdict is deterministic.  Both run in unit-scale coordinates: x0 is
    the least-squares solution of N x0 = c, s = max|c - N x0|, and
    x = x0 + s*y.  Duplicate offsets are judged against 1e-9 * s.

    - Boundedness (Stiemke): maximise t subject to N^T lam = 0,
      sum(lam) = 1, lam >= t.  With g = t* sigma_min(N) - |N^T lam*|,
      every unit u has some n_i.u >= g/2, so the region lies within 2s/g
      of x0.  It is called bounded iff g > 1e-9; an infeasible LP means
      unbounded.
    - Interior (Chebyshev centre): maximise r subject to N y + r <= b with
      b = (c - N x0)/s.  The interior is called nonempty iff r* > 1e-9
      and the point x0 + s*y* satisfies max(N x - c) < 0 in the caller's
      own coordinates; that point is :meth:`interior_point`.
    """

    halfspaces: HyperplaneSet

    def __post_init__(self):
        hs = self.halfspaces
        if not isinstance(hs, HyperplaneSet):
            raise VivianiError(f"halfspaces must be a HyperplaneSet, got {type(hs).__name__}")
        N, c = hs.normals, hs.offsets
        x0 = np.linalg.lstsq(N, c, rcond=None)[0]
        b = c - N @ x0
        s = float(np.abs(b).max())
        for i in range(len(c) - 1):
            d = N[i + 1:] - N[i]
            hit = (np.sqrt(_row_dots(d, d)) <= 1e-9) & (np.abs(c[i + 1:] - c[i]) <= 1e-9 * s)
            if hit.any():
                j = i + 1 + int(hit.argmax())
                raise InvalidPolytope(f"halfspaces {i} and {j} coincide")
        x = _lp_interior_point(N, c, x0, b, s)
        x.flags.writeable = False
        object.__setattr__(self, "_interior_point", x)

    @property
    def dimension(self) -> int:
        return self.halfspaces.dimension

    def interior_point(self) -> np.ndarray:
        """A point strictly inside the region (found during validation)."""
        return self._interior_point


def _lp_interior_point(N, c, x0, b, s) -> np.ndarray:
    """Run the two LPs of :class:`ConvexPolytopeH`; raise if either fails.

    LP 1 is over (t, mu) with lam = t + mu and mu >= 0, so its constraint
    matrix is (n + 1) x (k + 1), with no k x k block.  LP 2 is over (y, r).
    """
    from scipy.optimize import linprog

    k, n = N.shape
    last = np.r_[np.zeros(n), 1.0]
    A = np.empty((n + 1, k + 1))
    A[:n, 0], A[:n, 1:] = N.sum(axis=0), N.T
    A[n, 0], A[n, 1:] = k, 1.0
    lp = linprog(np.r_[-1.0, np.zeros(k)], A_eq=A, b_eq=last, method="highs")
    gap = 0.0
    if lp.status == 0:
        t = lp.x[0]
        sv = np.linalg.svd(N, compute_uv=False)
        sigma = sv[-1] if sv.size == n else 0.0
        gap = t * sigma - float(np.linalg.norm(N.T @ (t + lp.x[1:])))
    if not gap > _LP_TOL:
        raise InvalidPolytope("region is unbounded (normals do not positively span)")
    if s > 0.0:
        lp = linprog(-last, A_ub=np.column_stack([N, np.ones(k)]), b_ub=b / s,
                     bounds=(None, None), method="highs")
        if lp.status == 0 and lp.x[n] > _LP_TOL:
            x = x0 + s * lp.x[:n]
            if float((N @ x - c).max()) < 0.0:
                return x
    raise InvalidPolytope("region has empty interior")
