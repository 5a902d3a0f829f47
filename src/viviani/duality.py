"""Two-way bridge between Fermat configurations and Viviani plane sets.

One direction: the unit vectors from a Fermat point toward its points sum
to zero, so placing a plane through each point, normal to its spoke, gives
a set with constant signed-distance sum.  The other direction: given a
constant-sum set and a point on one side of every plane, the feet of the
perpendiculars form a point set whose Fermat point is the original point
(any challenger Q has |v(Q)| = |v(P)| = sum of foot distances from P, yet
lies strictly farther from the feet).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CoincidesWithAnchor,
    MixedSigns,
    NotAFermatPoint,
    NotViviani,
    SpokeViolation,
    VivianiError,
)
from .fermat import ANCHOR_ETA, PointSet, _norm, _seen_from, geometric_median
from .geometry import (
    HyperplaneSet,
    _directions,
    _lengths,
    _row_dots,
    as_vector,
    is_viviani,
)
from .polytope import ConvexPolygon

#: A claimed Fermat point is accepted when its direction sum is below
#: k times this (looser than the solver's own certificate, so certified
#: solver output always passes).
FERMAT_CERT_FACTOR = 1e-6
#: One-sidedness allows signed distances ``c - n.P`` to cross zero by this
#: much relative to the magnitudes ``|c| + |n|.|P|`` of their operands.
ONE_SIDED_SLACK = 1e-12
#: ``spoke_points_median_check`` accepts a median within this multiple of
#: the circumradius of the polygon's center.
SPOKE_CENTER_TOL = 1e-6


def fermat_to_viviani(A, P) -> HyperplaneSet:
    """Planes through each point of ``A``, normal to its direction from ``P``.

    ``P`` must be distinct from every point and carry a Fermat certificate:
    the unit directions from ``P`` to the points must sum to at most
    ``k * 1e-6`` in norm, else :class:`NotAFermatPoint`.  All signed
    distances from ``P`` to the result are the positive spoke lengths, and
    the result's defect equals the certificate norm.  The spokes are taken
    in the solver's scale frame, so every finite input works.
    """
    pts, diff, d, _, diag = _seen_from(P, A)
    k = pts.shape[0]
    if np.any(d <= ANCHOR_ETA * diag):
        raise CoincidesWithAnchor("the base point coincides with an input point")
    cert = _norm((1.0 / d) @ diff)
    if cert > k * FERMAT_CERT_FACTOR:
        raise NotAFermatPoint(
            f"direction sum {cert!r} exceeds the certificate bound {k * FERMAT_CERT_FACTOR!r}"
        )
    normals = diff  # divided in place into the unit spokes
    normals /= d[:, None]
    offsets = np.einsum("ij,ij->i", normals, pts)
    return HyperplaneSet._own(normals, offsets)


def viviani_to_fermat(S: HyperplaneSet, P, tol: float = 1e-9) -> PointSet:
    """Feet of the perpendiculars from ``P`` onto each plane of ``S``.

    Requires ``S`` to be Viviani at ``tol`` and ``P`` to be one-sided: all
    signed distances ``c_i - n_i.P`` >= -1e-12 (|c_i| + |n_i|.|P|), or all
    <= that (:class:`MixedSigns` otherwise), a slack that scales with the
    plane set.  ``P`` is then the Fermat point of the returned set; the
    inequality is strict for every other point when the feet are
    non-collinear.
    """
    if not is_viviani(S, tol):
        raise NotViviani(f"defect exceeds {tol!r}")
    x = as_vector(P, dim=S.dimension)
    dists = S.offsets - S.normals @ x
    slack = ONE_SIDED_SLACK * (np.abs(S.offsets) + np.abs(S.normals) @ np.abs(x))
    if not (np.all(dists >= -slack) or np.all(dists <= slack)):
        raise MixedSigns("signed distances from the point change sign")
    feet = x[None, :] + dists[:, None] * S.normals
    return PointSet(feet)


def spoke_points_median_check(G: ConvexPolygon, B) -> bool:
    """Whether the median of spoke points recovers a regular polygon's center.

    ``G`` must be a regular polygon (center = vertex centroid); ``B`` lists
    one point per vertex, with ``B[i]`` on the open-to-closed segment from
    the center to vertex i (:class:`SpokeViolation` if any point strays from
    its spoke by more than 1e-9 of the circumradius).  Returns True when the
    solved median lands within ``SPOKE_CENTER_TOL`` * circumradius of the
    center.
    Everything is taken in the polygon's own unit, so every polygon that
    constructs can be checked.
    """
    u = G._unit
    verts = G.vertices if u == 1.0 else G.vertices / u
    center = verts.mean(axis=0)
    spokes = verts - center
    radii = _lengths(spokes)
    R = float(radii.mean())
    sides = _lengths(G._edges)
    if (np.abs(radii - R).max() > 1e-6 * R
            or float(sides.max() - sides.min()) > 1e-6 * R):
        raise VivianiError("polygon is not regular")
    pts = np.atleast_2d(np.asarray(B, dtype=float))
    if pts.shape != verts.shape:
        raise VivianiError(
            f"expected {verts.shape[0]} spoke points of dimension 2, got shape {pts.shape}"
        )
    if u != 1.0:
        pts = pts / u
    units = _directions(spokes)
    rel = pts - center
    along = _row_dots(rel, units)
    off = _lengths(rel - along[:, None] * units)
    s = along / radii
    bad = (off > 1e-9 * R) | (s <= 0.0) | (s > 1.0 + 1e-9)
    if bad.any():
        raise SpokeViolation(f"point {int(bad.argmax())} is not on its "
                             f"center-to-vertex segment")
    result = geometric_median(pts)
    return bool(_lengths((result.point - center)[None, :])[0] <= SPOKE_CENTER_TOL * R)
