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
    OrientedHyperplane,
    as_vector,
    is_viviani,
    signed_distance,
)
from .polytope import ConvexPolygon

#: A claimed Fermat point is accepted when its direction sum is below
#: k times this (looser than the solver's own certificate, so certified
#: solver output always passes).
FERMAT_CERT_FACTOR = 1e-6
#: One-sidedness allows signed distances ``c - n.P`` to cross zero by this
#: much relative to the magnitudes ``|c| + |n|.|P|`` of their operands.
ONE_SIDED_SLACK = 1e-12


def project_onto(P, p: OrientedHyperplane) -> np.ndarray:
    """Orthogonal projection of ``P`` onto the plane ``p``.

    The displacement is ``signed_distance(P, p)`` along the normal, so its
    length is exactly the unsigned distance.
    """
    x = as_vector(P, dim=p.dimension)
    out = x + signed_distance(x, p) * p.normal
    out.flags.writeable = False
    return out


def fermat_to_viviani(A, P) -> HyperplaneSet:
    """Planes through each point of ``A``, normal to its direction from ``P``.

    ``P`` must be distinct from every point and carry a Fermat certificate:
    the unit directions from ``P`` to the points must sum to at most
    ``k * 1e-6`` in norm, else :class:`NotAFermatPoint`.  All signed
    distances from ``P`` to the result are the positive spoke lengths, and
    the result's defect equals the certificate norm.  The spokes are taken
    in the solver's scale frame, so any scale from 1e-300 to 1e300 works.
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
    return HyperplaneSet.from_arrays(normals, offsets)


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


def spoke_points_median_check(G: ConvexPolygon, B, tol: float = 1e-6) -> bool:
    """Whether the median of spoke points recovers a regular polygon's center.

    ``G`` must be a regular polygon (center = vertex centroid); ``B`` lists
    one point per vertex, with ``B[i]`` on the open-to-closed segment from
    the center to vertex i (:class:`SpokeViolation` if any point strays from
    its spoke by more than 1e-9 of the circumradius).  Returns True when the
    solved median lands within ``tol`` * circumradius of the center.
    """
    verts = G.vertices
    center = verts.mean(axis=0)
    radii = np.linalg.norm(verts - center, axis=1)
    R = float(radii.mean())
    sides = G.side_lengths()
    if (np.abs(radii - R).max() > 1e-6 * R
            or float(sides.max() - sides.min()) > 1e-6 * R):
        raise VivianiError("polygon is not regular")
    pts = np.atleast_2d(np.asarray(B, dtype=float))
    if pts.shape != verts.shape:
        raise VivianiError(
            f"expected {verts.shape[0]} spoke points of dimension 2, got shape {pts.shape}"
        )
    for i in range(verts.shape[0]):
        spoke = verts[i] - center
        u = spoke / np.linalg.norm(spoke)
        rel = pts[i] - center
        along = float(rel @ u)
        off = float(np.linalg.norm(rel - along * u))
        s = along / float(np.linalg.norm(spoke))
        if off > 1e-9 * R or s <= 0.0 or s > 1.0 + 1e-9:
            raise SpokeViolation(f"point {i} is not on its center-to-vertex segment")
    result = geometric_median(pts)
    return bool(np.linalg.norm(result.point - center) <= tol * R)
