"""Shared random generators (all seeded by the caller) and exact median
oracles for the test suite."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from viviani import ConvexPolygon, HyperplaneSet, InvalidPolygon, MedianStatus


def _load_checks():
    """``perfbench/checks.py``, loaded from its file: it recomputes every
    check from the inputs and imports nothing of ``viviani``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("_independent_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Relative weak-duality gap of a point as a median (0 at the optimum); see
#: ``perfbench/checks.py``.
median_gap = _load_checks().median_gap


def _cross(o, a, b) -> float:
    """Twice the signed area of the triangle (o, a, b)."""
    return float((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def torricelli_point(pts):
    """Fermat point of three non-collinear planar points, as
    ``(point, vertex)``.

    A vertex whose angle is at least 120 degrees is the answer, and
    ``vertex`` is its index.  Otherwise the answer is the isogonic centre,
    with barycentric weights ``a / sin(A + pi/3)`` (``a`` the side opposite
    vertex A, ``A`` its angle), and ``vertex`` is None.
    """
    P = np.asarray(pts, dtype=float)
    sides, angles = [], []
    for i in range(3):
        o, b, c = P[i], P[(i + 1) % 3], P[(i + 2) % 3]
        sides.append(math.dist(b, c))
        angles.append(math.atan2(abs(_cross(o, b, c)), float((b - o) @ (c - o))))
    for i, A in enumerate(angles):
        if A >= 2.0 * math.pi / 3.0:
            return P[i].copy(), i
    w = np.array([a / math.sin(A + math.pi / 3.0) for a, A in zip(sides, angles)])
    return w @ P / w.sum(), None


def quadrilateral_median(pts):
    """Geometric median of four planar points, no three collinear, as
    ``(point, vertex)``.

    A point inside the triangle of the other three is the answer, and
    ``vertex`` is its index.  Otherwise the points are in convex position
    and the answer is the crossing of the diagonals, the one pair of
    segments between them that cross; ``vertex`` is None.  Each diagonal's
    two distances sum to its length there, which no point can beat.
    """
    P = np.asarray(pts, dtype=float)
    for i in range(4):
        a, b, c = (P[j] for j in range(4) if j != i)
        s = (_cross(a, b, P[i]), _cross(b, c, P[i]), _cross(c, a, P[i]))
        if min(s) >= 0.0 or max(s) <= 0.0:
            return P[i].copy(), i
    for i, j, k, m in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        ci, cj = _cross(P[k], P[m], P[i]), _cross(P[k], P[m], P[j])
        if ci * cj < 0.0 and _cross(P[i], P[j], P[k]) * _cross(P[i], P[j], P[m]) < 0.0:
            return P[i] + ci / (ci - cj) * (P[j] - P[i]), None
    raise AssertionError("four points in convex position have crossing diagonals")


def assert_median_answer(pts, result):
    """The solver's answer ``result`` for the planar, non-collinear ``pts``
    is not collinear and has a duality gap of at most 1e-10; for k = 3 or 4
    it lies within 1e-9 of the exact answer, and it is an anchor exactly
    when that answer is a vertex, the same one."""
    assert result.status is not MedianStatus.NON_UNIQUE_COLLINEAR
    assert median_gap(pts, result.point) <= 1e-10
    k = len(pts)
    if k in (3, 4):
        point, vertex = (torricelli_point if k == 3 else quadrilateral_median)(pts)
        assert np.linalg.norm(result.point - point) <= 1e-9
        assert result.anchor_index == vertex


def count_calls(monkeypatch, owner, name) -> list:
    """Count calls of ``owner.name`` from here on; each call still runs.

    Returns the list that grows by one entry per call.  Patching a method
    on its class counts the calls made through every instance.
    """
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def random_unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_hyperplane_set(rng, n, k, offset_scale=2.0) -> HyperplaneSet:
    normals = rng.normal(size=(k, n))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = rng.uniform(-offset_scale, offset_scale, size=k)
    return HyperplaneSet.from_arrays(normals, offsets)


def repaired_viviani_normals(rng, n, k, target=1e-12, max_rounds=500):
    """Random unit normals nudged onto the sum-zero manifold.

    Repair step: subtract the mean, renormalize each row, repeat until the
    defect (norm of the row sum) drops to ``target``.  The alternation can
    stall on unlucky draws (contraction rate arbitrarily close to 1), so
    starts that do not converge are discarded and redrawn.
    """
    for _ in range(50):
        normals = rng.normal(size=(k, n))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        for _ in range(max_rounds):
            if np.linalg.norm(normals.sum(axis=0)) <= target:
                return normals
            normals = normals - normals.mean(axis=0)
            normals /= np.linalg.norm(normals, axis=1)[:, None]
    raise AssertionError("repair did not converge for 50 consecutive draws")


def random_viviani_set(rng, n, k, target=1e-12, offset_scale=2.0) -> HyperplaneSet:
    normals = repaired_viviani_normals(rng, n, k, target=target)
    offsets = rng.uniform(-offset_scale, offset_scale, size=k)
    return HyperplaneSet.from_arrays(normals, offsets)


def affinely_independent_points(rng, n, scale=2.0):
    """n+1 points spanning the space (resampled until well-conditioned)."""
    while True:
        pts = rng.uniform(-scale, scale, size=(n + 1, n))
        diffs = pts[1:] - pts[0]
        s = np.linalg.svd(diffs, compute_uv=False)
        if s[-1] > 1e-3 * s[0]:
            return pts


def rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def equilateral_triangle(side=1.0, center=(0.0, 0.0)):
    """CCW equilateral triangle with the given side, centered at ``center``."""
    h = side * np.sqrt(3.0) / 2.0
    v = np.array([[0.0, 0.0], [side, 0.0], [side / 2.0, h]])
    return v - v.mean(axis=0) + np.asarray(center, dtype=float)


def random_equilateral_triangle(rng, side=1.7):
    """Rigid motion of an equilateral template."""
    R = rotation_2d(rng.uniform(0.0, 2.0 * np.pi))
    t = rng.uniform(-10.0, 10.0, size=2)
    return ConvexPolygon(equilateral_triangle(side) @ R.T + t)


def random_triangle(rng, scale=3.0):
    while True:
        v = rng.uniform(-scale, scale, size=(3, 2))
        try:
            poly = ConvexPolygon(v)
        except InvalidPolygon:
            continue
        if min(poly.side_lengths()) > 0.05 * poly.diameter:
            return poly


def random_parallelogram(rng, scale=3.0):
    while True:
        a = rng.uniform(-scale, scale, size=2)
        e1 = rng.uniform(-scale, scale, size=2)
        e2 = rng.uniform(-scale, scale, size=2)
        cross = e1[0] * e2[1] - e1[1] * e2[0]
        if abs(cross) < 0.1:
            continue
        if cross < 0:
            e1, e2 = e2, e1
        return ConvexPolygon(np.array([a, a + e1, a + e1 + e2, a + e2]))


def random_convex_quadrilateral(rng, scale=3.0):
    """Generic convex quadrilateral: 4 random points ordered by angle."""
    while True:
        pts = rng.uniform(-scale, scale, size=(4, 2))
        c = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
        try:
            poly = ConvexPolygon(pts[order])
        except InvalidPolygon:
            continue
        if min(poly.side_lengths()) > 0.05 * poly.diameter:
            return poly


def closing_equiangular_sides(rng, k, wiggle=0.9):
    """Random positive side lengths that close an equiangular k-gon exactly.

    The all-ones vector closes (the k-th roots of unity cancel); add a
    random component projected onto the nullspace of the closure constraint
    and scale it to keep every side positive.
    """
    theta = 2.0 * np.pi * np.arange(k) / k
    M = np.vstack([np.cos(theta), np.sin(theta)])
    r = rng.normal(size=k)
    r -= M.T @ np.linalg.solve(M @ M.T, M @ r)
    m = np.abs(r).max()
    if m > 0:
        r *= wiggle * rng.uniform(0.2, 1.0) / m
    return 1.0 + r
