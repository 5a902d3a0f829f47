"""Shared random generators for the test suite (all seeded by the caller)."""

import numpy as np

from viviani import ConvexPolygon, HyperplaneSet, InvalidPolygon


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
