"""Geometric median (1-median / Fermat point) with optimality certificates.

For non-collinear points the minimizer of the distance sum is unique and
lies in the convex hull.  Away from the input points first-order optimality
reads: the unit vectors from the minimizer toward the points sum to zero.
At an input point P_i the condition relaxes to: the unit vectors from P_i
toward the other points have a sum of norm at most 1.  Both conditions are
computed and reported as the ``residual`` of the returned result, so every
answer carries a numerical certificate.

The solver is Weiszfeld fixed-point iteration from the centroid, used only
to globalise: whenever a step fails to shrink by ``SLOW_RATIO``, and at
convergence, the certificates (interior, then the anchors') are tried, then
a damped Newton polish with a bounded line search.  Iterates landing on an
input point are certified as the anchor optimum or pushed one tiny step
along the descent direction; exactly collinear inputs get a closed-form 1-D
median.  The objective is non-increasing up to rounding; at a +1e12 offset
the two kinds of step can trade the iterate between neighbouring floats.

The rescue stays cheap at large k.  The anchor test costs O(k n) per
anchor, so the scan first drops every anchor that a proven lower bound on
its objective, taken from the spokes at the current iterate, places above
what any passing anchor can reach (``_certified_anchor``).  Only the few
anchors near the iterate remain, and the answer is still the first passing
anchor in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CoincidesWithAnchor, VivianiError
from .geometry import as_vector

#: Anchor optimality accepts a direction-sum norm up to (multiplicity + this).
ANCHOR_SLACK = 1e-9
#: Interior results are iterated until the certificate norm drops below this
#: (well under the k*1e-8 the result promises, and tight enough that planes
#: built from the result pass the default Viviani tolerance of 1e-9).
RESIDUAL_TARGET = 5e-10
#: Iterates closer to an input point than this fraction of the spread are
#: treated as sitting on it.
ANCHOR_ETA = 1e-12
#: Collinearity threshold on the singular-value ratio of the centered points.
COLLINEAR_RATIO = 1e-12
#: A fixed-point step longer than this times the one before it is a slow-down.
SLOW_RATIO = 0.3
#: Armijo trials per Newton step before the polish hands back.
LINE_SEARCH_TRIALS = 4


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered list of k >= 1 points of one dimension, stored as (k, n)."""

    points: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.array(self.points, dtype=float))
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise VivianiError("expected a nonempty (k, n) array of points")
        if not np.all(np.isfinite(p)):
            raise VivianiError("point coordinates must be finite")
        p.flags.writeable = False
        object.__setattr__(self, "points", p)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.k

    def __getitem__(self, i) -> np.ndarray:
        return self.points[i]


class MedianStatus(Enum):
    INTERIOR_OPTIMUM = "interior_optimum"
    ANCHOR_OPTIMUM = "anchor_optimum"
    NON_UNIQUE_COLLINEAR = "non_unique_collinear"


@dataclass(frozen=True, eq=False)
class MedianResult:
    """Solver output.

    ``residual`` is the norm of the optimality certificate: the direction
    sum at the point for interior optima (contract: <= k*1e-8), the
    direction sum over the other points for anchor optima (contract:
    <= multiplicity + 1e-9), and 0.0 for the collinear closed form.
    ``iterations`` counts fixed-point steps and capture restarts, not Newton
    steps; ``history`` holds the objective after each iterate when requested.
    """

    point: np.ndarray
    objective: float
    status: MedianStatus
    residual: float
    iterations: int
    anchor_index: int | None = None
    history: tuple[float, ...] | None = None


def _as_points(A) -> np.ndarray:
    if isinstance(A, PointSet):
        return A.points
    return PointSet(A).points


def _spread(pts: np.ndarray) -> float:
    """Bounding-box diagonal, the scale for coincidence thresholds."""
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def total_distance(X, A) -> float:
    """Sum of Euclidean distances from ``X`` to every point of ``A``."""
    pts = _as_points(A)
    x = as_vector(X, dim=pts.shape[1])
    return float(np.linalg.norm(pts - x, axis=1).sum())


def direction_sum_at(X, A) -> np.ndarray:
    """Sum of unit vectors from ``X`` toward each point of ``A``.

    Zero at an interior optimum.  Raises :class:`CoincidesWithAnchor` when
    ``X`` is within 1e-12 of the point spread of an input point.
    """
    pts = _as_points(A)
    x = as_vector(X, dim=pts.shape[1])
    diff = pts - x
    d = np.linalg.norm(diff, axis=1)
    if np.any(d <= ANCHOR_ETA * _spread(pts)):
        raise CoincidesWithAnchor("query point coincides with an input point")
    out = (diff / d[:, None]).sum(axis=0)
    out.flags.writeable = False
    return out


def _anchor_certificate(pts: np.ndarray, idx: int, eta: float):
    """Direction sum over points not coincident with anchor ``idx``.

    Returns ``(norm, multiplicity, direction_sum)``; the anchor is optimal
    when the norm is at most the multiplicity (number of coincident copies).
    """
    diff = pts - pts[idx]
    d = np.linalg.norm(diff, axis=1)
    near = d <= eta
    m = int(near.sum())
    rest = ~near
    if not np.any(rest):
        return 0.0, m, np.zeros(pts.shape[1])
    R = (diff[rest] / d[rest, None]).sum(axis=0)
    return float(np.linalg.norm(R)), m, R


def _certified_anchor(pts: np.ndarray, X: np.ndarray, eta: float, near_idx: int):
    """First input point whose anchor condition certifies global optimality.

    The distance sum is convex, so ``norm <= multiplicity`` at any anchor is
    sufficient; no iterate needs to reach it.  For k > 4096 only the anchor
    ``near_idx`` nearest the iterate ``X`` is tested.  For k <= 4096 the
    answer is the first passing anchor in index order, exactly as a scan of
    all k anchors gives, but only the anchors that a proven bound leaves in
    play are tested: O(k n^2) work instead of O(k^2 n).

    At ``X`` off every point, with distances ``d_j``, spokes
    ``u_j = (p_j - X) / d_j``, ``R = sum u_j``, ``M = k I - U^T U`` and
    ``D = max d_j``, every anchor ``i`` satisfies the lower bound

        f(p_i) - f(X) >= d_i (d_i g_i / (2 (D + d_i)) - R.u_i),
        g_i = u_i^T M u_i = k - sum_j (u_j.u_i)^2,

    from ``|a| >= u.a + |a_perp|^2 / (2|a|)`` applied to each
    ``a = p_j - p_i`` with ``u = u_j``, and ``|a| <= D + d_i``.  An anchor
    passing its test (direction-sum norm at most ``m + ANCHOR_SLACK`` over
    the points farther than ``eta``, ``m`` copies within ``eta``) is within
    ``ANCHOR_SLACK`` of minimising the objective with its copies merged,
    which moves ``f`` by at most ``m eta``; so

        f(p_i) - f(X) <= ANCHOR_SLACK d_i + 2 k eta.

    An anchor whose lower bound exceeds that upper bound cannot pass and is
    skipped.  The comparison is made per unit of ``d_i``, so nothing
    overflows, with a rounding margin ``tau = 4 n k (k + n) eps``: naive
    sums of ``k`` unit-sized terms (``R``, ``U^T U`` and the anchor test's
    own direction sum) are off by at most ``k^2 eps``, the spokes by
    ``O(n eps)`` each, and the quadratic form multiplies the error of ``M``
    by at most ``n``; ``1 + tau`` also covers the rounded distances of the
    copies.  A ``NaN`` bound keeps its anchor.

    Every anchor is tested when ``X`` coincides with a point (no spoke), or
    when ``eta^2`` is below the normal range: there the anchor tests work
    in subnormal distances, are not accurate to rounding, and the upper
    bound no longer holds for them.
    """
    k, n = pts.shape
    if k > 4096:
        order = [near_idx]
    else:
        order = range(k)
        diff = pts - X
        d = np.linalg.norm(diff, axis=1)
        if float(d.min()) > 0.0 and eta * eta >= np.finfo(float).tiny:
            U = diff / d[:, None]
            M = k * np.eye(n) - U.T @ U
            g = np.einsum("ij,ij->i", U @ M, U)
            lower = d * g / (2.0 * (float(d.max()) + d)) - U @ U.sum(axis=0)
            tau = 4.0 * n * k * (k + n) * np.finfo(float).eps
            upper = ANCHOR_SLACK + tau + 2.0 * k * eta * (1.0 + tau) / d
            order = np.flatnonzero(~(lower > upper)).tolist()
    for idx in order:
        rnorm, mult, _ = _anchor_certificate(pts, idx, eta)
        if rnorm <= mult + ANCHOR_SLACK:
            return idx, rnorm
    return None


def _newton_polish(pts: np.ndarray, X: np.ndarray, eta: float,
                   history: list[float] | None, budget: int = 40) -> np.ndarray:
    """Damped Newton steps on the (smooth away from anchors) distance sum.

    Rescues the fixed-point iteration when the optimum sits in a nearly flat
    valley (almost-collinear inputs), where its contraction rate degrades to
    1 - O(valley width squared).  The Hessian ``sum (I - u u^T) / d`` is
    built as ``(sum 1/d) I - (u/d)^T u``, one matmul.  Armijo backtracking
    keeps the objective non-increasing.  Its first trial goes at most half
    way to the nearest point ahead, whose ``1/d`` curvature the quadratic
    model misses; a step still failing after ``LINE_SEARCH_TRIALS`` trials
    is being pulled toward an anchor, and the polish hands back to the
    caller, as it does near an anchor.

    The Armijo test takes the change of the objective term by term, as
    ``sum (|s|^2 - 2 (p_j - X).s) / (|p_j - X - s| + |p_j - X|)`` for the
    step ``s``: near the optimum a Newton step lowers ``f`` by far less
    than the rounding of ``f`` itself (about 1e-19 against 1e-12 at
    k = 10^4), so a difference of two rounded sums only measures noise and
    the search would halve the step until its budget ran out.  ``history``
    still records the plain sums.  When ``X + t p`` rounds back to ``X`` in
    every coordinate, no smaller ``t`` can move it either, so the polish
    returns ``X`` at once instead of halving on.
    """
    n = pts.shape[1]
    eye = np.eye(n)
    for _ in range(budget):
        diff = pts - X
        d = np.linalg.norm(diff, axis=1)
        if float(d.min()) <= eta:
            break
        u = diff / d[:, None]
        grad = -u.sum(axis=0)
        if float(np.linalg.norm(grad)) <= 0.25 * RESIDUAL_TARGET:
            break
        w = 1.0 / d
        H = w.sum() * eye - (u * w[:, None]).T @ u
        H += (1e-12 * np.trace(H) / n) * eye
        try:
            p = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            break
        slope = float(grad @ p)
        if slope >= 0.0:
            break
        reach = 0.5 * float(np.min(d, where=diff @ p > 0.0, initial=np.inf))
        length = float(np.linalg.norm(p))
        t = reach / length if length > reach else 1.0
        for _ in range(LINE_SEARCH_TRIALS):
            Xn = X + t * p
            if np.array_equal(Xn, X):
                # the step is below the float spacing at X; halving t
                # cannot move any coordinate either
                return X
            s = Xn - X
            dn = np.linalg.norm(pts - Xn, axis=1)
            df = float(((s @ s - 2.0 * (diff @ s)) / (dn + d)).sum())
            if df <= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        X = Xn
        if history is not None:
            history.append(float(dn.sum()))
    return X


def _collinear_median(pts: np.ndarray) -> np.ndarray:
    """1-D weighted median along the common line: midpoint of the interval
    between the two middle order statistics (the interval degenerates for
    odd counts)."""
    mean = pts.mean(axis=0)
    centered = pts - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    u = vt[0]
    t = np.sort(centered @ u)
    k = t.size
    tstar = 0.5 * (t[(k - 1) // 2] + t[k // 2])
    return mean + tstar * u


def _is_collinear(pts: np.ndarray) -> bool:
    if pts.shape[1] == 1 or pts.shape[0] == 2:
        return True
    s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return bool(s[1] <= COLLINEAR_RATIO * s[0])


def geometric_median(A, tol: float = 1e-10, max_iter: int = 10000,
                     record_history: bool = False) -> MedianResult:
    """Minimize the distance sum to the points of ``A``.

    ``tol`` is the relative step-length stopping threshold.  Each slow or
    converged step is certified if it can be, else polished (at most eight
    polishes); a converged iterate with no polish left, or the last one at
    ``max_iter``, is returned with its residual, never an error.
    Deterministic for fixed input.
    """
    pts = _as_points(A)
    k, n = pts.shape
    if tol <= 0.0:
        raise VivianiError("tol must be positive")
    history: list[float] | None = [] if record_history else None
    iterations = 0

    def finish(point, status, residual, anchor_index=None):
        p = np.array(point, dtype=float)
        p.flags.writeable = False
        return MedianResult(
            point=p,
            objective=total_distance(p, pts),
            status=status,
            residual=float(residual),
            iterations=iterations,
            anchor_index=anchor_index,
            history=tuple(history) if history is not None else None,
        )

    spread = _spread(pts)
    if k == 1 or spread == 0.0:
        # single point, or k coincident copies of one point
        return finish(pts[0], MedianStatus.ANCHOR_OPTIMUM, 0.0, anchor_index=0)

    eta = ANCHOR_ETA * spread

    if _is_collinear(pts):
        point = _collinear_median(pts)
        return finish(point, MedianStatus.NON_UNIQUE_COLLINEAR, 0.0)

    def record(x):
        if history is not None:
            history.append(total_distance(x, pts))

    def anchor(idx, rnorm):
        record(pts[idx])
        return finish(pts[idx], MedianStatus.ANCHOR_OPTIMUM, rnorm, idx)

    def settle(X, d, final):
        # The one place that chooses between an interior and an anchor
        # answer at X (distances d), in that order.  None if neither holds,
        # unless final: then X is returned with its residual.
        j = int(np.argmin(d))
        if d[j] <= eta:
            r, _, _ = _anchor_certificate(pts, j, eta)
        else:
            r = float(np.linalg.norm(((pts - X) / d[:, None]).sum(axis=0)))
            if r <= RESIDUAL_TARGET:
                return finish(X, MedianStatus.INTERIOR_OPTIMUM, r)
        hit = _certified_anchor(pts, X, eta, j)
        if hit is not None:
            return anchor(*hit)
        return finish(X, MedianStatus.INTERIOR_OPTIMUM, r) if final else None

    X = pts.mean(axis=0)
    record(X)
    polish_attempts = 0
    last_step = np.inf
    for iterations in range(1, max_iter + 1):
        diff = pts - X
        d = np.linalg.norm(diff, axis=1)
        imin = int(np.argmin(d))
        if d[imin] <= eta:
            rnorm, mult, R = _anchor_certificate(pts, imin, eta)
            if rnorm <= mult + ANCHOR_SLACK:
                return anchor(imin, rnorm)
            # not optimal: restart one tiny step along the descent direction
            X = pts[imin] + (eta * 1e3) * R
            record(X)
            continue
        w = 1.0 / d
        Xn = (w @ pts) / w.sum()
        step = float(np.linalg.norm(Xn - X))
        X = Xn
        record(X)
        xscale = 1.0 + float(np.linalg.norm(X))
        converged = step <= tol * xscale
        slow = step > SLOW_RATIO * last_step
        last_step = step
        if converged or slow:
            last_step = np.inf
            dn = np.linalg.norm(pts - X, axis=1)
            if float(dn.min()) <= eta:
                continue  # the capture branch takes it on the next pass
            done = settle(X, dn, final=converged and polish_attempts >= 8)
            if done is not None:
                return done
            if polish_attempts < 8:
                polish_attempts += 1
                X = _newton_polish(pts, X, eta, history)

    # max_iter exhausted: certify what the last iterate allows
    return settle(X, np.linalg.norm(pts - X, axis=1), final=True)
