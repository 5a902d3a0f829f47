"""Geometric median (1-median / Fermat point) with optimality certificates.

For non-collinear points the minimizer of the distance sum is unique and
lies in the convex hull.  Away from the input points first-order optimality
reads: the unit vectors from the minimizer toward the points sum to zero.
At an input point P_i the condition relaxes to: the unit vectors from P_i
toward the other points have a sum of norm at most 1.  Both conditions are
computed and reported as the ``residual`` of the returned result, so every
answer carries a numerical certificate.

All distances are taken in one frame (``_frame``): divide, then centre.
The points are divided by the exact power of two ``u`` of
``geometry._unit_box`` (1 for ordinary inputs) and then moved by minus
their centroid ``c`` in that unit, so no difference, sum or squared distance
overflows or underflows for any finite input, at any scale or offset.
Answers map back as ``u (c + y)``, rounded as ``MedianResult`` bounds (an
anchor is its input row); objective and ``history`` scale by ``u``, and an
objective beyond the float maximum is reported as ``inf``.

The solver is Weiszfeld fixed-point iteration from the centroid, used only
to globalise: whenever a step fails to shrink by ``SLOW_RATIO``, and at
convergence, the certificates (interior, then the anchors') are tried, then
a damped Newton polish with a bounded line search.  Iterates landing on an
input point are certified as the anchor optimum or pushed a small step
along the descent direction; exactly collinear inputs get a closed-form 1-D
median.  The objective is non-increasing up to rounding.

A plain fixed-point step, one that has neither converged nor slowed down,
is followed only by the next step, which reads its distances and nothing
else.  So it takes them from ``|q_j|^2 - 2 q_j.X + |X|^2``: one
matrix-vector product over the points, no (k, n) write, with the squared
norms ``|q_j|^2`` taken once per solve.  It does so only when the triangle
inequality proves every distance large enough for that expansion to be
accurate (``_expanded_distances``: at most 1.2e-13 relative at n = 50), and
such a step cannot land on a point.  Every other iterate costs one exact
pass over the (k, n) data: the differences ``p_j - X`` and their norms
(``_distances``) are taken once, right after the step, and the interior
certificate, the polish's first step and the reported objective all reuse
them.  That covers the start, the capture restart, every converged or slow
iterate, the polish and the ``max_iter`` exit, so every certificate,
status, residual and objective comes from exact differences.  A polish
that ends on its gradient test (at a quarter of ``RESIDUAL_TARGET``) is
certified on the spot, with no further step.  A solve allocates its
(k, n) memory once, as one block of four column-major slabs: ``Q``, the
current and the trial differences (which swap roles when a polish step is
accepted), and a scratch slab for the anchor certificates.  Every pass
writes into its slab through ``out=``, and no slab is written while a live
difference array aliases it.  One block rather than four arrays matters
for large solves: glibc serves a large block with mmap, and raises its mmap
and trim thresholds past the largest such block freed, so the next solve
reuses the same pages; separate buffers freed together cross the trim line
and every solve faults its memory in again.  The trim line is twice the
block, so the block's size is also the room left for the solve's length-k
vectors (a third of a slab each at n = 3): a block of ``Q`` and the
differences alone, or one without the certificates' scratch, still faults
at (10000, 3).  Spoke sums are the product
``(1/d) @ (P - X)``.  The centred points of the first iterate also decide
collinearity (``_is_collinear``): a two-row lower bound on the second
singular value clears almost every input without an SVD.

Anchors are certified, never scanned.  The anchor condition depends only
on the points, so each anchor's certificate (O(k n)) is taken at most once
per solve and kept.  It is taken for the anchor nearest an iterate that
lands on a point or slows down, for the point that caps a polish step
walking toward it, and for the next point ahead once a failing point caps
a second step.  The distance sum is convex, so an anchor that passes
is a global minimiser up to ``ANCHOR_SLACK``; the reported ``anchor_index``
is the lowest index among the passing coincident copies of the first
anchor the solve finds passing.  In a near-collinear valley, where several
distinct anchors can pass within ``ANCHOR_SLACK``, that is the one the
iteration meets, not necessarily the lowest index overall.

Points are stored column-major (``PointSet.points`` is Fortran-ordered), so
every pass over the (k, n) data -- the differences, ``_distances``, the
axis-0 reductions and the weighted sums -- runs along the long k axis.
Norms of n-vectors go through ``_norm``, numpy's own 1-D norm without its
dispatch.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CoincidesWithAnchor, VivianiError
from .geometry import _unit_box, as_vector

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
#: Newton steps one polish takes at most.
POLISH_STEPS = 40
#: A plain fixed-point step expands its squared distances when every one of
#: them is proven at least this fraction of ``max |q|^2 + |X|^2``
#: (``_expanded_distances``).
EXPANSION_MARGIN = 0.1


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered list of k >= 1 points of one dimension, stored as (k, n).

    ``points`` is a read-only copy in column-major (Fortran) order: each
    coordinate is contiguous across the k points, which is the axis every
    solver pass runs along.  Indexing yields a strided row view.
    """

    points: np.ndarray

    def __post_init__(self):
        p = np.array(_points(self.points), order="F")
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

    ``objective`` and ``residual`` are those of the unrounded answer
    ``u (c + y)``; rounding it to ``point`` adds at most ``k |point - u (c +
    y)|`` to the distance sum: about 1e-16 relative at ordinary scales, the
    float spacing (1.2e-4) per point at a +1e12 offset.
    ``residual`` is the norm of the optimality certificate: the direction
    sum at the point for interior optima (contract: <= k*1e-8), the
    direction sum over the other points for anchor optima (contract:
    <= multiplicity + 1e-9), and 0.0 for the collinear closed form.
    ``iterations`` counts fixed-point steps and capture restarts, not Newton
    steps; ``history`` holds the objective after each iterate when requested.
    The entries of plain fixed-point steps, whose distances come from the
    expansion of ``_expanded_distances``, carry a relative error of at most
    ``2 gamma_{n+2} / EXPANSION_MARGIN`` (1.2e-13 at n = 50); the others, like
    ``objective``, are sums of exact distances.
    """

    point: np.ndarray
    objective: float
    status: MedianStatus
    residual: float
    iterations: int
    anchor_index: int | None = None
    history: tuple[float, ...] | None = None


def _points(A) -> np.ndarray:
    """The points of ``A`` as a validated (k, n) float array, copied only
    when the conversion to float needs it; never written to."""
    p = np.atleast_2d(np.asarray(A.points if isinstance(A, PointSet) else A,
                                 dtype=float))
    if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
        raise VivianiError("expected a nonempty (k, n) array of points")
    if not np.isfinite(p).all():
        raise VivianiError("point coordinates must be finite")
    return p


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D vector, bit for bit as
    ``np.linalg.norm`` gives it: numpy's own 1-D path (``sqrt(v.dot(v))``,
    overflow and underflow included) without its dispatch."""
    return math.sqrt(float(v.dot(v)))


def _frame(P: np.ndarray):
    """``(c, u, Q, diag)`` with ``Q = P/u - c``, taken in place over ``P``:
    divide, then centre.  ``u`` is the point set's unit
    (``geometry._unit_box``); ``c``, the centroid, and ``diag``, the box
    diagonal, are in units of ``u``."""
    u, lo, hi = _unit_box(P)
    if u != 1.0:
        P /= u
    c = P.sum(axis=0) / P.shape[0]
    P -= c
    return c, u, P, _norm(hi - lo)


def _seen_from(X, A):
    """``(pts, diff, d, u, diag)``: the points of ``A``, their frame
    differences ``diff = Q - (X/u - c)`` from ``X``, taken in place over the
    one frame copy ``Q``, and the norms ``d``."""
    pts = _points(A)
    x = as_vector(X, dim=pts.shape[1])
    c, u, diff, diag = _frame(np.array(pts, order="F"))
    diff -= x / u - c
    return pts, diff, _distances(diff), u, diag


def _distances(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``diff``: one pass, no (k, n) temporary."""
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _expanded_distances(Q: np.ndarray, qq: np.ndarray, qmax: float,
                        X: np.ndarray, gap: float) -> np.ndarray | None:
    """Norms of the rows of ``Q - X`` from ``|q|^2 - 2 q.X + |X|^2``, or
    None when that expansion is not proven accurate.

    ``qq`` holds the squared row norms of ``Q`` and ``qmax`` their maximum;
    ``gap`` is a lower bound on every distance, which the caller takes from
    the triangle inequality as the nearest distance from the previous
    iterate less the step.  The expansion takes one matrix-vector product
    and writes no (k, n) array.  Its rounding error is at most
    ``gamma_{n+2} (|q_j| + |X|)^2 <= 2 gamma_{n+2} (qmax + |X|^2)``, with
    ``gamma_m = m eps / (1 - m eps)``, so when ``gap^2 >= EXPANSION_MARGIN
    (qmax + |X|^2)`` every squared distance carries a relative error of at
    most ``2 gamma_{n+2} / EXPANSION_MARGIN`` (1.2e-13 at n = 50), and each
    distance half that.  In the solver's frame nothing here overflows, and
    what underflows is far below that bound.
    """
    xx = float(X @ X)
    if not (gap > 0.0 and gap * gap >= EXPANSION_MARGIN * (qmax + xx)):
        return None
    s = Q @ (-2.0 * X)
    s += qq
    s += xx
    return np.sqrt(s, out=s)


def total_distance(X, A) -> float:
    """Sum of Euclidean distances from ``X`` to every point of ``A``."""
    _, _, d, u, _ = _seen_from(X, A)
    return u * float(d.sum())


def direction_sum_at(X, A) -> np.ndarray:
    """Sum of unit vectors from ``X`` toward each point of ``A``.

    Zero at an interior optimum.  Raises :class:`CoincidesWithAnchor` when
    ``X`` is within 1e-12 of the point spread of an input point.
    """
    _, diff, d, _, diag = _seen_from(X, A)
    if np.any(d <= ANCHOR_ETA * diag):
        raise CoincidesWithAnchor("query point coincides with an input point")
    out = (1.0 / d) @ diff
    out.flags.writeable = False
    return out


def _anchor_certificate(pts: np.ndarray, idx: int, eta: float, out: np.ndarray):
    """Direction sum over points not coincident with anchor ``idx``.

    Returns ``(norm, multiplicity, direction_sum)``; the anchor is optimal
    when the norm is at most the multiplicity (number of coincident copies).
    The differences from the anchor are written into ``out``.
    """
    diff = np.subtract(pts, pts[idx], out=out)
    d = _distances(diff)
    near = d <= eta
    m = int(near.sum())
    if m == d.size:
        return 0.0, m, np.zeros(pts.shape[1])
    w = np.divide(1.0, d, out=np.zeros_like(d), where=~near)
    R = w @ diff
    return _norm(R), m, R


def _newton_polish(pts: np.ndarray, X: np.ndarray, eta: float,
                   history: list[float] | None, diff: np.ndarray,
                   d: np.ndarray, spare: np.ndarray, *,
                   passes: Callable[[int], bool]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None]:
    """Damped Newton steps on the (smooth away from anchors) distance sum.

    Rescues the fixed-point iteration when the optimum sits in a nearly flat
    valley (almost-collinear inputs), where its contraction rate degrades to
    1 - O(valley width squared).  Takes ``diff = pts - X`` and its row norms
    ``d`` and returns ``(X, diff, d, None)`` at the point it stops; each step
    takes one distance pass, at its trial point.  ``V`` and the trial
    differences are written into ``spare``, a (k, n) slab apart from
    ``diff``; an accepted trial swaps the two, so the returned ``diff`` lies
    in one of them.  The gradient is
    ``-(1/d) @ diff``.
    The Hessian ``sum (I - u u^T) / d`` is formed multiplied by the nearest
    distance ``c``, as ``(sum c/d) I - V^T V`` with rows
    ``V_j = u_j sqrt(c/d_j)``: one matmul of rows no longer than 1, which
    neither overflows nor underflows wherever the distances do not; the
    right-hand side is scaled by ``c`` to match.  Armijo backtracking keeps
    the objective non-increasing.  Its first trial goes at most half way to
    the nearest point ahead, whose ``1/d`` curvature the quadratic model
    misses.  When that cap binds, the point ahead is tested with
    ``passes(i)``; if its anchor certificate holds, the polish stops there
    and returns ``(X, diff, d, i)``, since no step toward an optimal anchor
    needs to be taken by halves.  When the same failing point caps a second
    step, the next point ahead is tested as well: in a flat valley the
    optimal anchor often lies just beyond a failing one that the polish
    would otherwise approach by halves.  A step still failing after
    ``LINE_SEARCH_TRIALS`` trials is being pulled toward an anchor, and the
    polish hands back to the caller, as it does near an anchor.

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
    crawl = None
    for _ in range(POLISH_STEPS):
        c = float(d.min())
        if c <= eta:
            break
        w = 1.0 / d
        g = w @ diff  # the negated gradient
        if _norm(g) <= 0.25 * RESIDUAL_TARGET:
            break
        r = c * w
        a = np.sqrt(r)
        a *= w
        V = np.multiply(diff, a[:, None], out=spare)
        H = V.T @ V
        np.negative(H, out=H)
        h = H.reshape(-1)[::n + 1]  # a view of the diagonal
        h += r.sum()
        h += 1e-12 * float(h.sum()) / n
        try:
            p = np.linalg.solve(H, c * g)
        except np.linalg.LinAlgError:
            break
        slope = -float(g @ p)
        if slope >= 0.0:
            break
        length = _norm(p)
        t = 1.0
        # every point ahead is at least c away, so no cap binds below c/2
        if length > 0.5 * c:
            ahead = np.where(diff @ p > 0.0, d, np.inf)
            i = int(ahead.argmin())
            reach = 0.5 * float(ahead[i])
            if length > reach:
                if passes(i):
                    return X, diff, d, i
                if i == crawl:
                    # capped by the same failing point twice: the step is
                    # crawling onto it by halves along a valley whose
                    # optimum lies beyond it, so the next point ahead is
                    # tested too
                    ahead[i] = np.inf
                    j = int(ahead.argmin())
                    if ahead[j] < np.inf and passes(j):
                        return X, diff, d, j
                crawl = i
                t = reach / length
        for _ in range(LINE_SEARCH_TRIALS):
            Xn = X + p if t == 1.0 else X + t * p
            s = Xn - X
            if not s.any():
                # the step is below the float spacing at X; halving t
                # cannot move any coordinate either
                return X, diff, d, None
            diffn = np.subtract(pts, Xn, out=spare)
            dn = _distances(diffn)
            q = diff @ s
            q *= -2.0
            q += s @ s
            q /= dn + d
            df = float(q.sum())
            if df <= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        X, diff, d, spare = Xn, diffn, dn, diff
        if history is not None:
            history.append(float(d.sum()))
    return X, diff, d, None


def _collinear_median(C: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1-D median of the centred points ``C`` along their common line
    through the origin with unit direction ``e``: midpoint of the interval
    between the two middle order statistics (the interval degenerates for
    odd counts)."""
    t = np.sort(C @ e)
    k = t.size
    return 0.5 * (t[(k - 1) // 2] + t[k // 2]) * e


def _is_collinear(C: np.ndarray, d: np.ndarray) -> np.ndarray | None:
    """Direction of the common line of the centred points ``C`` (row norms
    ``d``), or None when they are not collinear.

    The points are collinear when the singular values of ``C`` satisfy
    ``s_1 <= COLLINEAR_RATIO s_0``, and always for k = 2 or n = 1; the
    direction is the first right singular vector.  Most inputs are cleared
    without an SVD.  Take ``a``, the row of ``C`` with the largest norm, and
    ``b``, the row farthest off the line through ``a``.  Deleting rows
    interlaces singular values, and for two rows ``s_0 s_1 = |a| |b_perp|``
    with ``s_0 <= sqrt(|a|^2 + |b|^2)``; so

        s_1(C) >= s_1([a; b]) >= |a| |b_perp| / sqrt(|a|^2 + |b|^2),

    while ``s_0(C) <= |C|_F``.  When that lower bound exceeds
    ``2 COLLINEAR_RATIO |C|_F`` the points are not collinear, and the SVD
    criterion gives the same verdict: the factor 2 leaves room for rounding
    errors of up to ``COLLINEAR_RATIO |C|_F`` (about 4500 eps |C|_F) in the
    bound and in the SVD's singular values.  ``C`` is in the solver's frame,
    where ``|C|_F^2`` lies between 2^-800 and ``4 k n 2^802``, so the squared
    norms of the bound lose nothing to underflow or overflow.  Every input
    that fails the bound runs the SVD, which also returns the direction.

    The bound is there for large ``k n``: it takes O(k n) work against the
    SVD's O(k n^2), which at n = 50 and k = 1000 is a large share of the
    whole solve.  For a few planar points the two cost about the same.
    """
    k, n = C.shape
    if n > 1 and k > 2:
        i = int(d.argmax())
        a_hat = C[i] / d[i]
        along = C @ a_hat
        j = int((d * d - along * along).argmax())
        b_perp = C[j] - along[j] * a_hat
        da, db = float(d[i]), float(d[j])
        lower = da * math.sqrt(float(b_perp @ b_perp)) / math.hypot(da, db)
        if lower > 2.0 * COLLINEAR_RATIO * math.sqrt(float(d @ d)):
            return None
    _, s, vt = np.linalg.svd(C, full_matrices=False)
    if n == 1 or k == 2 or s[1] <= COLLINEAR_RATIO * s[0]:
        return vt[0]
    return None


def geometric_median(A, tol: float = 1e-10, max_iter: int = 10000,
                     record_history: bool = False) -> MedianResult:
    """Minimize the distance sum to the points of ``A``.

    ``tol`` is the relative step-length stopping threshold in the caller's
    units (a step of at most ``tol (1 + |x|)`` has converged).  Each slow or
    converged step is certified if it can be, else polished (at most eight
    polishes); a converged iterate with no polish left, or the last one at
    ``max_iter``, is returned with its residual, never an error.
    Deterministic for fixed input.

    Each anchor's certificate is taken at most once per solve: for the
    anchor nearest a slow, converged or captured iterate, and for the
    points that cap a polish step (see ``_newton_polish``).  An anchor
    optimum reports, as ``anchor_index``, the lowest index among the
    coincident copies of the first anchor found passing whose own
    certificate passes.  ``A`` may be a :class:`PointSet` or any (k, n)
    array; the solve allocates one block for all its (k, n) work (see the
    module docstring) and copies the points into its first slab, which
    ``_frame`` turns into ``Q`` in place.  ``tol`` must be positive and
    ``max_iter`` at least 1, else :class:`VivianiError`.
    """
    if not tol > 0.0:
        raise VivianiError("tol must be positive")
    if max_iter < 1:
        raise VivianiError("max_iter must be at least 1")
    pts = _points(A)
    k, n = pts.shape
    # the workspace: Q, the current (D) and trial (E) differences, and the
    # anchor certificates' scratch (S)
    W = np.empty((k, n, 4), order="F")
    Q, D, E, S = W.transpose(2, 0, 1)
    Q[...] = pts
    c, u, Q, diag = _frame(Q)
    history: list[float] | None = [] if record_history else None
    iterations = 0

    def finish(y, status, residual, d, anchor_index=None):
        # y: the answer in the frame, d: the frame distances at it
        p = u * (c + y) if anchor_index is None else np.array(pts[anchor_index])
        p.flags.writeable = False
        return MedianResult(
            point=p,
            objective=u * float(d.sum()),
            status=status,
            residual=float(residual),
            iterations=iterations,
            anchor_index=anchor_index,
            history=tuple(u * h for h in history) if history is not None else None,
        )

    if k == 1 or diag == 0.0:
        # single point, or k coincident copies of one point
        return finish(None, MedianStatus.ANCHOR_OPTIMUM, 0.0, np.zeros(k), 0)

    eta = ANCHOR_ETA * diag

    X = np.zeros(n)
    diff = Q
    qq = np.einsum("ij,ij->i", Q, Q)  # kept for _expanded_distances
    qmax = float(qq.max())
    d = np.sqrt(qq)
    line = _is_collinear(diff, d)
    if line is not None:
        y = _collinear_median(diff, line)
        return finish(y, MedianStatus.NON_UNIQUE_COLLINEAR, 0.0,
                      _distances(np.subtract(Q, y, out=D)))

    def record(d):
        if history is not None:
            history.append(float(d.sum()))

    certificates = {}

    def certificate(i):
        # (norm, multiplicity, R) of anchor i; it depends on the points
        # alone, so each anchor is tested at most once per solve
        if i not in certificates:
            certificates[i] = _anchor_certificate(Q, i, eta, S)
        return certificates[i]

    def passes(i):
        rnorm, mult, _ = certificate(i)
        return rnorm <= mult + ANCHOR_SLACK

    def anchor(j):
        # The answer at the passing anchor j: the lowest index among its
        # coincident copies whose certificate passes (j itself at worst).
        d = _distances(np.subtract(Q, Q[j], out=S))
        i = next(i for i in np.flatnonzero(d <= eta).tolist() if passes(i))
        if i != j:
            d = _distances(np.subtract(Q, Q[i], out=S))
        record(d)
        return finish(None, MedianStatus.ANCHOR_OPTIMUM, certificate(i)[0], d, i)

    def settle(X, diff, d, final):
        # The one place that chooses between an interior and an anchor
        # answer at X (differences diff, distances d), in that order: the
        # interior certificate, then the nearest anchor's.  None if neither
        # holds, unless final: then X is returned with its residual.
        j = int(d.argmin())
        if d[j] <= eta:
            r = certificate(j)[0]
        else:
            r = _norm((1.0 / d) @ diff)
            if r <= RESIDUAL_TARGET:
                return finish(X, MedianStatus.INTERIOR_OPTIMUM, r, d)
        if passes(j):
            return anchor(j)
        return finish(X, MedianStatus.INTERIOR_OPTIMUM, r, d) if final else None

    record(d)
    polish_attempts = 0
    last_step = np.inf
    for iterations in range(1, max_iter + 1):
        imin = int(d.argmin())
        if d[imin] <= eta:
            if passes(imin):
                return anchor(imin)
            # not optimal: restart a small step along the descent direction
            X = Q[imin] + (eta * 1e3) * certificate(imin)[2]
            diff = np.subtract(Q, X, out=D)
            d = _distances(diff)
            record(d)
            continue
        w = 1.0 / d
        Xn = (w @ Q) / w.sum()
        step = _norm(Xn - X)
        X = Xn
        # x = u (c + X), so the caller's tol (1 + |x|) is u tol (1/u + |X + c|)
        converged = step <= tol * (1.0 / u + _norm(X + c))
        slow = step > SLOW_RATIO * last_step
        last_step = step
        if not (converged or slow):
            # a plain step: only its distances are read, by the next step
            dx = _expanded_distances(Q, qq, qmax, X, float(d[imin]) - step)
            if dx is not None:
                diff, d = None, dx
                record(d)
                continue
        diff = np.subtract(Q, X, out=D)
        d = _distances(diff)
        record(d)
        if converged or slow:
            last_step = np.inf
            if float(d.min()) <= eta:
                continue  # the capture branch takes it on the next pass
            done = settle(X, diff, d, final=converged and polish_attempts >= 8)
            if done is not None:
                return done
            if polish_attempts < 8:
                polish_attempts += 1
                X, diff, d, hit = _newton_polish(Q, X, eta, history, diff, d, E,
                                                 passes=passes)
                if hit is not None:
                    return anchor(hit)
                if float(d.min()) > eta:
                    # certify the polish's point at once: one that ended on
                    # its gradient test passes as it stands
                    done = settle(X, diff, d, final=False)
                    if done is not None:
                        return done

    # max_iter exhausted: certify what the last iterate allows
    if diff is None:
        diff = np.subtract(Q, X, out=D)
        d = _distances(diff)
    return settle(X, diff, d, final=True)
