"""The grid-scan kernel behind ``grid_median``: an exact, pruned scan.

``grid_min_2d`` returns what a scan of every cell returns, bit for bit: the
same value, and the same cell on ties.  It evaluates only the cells that a
proven bound cannot rule out.

Cell ``(ix, iy)`` sits at ``X = x0 + step*ix``, ``Y = y0 + step*iy``, and its
value is ``f̂ = acc`` after ``acc += sqrt(dx*dx + dy*dy)`` over the points
in order, from ``acc = 0``.  Every evaluated cell goes through exactly these
float operations, so its value does not depend on which other cells are
evaluated.

**The bound.**  f(c) = Σ_j |c − p_j| is k-Lipschitz, one for each of its k
terms.  The grid is cut into a quadtree of square blocks.  For a block whose
centre cell m was evaluated, every cell c of the block has
``f(c) ≥ f(m) − k·r``, where r is the distance from m to the block's farthest
cell.  Cell coordinates are monotone in the index, so r is taken from the
block's corner cells, computed from the float coordinates and rounded up.

**The rounding margin δ.**  One computed sum is off from the exact sum at its
float coordinates by at most (k + 3)·2⁻⁵³·F, where F bounds f over the grid.
Squares that underflow add at most 2⁻⁵³⁶ per term.  The kernel takes
``δ = (k + 8)·2⁻⁵²·(F + k·D) + k·2⁻⁵³⁶``, with D the grid's diagonal.  That is
twice the need and leaves room for the three roundings of the skip test.
So ``f̂(c) ≥ f̂(m) − k·r − 2δ`` holds for every cell of the block.

**Why ties survive.**  A block is skipped only when ``f̂(m) − k·r − 2δ``
exceeds the incumbent strictly.  The incumbent is the value of a real cell,
so every cell of a skipped block is strictly above the minimum.  Every cell
that attains the minimum, ties included, is in a surviving leaf block and is
evaluated.  The first of them in iy-outer, ix-inner order is then the cell
the full scan returns.

When the grid's far corner overflows, δ is infinite and nothing is skipped.
"""

import math

import numpy as np

_LEAF = 8  # blocks this many cells a side are evaluated cell by cell
_LEAF_BLOCKS = 256  # leaf blocks per vectorised call, to bound memory


def _sums(px, py, xs, ys):
    """Distance sums at the cells ``(xs, ys)``, summed over the points in
    order, as the full scan sums them."""
    acc = np.zeros(xs.shape)
    for j in range(px.size):
        dx = xs - px[j]
        dy = ys - py[j]
        acc += np.sqrt(dx * dx + dy * dy)
    return acc


def grid_min_2d(px, py, x0, y0, nx, ny, step):
    """Minimize sum_j dist((x0+ix*step, y0+iy*step), (px[j], py[j])).

    Returns ``(best_value, best_ix, best_iy)``.  The best cell is the first
    one attaining the minimum in row-major (iy-outer, ix-inner) order.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    if px.size == 0 or nx <= 0 or ny <= 0:
        raise ValueError("need at least one point and a nonempty grid")
    k = px.size

    xe = x0 + step * np.array([0, nx - 1])
    ye = y0 + step * np.array([0, ny - 1])
    ax = np.maximum(abs(xe[0] - px), abs(xe[1] - px))
    ay = np.maximum(abs(ye[0] - py), abs(ye[1] - py))
    far = float(np.sqrt(ax * ax + ay * ay).sum())
    diag = math.hypot(xe[1] - xe[0], ye[1] - ye[0])
    delta = (k + 8) * 2.0**-52 * (far + k * diag) + k * 2.0**-536

    side = _LEAF
    while side < max(nx, ny):
        side *= 2
    bx = by = np.zeros(1, dtype=np.int64)
    best = math.inf
    while side > _LEAF:
        xlo, ylo = bx * side, by * side
        xhi = np.minimum(xlo + side, nx) - 1
        yhi = np.minimum(ylo + side, ny) - 1
        xm = x0 + step * ((xlo + xhi) // 2)
        ym = y0 + step * ((ylo + yhi) // 2)
        fm = _sums(px, py, xm, ym)
        best = min(best, float(fm.min()))
        rx = np.maximum(abs(x0 + step * xlo - xm), abs(x0 + step * xhi - xm))
        ry = np.maximum(abs(y0 + step * ylo - ym), abs(y0 + step * yhi - ym))
        r = np.sqrt(rx * rx + ry * ry) * (1.0 + 2.0**-49)
        keep = ~(fm - (k * r + 2.0 * delta) > best)
        side //= 2
        bx = np.concatenate([2 * bx[keep] + dx for dx in (0, 1, 0, 1)])
        by = np.concatenate([2 * by[keep] + dy for dy in (0, 0, 1, 1)])
        inside = (bx * side < nx) & (by * side < ny)
        bx, by = bx[inside], by[inside]

    off = np.arange(side)
    found = (math.inf, 0)
    for c in range(0, bx.size, _LEAF_BLOCKS):
        ix = bx[c:c + _LEAF_BLOCKS, None, None] * side + off
        iy = by[c:c + _LEAF_BLOCKS, None, None] * side + off[:, None]
        ix, iy = np.broadcast_arrays(ix, iy)
        inside = (ix < nx) & (iy < ny)
        ix, iy = ix[inside], iy[inside]
        f = _sums(px, py, x0 + step * ix, y0 + step * iy)
        v = f.min()
        found = min(found, (float(v), int((iy * nx + ix)[f == v].min())))
    value, cell = found
    iy, ix = divmod(cell, nx)
    return value, ix, iy
