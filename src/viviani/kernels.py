"""The grid-scan kernel behind ``grid_median``: a scan of every cell.

Only the benchmark's trace-mode cross-check (``perfbench``) still runs the
grid; this module stays until the benchmark's next change drops that check.

Cell ``(ix, iy)`` sits at ``X = x0 + step*ix``, ``Y = y0 + step*iy``, and its
value is ``acc`` after ``acc += sqrt(dx*dx + dy*dy)`` over the points in
order, from ``acc = 0``.
"""

import numpy as np

_ROW_CHUNK = 64  # grid rows per vectorised pass, to bound memory


def grid_min_2d(px, py, x0, y0, nx, ny, step):
    """Minimize sum_j dist((x0+ix*step, y0+iy*step), (px[j], py[j])).

    Returns ``(best_value, best_ix, best_iy)``.  The best cell is the first
    one attaining the minimum in row-major (iy-outer, ix-inner) order.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    if px.size == 0 or nx <= 0 or ny <= 0:
        raise ValueError("need at least one point and a nonempty grid")
    xs = x0 + step * np.arange(nx)
    best = np.inf
    best_ix = best_iy = 0
    for row0 in range(0, ny, _ROW_CHUNK):
        rows = min(_ROW_CHUNK, ny - row0)
        ys = y0 + step * np.arange(row0, row0 + rows)
        acc = np.zeros((rows, nx))
        for j in range(px.size):
            dx = xs - px[j]
            dy = ys - py[j]
            acc += np.sqrt(dx * dx + (dy * dy)[:, None])
        flat = int(np.argmin(acc))
        val = float(acc.flat[flat])
        if val < best:
            best = val
            best_iy = row0 + flat // nx
            best_ix = flat % nx
    return best, best_ix, best_iy
