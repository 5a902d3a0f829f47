"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``viviani``: every check recomputes what it needs from
the inputs with its own arithmetic (weak duality for medians, a sorted 1-D
median for collinear inputs, Python integers for the pinned LCG, the affine
identity for distance sums).  Each check raises :class:`CheckFailed` with a
reason, or returns ``None``.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

#: Relative duality gap accepted for a median.  The solver promises an
#: interior residual of at most k*1e-8 on the unit-spoke sum; that bounds
#: the relative gap by about 1e-8.
GAP_TOL = 1e-8
#: Relative agreement between a reported and a recomputed objective.
OBJ_RTOL = 1e-9
#: Points closer than this (in the instance's scaled frame) coincide.
COINCIDE = 1e-12

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _frame(P: np.ndarray):
    """Centre and scale of a point set: the middle of its bounding box and
    the largest coordinate distance from it.  Halving before adding keeps
    the centre finite for coordinates near the float limit."""
    c = P.min(axis=0) / 2 + P.max(axis=0) / 2
    s = float(np.max(np.abs(P - c)))
    return c, s


def _scaled(points, point, objective):
    P = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(point, dtype=float).reshape(-1)
    _require(x.shape == (P.shape[1],), f"point has shape {x.shape}")
    _require(bool(np.all(np.isfinite(x))), f"point is not finite: {x.tolist()}")
    _require(math.isfinite(objective), f"objective is not finite: {objective!r}")
    c, s = _frame(P)
    if s == 0.0:
        _require(bool(np.all(x == P[0])) and objective == 0.0,
                 "coincident input needs the common point and objective 0")
        return None
    return (P - c) / s, (x - c) / s, s


def _check_objective(objective: float, s: float, F: float):
    true = s * F
    _require(abs(objective - true) <= OBJ_RTOL * true,
             f"reported objective {objective!r} but the distance sum is {true!r}")


def median_gap(points, point) -> float:
    """Relative weak-duality gap of ``point`` as a median of ``points``.

    Unit spokes u_i toward the points are shifted to sum to zero (at an
    anchor the coincident copies absorb the residual instead) and scaled so
    that no norm exceeds one.  Any such set gives the lower bound
    sum u_i.(p_i - x) on the least distance sum, so the gap is
    (F(x) - bound) / F(x).  Everything is computed in coordinates centred
    and scaled by the instance.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(point, dtype=float).reshape(-1)
    c, s = _frame(P)
    if s == 0.0:
        return 0.0
    Q = (P - c) / s
    y = (x - c) / s
    diff = Q - y
    d = np.sqrt((diff * diff).sum(axis=1))
    F = math.fsum(d)
    near = d <= COINCIDE
    u = np.zeros_like(Q)
    u[~near] = diff[~near] / d[~near, None]
    R = u.sum(axis=0)
    m = int(near.sum())
    if m:
        u[near] = -R / m
    else:
        u -= R / len(Q)
    top = float(np.sqrt((u * u).sum(axis=1)).max())
    if top > 1.0:
        u /= top
    bound = math.fsum((u * diff).sum(axis=1))
    return (F - bound) / F


def check_median(points, point, objective):
    """The point is a median to within ``GAP_TOL`` and the objective is its
    distance sum."""
    frame = _scaled(points, point, objective)
    if frame is None:
        return
    Q, y, s = frame
    _check_objective(objective, s, math.fsum(np.sqrt(((Q - y) ** 2).sum(axis=1))))
    gap = median_gap(points, point)
    _require(gap <= GAP_TOL, f"relative duality gap {gap:.3e} exceeds {GAP_TOL:g}")


def check_collinear_median(points, point, objective):
    """For exactly collinear points: the point lies on their line, between
    the two middle order statistics, and the objective is its 1-D sum."""
    frame = _scaled(points, point, objective)
    if frame is None:
        return
    Q, y, s = frame
    far = int(np.argmax(((Q - Q[0]) ** 2).sum(axis=1)))
    e = (Q[far] - Q[0]) / float(np.sqrt(((Q[far] - Q[0]) ** 2).sum()))
    t = (Q - Q[0]) @ e
    _require(float(np.abs(Q - Q[0] - t[:, None] * e).max()) <= 1e-9,
             "input points are not collinear")
    ty = float((y - Q[0]) @ e)
    off = float(np.sqrt(((y - Q[0] - ty * e) ** 2).sum()))
    _require(off <= 1e-9, f"point is {off:.3e} off the common line")
    ts = np.sort(t)
    k = len(ts)
    lo, hi = ts[(k - 1) // 2], ts[k // 2]
    _require(lo - 1e-9 <= ty <= hi + 1e-9,
             f"point at {ty!r} is outside the median interval [{lo!r}, {hi!r}]")
    _check_objective(objective, s, math.fsum(abs(ti - ty) for ti in t))


# --- the pinned LCG ----------------------------------------------------------

def lcg_state(seed: int, steps: int) -> int:
    """State after ``steps`` applications of the recurrence
    state <- (MULT * state + INC) mod 2^64, by squaring the affine map."""
    a, c = 1, 0
    ma, mc = LCG_MULT, LCG_INC
    while steps:
        if steps & 1:
            a, c = (ma * a) & LCG_MASK, (ma * c + mc) & LCG_MASK
        ma, mc = (ma * ma) & LCG_MASK, (ma * mc + mc) & LCG_MASK
        steps >>= 1
    return (a * (seed & LCG_MASK) + c) & LCG_MASK


def lcg_coordinate(seed: int, index: int, lo: float, hi: float) -> float:
    """Coordinate number ``index`` (point-major) of a seeded point stream:
    draw index+1 of the generator mapped to ``lo + u * (hi - lo)``."""
    u = (lcg_state(seed, index + 1) >> 11) * (1.0 / (1 << 53))
    return lo + u * (hi - lo)


def lcg_points(seed: int, count: int, dim: int, lo: float, hi: float) -> np.ndarray:
    """The whole stream, stepped one draw at a time with Python integers."""
    out = np.empty(count * dim)
    state = seed & LCG_MASK
    for j in range(count * dim):
        state = (LCG_MULT * state + LCG_INC) & LCG_MASK
        out[j] = lo + ((state >> 11) * (1.0 / (1 << 53))) * (hi - lo)
    return out.reshape(count, dim)


def check_draws(points, seed: int, lo: float, hi: float, indices):
    """The sampled coordinates at ``indices`` (flat, point-major) equal the
    reference recurrence bit for bit."""
    flat = np.asarray(points, dtype=float).reshape(-1)
    for j in indices:
        want = lcg_coordinate(seed, int(j), lo, hi)
        _require(flat[j] == want, f"draw {j} is {flat[j]!r}, the recurrence gives {want!r}")


# --- distance sums, duality, documents ------------------------------------

def affine_values(points, normals, offsets) -> np.ndarray:
    """v(P) = sum(c) - (sum of n) . P, with compensated sums."""
    N = np.asarray(normals, dtype=float)
    nsum = np.array([math.fsum(N[:, j]) for j in range(N.shape[1])])
    return math.fsum(offsets) - np.asarray(points, dtype=float) @ nsum


def _value_scale(points, normals, offsets) -> float:
    P = np.atleast_2d(np.asarray(points, dtype=float))
    return float(np.abs(offsets).sum() + len(offsets) * np.abs(P).max())


def check_values(points, values, normals, offsets, viviani: bool = True):
    """Values follow the affine identity; on a Viviani set they are constant."""
    scale = _value_scale(points, normals, offsets)
    vals = np.asarray(values, dtype=float)
    err = float(np.abs(vals - affine_values(points, normals, offsets)).max())
    _require(err <= 1e-12 * scale, f"values miss the affine identity by {err:.3e}")
    if viviani:
        spread = float(vals.max() - vals.min())
        _require(spread <= 1e-12 * scale, f"values on a Viviani set spread by {spread:.3e}")


def feet_of(normals, offsets, point) -> np.ndarray:
    """Feet of the perpendiculars from ``point``: P + (c_i - n_i.P) n_i."""
    N = np.asarray(normals, dtype=float)
    P = np.asarray(point, dtype=float)
    return P + (np.asarray(offsets, dtype=float) - N @ P)[:, None] * N


def check_feet(feet, normals, offsets, point):
    want = feet_of(normals, offsets, point)
    scale = 1.0 + float(np.abs(want).max())
    err = float(np.abs(np.asarray(feet, dtype=float) - want).max())
    _require(err <= 1e-12 * scale, f"feet are off the perpendiculars by {err:.3e}")


def check_recovery(recovered, point, scale: float):
    err = float(np.sqrt(((np.asarray(recovered) - np.asarray(point)) ** 2).sum()))
    _require(err <= 1e-7 * scale, f"recovered point is {err:.3e} from the original")


def check_spoke_planes(normals, offsets, points, rtol: float = 1e-6):
    """Planes from ``fermat_to_viviani``: unit normals that cancel, each
    plane through its point."""
    N = np.asarray(normals, dtype=float)
    P = np.asarray(points, dtype=float)
    k = len(N)
    unit = float(np.abs(np.sqrt((N * N).sum(axis=1)) - 1.0).max())
    _require(unit <= 1e-12, f"normals are off unit length by {unit:.3e}")
    total = math.sqrt(sum(math.fsum(N[:, j]) ** 2 for j in range(N.shape[1])))
    _require(total <= k * rtol, f"normals sum to {total:.3e}, not zero")
    scale = 1.0 + float(np.abs(P).max())
    through = float(np.abs((N * P).sum(axis=1) - np.asarray(offsets)).max())
    _require(through <= 1e-12 * scale * k, f"planes miss their points by {through:.3e}")


def check_same_planes(normals, offsets, normals0, offsets0, scale: float):
    """Dualising the feet gives back the original planes."""
    dn = float(np.abs(np.asarray(normals) - np.asarray(normals0)).max())
    dc = float(np.abs(np.asarray(offsets) - np.asarray(offsets0)).max())
    _require(dn <= 1e-6 and dc <= 1e-6 * scale,
             f"dual planes differ from the originals (normals {dn:.3e}, offsets {dc:.3e})")


def check_roundtrip(text: str, again: str, arrays, arrays_again):
    """serialize -> parse -> serialize gives the same text and the same
    floats, bit for bit."""
    _require(text == again, "serialize(parse(text)) differs from text")
    for a, b in zip(arrays, arrays_again):
        _require(np.array_equal(np.asarray(a), np.asarray(b)),
                 "parsed floats differ from the serialized ones")


# --- CLI outputs --------------------------------------------------------------

def doc_planes(text: str):
    """(normals, offsets) of a planes document, read with ``json`` alone."""
    obj = json.loads(text)
    planes = obj["planes"]
    return (np.array([p["normal"] for p in planes], dtype=float),
            np.array([p["offset"] for p in planes], dtype=float))


def check_svg(data: bytes):
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise CheckFailed(f"plot output is not XML: {exc}") from exc
    _require(root.tag.rsplit("}", 1)[-1] == "svg", f"plot root is <{root.tag}>, not <svg>")


def parse_fields(line: str) -> dict[str, str]:
    """``a=1 b=2`` -> {"a": "1", "b": "2"}."""
    return dict(part.split("=", 1) for part in line.split())
