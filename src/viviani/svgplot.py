"""Deterministic SVG rendering of 2-D documents.

Fixed 800x800 viewport, 10% padding, lines drawn edge to edge with a short
arrow showing each unit normal.  Output depends only on the document
contents: coordinates are formatted with a fixed precision and elements are
emitted in document order, so identical inputs give identical bytes.  The
viewport is taken in the content's own unit (``geometry._unit_box``): world
coordinates are divided by that power of two before any difference, so
every finite document renders, and a copy scaled by a power of two renders
the same bytes.
"""

from __future__ import annotations

import numpy as np

from .document import ConfigDocument
from .errors import VivianiError
from .geometry import _unit_box
from .polytope import _next_rows, polygon_to_hyperplanes

VIEW = 800.0
MARGIN = 80.0  # 10% of the viewport on each side
ARROW_PX = 40.0
HEAD_PX = 8.0

_STYLE_LINE = 'stroke="#1a1a1a" stroke-width="1.5"'
_STYLE_EDGE = 'stroke="#1a1a1a" stroke-width="1.5" fill="none"'
_STYLE_ARROW = 'stroke="#c0392b" stroke-width="1.5"'
_STYLE_HEAD = 'fill="#c0392b"'
_STYLE_POINT = 'fill="#2e6da4"'


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def render_svg(doc: ConfigDocument) -> str:
    """Render a 2-D document to an SVG 1.1 string."""
    if doc.dimension != 2:
        raise VivianiError("plotting is implemented for dimension 2 only")

    if doc.planes is not None:
        normals, offsets = doc.planes.normals, doc.planes.offsets
        content = offsets[:, None] * normals  # the anchors
    elif doc.polygon is not None:
        content = doc.polygon.vertices
    else:
        content = doc.points

    # the viewport, and every world point drawn, in units of u
    u, lo, hi = _unit_box(content)
    world = content if u == 1.0 else content / u
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    if span <= 0.0:
        span = 2.0
    mid = (lo + hi) / 2.0
    scale = (VIEW - 2.0 * MARGIN) / span

    def to_screen(p) -> tuple[float, float]:
        return (
            VIEW / 2.0 + (p[0] - mid[0]) * scale,
            VIEW / 2.0 - (p[1] - mid[1]) * scale,
        )

    half = VIEW / 2.0 / scale  # world half-width of the viewport
    window = (mid[0] - half, mid[0] + half, mid[1] - half, mid[1] + half)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="800" height="800" viewBox="0 0 800 800">',
        '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>',
    ]

    def emit_arrow(base_w, normal):
        bx, by = to_screen(base_w)
        # screen direction of the (unit) normal; y axis flips
        dx, dy = normal[0], -normal[1]
        tx, ty = bx + ARROW_PX * dx, by + ARROW_PX * dy
        parts.append(
            f'<line x1="{_fmt(bx)}" y1="{_fmt(by)}" x2="{_fmt(tx)}" y2="{_fmt(ty)}" '
            f"{_STYLE_ARROW}/>"
        )
        # arrowhead: two back-swept barbs as a filled triangle
        lx, ly = -dy, dx
        p1 = (tx - HEAD_PX * dx + 0.5 * HEAD_PX * lx, ty - HEAD_PX * dy + 0.5 * HEAD_PX * ly)
        p2 = (tx - HEAD_PX * dx - 0.5 * HEAD_PX * lx, ty - HEAD_PX * dy - 0.5 * HEAD_PX * ly)
        parts.append(
            f'<polygon points="{_fmt(tx)},{_fmt(ty)} {_fmt(p1[0])},{_fmt(p1[1])} '
            f'{_fmt(p2[0])},{_fmt(p2[1])}" {_STYLE_HEAD}/>'
        )

    if doc.planes is not None:
        for normal, offset, anchor in zip(normals, offsets / u, world):
            seg = _clip_line(normal, offset, window)
            if seg is None:
                continue
            (a, b) = seg
            ax, ay = to_screen(a)
            bx, by = to_screen(b)
            parts.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                f"{_STYLE_LINE}/>"
            )
            emit_arrow(anchor, normal)
    elif doc.polygon is not None:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (to_screen(v) for v in world))
        parts.append(f'<polygon points="{pts}" {_STYLE_EDGE}/>')
        normals = polygon_to_hyperplanes(doc.polygon).normals
        for mid_w, normal in zip((world + _next_rows(world)) / 2.0, normals):
            emit_arrow(mid_w, normal)
    else:
        for row in world:
            x, y = to_screen(row)
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" {_STYLE_POINT}/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _clip_line(normal, offset, window):
    """Segment of the line normal.x = offset inside the window, or None.

    Parametrize from the foot of the perpendicular along the tangent and
    clip with the slab method.
    """
    x0, x1, y0, y1 = window
    q = np.array([offset * normal[0], offset * normal[1]])
    t = np.array([-normal[1], normal[0]])
    tmin, tmax = -np.inf, np.inf
    for qi, ti, lo, hi in ((q[0], t[0], x0, x1), (q[1], t[1], y0, y1)):
        if abs(ti) < 1e-15:
            if qi < lo or qi > hi:
                return None
            continue
        a = (lo - qi) / ti
        b = (hi - qi) / ti
        if a > b:
            a, b = b, a
        tmin = max(tmin, a)
        tmax = min(tmax, b)
    if not tmin < tmax:
        return None
    return q + tmin * t, q + tmax * t
