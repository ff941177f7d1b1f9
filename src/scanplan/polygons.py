"""Planar polygon predicates shared by segmentation, planning and editing.

The predicates broadcast over many rectangles or edge pairs at once: the
coverage lattice tests every footprint of a lattice row against the boundary
in one pass, and the simplicity check tests every edge pair in one pass. The
floating-point operations are those of the one-at-a-time textbook forms, in
the same order, so the booleans are the same as theirs.
"""

from __future__ import annotations

import numpy as np


def shoelace_area(polygon: np.ndarray) -> float:
    """Signed area of a simple polygon given as (K, 2) vertices in order."""
    p = np.asarray(polygon, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orient(p, q, r) -> np.ndarray:
    """Sign (-1, 0 or 1) of the turn p -> q -> r, broadcast over leading axes."""
    v = (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
        q[..., 1] - p[..., 1]
    ) * (r[..., 0] - p[..., 0])
    return (v > 0).astype(np.int8) - (v < 0)


def _in_box(p, q, r) -> np.ndarray:
    """True where r lies in the bounding box of segment p-q."""
    return (
        (np.minimum(p[..., 0], q[..., 0]) <= r[..., 0])
        & (r[..., 0] <= np.maximum(p[..., 0], q[..., 0]))
        & (np.minimum(p[..., 1], q[..., 1]) <= r[..., 1])
        & (r[..., 1] <= np.maximum(p[..., 1], q[..., 1]))
    )


def segments_intersect(a0, a1, b0, b1) -> np.ndarray:
    """True where closed segments a0-a1 and b0-b1 share a point.

    Endpoints are ``(..., 2)`` arrays that broadcast against each other.
    """
    o1 = _orient(a0, a1, b0)
    o2 = _orient(a0, a1, b1)
    o3 = _orient(b0, b1, a0)
    o4 = _orient(b0, b1, a1)
    return (
        ((o1 != o2) & (o3 != o4))
        | ((o1 == 0) & _in_box(a0, a1, b0))
        | ((o2 == 0) & _in_box(a0, a1, b1))
        | ((o3 == 0) & _in_box(b0, b1, a0))
        | ((o4 == 0) & _in_box(b0, b1, a1))
    )


def polygon_is_simple(polygon: np.ndarray) -> bool:
    """True when no two non-adjacent edges intersect."""
    p = np.asarray(polygon, dtype=float)
    n = len(p)
    if n < 3:
        return False
    i, j = np.triu_indices(n, 1)
    apart = ((j + 1) % n != i) & ((i + 1) % n != j)
    i, j = i[apart], j[apart]
    q = np.roll(p, -1, axis=0)
    return not segments_intersect(p[i], q[i], p[j], q[j]).any()


def _inside_or_on(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd membership of ``(..., 2)`` points; boundary points count as inside.

    Works for any simple polygon, convex or not, so manually edited
    boundaries need no special casing.
    """
    x1, y1 = polygon[:, 0], polygon[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    # Per-edge terms as Python floats: ``d ** 2`` on a float calls C pow,
    # which can round differently from the multiply that ``array ** 2`` uses.
    seg2 = np.array([
        (bx - ax) ** 2 + (by - ay) ** 2
        for ax, ay, bx, by in zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist())
    ])
    tol = 1e-12
    cross_limit = tol * np.maximum(seg2, tol)
    x = points[..., 0, None]
    y = points[..., 1, None]
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    dot = (x - x1) * (x2 - x1) + (y - y1) * (y2 - y1)
    on_edge = ~(cross * cross > cross_limit) & (-tol <= dot) & (dot <= seg2 + tol)
    straddles = (y1 > y) != (y2 > y)
    # A level edge straddles no point, so its division by zero is never used.
    with np.errstate(divide="ignore", invalid="ignore"):
        crosses = straddles & (x < x1 + (y - y1) * (x2 - x1) / (y2 - y1))
    return on_edge.any(axis=-1) | (np.count_nonzero(crosses, axis=-1) % 2 == 1)


def rects_intersect_polygon(
    rect_min: np.ndarray, rect_max: np.ndarray, polygon: np.ndarray
) -> np.ndarray:
    """Per rectangle, True when the closed axis-aligned rectangle and the
    polygon share any point.

    ``rect_min`` and ``rect_max`` are (R, 2) corner arrays. A rectangle hits
    when a polygon vertex lies in it, a corner lies in or on the polygon, or
    an edge of it meets a polygon edge; each test runs only on the rectangles
    the previous ones left undecided.
    """
    p = np.asarray(polygon, dtype=float)
    lo = np.asarray(rect_min, dtype=float)
    hi = np.asarray(rect_max, dtype=float)
    hit = (
        (p[:, 0] >= lo[:, 0, None]) & (p[:, 0] <= hi[:, 0, None])
        & (p[:, 1] >= lo[:, 1, None]) & (p[:, 1] <= hi[:, 1, None])
    ).any(axis=1)
    corners = np.stack(
        [lo, np.stack([hi[:, 0], lo[:, 1]], axis=1),
         hi, np.stack([lo[:, 0], hi[:, 1]], axis=1)],
        axis=1,
    )
    open_ = ~hit
    hit[open_] = _inside_or_on(corners[open_], p).any(axis=1)
    open_ = ~hit
    c = corners[open_][:, :, None, :]
    hit[open_] = segments_intersect(
        p, np.roll(p, -1, axis=0), c, np.roll(c, -1, axis=1)
    ).any(axis=(1, 2))
    return hit
