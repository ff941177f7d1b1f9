"""Minimal deterministic SVG renders of clouds, boundaries and waypoints.

Hand-written SVG keeps the artifact byte-stable across runs (plotting
libraries embed ids and metadata that break bit-identical comparisons).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

_VIEWS = {"top": (0, 1), "elevation": (0, 2)}
_MAX_PLOTTED = 20000


def render_svg(
    path,
    cloud=None,
    polygons=(),
    polylines=(),
    view: str = "top",
    size: int = 800,
) -> None:
    """Render a 2D projection (top: x-y, elevation: x-z) to an SVG file.

    Args:
        cloud: optional PointCloud scattered as grey dots (strided down to a
            plotting budget).
        polygons: iterables of (K, 3) vertex arrays, drawn closed in blue.
        polylines: iterables of (K, 3) arrays, drawn open in red.
    """
    ax, ay = _VIEWS[view]
    pts2d = None
    if cloud is not None and len(cloud) > 0:
        stride = max(1, len(cloud) // _MAX_PLOTTED)
        pts2d = cloud.points[::stride][:, (ax, ay)]
    poly2d = [np.asarray(p, dtype=float)[:, (ax, ay)] for p in polygons]
    line2d = [np.asarray(p, dtype=float)[:, (ax, ay)] for p in polylines]
    groups = ([] if pts2d is None else [pts2d]) + poly2d + line2d

    if groups:
        allpts = np.vstack(groups)
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
    else:
        lo = np.zeros(2)
        hi = np.ones(2)
    span = np.maximum(hi - lo, 1e-6)
    pad = 0.05 * span.max()
    lo, hi = lo - pad, hi + pad
    scale = size / (hi - lo).max()

    def sx(x):
        return (x - lo[0]) * scale

    def sy(y):
        # SVG y grows downward.
        return (hi[1] - y) * scale

    w = (hi[0] - lo[0]) * scale
    h = (hi[1] - lo[1]) * scale
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.1f}" '
        f'height="{h:.1f}" viewBox="0 0 {w:.1f} {h:.1f}">',
        f'<rect width="{w:.1f}" height="{h:.1f}" fill="white"/>',
    ]
    if pts2d is not None:
        for p in pts2d:
            out.append(
                f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="1" '
                'fill="#888888"/>'
            )
    for poly in poly2d:
        coords = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in poly)
        out.append(
            f'<polygon points="{coords}" fill="none" stroke="#2255cc" '
            'stroke-width="1.5"/>'
        )
    for line in line2d:
        coords = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in line)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="#cc3322" '
            'stroke-width="1"/>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii")
