"""Minimal deterministic SVG renders of clouds, boundaries and waypoints.

Hand-written SVG keeps the artifact byte-stable across runs (plotting
libraries embed ids and metadata that break bit-identical comparisons).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

_VIEWS = {"top": (0, 1), "elevation": (0, 2)}
_MAX_PLOTTED = 20000
_SIZE = 800   # the longer side of the picture, in pixels
_BLOCK_DOTS = 4096
_DOT = '<circle cx="%.2f" cy="%.2f" r="1" fill="#888888"/>\n'


def render_svg(
    path,
    cloud=None,
    polygons=(),
    polylines=(),
    view: str = "top",
) -> None:
    """Render a 2D projection (top: x-y, elevation: x-z) to an SVG file.

    Pixel coordinates are computed for a whole point group, or a block of
    the scatter, at once and printed with two decimals, the text of
    ``f"{value:.2f}"``.

    Args:
        cloud: optional PointCloud scattered as grey dots (strided down to a
            plotting budget).
        polygons: iterables of (K, 3) vertex arrays, drawn closed in blue.
        polylines: iterables of (K, 3) arrays, drawn open in red.
    """
    ax, ay = _VIEWS[view]
    pts2d = None
    if cloud is not None and len(cloud) > 0:
        stride = -(-len(cloud) // _MAX_PLOTTED)  # the ceiling: at most _MAX_PLOTTED dots
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
    scale = _SIZE / (hi - lo).max()

    def screen(points):
        """Pixel coordinates as Python float pairs; SVG y grows downward."""
        return zip(((points[:, 0] - lo[0]) * scale).tolist(),
                   ((hi[1] - points[:, 1]) * scale).tolist())

    w = (hi[0] - lo[0]) * scale
    h = (hi[1] - lo[1]) * scale
    # The scatter goes into the file a block of dots at a time, each block
    # formatted by one % operation: the whole text of a 20,000-dot scatter
    # is never held at once.
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.1f}" '
            f'height="{h:.1f}" viewBox="0 0 {w:.1f} {h:.1f}">\n'
            f'<rect width="{w:.1f}" height="{h:.1f}" fill="white"/>\n'
        )
        if pts2d is not None:
            for start in range(0, len(pts2d), _BLOCK_DOTS):
                block = pts2d[start:start + _BLOCK_DOTS]
                fh.write((_DOT * len(block)) % tuple(chain.from_iterable(screen(block))))
        for poly in poly2d:
            coords = " ".join("%.2f,%.2f" % xy for xy in screen(poly))
            fh.write(
                f'<polygon points="{coords}" fill="none" stroke="#2255cc" '
                'stroke-width="1.5"/>\n'
            )
        for line in line2d:
            coords = " ".join("%.2f,%.2f" % xy for xy in screen(line))
            fh.write(
                f'<polyline points="{coords}" fill="none" stroke="#cc3322" '
                'stroke-width="1"/>\n'
            )
        fh.write("</svg>\n")
