"""Spatial index for nearest-neighbor and radius queries (2D or 3D).

Thin wrapper over scipy's cKDTree that pins down the semantics the rest of
the pipeline relies on: nearest-neighbor ties break to the lowest point
index, and radius searches are closed balls (distance <= r), so results are
deterministic and reproducible across runs. k-nearest queries run on every
core; each row's answer is independent of how the rows are split across
threads, so the output does not depend on the core count.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


class KdTree:
    def __init__(self, points: np.ndarray):
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError(f"need a non-empty (N, d) point array, got {pts.shape}")
        self._points = pts
        self._tree = cKDTree(pts)

    def __len__(self) -> int:
        return len(self._points)

    def nearest(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest indexed point for each query; ties go to the lowest index.

        Args:
            queries: (M, d) or (d,) query coordinates.

        Returns:
            (indices, distances), each shaped like the leading query dims.
        """
        q = np.asarray(queries, dtype=float)
        single = q.ndim == 1
        q = np.atleast_2d(q)
        if len(self._points) == 1:
            dist = np.linalg.norm(q - self._points[0], axis=1)
            idx = np.zeros(len(q), dtype=np.int64)
        else:
            d2, i2 = self._tree.query(q, k=2)
            idx = i2[:, 0].astype(np.int64)
            dist = d2[:, 0]
            # Exact distance ties are rare outside synthetic grids; resolve
            # them by enumerating the tied set and taking the lowest index.
            tied = np.nonzero(d2[:, 1] <= d2[:, 0])[0]
            for row in tied:
                ball = self._tree.query_ball_point(q[row], r=dist[row])
                if ball:
                    idx[row] = min(ball)
        if single:
            return idx[0], dist[0]
        return idx, dist

    def knearest(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest points per query, by increasing distance.

        Returns (indices, distances), each (M, k). No tie-break guarantee
        beyond scipy's distance ordering; use :meth:`nearest` when the
        lowest-index rule matters.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        if k > len(self._points):
            raise ValueError(f"k={k} exceeds the {len(self._points)} indexed points")
        dist, idx = self._tree.query(q, k=k, workers=-1)
        if k == 1:
            dist = dist[:, None]
            idx = idx[:, None]
        return idx.astype(np.int64), dist

    def pairs_within_radius(self, radius: float) -> np.ndarray:
        """Every pair of indexed points at distance <= radius.

        Returns a (P, 2) int64 array of index pairs (i, j) with i < j, each
        pair once, in no particular order.
        """
        pairs = self._tree.query_pairs(radius, output_type="ndarray")
        return pairs.astype(np.int64, copy=False)

    def within_radius_batch(self, queries: np.ndarray, radius: float) -> list:
        """Indices of all points with distance <= radius, per row of a (M, d) batch."""
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        return list(self._tree.query_ball_point(q, r=radius))
