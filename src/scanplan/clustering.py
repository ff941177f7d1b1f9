"""Euclidean clustering of leftover points into obstacle objects.

Clusters are the connected components of the graph linking points within a
radius of each other: one kd-tree pair query lists the graph's edges and a
sparse-graph labelling finds its components. An octree view of the occupied
space is provided for visualization exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import PointCloud
from .spatial import KdTree


@dataclass(frozen=True)
class ClusterConfig:
    """Neighbor radius (closed ball) and the smallest reportable cluster."""

    radius: float = 0.3
    min_cluster_size: int = 10

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be > 0")
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size must be >= 1")


@dataclass(frozen=True)
class Cluster:
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("cluster cannot be empty")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("cluster indices must be unique")
        object.__setattr__(self, "indices", np.sort(idx))

    def __len__(self) -> int:
        return len(self.indices)


def euclidean_cluster(
    cloud: PointCloud, cfg: ClusterConfig = ClusterConfig()
) -> list[Cluster]:
    """Group points into radius-connected components.

    Neighbor search is a closed ball (distance <= radius). Every point lands
    in exactly one component; components below ``min_cluster_size`` are
    treated as noise and not returned. Output is ordered by descending size,
    ties by smallest member index, independent of input order.
    """
    # Imported here: csgraph costs every verb import time and memory, and
    # only the segment and cluster stages need it.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(cloud)
    if n == 0:
        return []
    pairs = KdTree(cloud.points).pairs_within_radius(cfg.radius)
    graph = coo_matrix(
        (np.ones(len(pairs), dtype=bool), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    _, labels = connected_components(graph, directed=False)
    # A stable sort by label lists each component's members in index order.
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    kept = [
        members[starts[c]:starts[c + 1]]
        for c in np.nonzero(sizes >= cfg.min_cluster_size)[0]
    ]
    kept.sort(key=lambda c: (-len(c), int(c[0])))
    return [Cluster(c) for c in kept]


@dataclass(frozen=True)
class Octree:
    """Cubic region subdivided 8-ways down to ``leaf_resolution``.

    ``occupied`` holds the integer (i, j, k) leaf coordinates of every leaf
    containing at least one source point; the root edge is the smallest
    power-of-two multiple of the leaf resolution covering the data.
    """

    origin: np.ndarray
    root_size: float
    leaf_resolution: float
    depth: int
    occupied: frozenset = field(repr=False)

    def leaves_per_edge(self) -> int:
        return 2 ** self.depth

    def leaf_centers(self) -> np.ndarray:
        """(K, 3) centers of the occupied leaves, sorted by leaf index."""
        if not self.occupied:
            return np.zeros((0, 3))
        idx = np.array(sorted(self.occupied), dtype=float)
        return self.origin + (idx + 0.5) * self.leaf_resolution


def octree_from_points(points: np.ndarray, leaf_resolution: float) -> Octree:
    """Build the occupied-leaf set for a point array.

    Points on the root cube's far faces are clamped into the last leaf so
    the bounding box is fully covered.
    """
    if not leaf_resolution > 0:
        raise ValueError("leaf_resolution must be > 0")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return Octree(np.zeros(3), leaf_resolution, leaf_resolution, 0, frozenset())
    origin = pts.min(axis=0)
    extent = float((pts.max(axis=0) - origin).max())
    depth = 0
    while leaf_resolution * (2 ** depth) < extent * (1.0 - 1e-12):
        depth += 1
    per_edge = 2 ** depth
    idx = np.floor((pts - origin) / leaf_resolution).astype(np.int64)
    idx = np.clip(idx, 0, per_edge - 1)
    occupied = frozenset(map(tuple, idx.tolist()))
    return Octree(origin, leaf_resolution * per_edge, leaf_resolution, depth, occupied)
