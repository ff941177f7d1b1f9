"""Euclidean clustering of leftover points into obstacle objects.

Clusters are the connected components of the graph linking points within a
radius of each other: one kd-tree pair query lists the graph's edges and a
sparse-graph labelling finds its components.
"""

from __future__ import annotations

from dataclasses import dataclass

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
