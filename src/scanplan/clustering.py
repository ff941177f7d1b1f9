"""Euclidean clustering of leftover points into obstacle objects.

Clusters are the connected components of the graph linking points within a
radius of each other. The graph is never held whole: the points are sorted
along their widest axis and cut into strips of ``_STRIP_ROWS`` points, and
each strip is extended by every point whose key lies within the radius past
the strip's last key. Per strip, one kd-tree pair query lists the strip's
edges and a sparse-graph labelling finds its local components; each member
then contributes one edge to its local component's first member, and one
labelling of those O(n) edges gives the components.

This is exact. Two points within the radius differ by at most the radius
along the sort axis, so both lie in the extended strip of the lower one,
and the pair is tested there by the kd-tree's own predicate. Memory beyond
the (n,) arrays follows the strip, not the cloud: at the default 0.3 m
radius a 400 pts/m² sheet has about 33 pairs per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud
from .spatial import KdTree

# Points per strip of the component labelling. The first plane of the
# 400 pts/m² crossed_planes cloud has 8,658 inliers and 288,173 pairs; with
# one query of them all the segment stage peaked at 91.8 MB, with strips of
# 512 to 2,048 rows at 83.9-84.2 MB and of 4,096 at 86.6 MB. Labelling the
# 14,715 points of the filtered deck cloud took 0.029 s in strips of this
# size and 0.039 s in one query, on a 2-vCPU VM.
_STRIP_ROWS = 2048
# Relative slack on a strip's reach along the sort axis, far above the
# rounding of a key difference, so that no pair within the radius is cut.
_KEY_MARGIN = 1e-9


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

    @classmethod
    def _own(cls, indices: np.ndarray) -> "Cluster":
        """A cluster of ``indices`` as they are, not checked or copied: for a
        non-empty, sorted, unique int64 array just built by scanplan."""
        cluster = object.__new__(cls)
        object.__setattr__(cluster, "indices", indices)
        return cluster

    def __len__(self) -> int:
        return len(self.indices)


def _graph_labels(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Component label of each of ``n`` nodes of the undirected graph with
    edges ``heads[i]``-``tails[i]``: 0 up to the component count less one."""
    # Imported here: csgraph costs every verb import time and memory, and
    # only the segment and cluster stages need it.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(len(heads), dtype=bool), (heads, tails)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _radius_labels(points: np.ndarray, radius: float) -> np.ndarray:
    """Component labels of the closed-``radius`` graph of ``points``, by one
    pair query over all of them."""
    pairs = KdTree(points).pairs_within_radius(radius)
    return _graph_labels(len(points), pairs[:, 0], pairs[:, 1])


def _component_labels(points: np.ndarray, radius: float) -> np.ndarray:
    """Component label of each point in the closed-``radius`` graph, strip by
    strip (see the module docstring): 0 up to the component count less one.
    """
    n = len(points)
    keys = points[:, int(np.argmax(np.ptp(points, axis=0)))]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    reach = radius + _KEY_MARGIN * (radius + max(abs(keys[0]), abs(keys[-1])))
    last = np.minimum(np.arange(_STRIP_ROWS, n + _STRIP_ROWS, _STRIP_ROWS), n) - 1
    stops = np.searchsorted(keys, keys[last] + reach, side="right")
    members, heads = [], []
    for start, stop in zip(range(0, n, _STRIP_ROWS), stops):
        strip = order[start:stop]
        local = _radius_labels(points[strip], radius)
        _, first = np.unique(local, return_index=True)
        members.append(strip)
        heads.append(strip[first[local]])
        if stop == n:
            break  # the later strips lie wholly inside this one
    return _graph_labels(n, np.concatenate(members), np.concatenate(heads))


def euclidean_cluster(
    cloud: PointCloud, cfg: ClusterConfig = ClusterConfig()
) -> list[Cluster]:
    """Group points into radius-connected components.

    Neighbor search is a closed ball (distance <= radius). Every point lands
    in exactly one component; components below ``min_cluster_size`` are
    treated as noise and not returned. Output is ordered by descending size,
    ties by smallest member index, independent of input order.
    """
    if len(cloud) == 0:
        return []
    labels = _component_labels(cloud.points, cfg.radius)
    # A stable sort by label lists each component's members in index order.
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    kept = [
        members[starts[c]:starts[c + 1]]
        for c in np.nonzero(sizes >= cfg.min_cluster_size)[0]
    ]
    kept.sort(key=lambda c: (-len(c), int(c[0])))
    return [Cluster._own(c) for c in kept]
