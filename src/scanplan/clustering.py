"""Euclidean clustering of leftover points into obstacle objects.

Clusters are the connected components of the graph linking points within a
radius of each other. The graph is never held whole: the points are sorted
along their widest axis and cut into strips of ``_STRIP_ROWS`` points, and
each strip is extended by every point whose key lies within the radius past
the strip's last key. One union-find forest over all the points, a single
``parent`` array, takes the edges of one extended strip at a time from a
kd-tree pair query; once the last strip is merged, each tree of the forest
is one component.

This is exact. Two points within the radius differ by at most the radius
along the sort axis, so both lie in the extended strip of the lower one,
and the pair is tested there by the kd-tree's own predicate. Memory beyond
the (n,) arrays follows the strip, not the cloud: at the default 0.3 m
radius a 20,000-point, 400 pts/m² sheet has about 55 pairs per point, and
its labelling holds 1.3 MB beyond those arrays in strips of 512 rows, 5.7 MB
in strips of 2,048.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud
from .spatial import KdTree

# Points per strip of the component labelling. On the 400 pts/m²
# crossed_planes cloud, whose first plane has 8,658 inliers, the segment
# stage of `run` peaked at 59.1 MB with strips of 512 rows, 59.2 MB with
# 1,024 and 60.8 MB with 2,048, while extract_surfaces took the same time
# at all three sizes (0.116-0.120 s, median of 9 on a 2-vCPU VM).
_STRIP_ROWS = 512
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


def _merge(parent: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> None:
    """Join the trees of every ``heads[i]``-``tails[i]`` edge in the forest
    ``parent``, whose every entry must point at a root, and leave it so.

    Each round hooks the larger root of every edge still across two trees to
    the smaller one, then pointer-jumps until every entry points at a root.
    A hooked root's entry only falls, so the forest holds no cycle, and each
    root is the smallest index of its tree.
    """
    while True:
        heads, tails = parent[heads], parent[tails]
        live = heads != tails
        if not live.any():
            return
        heads, tails = heads[live], tails[live]
        np.minimum.at(parent, np.maximum(heads, tails), np.minimum(heads, tails))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent[:] = jumped


def _component_labels(points: np.ndarray, radius: float) -> np.ndarray:
    """Component label of each point in the closed-``radius`` graph, strip by
    strip (see the module docstring): 0 up to the component count less one,
    in the order of each component's smallest index.
    """
    n = len(points)
    keys = points[:, int(np.argmax(np.ptp(points, axis=0)))]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    reach = radius + _KEY_MARGIN * (radius + max(abs(keys[0]), abs(keys[-1])))
    last = np.minimum(np.arange(_STRIP_ROWS, n + _STRIP_ROWS, _STRIP_ROWS), n) - 1
    stops = np.searchsorted(keys, keys[last] + reach, side="right")
    parent = np.arange(n)
    for start, stop in zip(range(0, n, _STRIP_ROWS), stops):
        strip = order[start:stop]
        pairs = strip[KdTree(points[strip]).pairs_within_radius(radius)]
        _merge(parent, pairs[:, 0], pairs[:, 1])
        if stop == n:
            break  # the later strips lie wholly inside this one
    return np.unique(parent, return_inverse=True)[1]


def euclidean_cluster(
    cloud: PointCloud, cfg: ClusterConfig = ClusterConfig()
) -> list[np.ndarray]:
    """Group points into radius-connected components, each a sorted int64
    array of point indices.

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
    return kept
