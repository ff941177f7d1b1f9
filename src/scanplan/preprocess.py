"""Outlier filtering and voxel-grid density equalization.

Sparse outliers get trimmed by comparing each point's mean distance to its
k nearest neighbors against the global mean of those statistics. The
neighbors are gathered a fixed-size block of rows at a time, so the filter's
transient memory does not grow with N * k (see
:func:`neighbor_mean_distances`). Density is equalized by replacing every
occupied voxel with the centroid of its points. The centroids are summed
row by row in input order and divided by the count at the end, which
reproduces ``ndarray.mean(axis=0)`` per voxel bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud
from .spatial import KdTree

# The kNN distances and indices held at once by neighbor_mean_distances: at
# k = 50, 2,570 rows per threaded query. At 8 MiB the filter set the peak
# memory of `run` on every bench cloud; at 2 MiB it peaks below segment and
# plan, and 4 MiB raises the deck filter's own peak by 0.7 MB. Looped in one
# process, filtering the 54 k-point room cloud took 0.180, 0.168, 0.165 and
# 0.173 s at 1, 2, 4 and 8 MiB (median of 9 on a 2-vCPU VM), but in a fresh
# `run` the crossed_planes kNN took 0.229 s at 2 MiB against 0.175 s at 8.
_KNN_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class OutlierFilterConfig:
    """k_neighbors nearest points per sample; keep band is mu +- d_t * sigma."""

    k_neighbors: int = 50
    d_t: float = 1.0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not self.d_t > 0:
            raise ValueError("d_t must be > 0")


@dataclass(frozen=True)
class VoxelGridConfig:
    leaf_size: float = 0.05

    def __post_init__(self):
        if not self.leaf_size > 0:
            raise ValueError("leaf_size must be > 0")


def neighbor_mean_distances(cloud: PointCloud, k_neighbors: int) -> np.ndarray:
    """Per point, the mean distance to its k nearest neighbors (self excluded).

    The points are queried a block of rows at a time, so the (rows, k+1)
    distance and index arrays stay within ``_KNN_BLOCK_BYTES`` whatever the
    cloud's size: the memory beyond the tree and the (N,) result is fixed.
    Each row's sorted distances and its mean do not depend on the other rows
    of its query, so the result is bit-identical to one query of every row.

    Raises:
        ValueError: the cloud has at most ``k_neighbors`` points.
    """
    pts = cloud.points
    tree = KdTree(pts)
    # k+1 because the closest hit of each query is the point itself; each
    # hit costs a float64 distance and an int64 index.
    k = k_neighbors + 1
    rows = max(1, _KNN_BLOCK_BYTES // (16 * k))
    means = np.empty(len(pts))
    for start in range(0, len(pts), rows):
        block = slice(start, start + rows)
        # One statement, so that the block's arrays are freed before the
        # next block's query allocates its own.
        means[block] = tree.knearest(pts[block], k=k)[1][:, 1:].mean(axis=1)
    return means


def remove_statistical_outliers(
    cloud: PointCloud, cfg: OutlierFilterConfig = OutlierFilterConfig()
) -> tuple[PointCloud, int]:
    """Drop points whose neighborhood mean distance sits outside mu +- d_t * sigma.

    sigma is the population standard deviation of the per-point means; the
    keep interval is closed, so with sigma = 0 every point whose mean equals
    mu survives. A cloud of at most ``k_neighbors`` points is too small for
    neighborhood statistics and comes back whole.

    Returns:
        (kept cloud, number of removed points).
    """
    if len(cloud) <= cfg.k_neighbors:
        return cloud, 0
    means = neighbor_mean_distances(cloud, cfg.k_neighbors)
    mu = float(means.mean())
    sigma = float(means.std())
    keep = (means >= mu - cfg.d_t * sigma) & (means <= mu + cfg.d_t * sigma)
    kept = cloud.select(np.nonzero(keep)[0])
    return kept, int(len(cloud) - len(kept))


def voxel_downsample(
    cloud: PointCloud, cfg: VoxelGridConfig = VoxelGridConfig()
) -> PointCloud:
    """Replace each occupied voxel by the centroid of its points.

    The grid is anchored at the cloud's minimum corner. Output is ordered by
    voxel index, so the result is deterministic and independent of input
    order. Source tags are dropped because points merge.
    """
    if len(cloud) == 0:
        return PointCloud.empty()
    pts = cloud.points
    lo = pts.min(axis=0)
    # One (N,) int64 column per axis, not an (N, 3) table: the columns go one
    # at a time below. A single ravelled key would overflow int64, since a
    # cloud within +-GRID_LIMIT spans more than 2**63 voxels.
    cols = [np.floor((pts[:, a] - lo[a]) / cfg.leaf_size).astype(np.int64)
            for a in range(3)]
    order = np.lexsort(cols[::-1])
    # starts[k]: the k-th point in voxel order begins a new voxel.
    starts = np.zeros(len(pts), dtype=bool)
    while cols:
        col = cols.pop()[order]
        starts[1:] |= col[1:] != col[:-1]
    del col
    # Each point's voxel number, scattered back to input order, so that the
    # sums below take each voxel's points in input order without a sorted
    # copy of the points.
    voxel = np.empty(len(pts), dtype=np.int64)
    voxel[order] = np.cumsum(starts)
    del order, starts
    counts = np.bincount(voxel)
    # bincount adds each voxel's points to +0.0 in row order, the sequential
    # sum numpy's mean(axis=0) does; np.add.reduceat rounds differently.
    centroids = np.empty((len(counts), 3))
    for a in range(3):
        centroids[:, a] = np.bincount(voxel, weights=pts[:, a])
    centroids /= counts[:, None]
    return PointCloud._own(centroids)
