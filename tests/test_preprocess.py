import tracemalloc

import numpy as np
import pytest

from scanplan import preprocess
from scanplan.errors import CloudTooSmall
from scanplan.geometry import PointCloud
from scanplan.preprocess import (
    OutlierFilterConfig,
    VoxelGridConfig,
    neighbor_mean_distances,
    remove_statistical_outliers,
    voxel_downsample,
)
from scanplan.spatial import KdTree


def unit_grid_10():
    xs = np.arange(10.0)
    return np.array([[x, y, z] for x in xs for y in xs for z in xs])


def planted_scene():
    """10x10x10 unit lattice plus 10 points about 5 m off the grid."""
    grid = unit_grid_10()
    directions = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
        [0, 0, -1], [1, 1, 0], [-1, 1, 1], [1, -1, 1], [-1, -1, -1],
    ], dtype=float)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    center = np.full(3, 4.5)
    planted = []
    for d in directions:
        reach = ((grid - center) @ d).max()
        planted.append(center + (reach + 5.0) * d)
    return grid, np.array(planted)


def test_planted_outliers_removed_grid_retained():
    grid, planted = planted_scene()
    cloud = PointCloud(np.vstack([grid, planted]),
                       sources=np.arange(len(grid) + 10))
    kept, removed = remove_statistical_outliers(
        cloud, OutlierFilterConfig(k_neighbors=8, d_t=1.0)
    )
    kept_set = set(kept.sources.tolist())
    # All 10 planted points gone, at least 99% of the grid kept.
    assert all(len(grid) + i not in kept_set for i in range(10))
    grid_kept = sum(1 for i in range(len(grid)) if i in kept_set)
    assert grid_kept >= 0.99 * len(grid)
    assert removed + len(kept) == len(cloud)


def test_equidistant_points_all_kept():
    # k+1 mutually equidistant points: a regular simplex in 3D (k=3).
    simplex = np.array([
        [1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0],
    ])
    cloud = PointCloud(simplex)
    kept, removed = remove_statistical_outliers(
        cloud, OutlierFilterConfig(k_neighbors=3, d_t=1.0)
    )
    assert removed == 0
    assert len(kept) == 4


def test_filter_output_is_subset_and_counts_add_up(rng):
    cloud = PointCloud(rng.normal(size=(300, 3)), sources=np.arange(300))
    kept, removed = remove_statistical_outliers(
        cloud, OutlierFilterConfig(k_neighbors=10, d_t=1.0)
    )
    assert removed + len(kept) == len(cloud)
    original = {tuple(p) for p in cloud.points}
    assert all(tuple(p) in original for p in kept.points)


def test_filter_translation_invariant(rng):
    pts = rng.normal(size=(200, 3))
    cfg = OutlierFilterConfig(k_neighbors=10, d_t=1.0)
    kept_a, _ = remove_statistical_outliers(
        PointCloud(pts, sources=np.arange(200)), cfg
    )
    kept_b, _ = remove_statistical_outliers(
        PointCloud(pts + np.array([100.0, -50.0, 7.0]), sources=np.arange(200)), cfg
    )
    assert np.array_equal(kept_a.sources, kept_b.sources)


def test_filter_requires_enough_points():
    with pytest.raises(CloudTooSmall):
        remove_statistical_outliers(
            PointCloud(np.zeros((5, 3)) + np.arange(5)[:, None]),
            OutlierFilterConfig(k_neighbors=5),
        )


def _one_query_means(points, k_neighbors):
    _, dists = KdTree(points).knearest(points, k=k_neighbors + 1)
    return dists[:, 1:].mean(axis=1)


@pytest.mark.parametrize("n", [49, 50, 51, 101, 1000])
def test_blocked_means_equal_one_query_bit_for_bit(rng, monkeypatch, n):
    # k = 5 queries 6 neighbors of 16 bytes: a budget of 50 rows, so n = 49,
    # 50 and 51 are below one block, one block and one block + 1.
    monkeypatch.setattr(preprocess, "_KNN_BLOCK_BYTES", 50 * 16 * 6)
    points = rng.normal(size=(n, 3))
    means = neighbor_mean_distances(PointCloud(points), 5)
    assert means.tobytes() == _one_query_means(points, 5).tobytes()


def test_default_blocks_equal_one_query_bit_for_bit(rng):
    rows = preprocess._KNN_BLOCK_BYTES // (16 * 51)
    points = np.round(rng.uniform(0.0, 3.0, size=(rows + 1, 3)), 1)  # many ties
    means = neighbor_mean_distances(PointCloud(points), 50)
    assert means.tobytes() == _one_query_means(points, 50).tobytes()


def _traced_peak(n, rng):
    cloud = PointCloud(rng.normal(size=(n, 3)))
    tracemalloc.start()
    try:
        neighbor_mean_distances(cloud, 50)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_neighbor_means_memory_grows_with_the_cloud_not_with_k(rng):
    # One query of every row holds 51 distances and indices per point,
    # about 1,224 bytes; the blocks leave the tree and the (N,) result.
    growth = (_traced_peak(40_000, rng) - _traced_peak(20_000, rng)) / 20_000
    assert growth <= 100


def test_voxel_two_points_merge_to_centroid():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]]))
    out = voxel_downsample(cloud, VoxelGridConfig(leaf_size=0.1))
    assert len(out) == 1
    assert np.allclose(out.points[0], [0.025, 0.0, 0.0])


def test_voxel_centroids_equal_per_voxel_mean_bit_for_bit(rng):
    # Dense clusters put 8 to several hundred points in one voxel, where
    # numpy's own sums would start to round differently from a naive loop.
    centers = rng.uniform(-3, 3, size=(30, 3))
    sizes = rng.integers(1, 400, size=30)
    pts = np.vstack([c + rng.normal(0, 0.04, size=(k, 3))
                     for c, k in zip(centers, sizes)])
    pts = np.vstack([pts, rng.uniform(-3, 3, size=(500, 3)), -np.zeros((2, 3))])
    pts = pts[rng.permutation(len(pts))]
    leaf = 0.1
    origin = pts.min(axis=0)
    groups: dict = {}
    for p in pts:
        key = tuple(np.floor((p - origin) / leaf).astype(np.int64).tolist())
        groups.setdefault(key, []).append(p)
    expected = np.array([np.array(groups[k]).mean(axis=0) for k in sorted(groups)])
    assert max(len(g) for g in groups.values()) >= 100
    assert sum(len(g) >= 8 for g in groups.values()) >= 10

    out = voxel_downsample(PointCloud(pts), VoxelGridConfig(leaf_size=leaf))
    assert out.points.tobytes() == expected.tobytes()


def test_voxel_sparse_cloud_unchanged(rng):
    # Points on a lattice with spacing > leaf: one point per voxel.
    pts = unit_grid_10() * 3.0
    out = voxel_downsample(PointCloud(pts), VoxelGridConfig(leaf_size=1.0))
    assert len(out) == len(pts)
    assert {tuple(p) for p in out.points} == {tuple(p) for p in pts}


def test_voxel_lattice_count():
    out = voxel_downsample(PointCloud(unit_grid_10()), VoxelGridConfig(leaf_size=2.0))
    assert len(out) == 125


def test_voxel_points_stay_inside_their_cube(rng):
    pts = rng.uniform(0, 4, size=(500, 3))
    leaf = 0.5
    out = voxel_downsample(PointCloud(pts), VoxelGridConfig(leaf_size=leaf))
    assert len(out) <= len(pts)
    # Every output centroid is within the half-diagonal of some input point.
    from scanplan.spatial import KdTree

    tree = KdTree(pts)
    _, dist, _ = tree.nearest(out.points)
    assert np.all(dist <= leaf * np.sqrt(3) / 2 + 1e-12)


def test_voxel_idempotent_with_fixed_anchor(rng):
    pts = rng.uniform(0, 3, size=(400, 3))
    cfg = VoxelGridConfig(leaf_size=0.25)
    anchor = np.zeros(3)
    once = voxel_downsample(PointCloud(pts), cfg, anchor=anchor)
    twice = voxel_downsample(once, cfg, anchor=anchor)
    assert np.array_equal(once.points, twice.points)


def test_voxel_empty_cloud():
    assert len(voxel_downsample(PointCloud.empty(), VoxelGridConfig(0.1))) == 0


def test_voxel_deterministic_under_permutation(rng):
    pts = rng.uniform(0, 2, size=(300, 3))
    cfg = VoxelGridConfig(leaf_size=0.3)
    perm = rng.permutation(300)
    a = voxel_downsample(PointCloud(pts), cfg, anchor=np.zeros(3))
    b = voxel_downsample(PointCloud(pts[perm]), cfg, anchor=np.zeros(3))
    assert np.allclose(a.points, b.points)
