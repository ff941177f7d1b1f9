import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scanplan import preprocess
from scanplan.geometry import GRID_LIMIT, PointCloud
from scanplan.preprocess import (
    OutlierFilterConfig,
    VoxelGridConfig,
    neighbor_mean_distances,
    remove_statistical_outliers,
    voxel_downsample,
)
from scanplan.spatial import KdTree

from oracles import to_grid_per_value, voxel_centroids_sorted


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


@pytest.mark.parametrize("n", [0, 1, 5])
def test_filter_passes_a_cloud_too_small_for_its_neighbors(n):
    # At most k points cannot supply k neighbors each: the filter keeps them
    # all, and only a direct kNN call refuses them.
    cloud = PointCloud(np.zeros((n, 3)) + np.arange(n)[:, None])
    kept, removed = remove_statistical_outliers(cloud, OutlierFilterConfig(k_neighbors=5))
    assert kept is cloud and removed == 0
    with pytest.raises(ValueError):
        neighbor_mean_distances(cloud, 5)


def _one_query_means(points, k_neighbors):
    _, dists = KdTree(points).knearest(points, k=k_neighbors + 1)
    return dists[:, 1:].mean(axis=1)


@pytest.mark.parametrize("n", [49, 50, 51, 101, 1000])
def test_blocked_means_equal_one_query_bit_for_bit(rng, monkeypatch, n):
    # k = 5 queries 6 neighbors of 16 bytes: a budget of 50 rows, so n = 49,
    # 50 and 51 are below one block, one block and one block + 1.
    monkeypatch.setattr(preprocess, "_KNN_BLOCK_BYTES", 50 * 16 * 6)
    cloud = PointCloud(rng.normal(size=(n, 3)))
    means = neighbor_mean_distances(cloud, 5)
    assert means.tobytes() == _one_query_means(cloud.points, 5).tobytes()


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


def test_neighbor_means_transient_stays_within_one_2_mib_block(rng):
    # Beyond the tree's index array and the result, 8 bytes per point each,
    # the filter holds one block of 51 distances and indices per row, which
    # 2 MiB bounds. Blocks of 8 MiB held 8.4 MB here.
    n = 60_000
    transient = _traced_peak(n, rng) - 16 * n
    assert transient <= (2 << 20) + (64 << 10)


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
    pts = PointCloud(pts[rng.permutation(len(pts))]).points
    leaf = 0.1
    origin = pts.min(axis=0)
    groups: dict = {}
    for p in pts:
        key = tuple(np.floor((p - origin) / leaf).astype(np.int64).tolist())
        groups.setdefault(key, []).append(p)
    expected = np.array([[to_grid_per_value(v) for v in np.array(groups[k]).mean(axis=0)]
                         for k in sorted(groups)])
    assert max(len(g) for g in groups.values()) >= 100
    assert sum(len(g) >= 8 for g in groups.values()) >= 10

    out = voxel_downsample(PointCloud(pts), VoxelGridConfig(leaf_size=leaf))
    assert out.points.tobytes() == expected.tobytes()


def test_voxel_centroid_of_a_dense_voxel_sums_in_input_order(rng, monkeypatch):
    # 1,500 shuffled points in voxel (0, 0, 0) next to single-point voxels.
    # The grid snap is switched off for the output, so a centroid summed in
    # any other order than the input's cannot hide behind the 1 um rounding.
    dense = np.vstack([np.zeros((1, 3)), rng.uniform(0.0, 0.99, size=(1499, 3))])
    singles = np.array([[5.5, 0.5, 0.5], [0.5, 3.5, 0.5], [2.5, 2.5, 2.5], [0.5, 0.5, 7.5]])
    pts = PointCloud(np.vstack([dense, singles])[rng.permutation(1504)]).points
    in_dense = np.all(pts < 1.0, axis=1)
    dense_mean = pts[in_dense].mean(axis=0)
    # Summed in sorted order the mean rounds differently, so the check bites.
    assert dense_mean.tobytes() != np.sort(pts[in_dense], axis=0).mean(axis=0).tobytes()
    expected = np.vstack([dense_mean, pts[~in_dense]])
    expected = expected[np.lexsort(np.floor(expected).T[::-1])]

    monkeypatch.setattr("scanplan.geometry.to_grid", lambda a: a)
    out = voxel_downsample(PointCloud._own(pts.copy()), VoxelGridConfig(leaf_size=1.0))
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


def test_voxel_empty_cloud():
    assert len(voxel_downsample(PointCloud.empty(), VoxelGridConfig(0.1))) == 0


def test_voxel_deterministic_under_permutation(rng):
    pts = rng.uniform(0, 2, size=(300, 3))
    cfg = VoxelGridConfig(leaf_size=0.3)
    perm = rng.permutation(300)
    a = voxel_downsample(PointCloud(pts), cfg)
    b = voxel_downsample(PointCloud(pts[perm]), cfg)
    assert np.allclose(a.points, b.points)


@st.composite
def _voxel_cases(draw):
    """(points, leaf): a dense voxel of 100 or more points and a few sparser
    clusters, points on voxel faces and signed zeros, all shuffled; shifted
    by 1e6 m or -1e6 m or not at all, and spread to +-GRID_LIMIT on every
    axis or not."""
    leaf = draw(st.sampled_from([0.05, 0.1, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Before any shift the zero row is the minimum corner, so the dense points
    # fill voxel (2, 1, 3).
    parts = [np.zeros((1, 3)),
             (np.array([2, 1, 3]) + rng.uniform(0.05, 0.95, (draw(st.integers(100, 400)), 3)))
             * leaf]
    for size in draw(st.lists(st.integers(1, 40), max_size=4)):
        parts.append(rng.uniform(0.0, 4.0, 3) + rng.uniform(0.0, leaf, (size, 3)))
    parts.append(rng.integers(0, 12, (draw(st.integers(0, 30)), 3)) * leaf)
    points = np.vstack(parts + [-np.zeros((draw(st.integers(0, 3)), 3))])
    offset = draw(st.sampled_from([0.0, -1e6, 1e6]))
    if offset:
        points = np.vstack([points + offset, -np.zeros((1, 3))])
    if draw(st.booleans()):
        corners = np.array([[-GRID_LIMIT] * 3, [GRID_LIMIT] * 3,
                            [GRID_LIMIT, -GRID_LIMIT, -0.0]])
        points = np.vstack([points, corners])
    return points[rng.permutation(len(points))], leaf


@settings(max_examples=60, deadline=None)
@given(case=_voxel_cases())
@example(case=(np.array([[-GRID_LIMIT, -GRID_LIMIT, -GRID_LIMIT], [-0.0, 0.0, -0.0],
                         [0.0, -0.0, 0.0], [GRID_LIMIT, GRID_LIMIT, GRID_LIMIT]]), 0.05))
def test_voxel_centroids_equal_the_sorted_copy_grouping_bit_for_bit(case):
    # The grid snap is off, so every bit of each centroid and any signed
    # zero reaches the comparison. Within +-GRID_LIMIT a cloud spans more
    # than 2**63 voxels of 0.05 m, past any one int64 voxel key.
    points, leaf = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("scanplan.geometry.to_grid", lambda a: a)
        cloud = PointCloud(points)
        out = voxel_downsample(cloud, VoxelGridConfig(leaf_size=leaf))
    assert out.points.tobytes() == voxel_centroids_sorted(cloud.points, leaf).tobytes()


def test_voxel_downsample_holds_no_sorted_copies(rng):
    # Sorted (N, 3) copies of the voxel indices and the points, and their
    # (N - 1, 3) diff, peaked at 152-161 bytes per point; three index columns
    # and a voxel number per point in input order peak near 53.
    n = 60_000
    cloud = PointCloud(rng.normal(size=(n, 3)))
    tracemalloc.start()
    try:
        voxel_downsample(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * n
