import numpy as np
import pytest

from scanplan.clustering import (
    Cluster,
    ClusterConfig,
    euclidean_cluster,
    octree_from_points,
)
from scanplan.geometry import PointCloud

from oracles import ordered_clusters, unionfind_clusters


def test_two_separated_blobs(rng):
    a = rng.normal(0, 0.1, size=(100, 3))
    b = rng.normal(0, 0.1, size=(100, 3)) + np.array([5.0, 0, 0])
    clusters = euclidean_cluster(
        PointCloud(np.vstack([a, b])), ClusterConfig(radius=0.5, min_cluster_size=10)
    )
    assert len(clusters) == 2
    assert len(clusters[0]) == 100 and len(clusters[1]) == 100
    # Ordering rule: equal sizes break ties by smallest member index.
    assert clusters[0].indices.min() < clusters[1].indices.min()


def test_chain_connectivity():
    eps = 0.5
    pts = np.zeros((30, 3))
    pts[:, 0] = np.arange(30) * (0.9 * eps)
    clusters = euclidean_cluster(
        PointCloud(pts), ClusterConfig(radius=eps, min_cluster_size=1)
    )
    assert len(clusters) == 1
    assert len(clusters[0]) == 30


def test_clusters_match_unionfind_oracle(rng):
    for _ in range(10):
        pts = rng.uniform(0, 3, size=(150, 3))
        eps = 0.35
        got = euclidean_cluster(
            PointCloud(pts), ClusterConfig(radius=eps, min_cluster_size=1)
        )
        got_sets = {frozenset(c.indices.tolist()) for c in got}
        oracle = set(unionfind_clusters(pts, eps))
        assert got_sets == oracle


def test_clusters_and_order_match_component_oracle(rng):
    # Random blobs with noise, then lattices whose spacing equals the radius
    # exactly: neighbors sit on the closed ball's boundary, and a gap of two
    # spacings separates the lattices.
    clouds = [
        (np.vstack([rng.normal(c, 0.15, size=(40, 3)) for c in (0.0, 1.5, 3.0)]
                   + [rng.uniform(-1, 4, size=(60, 3))]), 0.2, 3)
    ]
    step = 0.25
    blocks = []
    for offset, side in ((0.0, 3), (1.0, 4), (2.25, 3), (3.25, 1)):
        ij = np.array([[i, j] for i in range(side) for j in range(side)], float)
        blocks.append(np.column_stack([offset + ij[:, 0] * step,
                                       ij[:, 1] * step, np.zeros(len(ij))]))
    lattice = np.vstack(blocks)
    clouds.append((lattice[rng.permutation(len(lattice))], step, 1))
    for pts, eps, min_size in clouds:
        got = euclidean_cluster(
            PointCloud(pts), ClusterConfig(radius=eps, min_cluster_size=min_size)
        )
        assert [c.indices.tolist() for c in got] == ordered_clusters(pts, eps, min_size)
    # The lattice run: 16, 9, 9 and 1 points, the 9s ordered by smallest index.
    assert sorted(len(c) for c in got) == [1, 9, 9, 16]


def test_partition_with_noise_filtering(rng):
    pts = rng.uniform(0, 5, size=(200, 3))
    cfg = ClusterConfig(radius=0.4, min_cluster_size=5)
    clusters = euclidean_cluster(PointCloud(pts), cfg)
    all_indices = np.concatenate([c.indices for c in clusters]) if clusters else []
    # Reported clusters are disjoint and respect the size floor.
    assert len(np.unique(all_indices)) == len(all_indices)
    assert all(len(c) >= 5 for c in clusters)
    # Sizes are non-increasing.
    sizes = [len(c) for c in clusters]
    assert sizes == sorted(sizes, reverse=True)


def test_permutation_invariance(rng):
    pts = rng.uniform(0, 2, size=(120, 3))
    cfg = ClusterConfig(radius=0.3, min_cluster_size=1)
    base = euclidean_cluster(PointCloud(pts), cfg)
    perm = rng.permutation(120)
    inverse = np.empty(120, dtype=int)
    inverse[perm] = np.arange(120)
    permuted = euclidean_cluster(PointCloud(pts[perm]), cfg)
    base_sets = [frozenset(c.indices.tolist()) for c in base]
    permuted_sets = [frozenset(perm[c.indices].tolist()) for c in permuted]
    # The partition is permutation-invariant; the documented ordering rule
    # (ties by smallest member index) is index-relative, so compare as sets.
    assert set(base_sets) == set(permuted_sets)
    assert [len(c) for c in permuted] == sorted(
        (len(c) for c in permuted), reverse=True
    )


def test_empty_cloud():
    assert euclidean_cluster(PointCloud.empty(), ClusterConfig()) == []


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(np.array([], dtype=int))
    with pytest.raises(ValueError):
        Cluster(np.array([1, 1, 2]))


def test_octree_single_point():
    tree = octree_from_points(np.array([[1.0, 2.0, 3.0]]), 0.5)
    assert len(tree.occupied) == 1
    center = tree.leaf_centers()[0]
    assert np.allclose(center, [1.25, 2.25, 3.25])


def test_octree_two_points_one_leaf():
    tree = octree_from_points(np.array([[0.0, 0, 0], [0.1, 0.1, 0.1]]), 0.5)
    assert len(tree.occupied) == 1


def test_octree_lattice_leaf_count():
    xs = np.arange(10.0)
    pts = np.array([[x, y, z] for x in xs for y in xs for z in xs])
    leaf = 2.0
    tree = octree_from_points(pts, leaf)
    origin = pts.min(axis=0)
    expected = {tuple(np.floor((p - origin) / leaf).astype(int)) for p in pts}
    assert len(tree.occupied) == len(expected) == 125
    # Root edge is a power-of-two multiple of the leaf covering the extent.
    assert tree.root_size == leaf * tree.leaves_per_edge()
    assert tree.root_size >= 9.0
    assert tree.leaves_per_edge() == 2 ** tree.depth


def test_octree_every_leaf_has_a_point(rng):
    pts = rng.uniform(0, 4, size=(200, 3))
    leaf = 0.5
    tree = octree_from_points(pts, leaf)
    origin = pts.min(axis=0)
    per_edge = tree.leaves_per_edge()
    idx = np.clip(np.floor((pts - origin) / leaf).astype(int), 0, per_edge - 1)
    occupied = {tuple(i) for i in idx}
    assert tree.occupied == occupied
