import tracemalloc

import numpy as np
import pytest

from scanplan import clustering
from scanplan.clustering import ClusterConfig, euclidean_cluster
from scanplan.geometry import PointCloud
from scanplan.scenes import generate_scene, preset_scene
from scanplan.segmentation import extract_surfaces
from scanplan.spatial import KdTree

from oracles import ordered_clusters, unionfind_clusters, unionfind_components


def test_two_separated_blobs(rng):
    a = rng.normal(0, 0.1, size=(100, 3))
    b = rng.normal(0, 0.1, size=(100, 3)) + np.array([5.0, 0, 0])
    clusters = euclidean_cluster(
        PointCloud(np.vstack([a, b])), ClusterConfig(radius=0.5, min_cluster_size=10)
    )
    assert len(clusters) == 2
    assert len(clusters[0]) == 100 and len(clusters[1]) == 100
    # Ordering rule: equal sizes break ties by smallest member index.
    assert clusters[0].min() < clusters[1].min()


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
        got_sets = {frozenset(c.tolist()) for c in got}
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
        assert [c.tolist() for c in got] == ordered_clusters(pts, eps, min_size)
        assert all(c.dtype == np.int64 for c in got)
    # The lattice run: 16, 9, 9 and 1 points, the 9s ordered by smallest index.
    assert sorted(len(c) for c in got) == [1, 9, 9, 16]


def test_partition_with_noise_filtering(rng):
    pts = rng.uniform(0, 5, size=(200, 3))
    cfg = ClusterConfig(radius=0.4, min_cluster_size=5)
    clusters = euclidean_cluster(PointCloud(pts), cfg)
    all_indices = np.concatenate(clusters) if clusters else []
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
    base_sets = [frozenset(c.tolist()) for c in base]
    permuted_sets = [frozenset(perm[c].tolist()) for c in permuted]
    # The partition is permutation-invariant; the documented ordering rule
    # (ties by smallest member index) is index-relative, so compare as sets.
    assert set(base_sets) == set(permuted_sets)
    assert [len(c) for c in permuted] == sorted(
        (len(c) for c in permuted), reverse=True
    )


def test_empty_cloud():
    assert euclidean_cluster(PointCloud.empty(), ClusterConfig()) == []


def partition(labels) -> set:
    """The sets of indices that share a label."""
    groups: dict = {}
    for i, label in enumerate(np.asarray(labels).tolist()):
        groups.setdefault(label, set()).add(i)
    return {frozenset(g) for g in groups.values()}


STRIP = 8


def _strip_edge_chain(n, step):
    """n points along the x axis, ``step`` apart: with the step at the
    radius, every strip edge cuts a pair at the radius."""
    pts = np.zeros((n, 3))
    pts[:, 0] = np.arange(n) * step
    return pts


@pytest.mark.parametrize("case", [
    "chain_at_radius", "chain_just_past_radius", "all_keys_equal",
    "single_strip", "strip_less_one", "strip_size", "strip_plus_one", "blobs",
    "dense_tail",
])
def test_strip_labels_match_unionfind_oracle(rng, monkeypatch, case):
    monkeypatch.setattr(clustering, "_STRIP_ROWS", STRIP)
    radius = 0.25
    if case == "chain_at_radius":
        # 0.25 is exact in binary, so both predicates see the same distance.
        pts = _strip_edge_chain(5 * STRIP + 3, radius)
    elif case == "chain_just_past_radius":
        # Links an ulp past the radius: rounding keeps some and cuts others.
        pts = _strip_edge_chain(3 * STRIP, np.nextafter(radius, 1.0))
    elif case == "all_keys_equal":
        pts = np.tile([[1.0, 2.0, 3.0]], (3 * STRIP, 1))
    elif case == "single_strip":
        pts = rng.uniform(0, 1, size=(STRIP - 3, 3))
    elif case in ("strip_less_one", "strip_size", "strip_plus_one"):
        n = STRIP + {"strip_less_one": -1, "strip_size": 0, "strip_plus_one": 1}[case]
        pts = rng.uniform(0, 0.6, size=(n, 3))
        pts[:, 0] *= 4.0
    elif case == "blobs":
        pts = np.vstack([rng.normal(c, 0.1, size=(15, 3)) for c in (0.0, 0.7, 2.0)]
                        + [rng.uniform(-1, 3, size=(40, 3))])
    else:
        # A sparse chain, then a tight blob whose first strip reaches the
        # last point, so the strips after it are skipped.
        chain = _strip_edge_chain(2 * STRIP, 1.0)
        pts = np.vstack([chain, rng.uniform(0, 0.1, size=(3 * STRIP, 3)) + [40.0, 0, 0]])
    rows = pts[rng.permutation(len(pts))]
    labels = clustering._component_labels(rows, radius)
    assert partition(labels) == set(unionfind_clusters(rows, radius))
    assert sorted(set(labels.tolist())) == list(range(labels.max() + 1))


def test_strip_labels_match_one_query_where_rounding_decides(rng, monkeypatch):
    # Far from the origin, and at a radius that binary cannot hold, some
    # pairs sit within an ulp of the radius. The strips must find the
    # components that one query of every point finds, whatever rounding
    # decides for each pair.
    monkeypatch.setattr(clustering, "_STRIP_ROWS", STRIP)
    radius = 0.3
    for offset in (0.0, 5e5, -3e6):
        pts = np.zeros((12 * STRIP, 3))
        pts[:, 0] = offset + np.arange(len(pts)) * radius
        pts[:, 1] = rng.choice([0.0, 1e-9, -1e-9], len(pts))
        pts = pts[rng.permutation(len(pts))]
        pairs = KdTree(pts).pairs_within_radius(radius)
        want = set(unionfind_components(len(pts), pairs))
        assert partition(clustering._component_labels(pts, radius)) == want


def _path_indexed(order):
    """A path along the x axis whose k-th point has index ``order[k]``:
    0.2 apart, so at radius 0.25 each point links only to its neighbours."""
    pts = np.zeros((len(order), 3))
    pts[order, 0] = np.arange(len(order)) * 0.2
    return pts


def _zigzag(n):
    """0, n-1, 1, n-2, ...: every other point of the path is a local minimum."""
    k = np.arange(n)
    return np.where(k % 2 == 0, k // 2, n - 1 - k // 2)


def _star(rng, length):
    """Six paths out of a centre along +-x, +-y and +-z, 0.2 apart (0.28
    between spokes), the centre last and the spoke points in random order."""
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    steps = np.arange(1, length + 1)[:, None] * 0.2
    arms = np.vstack([steps * d for d in dirs])
    return np.vstack([arms[rng.permutation(len(arms))], np.zeros((1, 3))])


@pytest.mark.parametrize("case", ["permuted_path", "zigzag_path", "star"])
def test_union_find_rounds_across_strip_edges_match_the_oracle(rng, monkeypatch, case):
    # Orderings whose trees take several hook-and-jump rounds to join, over
    # paths that cross many strip edges at the small strip size.
    monkeypatch.setattr(clustering, "_STRIP_ROWS", STRIP)
    radius = 0.25
    if case == "permuted_path":
        pts = _path_indexed(rng.permutation(25 * STRIP))
    elif case == "zigzag_path":
        pts = _path_indexed(_zigzag(25 * STRIP + 1))
    else:
        pts = _star(rng, 4 * STRIP)
    # A gap splits the set in two components.
    pts = np.vstack([pts, pts + [100.0, 0.0, 0.0]])
    labels = clustering._component_labels(pts, radius)
    want = set(unionfind_components(len(pts), KdTree(pts).pairs_within_radius(radius)))
    assert len(want) == 2
    assert partition(labels) == want
    assert sorted(set(labels.tolist())) == [0, 1]


def test_segment_pair_queries_stay_within_one_extended_strip(monkeypatch):
    # No pair query of the segment stage holds more points than one strip
    # and the densest slab of the radius's width along the clustered set's
    # widest axis, though the first planes' inliers are several strips each.
    cloud = generate_scene(preset_scene("crossed_planes", 200.0, 0.01), seed=0)
    eps = 0.3
    calls = []
    real_pairs = KdTree.pairs_within_radius
    real_cluster = clustering.euclidean_cluster

    def counting_pairs(self, radius):
        calls[-1][2].append(len(self))
        return real_pairs(self, radius)

    def counting_cluster(part, cfg):
        pts = part.points
        keys = np.sort(pts[:, np.argmax(np.ptp(pts, axis=0))])
        ends = np.searchsorted(keys, keys + cfg.radius * (1 + 1e-6), side="right")
        slab = int((ends - np.arange(len(keys))).max())
        calls.append((len(part), clustering._STRIP_ROWS + slab, []))
        return real_cluster(part, cfg)

    monkeypatch.setattr(KdTree, "pairs_within_radius", counting_pairs)
    monkeypatch.setattr("scanplan.segmentation.euclidean_cluster", counting_cluster)
    surfaces, _ = extract_surfaces(cloud, cluster_eps=eps)
    assert surfaces
    assert sum(n > bound for n, bound, _ in calls) >= 2
    for n, bound, queried in calls:
        assert max(queried) <= min(n, bound)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_labelling_holds_one_small_strip_of_pairs_beyond_its_point_arrays(rng):
    # A 10 x 5 m sheet at 400 pts/m2 has about 55 pairs per point within
    # 0.3 m. At a radius that links nothing the peak is that of the (n,)
    # arrays alone; the rest is the pairs of one extended strip. Strips of
    # 2,048 rows held 285 bytes per point beyond the arrays, of 512 rows 66.
    n = 20_000
    sheet = np.zeros((n, 3))
    sheet[:, :2] = rng.uniform(0, 1, size=(n, 2)) * [10.0, 5.0]
    arrays = _traced_peak(clustering._component_labels, sheet, 1e-6)
    beyond = _traced_peak(clustering._component_labels, sheet, 0.3) - arrays
    assert beyond <= 100 * n
