import numpy as np
import pytest
from scipy.spatial import cKDTree

from scanplan.spatial import KdTree

from oracles import linear_nearest, linear_radius


def test_nearest_matches_linear_scan(rng):
    for _ in range(20):
        pts = rng.uniform(-5, 5, size=(200, 3))
        tree = KdTree(pts)
        queries = rng.uniform(-6, 6, size=(50, 3))
        idx, dist = tree.nearest(queries)
        for q, i, d in zip(queries, idx, dist):
            oi, od = linear_nearest(pts, q)
            assert i == oi
            assert d == pytest.approx(od, abs=1e-12)


def test_nearest_tie_breaks_to_lowest_index():
    # A grid makes exact ties: the query sits midway between two points.
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 5.0]])
    tree = KdTree(pts)
    idx, dist = tree.nearest(np.array([1.0, 0.0]))
    assert idx == 0
    assert dist == pytest.approx(1.0)


def test_nearest_on_lattice_ties(rng):
    xs = np.arange(5.0)
    grid = np.array([[x, y] for x in xs for y in xs])
    tree = KdTree(grid)
    # Query at cell centers: 4 equidistant lattice points each.
    queries = np.array([[x + 0.5, y + 0.5] for x in xs[:-1] for y in xs[:-1]])
    idx, _ = tree.nearest(queries)
    for q, i in zip(queries, idx):
        oi, _ = linear_nearest(grid, q)
        assert i == oi


def test_single_point_tree():
    tree = KdTree(np.array([[1.0, 2.0, 3.0]]))
    idx, dist = tree.nearest(np.array([1.0, 2.0, 4.0]))
    assert idx == 0
    assert dist == pytest.approx(1.0)


def test_within_radius_boundary_inclusive():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    tree = KdTree(pts)
    found = tree.pairs_within_radius(1.0)
    assert found.dtype == np.int64
    assert sorted(map(tuple, found.tolist())) == [(0, 1), (1, 2)]


def test_within_radius_matches_linear_scan(rng):
    pts = rng.uniform(0, 1, size=(300, 3))
    tree = KdTree(pts)
    for _ in range(10):
        r = rng.uniform(0.05, 0.3)
        expected = [
            (i, j) for i in range(len(pts))
            for j in linear_radius(pts, pts[i], r) if j > i
        ]
        assert sorted(map(tuple, tree.pairs_within_radius(r).tolist())) == expected


def test_knearest_shape_and_order(rng):
    pts = rng.normal(size=(50, 3))
    tree = KdTree(pts)
    idx, dist = tree.knearest(pts[:5], k=4)
    assert idx.shape == (5, 4)
    assert np.all(np.diff(dist, axis=1) >= 0)
    # The nearest hit of a stored point is itself.
    assert dist[:, 0] == pytest.approx(np.zeros(5), abs=1e-12)


def test_knearest_threaded_matches_single_thread(rng):
    pts = rng.normal(size=(3000, 3))
    tree = KdTree(pts)
    idx, dist = tree.knearest(pts, k=12)
    ref_dist, ref_idx = cKDTree(pts).query(pts, k=12, workers=1)
    assert np.array_equal(idx, ref_idx)
    assert dist.tobytes() == ref_dist.tobytes()


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        KdTree(np.zeros((0, 3)))
