import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from scanplan.spatial import KdTree

from oracles import linear_nearest, linear_radius, linear_runner_up


def test_nearest_matches_linear_scan(rng):
    for _ in range(20):
        pts = rng.uniform(-5, 5, size=(200, 3))
        tree = KdTree(pts)
        queries = rng.uniform(-6, 6, size=(50, 3))
        idx, dist, runner_up = tree.nearest(queries)
        for q, i, d, r in zip(queries, idx, dist, runner_up):
            oi, od = linear_nearest(pts, q)
            assert i == oi
            assert d == pytest.approx(od, abs=1e-12)
            assert r == pytest.approx(linear_runner_up(pts, q), abs=1e-12)
            assert r > d


def test_nearest_tie_breaks_to_lowest_index():
    # A grid makes exact ties: the query sits midway between two points.
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 5.0]])
    tree = KdTree(pts)
    idx, dist, runner_up = tree.nearest(np.array([1.0, 0.0]))
    assert idx == 0
    assert dist == pytest.approx(1.0)
    assert runner_up == dist


def test_nearest_on_lattice_ties(rng):
    xs = np.arange(5.0)
    grid = np.array([[x, y] for x in xs for y in xs])
    tree = KdTree(grid)
    # Query at cell centers: 4 equidistant lattice points each.
    queries = np.array([[x + 0.5, y + 0.5] for x in xs[:-1] for y in xs[:-1]])
    idx, dist, runner_up = tree.nearest(queries)
    for q, i, r in zip(queries, idx, runner_up):
        oi, _ = linear_nearest(grid, q)
        assert i == oi
        assert r == linear_runner_up(grid, q)
    # Every cell centre is tied, so its runner-up equals its distance.
    assert np.array_equal(runner_up, dist)
    # Lattice points are their own nearest; the runner-up is the spacing.
    idx, dist, runner_up = tree.nearest(grid)
    assert np.array_equal(idx, np.arange(len(grid)))
    assert np.all(dist == 0.0)
    assert np.all(runner_up == 1.0)


def test_single_point_tree():
    tree = KdTree(np.array([[1.0, 2.0, 3.0]]))
    idx, dist, runner_up = tree.nearest(np.array([1.0, 2.0, 4.0]))
    assert idx == 0
    assert dist == pytest.approx(1.0)
    assert runner_up == math.inf
    _, _, runner_up = tree.nearest(np.zeros((4, 3)))
    assert np.all(runner_up == math.inf)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_nearest_distances_match_summed_squares(rng, dim, offset):
    # The ICP warm start recomputes a kept neighbour's distance as
    # sqrt(sum of squares over the axis) and relies on it being the bits the
    # tree returns, for the nearest and the runner-up alike.
    pts = rng.uniform(-5, 5, size=(2000, dim)) + offset
    queries = rng.uniform(-6, 6, size=(2000, dim)) + offset
    tree = KdTree(pts)
    idx, dist, runner_up = tree.nearest(queries)
    assert np.array_equal(np.sqrt(((pts[idx] - queries) ** 2).sum(axis=1)), dist)
    second = cKDTree(pts).query(queries, k=2)[1][:, 1]
    assert np.array_equal(
        np.sqrt(((pts[second] - queries) ** 2).sum(axis=1)), runner_up
    )


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
