import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import scanplan
from scanplan.spatial import KdTree

from oracles import (
    linear_knearest_distances,
    linear_nearest,
    linear_pairs_within,
    linear_radius,
    linear_runner_up,
)


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
    idx, dist, runner_up = tree.nearest(np.array([[1.0, 0.0]]))
    assert idx.tolist() == [0]
    assert dist[0] == pytest.approx(1.0)
    assert runner_up[0] == dist[0]


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
    idx, dist, runner_up = tree.nearest(np.array([[1.0, 2.0, 4.0]]))
    assert idx.tolist() == [0]
    assert dist[0] == pytest.approx(1.0)
    assert runner_up[0] == math.inf
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
        expected = linear_pairs_within(pts, r)
        assert sorted(map(tuple, tree.pairs_within_radius(r).tolist())) == expected


# Point sets in shuffled order: no ties, every point five times, an integer
# grid, where half-integer queries and unit radii tie exactly, and one point,
# whose runner-up distance is inf.
POINT_SETS = {
    "random": lambda rng: rng.uniform(-5, 5, size=(300, 3)),
    "duplicated": lambda rng: rng.permutation(
        np.repeat(rng.uniform(-5, 5, size=(60, 3)), 5, axis=0)),
    "grid": lambda rng: rng.permutation(
        np.array(list(itertools.product(range(7), range(7), range(6))), dtype=float)),
    "one_point": lambda rng: rng.uniform(-5, 5, size=(1, 3)),
}


@pytest.mark.parametrize("kind", sorted(POINT_SETS))
def test_tree_answers_as_the_linear_scan(rng, kind):
    # The tree's shape is scipy's to choose; no answer may depend on it.
    pts = POINT_SETS[kind](rng)
    tree = KdTree(pts)
    queries = np.vstack([pts[:40], np.round(rng.uniform(-1, 7, size=(60, 3)) * 2) / 2])
    idx, dist, runner_up = tree.nearest(queries)
    for q, i, d, r in zip(queries, idx, dist, runner_up):
        oi, od = linear_nearest(pts, q)
        assert i == oi
        assert d == pytest.approx(od, abs=1e-12)
        assert r == pytest.approx(linear_runner_up(pts, q), abs=1e-12)
    if len(pts) < 8:
        with pytest.raises(ValueError, match="k=8 exceeds the 1 indexed points"):
            tree.knearest(queries, k=8)
    else:
        _, k_dist = tree.knearest(queries, k=8)
        for q, kd in zip(queries, k_dist):
            assert kd == pytest.approx(linear_knearest_distances(pts, q, 8), abs=1e-12)
    for radius in (0.5, 1.0, 1.5):
        found = sorted(map(tuple, tree.pairs_within_radius(radius).tolist()))
        assert found == linear_pairs_within(pts, radius)


def _scan_arc(rng):
    # One 1,081-ray sweep, 270 degrees wide, of the walls of a square room.
    t = np.linspace(-0.75 * math.pi, 0.75 * math.pi, 1081)
    r = 4.0 / np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t))) + rng.normal(0, 0.01, 1081)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


def _deck_plane(rng):
    u = rng.uniform(0, 22, 22_000)
    v = rng.uniform(0, 10, 22_000)
    return np.stack([u, v, rng.normal(0, 0.01, 22_000)], axis=1)


@pytest.mark.parametrize("cloud", [
    lambda rng: rng.uniform(-5, 5, size=(30_000, 3)), _deck_plane, _scan_arc,
], ids=["random_3d", "plane", "scan_arc"])
def test_tree_has_fewer_nodes_than_a_balanced_tree(rng, cloud):
    # The sliding-midpoint tree stores fewer nodes than scipy's default
    # median-split tree, whose node count is a power of two less one.
    pts = cloud(rng)
    assert KdTree(pts)._tree.size < cKDTree(pts).size


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


# The pytest process imported scipy.spatial above, so each way of loading
# cKDTree is checked in a fresh interpreter.
def _printed_in_fresh_interpreter(code: str, *args: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(Path(scanplan.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return done.stdout.split()


def test_cKDTree_from_the_compiled_module_alone_is_scipys_class():
    code = ("import importlib, sys, numpy as np, scanplan.spatial\n"
            "print('scipy.spatial' in sys.modules,\n"
            "      scanplan.spatial.KdTree(np.eye(3)).nearest(np.eye(3) * 0.9)[0].tolist())\n"
            "import scipy.spatial\n"
            "print(scanplan.spatial.cKDTree is scipy.spatial.cKDTree,\n"
            "      importlib.import_module('scipy.spatial._ckdtree').cKDTree\n"
            "      is scipy.spatial.cKDTree)")
    assert _printed_in_fresh_interpreter(code) == ["False", "[0,", "1,", "2]", "True", "True"]


def test_cKDTree_imported_after_scipy_spatial_is_scipys_class():
    code = ("import scipy.spatial, scanplan.spatial\n"
            "print(scanplan.spatial.cKDTree is scipy.spatial.cKDTree)")
    assert _printed_in_fresh_interpreter(code) == ["True"]


def test_cKDTree_falls_back_to_scipy_spatial_without_the_compiled_file(tmp_path):
    # scipy's location is pointed at a copy of its layout with an empty
    # spatial directory, so the compiled file is not found there.
    (tmp_path / "scipy" / "spatial").mkdir(parents=True)
    code = ("import pathlib, sys, scipy\n"
            "scipy.__file__ = str(pathlib.Path(sys.argv[1]) / 'scipy' / '__init__.py')\n"
            "import numpy as np, scanplan.spatial\n"
            "print('scipy.spatial.distance' in sys.modules)\n"
            "import scipy.spatial\n"
            "print(scanplan.spatial.cKDTree is scipy.spatial.cKDTree,\n"
            "      scanplan.spatial.KdTree(np.eye(3)).nearest(np.eye(3) * 0.9)[0].tolist())")
    assert _printed_in_fresh_interpreter(code, str(tmp_path)) == [
        "True", "True", "[0,", "1,", "2]"]
