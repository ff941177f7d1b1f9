import math
import re
import tracemalloc

import numpy as np
import pytest

from scanplan import segmentation
from scanplan.errors import DegenerateGeometry, NoPlaneFound
from scanplan.geometry import PointCloud
from scanplan.scenes import generate_scene, preset_scene
from scanplan.segmentation import (
    PlaneModel,
    RansacConfig,
    convex_hull_2d,
    _canonical_plane,
    extract_surfaces,
    plane_basis,
    plane_from_3_points,
    ransac_plane,
    refine_plane,
    _boundary_and_area,
)

from oracles import (
    edge_test_hull,
    gift_wrap_hull,
    monte_carlo_polygon_area,
    point_in_polygon,
)


def plane_with_clutter(rng, n_plane=500, clutter_frac=0.05):
    plane = np.zeros((n_plane, 3))
    plane[:, 0] = rng.uniform(-5, 5, n_plane)
    plane[:, 1] = rng.uniform(-5, 5, n_plane)
    n_clutter = int(n_plane * clutter_frac / (1 - clutter_frac))
    clutter = rng.uniform(-5, 5, size=(n_clutter, 3))
    return PointCloud(np.vstack([plane, clutter]))


def test_ransac_finds_dominant_plane(rng):
    cloud = plane_with_clutter(rng)
    model, inliers = ransac_plane(
        cloud, RansacConfig(distance_threshold=0.2, iterations=200, min_inliers=50)
    )
    tilt = math.degrees(math.acos(min(1.0, abs(model.c))))
    assert tilt < 1.0
    assert abs(model.d) < 0.05
    assert len(inliers) >= 500


def test_ransac_exact_three_points():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]))
    model, inliers = ransac_plane(
        cloud, RansacConfig(distance_threshold=0.01, iterations=10, min_inliers=3)
    )
    assert abs(abs(model.c) - 1.0) < 1e-9
    assert model.d == 0.0
    assert len(inliers) == 3


def test_ransac_collinear_cloud_no_plane():
    pts = np.stack([np.linspace(0, 5, 50), np.zeros(50), np.zeros(50)], axis=1)
    with pytest.raises(NoPlaneFound):
        ransac_plane(PointCloud(pts), RansacConfig(min_inliers=10))


def test_ransac_deterministic_with_seed(rng):
    cloud = plane_with_clutter(rng)
    cfg = RansacConfig(rng_seed=42, min_inliers=50)
    m1, i1 = ransac_plane(cloud, cfg)
    m2, i2 = ransac_plane(cloud, cfg)
    assert (m1.a, m1.b, m1.c, m1.d) == (m2.a, m2.b, m2.c, m2.d)
    assert np.array_equal(i1, i2)


def test_ransac_inliers_within_threshold_of_refined_model(rng):
    cloud = plane_with_clutter(rng, n_plane=400)
    cfg = RansacConfig(distance_threshold=0.2, min_inliers=50)
    model, inliers = ransac_plane(cloud, cfg)
    assert np.all(model.distance(cloud.points[inliers]) <= cfg.distance_threshold)


def test_plane_from_3_points_matches_np_cross(rng):
    triples = list(rng.normal(0, 10, size=(500, 3, 3)))
    triples += [rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(200)]
    compared = 0
    for p0, p1, p2 in triples:
        normal = np.cross(p1 - p0, p2 - p0)
        if np.linalg.norm(normal) <= 1e-9:
            with pytest.raises(DegenerateGeometry):
                plane_from_3_points(p0, p1, p2)
            continue
        expected = _canonical_plane(normal, -float(normal @ p0))
        got = plane_from_3_points(p0, p1, p2)
        # Bytes, not ==, so a zero of the other sign counts as a difference.
        assert np.array([got.a, got.b, got.c, got.d]).tobytes() == np.array(
            [expected.a, expected.b, expected.c, expected.d]).tobytes()
        compared += 1
    assert compared >= 600


def test_refine_exact_plane():
    pts = np.array([[0.0, 0, 1], [1.0, 0, 1], [0.0, 1, 1], [2.0, 3, 1]])
    model = refine_plane(pts)
    assert np.allclose(model.distance(pts), 0.0, atol=1e-12)
    assert model.d <= 0


def test_refine_symmetric_perturbation_cancels():
    base = np.array([
        [0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0],
    ])
    eps = 0.01
    pts = np.vstack([base + [0, 0, eps], base - [0, 0, eps]])
    model = refine_plane(pts)
    assert abs(model.c) == pytest.approx(1.0, abs=1e-12)
    assert model.d == pytest.approx(0.0, abs=1e-12)


def test_refine_matches_direct_svd_fit(rng):
    pts = np.zeros((60, 3))
    pts[:, 0] = rng.uniform(-2, 2, 60)
    pts[:, 1] = rng.uniform(-2, 2, 60)
    pts[:, 2] = 0.5 * pts[:, 0] - 0.3 * pts[:, 1] + 1.0 + rng.normal(0, 0.05, 60)
    model = refine_plane(pts)
    # Independent small-case fit: SVD of the centered matrix.
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered)
    normal = vt[2]
    d = -float(normal @ pts.mean(axis=0))
    if d > 0:
        normal, d = -normal, -d
    assert np.allclose([model.a, model.b, model.c], normal, atol=1e-9)
    assert model.d == pytest.approx(d, abs=1e-9)
    rms = math.sqrt(float(np.mean(model.distance(pts) ** 2)))
    assert rms <= 0.2


def test_refine_collinear_degenerate():
    pts = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
    with pytest.raises(DegenerateGeometry):
        refine_plane(pts)


_TWO_POINTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: refine_plane(_TWO_POINTS), DegenerateGeometry,
     "need at least 3 points to fit a plane"),
    (lambda: ransac_plane(PointCloud(_TWO_POINTS)), NoPlaneFound,
     "cloud has 2 points, need at least 3"),
], ids=["refine_plane", "ransac_plane"])
def test_a_plane_fit_needs_three_points(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as err:
        call()
    assert err.type is error


def test_project_on_plane_z0(rng):
    model = PlaneModel(0.0, 0.0, 1.0, 0.0)
    pts = np.column_stack([rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20),
                           np.zeros(20)])
    basis = plane_basis(model)
    coords = basis.to_plane(pts)
    # Basis convention: u is the global axis least aligned with the normal.
    assert np.allclose(basis.u, [1, 0, 0])
    assert np.allclose(basis.v, [0, 1, 0])
    assert np.allclose(coords, pts[:, :2])


def test_project_kills_normal_component():
    model = PlaneModel(0.0, 0.0, 1.0, 0.0)
    on_plane = np.array([[0.3, -0.2, 0.0]])
    off_plane = np.array([[0.3, -0.2, 1.0]])
    ca = plane_basis(model).to_plane(on_plane)
    cb = plane_basis(model).to_plane(off_plane)
    assert np.allclose(ca, cb)


def test_project_round_trip(rng):
    model = refine_plane(rng.normal(size=(10, 3)))
    pts = rng.normal(size=(30, 3))
    basis = plane_basis(model)
    coords = basis.to_plane(pts)
    lifted = basis.to_world(coords)
    # Lift equals the orthogonal projection of the original points.
    expected = pts - np.outer(model.signed_distance(pts), model.normal)
    assert np.allclose(lifted, expected, atol=1e-9)


def test_hull_square_with_interior(rng):
    corners = np.array([[0.0, 0], [1.0, 0], [1.0, 1], [0.0, 1]])
    interior = rng.uniform(0.1, 0.9, size=(50, 2))
    hull = convex_hull_2d(np.vstack([interior, corners]))
    assert len(hull) == 4
    assert {tuple(v) for v in hull} == {tuple(c) for c in corners}


def test_hull_hexagon_kept_in_order():
    angles = np.arange(6) * math.pi / 3
    hexagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    hull = convex_hull_2d(hexagon)
    assert len(hull) == 6
    # Counter-clockwise: positive shoelace area.
    x, y = hull[:, 0], hull[:, 1]
    area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area2 > 0


def test_hull_matches_gift_wrap_oracle(rng):
    for _ in range(10):
        pts = rng.uniform(-3, 3, size=(300, 2))
        hull = convex_hull_2d(pts)
        oracle = gift_wrap_hull(pts)
        assert {tuple(v) for v in hull} == {tuple(v) for v in oracle}


def test_gift_wrap_agrees_with_edge_test_oracle(rng):
    # Cross-validate the two oracles at a size where O(n^3) is painless.
    for _ in range(10):
        pts = rng.uniform(0, 1, size=(30, 2))
        assert {tuple(v) for v in gift_wrap_hull(pts)} == edge_test_hull(pts)


def _hull_sets(rng):
    """Point sets where a hull pre-filter could go wrong: lattices,
    duplicates, points on the hull's edges, a circle far from the origin,
    quantised y, and near-collinear strips."""
    grid = np.array([[i, j] for i in range(7) for j in range(5)], float) * 0.25
    yield grid
    yield np.vstack([grid, grid[::3]])
    t = rng.uniform(0.0, 1.0, 200)
    edges = np.concatenate([np.stack([t, 0 * t], 1), np.stack([1 + 0 * t, t], 1),
                            np.stack([t, 1 + 0 * t], 1), np.stack([0 * t, t], 1)])
    yield np.vstack([edges, rng.uniform(0, 1, size=(200, 2))])
    angles = rng.uniform(0.0, 2 * math.pi, 300)
    yield 1e6 + 5.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    quantised = rng.uniform(-3, 3, size=(300, 2))
    quantised[:, 1] = np.round(quantised[:, 1], 1)
    yield quantised
    yield rng.normal(0.0, 1.0, size=(300, 2)) * [1e-6, 1e3] + [5e5, -3e6]
    for _ in range(20):
        yield rng.uniform(-5, 5, size=(int(rng.integers(3, 300)), 2))


def test_hull_prefilter_keeps_the_chains_hull(rng, monkeypatch):
    # The hull with the interior pre-filter is the chain's own hull over
    # every point, bit for bit, and the gift-wrap oracle's vertex set.
    sets = list(_hull_sets(rng))
    got = [convex_hull_2d(pts) for pts in sets]
    monkeypatch.setattr(segmentation, "_drop_interior", lambda pts: pts)
    for pts, hull in zip(sets, got):
        assert hull.tobytes() == convex_hull_2d(pts).tobytes()
        assert {tuple(v) for v in hull} == {tuple(v) for v in gift_wrap_hull(pts)}


def test_hull_prefilter_drops_most_of_a_plane(rng):
    pts = rng.uniform(0, 1, size=(2000, 2)) * [20.0, 11.0]
    assert len(segmentation._drop_interior(pts)) < 0.1 * len(pts)


def test_hull_prefilter_holds_less_than_a_table_of_eight_projections(rng):
    # An (n, 8) float64 table of every point's eight projections would be
    # 64 bytes per point; one (n,) projection at a time is 8.
    n = 20_000
    pts = rng.uniform(0, 1, size=(n, 2)) * [20.0, 11.0]
    tracemalloc.start()
    try:
        segmentation._drop_interior(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n


def test_hull_permutation_invariant(rng):
    pts = rng.uniform(0, 1, size=(100, 2))
    hull_a = convex_hull_2d(pts)
    hull_b = convex_hull_2d(pts[rng.permutation(100)])
    assert np.array_equal(hull_a, hull_b)


def test_hull_drops_collinear_midpoints():
    pts = np.array([[0.0, 0], [1.0, 0], [2.0, 0], [2.0, 2], [0.0, 2], [1.0, 2]])
    hull = convex_hull_2d(pts)
    assert len(hull) == 4


def test_hull_collinear_degenerate():
    pts = np.stack([np.arange(10.0), 2 * np.arange(10.0)], axis=1)
    with pytest.raises(DegenerateGeometry):
        convex_hull_2d(pts)


def test_surface_area_rectangle():
    model = PlaneModel(0.0, 0.0, 1.0, 0.0)
    corners = np.array([[0.0, 0, 0], [2.0, 0, 0], [2.0, 3, 0], [0.0, 3, 0]])
    inner = np.array([[1.0, 1, 0], [0.5, 2.5, 0]])
    boundary, area = _boundary_and_area(np.vstack([inner, corners]), model)
    assert area == pytest.approx(6.0)
    assert {tuple(p) for p in boundary.tolist()} == {tuple(p) for p in corners.tolist()}


def test_surface_area_matches_monte_carlo(rng):
    pts2d = rng.uniform(-2, 2, size=(40, 2))
    model = PlaneModel(0.0, 0.0, 1.0, 0.0)
    boundary, area = _boundary_and_area(plane_basis(model).to_world(pts2d), model)
    mc = monte_carlo_polygon_area(boundary[:, :2], 200_000, rng)
    assert area == pytest.approx(mc, rel=0.01)


def test_plane_basis_is_the_written_out_frame_of_refined_planes(rng):
    # The unit normal of a refined plane is used as given: normalising it
    # again changes the last bits of u and v for some planes.
    for _ in range(300):
        pts = rng.normal(size=(20, 3)) * rng.uniform(0.1, 5.0, 3) + rng.normal(size=3)
        model = refine_plane(pts)
        n = model.normal
        e = np.zeros(3)
        e[int(np.argmin(np.abs(n)))] = 1.0
        u = e - (e @ n) * n
        u = u / np.linalg.norm(u)
        basis = plane_basis(model)
        assert basis.u.tobytes() == u.tobytes()
        assert basis.v.tobytes() == np.cross(n, u).tobytes()


def rect_cloud(rng, width, height, z=0.0, density=100.0, center=(0.0, 0.0)):
    n = int(width * height * density)
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(center[0] - width / 2, center[0] + width / 2, n)
    pts[:, 1] = rng.uniform(center[1] - height / 2, center[1] + height / 2, n)
    pts[:, 2] = z
    return pts


def test_extract_single_rectangle(rng):
    cloud = PointCloud(rect_cloud(rng, 4.0, 3.0))
    surfaces, remainder = extract_surfaces(cloud, RansacConfig(min_inliers=50))
    assert len(surfaces) == 1
    assert len(remainder) == 0
    assert surfaces[0].area == pytest.approx(12.0, rel=0.05)
    assert abs(surfaces[0].model.c) == pytest.approx(1.0, abs=1e-6)


def test_extract_hollow_cube_six_faces(rng):
    half = 1.0
    faces = []
    for axis in range(3):
        for sign in (-half, half):
            n = 400
            pts = np.zeros((n, 3))
            others = [a for a in range(3) if a != axis]
            pts[:, others[0]] = rng.uniform(-half, half, n)
            pts[:, others[1]] = rng.uniform(-half, half, n)
            pts[:, axis] = sign
            faces.append(pts)
    cloud = PointCloud(np.vstack(faces))
    surfaces, remainder = extract_surfaces(
        cloud, RansacConfig(min_inliers=100, min_area=2.0)
    )
    assert len(surfaces) == 6
    normals = np.array([s.model.normal for s in surfaces])
    # Face normals stay near an axis; the 0.2 m threshold lets each plane
    # capture edge strips of adjacent faces, tilting the fit a few degrees.
    tilt = np.degrees(np.arccos(np.clip(np.abs(normals).max(axis=1), -1, 1)))
    assert np.all(tilt < 8.0)


def test_extract_detached_small_patch_lands_in_remainder(rng):
    # A 4x3 plane and a coplanar 1x1 patch 5 m away; the patch is trimmed
    # from the surface, its area stays below min_area, it joins the
    # remainder, and the main boundary excludes it.
    main = rect_cloud(rng, 4.0, 3.0)
    patch = rect_cloud(rng, 1.0, 1.0, center=(10.0, 0.0))
    cloud = PointCloud(np.vstack([main, patch]))
    surfaces, remainder = extract_surfaces(
        cloud, RansacConfig(min_inliers=50, min_area=2.0), cluster_eps=0.3
    )
    assert len(surfaces) == 1
    boundary_x = surfaces[0].boundary[:, 0]
    assert boundary_x.max() < 5.0
    assert len(remainder) == len(patch)
    assert np.all(remainder.sources >= len(main))


def test_extract_partition_invariant(rng):
    main = rect_cloud(rng, 4.0, 3.0)
    patch = rect_cloud(rng, 1.0, 1.0, center=(10.0, 0.0))
    noise = rng.uniform(-8, 8, size=(60, 3)) + np.array([0, 0, 5.0])
    cloud = PointCloud(np.vstack([main, patch, noise]))
    surfaces, remainder = extract_surfaces(
        cloud, RansacConfig(min_inliers=50, min_area=2.0)
    )
    claimed = np.concatenate(
        [s.inliers for s in surfaces] + [remainder.sources]
    )
    assert sorted(claimed.tolist()) == list(range(len(cloud)))
    # Disjoint inlier sets.
    assert len(np.unique(claimed)) == len(claimed)


def test_extract_deterministic(rng):
    cloud = PointCloud(rect_cloud(rng, 4.0, 3.0))
    cfg = RansacConfig(min_inliers=50, rng_seed=7)
    s1, r1 = extract_surfaces(cloud, cfg)
    s2, r2 = extract_surfaces(cloud, cfg)
    assert len(s1) == len(s2)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.inliers, b.inliers)
        assert np.array_equal(a.boundary, b.boundary)
    assert np.array_equal(r1.points, r2.points)


def test_extract_inliers_inside_boundary(rng):
    cloud = PointCloud(rect_cloud(rng, 4.0, 3.0))
    surfaces, _ = extract_surfaces(cloud, RansacConfig(min_inliers=50))
    surface = surfaces[0]
    basis = plane_basis(surface.model)
    coords = basis.to_plane(cloud.points[surface.inliers])
    hull2d = basis.to_plane(surface.boundary)
    for c in coords[:: max(1, len(coords) // 100)]:
        assert point_in_polygon(c, hull2d)


def count_ransac_calls(monkeypatch) -> list:
    calls = []
    real = segmentation.ransac_plane

    def counting(cloud, cfg):
        calls.append(len(cloud))
        return real(cloud, cfg)

    monkeypatch.setattr(segmentation, "ransac_plane", counting)
    return calls


def test_extract_rejected_plane_gives_up_every_inlier(monkeypatch):
    # Plane z = 0 is a 0.5 m lattice: at cluster_eps 0.3 each of its points
    # is a component of its own, so the plane is rejected. Plane x = 10 is a
    # 0.25 m lattice above it that meets the first plane's x = 10 column at
    # 0.25 m. The rejected plane gives up all of its points, so the second
    # plane cannot claim that column, and two rounds do all the work.
    ij = np.array([[i, j] for i in range(41) for j in range(41)], float) * 0.5
    sparse = np.column_stack([ij, np.zeros(len(ij))])
    jk = np.array([[j, k] for j in range(81) for k in range(17)], float) * 0.25
    dense = np.column_stack([np.full(len(jk), 10.0), jk[:, 0], 0.25 + jk[:, 1]])
    cloud = PointCloud(np.vstack([sparse, dense]))
    calls = count_ransac_calls(monkeypatch)
    surfaces, remainder = extract_surfaces(
        cloud, RansacConfig(min_inliers=100, min_area=2.0), cluster_eps=0.3
    )
    assert calls == [len(cloud), len(dense)]
    assert len(surfaces) == 1
    assert surfaces[0].inliers.tolist() == list(range(len(sparse), len(cloud)))
    assert remainder.sources.tolist() == list(range(len(sparse)))


def test_extract_sparse_deck_costs_one_round_per_plane(monkeypatch):
    # At 5 pts/m² the deck's points are further apart than cluster_eps, so
    # its plane yields only slivers; rejecting it takes out all its points.
    cloud = generate_scene(preset_scene("deck", 5.0, 0.01), seed=0)
    calls = count_ransac_calls(monkeypatch)
    surfaces, remainder = extract_surfaces(cloud)
    assert len(calls) <= 2
    assert surfaces == [] and len(remainder) == len(cloud)
