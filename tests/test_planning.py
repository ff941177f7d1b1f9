import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scanplan import planning
from scanplan.errors import (
    EmptySurface,
    GridTooLarge,
    NoPath,
    StartOrGoalOccupied,
    StopPointBlocked,
    UnreachableStandoff,
)
from scanplan.geometry import PointCloud
from scanplan.planning import (
    AStarWeights,
    CameraSpec,
    OccupancyGrid,
    PlanningConfig,
    astar,
    build_occupancy,
    generate_waypoints,
    inflate,
    plan_coverage,
    segment_voxels,
    Stops,
    standoff_distance,
)
from scanplan.segmentation import PlanarSurface, PlaneModel

from oracles import (
    dijkstra_grid,
    exact_segment_voxels,
    path_cost,
    sampled_segment_voxels,
    segment_meets_box,
    straight_or_astar_waypoints,
    tuple_key_astar,
)


def rect_surface(width, height, z=0.0):
    model = PlaneModel(0.0, 0.0, 1.0, -z)
    boundary = np.array([
        [0.0, 0.0, z], [width, 0.0, z], [width, height, z], [0.0, height, z],
    ])
    return PlanarSurface(model, np.arange(4), boundary, width * height)


def footprint(width, height, overlap):
    return PlanningConfig(footprint_width=width, footprint_height=height,
                          overlap=overlap)


WIDE_CAMERA = CameraSpec(fov_h_deg=60.0, fov_v_deg=50.0,
                         max_standoff=10.0)

# The grid of an empty cloud: every voxel, in it or outside it, is free.
NO_OBSTACLES = build_occupancy(PointCloud.empty(), 0.25, 0.6)


def test_standoff_pinhole_relation():
    cfg = footprint(0.6, 0.4, 0.2)
    d = standoff_distance(cfg, WIDE_CAMERA)
    assert d == pytest.approx(0.3 / math.tan(math.radians(30.0)))


def test_standoff_beyond_max_range():
    camera = CameraSpec(fov_h_deg=2.0, fov_v_deg=2.0,
                        max_standoff=5.0)
    cfg = footprint(0.6, 0.4, 0.2)
    with pytest.raises(UnreachableStandoff):
        standoff_distance(cfg, camera)


def test_standoff_vertical_coverage_shortfall():
    camera = CameraSpec(fov_h_deg=60.0, fov_v_deg=5.0)
    cfg = footprint(0.6, 0.6, 0.0)
    with pytest.raises(UnreachableStandoff):
        standoff_distance(cfg, camera)


def test_coverage_single_stop_when_footprint_covers_surface():
    cfg = footprint(0.6, 0.4, 0.0)
    stops = plan_coverage(rect_surface(0.4, 0.3), cfg, WIDE_CAMERA, NO_OBSTACLES)
    assert len(stops) == 1


def test_coverage_exact_tiling_serpentine():
    cfg = footprint(0.5, 0.5, 0.0)
    square_camera = CameraSpec(fov_h_deg=60.0, fov_v_deg=60.0)
    stops = plan_coverage(rect_surface(1.0, 1.0), cfg, square_camera, NO_OBSTACLES)
    assert len(stops) == 4
    assert stops.cells.tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]
    # Stops stand off the plane by the pinhole distance, facing the surface.
    d = standoff_distance(cfg, square_camera)
    assert stops.positions.shape == (4, 3)
    assert stops.positions[:, 2] == pytest.approx([d] * 4, abs=1e-6)
    assert np.allclose(stops.facing, [0, 0, -1])


def test_coverage_stops_share_one_unit_facing():
    surface = rect_surface(3.0, 2.0)
    tilted = PlanarSurface(PlaneModel(0.0, 0.6, 0.8, 0.0), surface.inliers,
                           surface.boundary @ np.array([[1, 0, 0], [0, 0.8, -0.6],
                                                        [0, 0.6, 0.8]]).T,
                           surface.area)
    stops = plan_coverage(tilted, footprint(0.6, 0.4, 0.2), WIDE_CAMERA, NO_OBSTACLES)
    facing = stops.facing
    assert len(stops) > 1 and facing.shape == (3,)
    assert not facing.flags.writeable
    assert np.allclose(facing, [0.0, -0.6, -0.8])
    assert np.linalg.norm(facing) == pytest.approx(1.0, abs=1e-15)


def test_coverage_deck_count_matches_formula():
    cfg = footprint(0.6, 0.4, 0.2)
    stops = plan_coverage(rect_surface(22.0, 10.0), cfg, WIDE_CAMERA, NO_OBSTACLES)
    # 46 columns (0.48 m steps along rows) x 25 rows (0.4 m spacing).
    assert len(stops) == 1150
    assert 1123 <= len(stops) <= 1169


def test_coverage_footprints_cover_polygon_monte_carlo(rng):
    surface = rect_surface(3.3, 2.1)
    cfg = footprint(0.6, 0.4, 0.2)
    stops = plan_coverage(surface, cfg, WIDE_CAMERA, NO_OBSTACLES)
    w, h = cfg.footprint_width, cfg.footprint_height
    centers = stops.positions[:, :2]
    samples = rng.uniform([0.0, 0.0], [3.3, 2.1], size=(10_000, 2))
    for s in samples:
        inside = np.any(
            (np.abs(centers[:, 0] - s[0]) <= w / 2 + 1e-9)
            & (np.abs(centers[:, 1] - s[1]) <= h / 2 + 1e-9)
        )
        assert inside


def test_coverage_serpentine_adjacent_steps():
    cfg = footprint(0.6, 0.4, 0.2)
    stops = plan_coverage(rect_surface(4.0, 2.0), cfg, WIDE_CAMERA, NO_OBSTACLES)
    cells = stops.cells.tolist()
    rows = {}
    for row, col in cells:
        rows.setdefault(row, []).append(col)
    n_cols = len(rows[0])
    for (a_row, a_col), (b_row, b_col) in zip(cells, cells[1:]):
        if a_row == b_row:
            assert abs(a_col - b_col) == 1
        else:
            assert b_row == a_row + 1 and a_col == b_col
            assert a_col in (0, n_cols - 1)  # turns happen at row ends


def test_coverage_empty_surface():
    surface = rect_surface(2.0, 2.0)
    degenerate = PlanarSurface(surface.model, surface.inliers,
                               surface.boundary[:2], 0.0)
    cfg = footprint(0.6, 0.4, 0.2)
    with pytest.raises(EmptySurface):
        plan_coverage(degenerate, cfg, WIDE_CAMERA, NO_OBSTACLES)


def test_build_occupancy_empty_cloud():
    grid = build_occupancy(PointCloud.empty(), 0.5, 1.0)
    assert not grid.occupied.any()
    assert min(grid.dims) >= 1


def test_build_occupancy_single_point():
    grid = build_occupancy(PointCloud(np.array([[1.0, 2.0, 3.0]])), 0.5, 1.0)
    assert int(grid.occupied.sum()) == 1
    occupied_idx = tuple(np.argwhere(grid.occupied)[0])
    assert occupied_idx == tuple(grid.world_to_indices([1.0, 2.0, 3.0]).tolist())


def test_build_occupancy_plane_slab_count(rng):
    pts = np.zeros((2000, 3))
    pts[:, 0] = rng.uniform(0, 4, 2000)
    pts[:, 1] = rng.uniform(0, 4, 2000)
    grid = build_occupancy(PointCloud(pts), 0.5, 1.0)
    # All occupied voxels share one z-layer.
    layers = np.unique(np.argwhere(grid.occupied)[:, 2])
    assert len(layers) == 1
    expected = {
        tuple(np.floor((p - grid.origin) / 0.5).astype(int)) for p in pts
    }
    assert int(grid.occupied.sum()) == len(expected)


def test_build_occupancy_spans_the_cloud_and_its_inflation():
    # 0.6 m of inflation in 0.25 m voxels reaches 2 voxels; one free voxel
    # more on each side makes 3. The inflated grid's outer layer is free.
    cloud = PointCloud(np.array([[0.1, 0.2, 0.3], [1.9, 0.2, 0.3]]))
    grid = build_occupancy(cloud, 0.25, 0.6)
    assert grid.dims == (8 + 6, 1 + 6, 1 + 6)
    assert np.array_equal(grid.world_to_indices(cloud.points), [[3, 3, 3], [10, 3, 3]])
    occupied = inflate(grid, 0.6).occupied
    assert occupied[1:-1, 1:-1, 1:-1].any()
    for axis in range(3):
        assert not np.take(occupied, [0, -1], axis=axis).any()


def test_build_occupancy_refuses_a_grid_over_the_voxel_limit(monkeypatch):
    # Two points 1.75 m apart with 0.25 m voxels and no inflation: 8 x 1 x 1
    # voxels, and one free voxel on each side.
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.75, 0.0, 0.0]]))
    monkeypatch.setattr(planning, "MAX_GRID_VOXELS", 90)
    assert build_occupancy(cloud, 0.25, 0.0).dims == (10, 3, 3)
    monkeypatch.setattr(planning, "MAX_GRID_VOXELS", 89)
    with pytest.raises(GridTooLarge, match=re.escape("shape (10, 3, 3)")):
        build_occupancy(cloud, 0.25, 0.0)


def test_inflate_zero_radius_identity(rng):
    occ = rng.random((6, 6, 6)) < 0.3
    grid = OccupancyGrid(np.zeros(3), 0.5, occ)
    out = inflate(grid, 0.0)
    assert np.array_equal(out.occupied, occ)


def test_inflate_single_voxel_ball():
    occ = np.zeros((11, 11, 11), dtype=bool)
    occ[5, 5, 5] = True
    grid = OccupancyGrid(np.zeros(3), 1.0, occ)
    out = inflate(grid, 2.0)
    # Brute-force sphere test over every voxel pair.
    expected = np.zeros_like(occ)
    for idx in np.ndindex(occ.shape):
        d = np.linalg.norm((np.array(idx) - np.array([5, 5, 5])) * 1.0)
        if d <= 2.0:
            expected[idx] = True
    assert np.array_equal(out.occupied, expected)


def _brute_force_inflate(occ, edge, radius):
    occupied_idx = np.argwhere(occ)
    expected = np.zeros_like(occ)
    for idx in np.ndindex(occ.shape):
        for o in occupied_idx:
            if np.linalg.norm((np.array(idx) - o) * edge) <= radius:
                expected[idx] = True
                break
    return expected


def test_inflate_brute_force_random(rng):
    occ = rng.random((8, 8, 8)) < 0.1
    grid = OccupancyGrid(np.zeros(3), 0.5, occ)
    radius = 0.8
    out = inflate(grid, radius)
    assert np.array_equal(out.occupied, _brute_force_inflate(occ, 0.5, radius))


def test_inflate_brute_force_grid_thinner_than_the_ball(rng):
    # The ball reaches 3 voxels, past both ends of the 2-voxel axis.
    occ = rng.random((2, 5, 9)) < 0.15
    occ[1, 2, 4] = True
    out = inflate(OccupancyGrid(np.zeros(3), 0.5, occ), 1.6)
    assert np.array_equal(out.occupied, _brute_force_inflate(occ, 0.5, 1.6))


def test_inflate_all_occupied_unchanged():
    occ = np.ones((4, 4, 4), dtype=bool)
    grid = OccupancyGrid(np.zeros(3), 0.5, occ)
    assert inflate(grid, 1.0).occupied.all()


def test_inflate_monotone(rng):
    occ = rng.random((8, 8, 8)) < 0.15
    grid = OccupancyGrid(np.zeros(3), 0.5, occ)
    small = inflate(grid, 0.5)
    large = inflate(grid, 1.0)
    assert np.all(small.occupied >= occ)
    assert np.all(large.occupied >= small.occupied)


def empty_grid(n=8, edge=1.0):
    return OccupancyGrid(np.zeros(3), edge, np.zeros((n, n, n), dtype=bool))


def test_astar_axis_path_cost():
    grid = empty_grid()
    path = astar(grid, (0, 0, 0), (5, 0, 0))
    assert path_cost(path) == pytest.approx(5.0)
    assert path == [(i, 0, 0) for i in range(6)]


def test_astar_step_costs():
    w = AStarWeights(1.0, 1.0, 1.0)
    assert w.step_cost(1, 0, 0) == 1.0
    assert w.step_cost(1, 1, 0) == 2.0
    assert w.step_cost(1, 1, 1) == 3.0


def test_astar_occupied_endpoints():
    grid = empty_grid()
    grid.occupied[0, 0, 0] = True
    with pytest.raises(StartOrGoalOccupied):
        astar(grid, (0, 0, 0), (5, 0, 0))
    with pytest.raises(StartOrGoalOccupied):
        astar(grid, (5, 0, 0), (0, 0, 0))


def test_astar_no_path():
    grid = empty_grid(6)
    grid.occupied[3, :, :] = True
    with pytest.raises(NoPath):
        astar(grid, (0, 0, 0), (5, 0, 0))


def test_astar_matches_dijkstra_random_grids(rng):
    weights = AStarWeights(1.0, 2.0, 1.5)
    for _ in range(15):
        occ = rng.random((12, 12, 12)) < 0.2
        free = np.argwhere(~occ)
        start = tuple(free[rng.integers(len(free))])
        goal = tuple(free[rng.integers(len(free))])
        grid = OccupancyGrid(np.zeros(3), 1.0, occ)
        oracle = dijkstra_grid(occ, start, goal, (1.0, 2.0, 1.5))
        try:
            path = astar(grid, start, goal, weights)
        except NoPath:
            assert oracle is None
            continue
        assert oracle is not None
        assert path_cost(path, weights) == pytest.approx(oracle)
        assert path[0] == start and path[-1] == goal
        # Path validity: free voxels, 26-connected steps.
        for v in path:
            assert not occ[v]
        for a, b in zip(path, path[1:]):
            assert max(abs(a[i] - b[i]) for i in range(3)) == 1


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 2.0, 1.5)],
                         ids=["uniform", "weighted"])
def test_astar_returns_the_tuple_keyed_path(rng, weights):
    # Uniform weights give many equal-cost paths, so any change in the order
    # ties pop in would show as a different path.
    for shape in [(7, 9, 5), (12, 4, 8), (1, 10, 10), (9, 1, 1)]:
        for _ in range(12):
            occ = rng.random(shape) < rng.uniform(0.0, 0.35)
            free = np.argwhere(~occ)
            if len(free) == 0:
                continue
            start = tuple(free[rng.integers(len(free))].tolist())
            goal = tuple(free[rng.integers(len(free))].tolist())
            want = tuple_key_astar(occ, start, goal, weights)
            grid = OccupancyGrid(np.zeros(3), 1.0, occ)
            if want is None:
                with pytest.raises(NoPath):
                    astar(grid, start, goal, AStarWeights(*weights))
            else:
                assert astar(grid, start, goal, AStarWeights(*weights)) == want


def test_astar_weight_scaling_invariance(rng):
    occ = rng.random((10, 10, 10)) < 0.2
    free = np.argwhere(~occ)
    start = tuple(free[0])
    goal = tuple(free[-1])
    grid = OccupancyGrid(np.zeros(3), 1.0, occ)
    try:
        base = astar(grid, start, goal, AStarWeights(1.0, 2.0, 3.0))
    except NoPath:
        pytest.skip("instance unsolvable")
    scaled = astar(grid, start, goal, AStarWeights(2.0, 4.0, 6.0))
    base_cost = path_cost(base, AStarWeights(1.0, 2.0, 3.0))
    scaled_cost = path_cost(scaled, AStarWeights(2.0, 4.0, 6.0))
    assert scaled_cost == pytest.approx(2.0 * base_cost)
    # The optimal path set is unchanged; with deterministic tie-breaks the
    # exact same path comes back.
    assert base == scaled


def test_astar_reads_the_grid_without_copying_it():
    # A copy of this 256^3 grid (tobytes) would allocate 16.8 MB per search.
    grid = empty_grid(256)
    tracemalloc.start()
    try:
        path = astar(grid, (100, 100, 100), (101, 100, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path == [(100, 100, 100), (101, 100, 100)]
    assert peak < 1_000_000


_COLLINEAR = PlanarSurface(PlaneModel(0.0, 0.0, 1.0, 0.0), [],
                           [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], 0.0)
_NO_STOPS = Stops(np.zeros((0, 3)), np.zeros((0, 2), dtype=int), np.array([0.0, 0, -1]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: OccupancyGrid(np.zeros(3), 0.0, np.zeros((2, 2, 2), dtype=bool)),
     ValueError, "voxel_edge must be > 0"),
    (lambda: OccupancyGrid(np.zeros(3), 1.0, np.zeros((2, 2), dtype=bool)),
     ValueError, "occupied grid must be a non-empty 3D array"),
    (lambda: astar(empty_grid(), (8, 0, 0), (0, 0, 0)),
     StartOrGoalOccupied, "start voxel (8, 0, 0) outside the grid"),
    (lambda: plan_coverage(_COLLINEAR, PlanningConfig(), CameraSpec(), NO_OBSTACLES),
     EmptySurface, "surface boundary has zero extent"),
    (lambda: generate_waypoints(_NO_STOPS, empty_grid()),
     ValueError, "need at least one stop point"),
], ids=["zero_voxel_edge", "two_dimensional_grid", "astar_start_outside",
        "collinear_boundary", "no_stops"])
def test_planning_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as err:
        call()
    assert err.type is error


# A voxel coordinate: a whole voxel plus 0, 1/8, 1/2 or 7/8 of one, so that
# many points lie on voxel faces, edges and corners, and every value is
# exact in binary floating point.
_EIGHTHS = st.tuples(st.integers(0, 7), st.sampled_from([0, 1, 4, 7])).map(
    lambda c: (8 * c[0] + c[1]) / 8)
_VOXEL_POINTS = st.lists(st.tuples(_EIGHTHS, _EIGHTHS, _EIGHTHS), min_size=2, max_size=4)


@settings(max_examples=300, deadline=None)
@given(at=_VOXEL_POINTS, origin=st.tuples(*[st.integers(-64, 64)] * 3),
       edge=st.sampled_from([0.25, 0.5, 1.0]))
@example(at=[(2.5, 2.5, 2.5)] * 2, origin=(0, 0, 0), edge=1.0)
@example(at=[(1.0, 0.5, 3.0), (6.0, 7.0, 3.0)], origin=(0, 0, 0), edge=1.0)
@example(at=[(0.5, 1.5, 0.5), (1.5, 0.5, 0.5)], origin=(0, 0, 0), edge=1.0)
@example(at=[(3.5, 2.5, 0.5), (0.5, 1.5, 0.5), (1.5, 0.5, 1.5)], origin=(-3, 5, 0),
         edge=0.25)
@example(at=[(7.125, 0.125, 4.125), (1.5, 7.0, 0.0)], origin=(0, 0, 0), edge=1.0)
@example(at=[(0.125, 3.0, 0.125), (6.0, 1.0, 6.0)], origin=(0, 0, 0), edge=1.0)
def test_segment_voxels_are_the_voxels_of_every_point_of_each_leg(at, origin, edge):
    # Examples: a leg of zero length; one along a voxel face (z = 3); one
    # through the corner (1, 1), where floor takes voxel (1, 1) though the
    # leg runs from (0, 1) to (1, 0); two legs whose crossings of x and y
    # meet at one point; and two legs that cross two planes at once at a
    # time that rounds, so that a crossed axis computed from that time
    # falls short of its plane.
    grid = OccupancyGrid(np.array(origin) / 8, edge, np.zeros((8, 8, 8), dtype=bool))
    at = np.array(at)
    points = grid.origin + at * edge
    leg, voxels = segment_voxels(grid, points)
    for i, (a, b) in enumerate(zip(at, at[1:])):
        got = {tuple(v) for v in voxels[leg == i].tolist()}
        assert sampled_segment_voxels(grid, points[i], points[i + 1], 1025) <= got
        for v in got:
            assert segment_meets_box(a, b, np.array(v) - 1e-9, np.array(v) + 1 + 1e-9)
        assert got == exact_segment_voxels(a, b)
    assert set(leg.tolist()) == set(range(len(at) - 1))


def test_segment_voxels_of_random_segments_hold_every_sample(rng):
    # Ends anywhere, on a grid whose origin and edge are not binary fractions.
    grid = OccupancyGrid(np.array([-1.3, 0.7, 2.1]), 0.3, np.zeros((12, 12, 12), dtype=bool))
    points = grid.origin + rng.uniform(0.0, 12 * 0.3, size=(200, 3))
    leg, voxels = segment_voxels(grid, points)
    at = (points - grid.origin) / grid.voxel_edge
    for i in range(len(points) - 1):
        got = {tuple(v) for v in voxels[leg == i].tolist()}
        assert sampled_segment_voxels(grid, points[i], points[i + 1], 2001) <= got
        for v in got:
            assert segment_meets_box(at[i], at[i + 1], np.array(v) - 1e-9,
                                     np.array(v) + 1 + 1e-9)


def test_a_leg_that_rounds_past_the_grid_reads_free_there():
    # Where the leg crosses y = 5, at its end, start + 1.0 * span rounds x
    # up to 8.0, the grid's high face, though the leg ends an ulp short of
    # it. That voxel lies outside the grid, where every voxel is free.
    grid = OccupancyGrid(np.zeros(3), 1.0, np.zeros((8, 8, 8), dtype=bool))
    points = np.array([[3.651022309110887, 2.5, 1.0], [np.nextafter(8.0, 0), 5.0, 1.0]])
    _, voxels = segment_voxels(grid, points)
    assert voxels.max(axis=0).tolist() == [8, 5, 1]
    stops = Stops(points, np.zeros((2, 2), dtype=int), np.array([0.0, 0, -1]))
    assert generate_waypoints(stops, grid).waypoints is points


def test_generate_waypoints_obstacle_free_lattice(caplog):
    surface = rect_surface(2.0, 1.0, z=0.0)
    pts = np.zeros((600, 3))
    rng = np.random.default_rng(0)
    pts[:, 0] = rng.uniform(0, 2, 600)
    pts[:, 1] = rng.uniform(0, 1, 600)
    cloud = PointCloud(pts)
    grid = inflate(build_occupancy(cloud, 0.25, 0.6), 0.6)
    cfg = footprint(0.6, 0.4, 0.2)
    camera = CameraSpec(fov_h_deg=24.0, fov_v_deg=20.0)
    stops = plan_coverage(surface, cfg, camera, grid=grid)
    caplog.set_level(logging.INFO, logger="scanplan.planning")
    plan = generate_waypoints(stops, grid)
    # Every leg is free, so the vehicle flies straight from stop to stop.
    assert plan.waypoints is stops.positions
    assert caplog.messages == [f"waypoints: {len(stops) - 1} legs, 0 blocked"]


def test_generate_waypoints_routes_through_gap():
    # A wall between the two stops, with one gap off the straight line.
    occ = np.zeros((11, 11, 5), dtype=bool)
    occ[5, :, :] = True
    occ[5, 8, 2] = False
    grid = OccupancyGrid(np.zeros(3), 1.0, occ)
    stops = Stops(np.array([[2.5, 5.5, 2.5], [8.3, 5.1, 2.7]]),
                  np.zeros((2, 2), dtype=int), np.array([0.0, 0, -1]))
    plan = generate_waypoints(stops, grid)
    path = astar(grid, (2, 5, 2), (8, 5, 2))
    assert (5, 8, 2) in path
    assert path_cost(path) == pytest.approx(dijkstra_grid(occ, (2, 5, 2), (8, 5, 2)))
    # The first stop is its voxel's centre, which is not repeated; the
    # second is not, so the leg flies to its voxel's centre and on to it.
    assert np.array_equal(plan.waypoints, np.concatenate(
        [grid.index_to_center(path), stops.positions[1:]]))


def test_generate_waypoints_detours_between_stops_outside_the_grid():
    # A 2 x 2 m wall in the plane x = 0, and a stop 3 m in front of it and
    # one 3 m behind it: both outside the grid. The straight leg crosses the
    # wall, so the leg is searched, and its detour keeps out of the wall's
    # inflation.
    yz = np.stack(np.meshgrid(np.linspace(-1, 1, 41), np.linspace(-1, 1, 41)), -1)
    wall = np.concatenate([np.zeros((41 * 41, 1)), yz.reshape(-1, 2)], axis=1)
    grid = inflate(build_occupancy(PointCloud(wall), 0.25, 0.6), 0.6)
    positions = np.array([[-3.0, 0.1, 0.1], [3.0, 0.1, 0.1]])
    indices = grid.world_to_indices(positions)
    assert not any(grid.in_bounds(v) for v in indices)
    plan = generate_waypoints(Stops(positions, np.zeros((2, 2), dtype=int),
                                    np.array([0.0, 0, -1])), grid)
    detour = plan.waypoints[1:-1]
    assert len(detour) > 0
    assert np.array_equal(plan.waypoints[[0, -1]], positions)
    assert not grid.occupied_at(grid.world_to_indices(detour)).any()
    # The detour's centres are those of the grid's own voxels.
    voxels = grid.world_to_indices(detour)
    assert np.array_equal(grid.index_to_center(voxels), detour)


def test_generate_waypoints_with_stops_outside_the_grid_equals_one_search_per_leg(rng):
    # Stops in and around a small grid: a voxel outside the grid is free, and
    # a blocked leg is searched in the grid padded until it holds every stop.
    outcomes = set()
    for _ in range(200):
        dims = rng.integers(3, 9, 3)
        occ = rng.random(tuple(dims)) < rng.choice([0.05, 0.2, 0.4])
        # Not binary fractions: a centre taken from a padded grid's origin
        # would differ in its last bits.
        grid = OccupancyGrid(np.array([-1.3, 0.7, 2.1]), 0.3, occ)
        voxels = rng.integers(-3, dims + 3, (int(rng.integers(2, 6)), 3))
        if rng.random() < 0.2:
            # Wall the first stop in, at the grid's centre: its leg has no path.
            voxels[0] = dims // 2
            occ[tuple(slice(c - 1, c + 2) for c in voxels[0])] = True
            occ[tuple(voxels[0])] = False
        stops = _stops_at(grid, voxels, rng.choice([0.0, 0.25, 0.5, 0.875], (len(voxels), 3)))
        got = _plan_or_error(lambda *a: generate_waypoints(*a).waypoints, stops, grid,
                             AStarWeights())
        assert got == _plan_or_error(straight_or_astar_waypoints, stops, grid, AStarWeights())
        if isinstance(got, tuple):
            outcomes.add(got[0])
        else:
            outcomes.add("detour" if len(got) > stops.positions.nbytes else "straight")
    assert outcomes == {"straight", "detour", "StopPointBlocked", "NoPath"}


def test_generate_waypoints_blocked_stop():
    occ = np.zeros((5, 5, 5), dtype=bool)
    occ[2, 2, 2] = True
    grid = OccupancyGrid(np.zeros(3), 1.0, occ)
    with pytest.raises(StopPointBlocked):
        generate_waypoints(_stops_at(grid, [(2, 2, 2)]), grid)


def test_generate_waypoints_names_the_first_bad_stop():
    occ = np.zeros((5, 5, 5), dtype=bool)
    occ[2, 2, 2] = occ[3, 3, 3] = True
    grid = OccupancyGrid(np.zeros(3), 1.0, occ)
    free, outside, blocked, also_blocked = (0, 0, 0), (0, 0, 7), (2, 2, 2), (3, 3, 3)
    with pytest.raises(StopPointBlocked,
                       match=r"^stop 1: stop voxel \(2, 2, 2\) is occupied after inflation$"):
        generate_waypoints(_stops_at(grid, [free, blocked, outside, also_blocked]), grid)
    # A stop outside the grid stands in free space.
    with pytest.raises(StopPointBlocked,
                       match=r"^stop 3: stop voxel \(2, 2, 2\) is occupied after inflation$"):
        generate_waypoints(_stops_at(grid, [free, free, outside, blocked]), grid)


def _stops_at(grid, indices, within=0.5):
    """Stops in the voxels ``indices``, in that order, at ``within`` of a
    voxel edge from each one's low corner on every axis (0.5: its centre)."""
    indices = np.asarray(indices).reshape(-1, 3)
    positions = grid.origin + (indices + within) * grid.voxel_edge
    return Stops(positions, np.zeros((len(positions), 2), dtype=int),
                 np.array([0.0, 0, -1]))


def _plan_or_error(plan_fn, stops, grid, weights):
    """The waypoint bytes, or (error class, message)."""
    try:
        waypoints = plan_fn(stops, grid, weights)
    except (StopPointBlocked, NoPath) as err:
        return type(err).__name__, str(err)
    return np.asarray(waypoints).tobytes()


def _lattice_voxels(rng, dims):
    """A serpentine lattice of voxels, as coverage stops come: a few rows
    that repeat one step along and one step across, clipped to the grid."""
    along = rng.integers(-2, 3, 3) * (rng.random(3) < 0.5)
    across = rng.integers(-2, 3, 3) * (rng.random(3) < 0.5)
    first = rng.integers(dims // 4, dims - dims // 4)
    rows = []
    for r in range(rng.integers(1, 5)):
        row = [first + r * across + c * along for c in range(rng.integers(2, 12))]
        rows.extend(row if r % 2 == 0 else row[::-1])
    return np.clip(rows, 0, dims - 1)


@pytest.mark.parametrize(
    "weights", [(1.0, 1.0, 1.0), (1.0, 2.0, 1.5), (0.3, 2.7, 1.1)],
    ids=["uniform", "weighted", "fractional"])
def test_generate_waypoints_equals_one_search_per_leg(rng, caplog, weights):
    # Obstacles sit on or beside some legs, on grid faces and scattered;
    # some stops are blocked or walled in. Stops lie at their voxels'
    # centres, on voxel faces or in between. The waypoints and errors must
    # be those of the leg-by-leg chain: straight where the exact traversal
    # finds the leg free, else through the leg's A* path.
    caplog.set_level(logging.INFO, logger="scanplan.planning")
    weights = AStarWeights(*weights)
    outcomes = set()
    for _ in range(150):
        dims = rng.integers(6, 25, 3)
        voxels = _lattice_voxels(rng, dims)
        occ = rng.random(tuple(dims)) < rng.choice([0.0, 0.001, 0.01])
        for i, (a, b) in enumerate(zip(voxels, voxels[1:])):
            draw = rng.random()
            if draw < 0.04 or (i == 0 and draw < 0.25):
                occ[tuple((a + b) // 2)] = True
            elif draw < 0.08:
                lo, hi = np.minimum(a, b) - 1, np.maximum(a, b) + 1
                occ[tuple(np.clip(rng.integers(lo, hi + 1), 0, dims - 1))] = True
        if rng.random() < 0.2:
            np.moveaxis(occ, rng.integers(3), 0)[rng.choice([0, -1])] = True
        if rng.random() < 0.9:
            occ[tuple(voxels.T)] = False
        if rng.random() < 0.1:
            # Wall one stop in: the legs to and from it have no path.
            v = voxels[rng.integers(len(voxels))]
            occ[tuple(slice(max(0, c - 1), c + 2) for c in v)] = True
            occ[tuple(v)] = False
        grid = OccupancyGrid(np.array([-2.0, 0.5, 3.0]), 0.25, occ)
        stops = _stops_at(grid, voxels, rng.choice([0.0, 0.25, 0.5, 0.875], (len(voxels), 3)))
        got = _plan_or_error(lambda *a: generate_waypoints(*a).waypoints, stops, grid, weights)
        assert got == _plan_or_error(straight_or_astar_waypoints, stops, grid, weights)
        outcomes.add(got[0] if isinstance(got, tuple) else "ok")
    assert outcomes == {"ok", "StopPointBlocked", "NoPath"}
    counts = [re.fullmatch(r"waypoints: (\d+) legs, (\d+) blocked", m).groups()
              for m in caplog.messages]
    legs, blocked = (sum(int(c[k]) for c in counts) for k in (0, 1))
    assert blocked > 30 and legs - blocked > 1000
