import logging
import math
import re

import numpy as np
import pytest

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
    Stops,
    standoff_distance,
)
from scanplan.segmentation import PlanarSurface, PlaneModel

from oracles import (
    chained_astar_waypoints,
    dijkstra_grid,
    path_cost,
    search_box_bound,
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
    stops = plan_coverage(rect_surface(0.4, 0.3), cfg, WIDE_CAMERA)
    assert len(stops) == 1


def test_coverage_exact_tiling_serpentine():
    cfg = footprint(0.5, 0.5, 0.0)
    square_camera = CameraSpec(fov_h_deg=60.0, fov_v_deg=60.0)
    stops = plan_coverage(rect_surface(1.0, 1.0), cfg, square_camera)
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
    stops = plan_coverage(tilted, footprint(0.6, 0.4, 0.2), WIDE_CAMERA)
    facing = stops.facing
    assert len(stops) > 1 and facing.shape == (3,)
    assert not facing.flags.writeable
    assert np.allclose(facing, [0.0, -0.6, -0.8])
    assert np.linalg.norm(facing) == pytest.approx(1.0, abs=1e-15)


def test_coverage_deck_count_matches_formula():
    cfg = footprint(0.6, 0.4, 0.2)
    stops = plan_coverage(rect_surface(22.0, 10.0), cfg, WIDE_CAMERA)
    # 46 columns (0.48 m steps along rows) x 25 rows (0.4 m spacing).
    assert len(stops) == 1150
    assert 1123 <= len(stops) <= 1169


def test_coverage_footprints_cover_polygon_monte_carlo(rng):
    surface = rect_surface(3.3, 2.1)
    cfg = footprint(0.6, 0.4, 0.2)
    stops = plan_coverage(surface, cfg, WIDE_CAMERA)
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
    stops = plan_coverage(rect_surface(4.0, 2.0), cfg, WIDE_CAMERA)
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
        plan_coverage(degenerate, cfg, WIDE_CAMERA)


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


def test_build_occupancy_refuses_a_grid_over_the_voxel_limit(monkeypatch):
    # Two points 1.75 m apart with 0.25 m voxels and no margin: 8 x 1 x 1.
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.75, 0.0, 0.0]]))
    monkeypatch.setattr(planning, "MAX_GRID_VOXELS", 8)
    assert build_occupancy(cloud, 0.25, 0.0).dims == (8, 1, 1)
    monkeypatch.setattr(planning, "MAX_GRID_VOXELS", 7)
    with pytest.raises(GridTooLarge, match=re.escape("shape (8, 1, 1)")):
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


@pytest.mark.parametrize("weights", [(1.0, 2.0, 1.5), (0.3, 0.7, 1.1)])
def test_astar_cost_is_the_path_cost_bit_for_bit(rng, weights):
    # The search's g-score at the goal adds the same step costs in the same
    # order as the oracle, so the sums agree to the last bit.
    weights = AStarWeights(*weights)
    checked = 0
    for _ in range(20):
        occ = rng.random((10, 10, 10)) < 0.25
        free = np.argwhere(~occ)
        start, goal = (tuple(free[i].tolist()) for i in rng.integers(len(free), size=2))
        try:
            path = astar(OccupancyGrid(np.zeros(3), 1.0, occ), start, goal, weights)
        except NoPath:
            continue
        assert path.cost.hex() == path_cost(path, weights).hex()
        checked += 1
    assert checked >= 10


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


def test_generate_waypoints_obstacle_free_lattice():
    surface = rect_surface(2.0, 1.0, z=0.0)
    pts = np.zeros((600, 3))
    rng = np.random.default_rng(0)
    pts[:, 0] = rng.uniform(0, 2, 600)
    pts[:, 1] = rng.uniform(0, 1, 600)
    cloud = PointCloud(pts)
    grid = inflate(build_occupancy(cloud, 0.25, 2.5), 0.6)
    cfg = footprint(0.6, 0.4, 0.2)
    camera = CameraSpec(fov_h_deg=24.0, fov_v_deg=20.0)
    stops = plan_coverage(surface, cfg, camera, grid=grid)
    plan = generate_waypoints(stops, grid)
    assert len(plan.leg_costs) == len(stops) - 1
    # Every waypoint voxel is free; consecutive waypoints are neighbors.
    idx = grid.world_to_indices(np.asarray(plan.waypoints))
    assert not grid.occupied[tuple(idx.T)].any()
    assert np.abs(np.diff(idx, axis=0)).max() <= 1


def test_generate_waypoints_routes_through_gap():
    # A wall with one gap between the two stops.
    occ = np.zeros((11, 11, 5), dtype=bool)
    occ[5, :, :] = True
    occ[5, 5, 2] = False
    grid = OccupancyGrid(np.zeros(3), 1.0, occ)
    plan = generate_waypoints(_stops_at(grid, [(2, 5, 2), (8, 5, 2)]), grid)
    oracle = dijkstra_grid(occ, (2, 5, 2), (8, 5, 2))
    assert plan.leg_costs[0] == pytest.approx(oracle)
    chain = grid.world_to_indices(np.asarray(plan.waypoints)).tolist()
    assert [5, 5, 2] in chain


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
    with pytest.raises(StopPointBlocked,
                       match=r"^stop 2: stop position \[0.5 0.5 7.5\] is outside the grid$"):
        generate_waypoints(_stops_at(grid, [free, free, outside, blocked]), grid)


def _stops_at(grid, indices):
    """Stops at the centers of the voxels ``indices``, in that order."""
    positions = grid.index_to_center(np.asarray(indices).reshape(-1, 3))
    return Stops(positions, np.zeros((len(positions), 2), dtype=int),
                 np.array([0.0, 0, -1]))


LEG_WEIGHTS = pytest.mark.parametrize(
    "weights", [(1.0, 1.0, 1.0), (1.0, 2.0, 1.5), (0.3, 2.7, 1.1)],
    ids=["uniform", "weighted", "fractional"])


def _plan_or_error(plan_fn, stops, grid, weights):
    """(waypoint bytes, leg costs), or (error class, message)."""
    try:
        waypoints, leg_costs = plan_fn(stops, grid, weights)
    except (StopPointBlocked, NoPath) as err:
        return type(err).__name__, str(err)
    return np.asarray(waypoints).tobytes(), leg_costs


def _waypoints_and_costs(stops, grid, weights):
    plan = generate_waypoints(stops, grid, weights)
    return plan.waypoints, plan.leg_costs


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


@LEG_WEIGHTS
def test_generate_waypoints_equals_one_search_per_leg(rng, caplog, weights):
    # Legs repeat displacements. Obstacles sit inside or beside the spans of
    # some legs, on grid faces and scattered; some stops are blocked or
    # walled in. Reusing searched legs must give the bytes, costs and errors
    # of searching every leg.
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
        stops = _stops_at(grid, voxels)
        got = _plan_or_error(_waypoints_and_costs, stops, grid, weights)
        assert got == _plan_or_error(chained_astar_waypoints, stops, grid, weights)
        outcomes.add(got[0] if isinstance(got[0], str) else "ok")
    assert outcomes == {"ok", "StopPointBlocked", "NoPath"}
    reused = sum(int(re.search(r"(\d+) reused$", m).group(1)) for m in caplog.messages)
    assert reused > 100


def _random_leg(rng, dims, density):
    """A grid with obstacles at ``density`` and a leg of up to four voxels
    per axis between two free voxels of it; one leg in ten stays put."""
    occ = rng.random(tuple(dims)) < density
    start = rng.integers(0, dims)
    reach = rng.integers(-4, 5, 3) if rng.random() < 0.9 else 0
    goal = np.clip(start + reach, 0, dims - 1)
    occ[tuple(start)] = occ[tuple(goal)] = False
    return occ, tuple(start.tolist()), tuple(goal.tolist())


@LEG_WEIGHTS
def test_astar_reads_nothing_outside_the_search_box(rng, weights):
    # Occupying every voxel outside the box a search returns leaves its path,
    # cost and box unchanged: the search read nothing there.
    weights = AStarWeights(*weights)
    walled_legs = 0
    for trial in range(60):
        occ, start, goal = _random_leg(rng, rng.integers(4, 14, 3),
                                       0.0 if trial % 2 else 0.1)
        grid = OccupancyGrid(np.zeros(3), 1.0, occ)
        try:
            leg = astar(grid, start, goal, weights)
        except NoPath:
            continue
        walled = np.ones_like(occ)
        inner = tuple(slice(max(lo, 0), hi) for lo, hi in leg.box)
        walled[inner] = occ[inner]
        walled_legs += int(walled.sum() > occ.sum())
        again = astar(OccupancyGrid(np.zeros(3), 1.0, walled), start, goal, weights)
        assert again == leg
        assert (again.cost, again.box) == (leg.cost, leg.box)
    assert walled_legs > 30


@LEG_WEIGHTS
def test_astar_reads_no_more_than_the_cost_bound(rng, weights):
    # The box a search read lies inside the box that bounds it by the leg's
    # cost alone (tests/oracles.py), so reusing legs by the read box never
    # searches a leg that the cost bound would have reused.
    weights = AStarWeights(*weights)
    a_min = min(weights.a1, weights.a2, weights.a3)
    tighter = 0
    for trial in range(200):
        occ, start, goal = _random_leg(rng, rng.integers(4, 14, 3),
                                       0.0 if trial % 2 else 0.1)
        try:
            leg = astar(OccupancyGrid(np.zeros(3), 1.0, occ), start, goal, weights)
        except NoPath:
            continue
        shift = tuple(g - s for g, s in zip(goal, start))
        bound = search_box_bound(shift, leg.cost, a_min)
        read = [(lo - s, hi - s) for (lo, hi), s in zip(leg.box, start)]
        for (lo, hi), (bound_lo, bound_hi) in zip(read, bound):
            assert bound_lo <= lo <= 0 <= hi - 1 < bound_hi
        tighter += read != bound
    assert tighter > 150


def test_generate_waypoints_searches_a_seen_leg_with_an_obstacle_in_its_box(
        monkeypatch, caplog):
    # One row of (2, 0, 0) legs. A free unit-cost leg expands its start and
    # the voxel after it, so its read box spans x = start - 1 .. start + 2
    # and one voxel either side of the row in y and z. Obstacle (5, 6, 6) is
    # on leg 0's path and in leg 1's box; (13, 6, 6) is on the path of the
    # leg from x = 12 and in the box of the leg from x = 14. Those legs are
    # searched. (21, 8, 6) is two voxels off the row, outside every box.
    # Neither leg 0's box nor leg 1's is free, so the free legs reuse the
    # leg from x = 8.
    occ = np.zeros((40, 13, 13), dtype=bool)
    occ[5, 6, 6] = occ[13, 6, 6] = occ[21, 8, 6] = True
    grid = OccupancyGrid(np.zeros(3), 1.0, occ)
    stops = _stops_at(grid, [(x, 6, 6) for x in range(4, 36, 2)])
    searched_from = []

    def recording_astar(grid, start, goal, weights):
        searched_from.append(start[0])
        return astar(grid, start, goal, weights)

    monkeypatch.setattr(planning, "astar", recording_astar)
    caplog.set_level(logging.INFO, logger="scanplan.planning")
    got = _plan_or_error(_waypoints_and_costs, stops, grid, AStarWeights())
    assert got == _plan_or_error(chained_astar_waypoints, stops, grid, AStarWeights())
    assert searched_from == [4, 6, 8, 12, 14]
    assert got[1] == [4.0] + [2.0] * 3 + [4.0] + [2.0] * 10
    assert caplog.messages == ["waypoints: 15 legs, 5 searched, 10 reused"]
