"""Coverage stop-point generation and collision-free waypoint search.

A surface is photographed from a lattice of standoff positions ordered in a
serpentine sweep; consecutive stops are joined by A* paths over an
inflated occupancy grid with per-axis weighted step costs.

A surface's stops are one :class:`Stops` record of arrays in sweep order,
with one facing for them all; ``len()`` of the record is the stop count.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySurface,
    GridTooLarge,
    NoPath,
    StartOrGoalOccupied,
    StopPointBlocked,
    UnreachableStandoff,
)
from .geometry import PointCloud
from .polygons import rects_intersect_polygon
from .segmentation import PlanarSurface, plane_basis

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CameraSpec:
    """Imaging capability: fields of view in degrees, farthest usable standoff."""

    fov_h_deg: float = 24.0
    fov_v_deg: float = 20.0
    max_standoff: float = 10.0

    def __post_init__(self):
        if not (0 < self.fov_h_deg < 180 and 0 < self.fov_v_deg < 180):
            raise ValueError("fields of view must be in (0, 180) degrees")


@dataclass(frozen=True)
class PlanningConfig:
    """Occupancy grid and photo lattice of the plan stage.

    Each photo covers ``footprint_width`` x ``footprint_height`` of the
    surface (the width fixes the standoff); photos along a row share
    ``overlap`` of the width, and rows abut."""

    voxel_edge: float = 0.25
    bounds_margin: float = 2.0
    inflate_radius: float = 0.6
    footprint_width: float = 0.6
    footprint_height: float = 0.4
    overlap: float = 0.2

    def __post_init__(self):
        if not self.voxel_edge > 0:
            raise ValueError("voxel_edge must be > 0")
        if self.bounds_margin < 0:
            raise ValueError("bounds_margin must be >= 0")
        if self.inflate_radius < 0:
            raise ValueError("inflate_radius must be >= 0")
        if not (self.footprint_width > 0 and self.footprint_height > 0):
            raise ValueError("footprint dimensions must be > 0")
        if not (0.0 <= self.overlap < 1.0):
            raise ValueError("overlap must be in [0, 1)")


@dataclass(frozen=True)
class Stops:
    """Camera stops in sweep order: ``positions`` (N, 3), lattice ``cells``
    (N, 2) of (row, col), and the unit ``facing`` (3,) of every stop, used
    as given: it is not normalised again."""

    positions: np.ndarray
    cells: np.ndarray
    facing: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class AStarWeights:
    """Per-axis squared-step cost coefficients; all must stay positive."""

    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.0

    def __post_init__(self):
        if not (self.a1 > 0 and self.a2 > 0 and self.a3 > 0):
            raise ValueError("A* weights must be > 0")

    def step_cost(self, dx: int, dy: int, dz: int) -> float:
        return self.a1 * dx * dx + self.a2 * dy * dy + self.a3 * dz * dz


@dataclass
class OccupancyGrid:
    """Uniform voxel grid with an occupied flag per cell.

    World-to-index mapping is exact floor arithmetic against ``origin``.
    """

    origin: np.ndarray
    voxel_edge: float
    occupied: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        if not self.voxel_edge > 0:
            raise ValueError("voxel_edge must be > 0")
        self.occupied = np.asarray(self.occupied, dtype=bool)
        if self.occupied.ndim != 3 or min(self.occupied.shape) < 1:
            raise ValueError("occupied grid must be a non-empty 3D array")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occupied.shape

    def world_to_indices(self, points: np.ndarray) -> np.ndarray:
        """Integer voxel indices of ``(..., 3)`` world points."""
        return np.floor(
            (np.asarray(points, dtype=float) - self.origin) / self.voxel_edge
        ).astype(int)

    def index_to_center(self, index) -> np.ndarray:
        """World centers of ``(..., 3)`` voxel indices."""
        return self.origin + (np.asarray(index, dtype=float) + 0.5) * self.voxel_edge

    def in_bounds(self, index) -> bool:
        return all(0 <= index[i] < self.occupied.shape[i] for i in range(3))


# The most voxels an occupancy grid may have: 64 MiB per boolean copy, of
# which the plan stage holds a few. Deck's grid has 99,008 (104 x 56 x 17).
MAX_GRID_VOXELS = 2**26


def build_occupancy(
    cloud: PointCloud, voxel_edge: float, bounds_margin: float
) -> OccupancyGrid:
    """Grid over the cloud's bounding box plus margin; a voxel is occupied
    iff it contains at least one point. An empty cloud yields an all-free
    grid spanning the margin around the origin.

    Raises:
        GridTooLarge: over ``MAX_GRID_VOXELS`` voxels, before any is allocated.
    """
    if len(cloud) == 0:
        lo = np.zeros(3) - bounds_margin
        extent = np.full(3, 2.0 * bounds_margin)
    else:
        lo, hi = cloud.bounds()
        lo = lo - bounds_margin
        extent = (hi + bounds_margin) - lo
    shape = np.maximum(np.floor(extent / voxel_edge) + 1, 1)
    if np.prod(shape) > MAX_GRID_VOXELS:
        raise GridTooLarge(
            f"occupancy grid of shape ({', '.join(f'{n:.0f}' for n in shape)}) "
            f"has more than {MAX_GRID_VOXELS:,} voxels")
    grid = OccupancyGrid(lo, voxel_edge, np.zeros(tuple(shape.astype(int)), dtype=bool))
    if len(cloud) > 0:
        grid.occupied[tuple(grid.world_to_indices(cloud.points).T)] = True
    return grid


def inflate(grid: OccupancyGrid, radius: float) -> OccupancyGrid:
    """Mark every voxel whose center lies within ``radius`` of an occupied
    voxel center as occupied (so the vehicle can be planned as a point).

    The dilation ORs the grid shifted by each voxel offset of the ball, with
    cells beyond the grid counting as free."""
    occupied = grid.occupied
    reach = int(math.floor(radius / grid.voxel_edge))
    rng = np.arange(-reach, reach + 1)
    dx, dy, dz = np.meshgrid(rng, rng, rng, indexing="ij")
    ball = (dx**2 + dy**2 + dz**2) * grid.voxel_edge**2 <= radius**2
    dilated = np.zeros_like(occupied)
    dims = occupied.shape
    for offset in (np.argwhere(ball) - reach).tolist():
        # dilated[v] |= occupied[v + offset] wherever both voxels are in the grid.
        dst = tuple(slice(max(0, -d), max(0, n - d)) for d, n in zip(offset, dims))
        src = tuple(slice(max(0, d), max(0, n + d)) for d, n in zip(offset, dims))
        dilated[dst] |= occupied[src]
    return OccupancyGrid(grid.origin.copy(), grid.voxel_edge, dilated)


_NEIGHBOR_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


class VoxelPath(list):
    """The voxels of a path, start to goal, its ``cost``: the sum of its
    step costs, added in path order, and the ``box`` its search read: per
    axis, the [lo, hi) index range of the voxels it expanded (the goal, when
    it is the start), grown by one voxel. The search reads the occupancy of
    the expanded voxels' neighbours and of the goal, all inside the box."""

    def __init__(self, voxels, cost: float, box: list[tuple[int, int]]):
        super().__init__(voxels)
        self.cost = cost
        self.box = box


def astar(
    grid: OccupancyGrid,
    start: tuple[int, int, int],
    goal: tuple[int, int, int],
    weights: AStarWeights = AStarWeights(),
) -> VoxelPath:
    """Cheapest 26-connected path between two free voxels, with its cost,
    the search's g-score at the goal, and the box of voxels the search read
    (see :class:`VoxelPath`).

    A step to offset (dx, dy, dz) costs a1*dx^2 + a2*dy^2 + a3*dz^2.
    The heuristic min(a) * Chebyshev distance never exceeds the remaining
    cost (every step closes each axis gap by at most one at cost >= min(a)),
    so returned paths are optimal. Ties pop in lexicographic voxel order:
    the search keys voxels by their row-major flat index (x*ny + y)*nz + z,
    which orders in-bounds voxels lexicographically.

    Raises:
        StartOrGoalOccupied, NoPath.
    """
    start = tuple(int(v) for v in start)
    goal = tuple(int(v) for v in goal)
    for label, v in (("start", start), ("goal", goal)):
        if not grid.in_bounds(v):
            raise StartOrGoalOccupied(f"{label} voxel {v} outside the grid")
        if grid.occupied[v]:
            raise StartOrGoalOccupied(f"{label} voxel {v} is occupied")

    a_min = min(weights.a1, weights.a2, weights.a3)
    nx, ny, nz = grid.dims
    nyz = ny * nz
    occupied = grid.occupied.tobytes()
    # (flat index offset, dx, dy, dz, step cost) of each of the 26 neighbours.
    steps = [((dx * ny + dy) * nz + dz, dx, dy, dz, weights.step_cost(dx, dy, dz))
             for dx, dy, dz in _NEIGHBOR_OFFSETS]
    gx, gy, gz = goal
    goal_key = (gx * ny + gy) * nz + gz
    sx, sy, sz = start
    start_key = (sx * ny + sy) * nz + sz
    g_score = {start_key: 0.0}
    came_from: dict = {}
    open_heap = [(a_min * max(abs(sx - gx), abs(sy - gy), abs(sz - gz)), start_key)]
    closed = set()

    while open_heap:
        _, current = heapq.heappop(open_heap)
        if current in closed:
            continue
        if current == goal_key:
            # The goal is a neighbour of an expanded voxel, unless it is the start.
            seen = [(k // nyz, k // nz % ny, k % nz) for k in closed or (current,)]
            box = [(min(axis) - 1, max(axis) + 2) for axis in zip(*seen)]
            path = [current]
            while current in came_from:
                current = came_from[current]
                path.append(current)
            return VoxelPath([(k // nyz, k // nz % ny, k % nz) for k in reversed(path)],
                             g_score[goal_key], box)
        closed.add(current)
        cx, rest = divmod(current, nyz)
        cy, cz = divmod(rest, nz)
        base = g_score[current]
        for step, dx, dy, dz, cost in steps:
            vx, vy, vz = cx + dx, cy + dy, cz + dz
            if not (0 <= vx < nx and 0 <= vy < ny and 0 <= vz < nz):
                continue
            neighbor = current + step
            if occupied[neighbor]:
                continue
            tentative = base + cost
            if tentative < g_score.get(neighbor, math.inf):
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                h = a_min * max(abs(vx - gx), abs(vy - gy), abs(vz - gz))
                heapq.heappush(open_heap, (tentative + h, neighbor))

    raise NoPath(f"no free path from {start} to {goal}")


def standoff_distance(cfg: PlanningConfig, camera: CameraSpec) -> float:
    """Camera-to-surface distance at which a photo spans ``cfg.footprint_width``.

    Pinhole relation on the horizontal axis; the vertical field of view must
    cover the footprint height at that distance.

    Raises:
        UnreachableStandoff: beyond ``camera.max_standoff``, or the vertical
            coverage falls short of the footprint height.
    """
    d = (cfg.footprint_width / 2.0) / math.tan(math.radians(camera.fov_h_deg) / 2.0)
    if d > camera.max_standoff:
        raise UnreachableStandoff(
            f"standoff {d:.2f} m exceeds camera max range {camera.max_standoff:.2f} m"
        )
    vertical_cover = 2.0 * d * math.tan(math.radians(camera.fov_v_deg) / 2.0)
    if vertical_cover + 1e-9 < cfg.footprint_height:
        raise UnreachableStandoff(
            f"vertical coverage {vertical_cover:.3f} m at standoff {d:.2f} m "
            f"cannot reach the {cfg.footprint_height:.3f} m footprint height"
        )
    return d


def _pick_side(
    surface: PlanarSurface, standoff: float, grid: OccupancyGrid | None
) -> float:
    """+1.0 to stand along the plane normal, -1.0 for the opposite side.

    With a grid, the side whose standoff slab holds fewer occupied voxel
    centers wins; ties (and no grid) go to the normal side.
    """
    if grid is None:
        return 1.0
    centers = grid.index_to_center(np.argwhere(grid.occupied))
    if len(centers) == 0:
        return 1.0
    sd = surface.model.signed_distance(centers)
    band = standoff + grid.voxel_edge
    pos = int(np.count_nonzero((sd > 0.25 * grid.voxel_edge) & (sd <= band)))
    neg = int(np.count_nonzero((sd < -0.25 * grid.voxel_edge) & (sd >= -band)))
    return 1.0 if pos <= neg else -1.0


def plan_coverage(
    surface: PlanarSurface,
    cfg: PlanningConfig,
    camera: CameraSpec,
    grid: OccupancyGrid | None = None,
) -> Stops:
    """Serpentine lattice of photo positions covering the surface boundary.

    Photo centers tile the boundary's bounding rectangle in the plane basis
    with step ``cfg.footprint_width * (1 - cfg.overlap)`` along rows and
    ``cfg.footprint_height`` across rows; cells whose footprint misses the
    boundary polygon are dropped. Each lattice row is tested against the
    polygon in one pass of :func:`~scanplan.polygons.rects_intersect_polygon`.
    Rows alternate direction. Each stop stands at :func:`standoff_distance`
    on the side of the plane that ``grid`` shows to be freer (the normal side
    without a grid).

    Raises:
        EmptySurface: degenerate boundary.
        UnreachableStandoff: see :func:`standoff_distance`.
    """
    if len(surface.boundary) < 3:
        raise EmptySurface("surface boundary is degenerate")
    basis = plane_basis(surface.model)
    poly2d = basis.to_plane(surface.boundary)
    lo = poly2d.min(axis=0)
    hi = poly2d.max(axis=0)
    extent = hi - lo
    if min(extent) <= 0:
        raise EmptySurface("surface boundary has zero extent")

    standoff = standoff_distance(cfg, camera)
    side = _pick_side(surface, standoff, grid)
    outward = side * basis.normal

    w, h = cfg.footprint_width, cfg.footprint_height
    step_u = w * (1.0 - cfg.overlap)
    step_v = h
    n_u = 1 if extent[0] <= w else 1 + math.ceil((extent[0] - w) / step_u - 1e-9)
    n_v = 1 if extent[1] <= h else 1 + math.ceil((extent[1] - h) / step_v - 1e-9)

    cols = np.arange(n_u)
    cu = lo[0] + w / 2.0 + cols * step_u
    u_min, u_max = cu - w / 2.0, cu + w / 2.0
    cells: list[np.ndarray] = []
    centers: list[np.ndarray] = []
    for row in range(n_v):
        cv = lo[1] + h / 2.0 + row * step_v
        rect_min = np.stack([u_min, np.full(n_u, cv - h / 2.0)], axis=1)
        rect_max = np.stack([u_max, np.full(n_u, cv + h / 2.0)], axis=1)
        hit = rects_intersect_polygon(rect_min, rect_max, poly2d)
        kept = cols[hit] if row % 2 == 0 else cols[hit][::-1]
        cells.append(np.stack([np.full(len(kept), row), kept], axis=1))
        centers.append(np.stack([cu[kept], np.full(len(kept), cv)], axis=1))
    cells = np.concatenate(cells)
    if not len(cells):
        raise EmptySurface("no photo footprint intersects the boundary")
    positions = basis.to_world(np.concatenate(centers)) + standoff * outward
    facing = -outward / np.linalg.norm(-outward)
    facing.setflags(write=False)
    return Stops(positions, cells, facing)


@dataclass(frozen=True)
class FlightPlan:
    """Ordered stops plus the voxel-center waypoint chain threading them."""

    stops: Stops
    waypoints: np.ndarray
    leg_costs: list


def _box_is_free(grid: OccupancyGrid, start, box) -> bool:
    """True when ``box``, per axis the [lo, hi) offsets from ``start``,
    placed at ``start`` lies inside the grid and holds no occupied voxel."""
    slices = []
    for s, (lo, hi), n in zip(start, box, grid.occupied.shape):
        if s + lo < 0 or s + hi > n:
            return False
        slices.append(slice(s + lo, s + hi))
    return not grid.occupied[tuple(slices)].any()


def generate_waypoints(
    stops: Stops,
    grid: OccupancyGrid,
    weights: AStarWeights = AStarWeights(),
) -> FlightPlan:
    """Thread the coverage stops with A* paths over the inflated grid.

    A coverage lattice repeats a few stop-to-stop displacements many times,
    so a leg is searched only once per displacement in free space: when the
    box a searched leg's search read (:attr:`VoxelPath.box`) is inside the
    grid and free, a later leg with the same displacement whose box, moved
    to its start, is so too takes that path moved to its start, with that
    cost, and skips :func:`astar`. The result is the leg's own search
    result, bit for bit: both searches read only voxels of a box that is
    free and inside the grid at both starts, where their heap keys
    (f, flat index) differ by a constant in the index, so they pop the
    same voxels in the same order.

    Raises:
        StopPointBlocked: a stop's voxel is occupied after inflation (the
            message names the stop).
        NoPath: some leg admits no free path (the message names the leg).
    """
    if not len(stops):
        raise ValueError("need at least one stop point")
    indices = grid.world_to_indices(stops.positions)
    inside = np.all((indices >= 0) & (indices < grid.dims), axis=1)
    blocked = ~inside
    blocked[inside] = grid.occupied[tuple(indices[inside].T)]
    if blocked.any():
        i = int(np.argmax(blocked))
        if not inside[i]:
            raise StopPointBlocked(
                f"stop {i}: stop position {stops.positions[i]} is outside the grid"
            )
        raise StopPointBlocked(
            f"stop {i}: stop voxel {tuple(indices[i].tolist())} is occupied "
            "after inflation"
        )

    voxels = indices.tolist()
    # Displacement -> (path after the start, cost, read box), relative to
    # the start of the first leg with that displacement, when its box was free.
    known: dict = {}
    chain = [indices[:1]]
    leg_costs = []
    searched = 0
    for i, (start, goal) in enumerate(zip(voxels, voxels[1:])):
        shift = (goal[0] - start[0], goal[1] - start[1], goal[2] - start[2])
        hit = known.get(shift)
        if hit is not None and _box_is_free(grid, start, hit[2]):
            tail, cost, _ = hit
        else:
            try:
                leg = astar(grid, start, goal, weights)
            except NoPath as err:
                raise NoPath(f"leg {i}: {err}") from err
            searched += 1
            cost = leg.cost
            tail = np.asarray(leg[1:]).reshape(-1, 3) - start
            if hit is None:
                box = [(lo - s, hi - s) for (lo, hi), s in zip(leg.box, start)]
                if _box_is_free(grid, start, box):
                    known[shift] = (tail, cost, box)
        leg_costs.append(cost)
        chain.append(tail + start)
    logger.info("waypoints: %d legs, %d searched, %d reused",
                len(leg_costs), searched, len(leg_costs) - searched)
    return FlightPlan(stops, grid.index_to_center(np.concatenate(chain)), leg_costs)
