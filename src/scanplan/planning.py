"""Coverage stop-point generation and collision-free waypoint search.

A surface is photographed from a lattice of standoff positions ordered in a
serpentine sweep; the legs between consecutive stops are found by A* over an
inflated occupancy grid with per-axis weighted step costs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import (
    EmptySurface,
    NoPath,
    StartOrGoalOccupied,
    StopPointBlocked,
    UnreachableStandoff,
)
from .geometry import PointCloud
from .polygons import rect_intersects_polygon
from .segmentation import PlanarSurface, plane_basis


@dataclass(frozen=True)
class CameraSpec:
    """Imaging capability: sensor size, field of view, gimbal freedom."""

    image_width: int = 4000
    image_height: int = 3000
    fov_h: float = math.radians(24.0)
    fov_v: float = math.radians(20.0)
    gimbal_dof: int = 2
    max_standoff: float = 10.0

    def __post_init__(self):
        if not (0 < self.fov_h < math.pi and 0 < self.fov_v < math.pi):
            raise ValueError("fields of view must be in (0, pi)")
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image dimensions must be >= 1 pixel")


@dataclass(frozen=True)
class InspectionTask:
    """What to photograph and how densely."""

    surface: PlanarSurface
    footprint_width: float = 0.6
    footprint_height: float = 0.4
    overlap: float = 0.2

    def __post_init__(self):
        if not (self.footprint_width > 0 and self.footprint_height > 0):
            raise ValueError("footprint dimensions must be > 0")
        if not (0.0 <= self.overlap < 1.0):
            raise ValueError("overlap must be in [0, 1)")


@dataclass(frozen=True)
class StopPoint:
    """A pause position with the camera facing the surface."""

    position: np.ndarray
    facing: np.ndarray
    row: int
    col: int

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        f = np.asarray(self.facing, dtype=float)
        object.__setattr__(self, "facing", f / np.linalg.norm(f))


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

    def world_to_index(self, point: np.ndarray) -> tuple[int, int, int]:
        idx = np.floor(
            (np.asarray(point, dtype=float) - self.origin) / self.voxel_edge
        ).astype(int)
        return int(idx[0]), int(idx[1]), int(idx[2])

    def index_to_center(self, index) -> np.ndarray:
        return self.origin + (np.asarray(index, dtype=float) + 0.5) * self.voxel_edge

    def in_bounds(self, index) -> bool:
        return all(0 <= index[i] < self.occupied.shape[i] for i in range(3))


def build_occupancy(
    cloud: PointCloud, voxel_edge: float, bounds_margin: float
) -> OccupancyGrid:
    """Grid over the cloud's bounding box plus margin; a voxel is occupied
    iff it contains at least one point. An empty cloud yields an all-free
    grid spanning the margin around the origin."""
    if not voxel_edge > 0:
        raise ValueError("voxel_edge must be > 0")
    if len(cloud) == 0:
        lo = np.zeros(3) - bounds_margin
        extent = np.full(3, 2.0 * bounds_margin)
    else:
        lo, hi = cloud.bounds()
        lo = lo - bounds_margin
        extent = (hi + bounds_margin) - lo
    dims = np.maximum(np.floor(extent / voxel_edge).astype(int) + 1, 1)
    occupied = np.zeros(tuple(dims), dtype=bool)
    if len(cloud) > 0:
        idx = np.floor((cloud.points - lo) / voxel_edge).astype(int)
        occupied[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return OccupancyGrid(lo, voxel_edge, occupied)


def inflate(grid: OccupancyGrid, radius: float) -> OccupancyGrid:
    """Mark every voxel whose center lies within ``radius`` of an occupied
    voxel center as occupied (so the vehicle can be planned as a point)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    reach = int(math.floor(radius / grid.voxel_edge))
    if reach == 0 or not grid.occupied.any():
        return OccupancyGrid(grid.origin.copy(), grid.voxel_edge, grid.occupied.copy())
    rng = np.arange(-reach, reach + 1)
    dx, dy, dz = np.meshgrid(rng, rng, rng, indexing="ij")
    ball = (dx**2 + dy**2 + dz**2) * grid.voxel_edge**2 <= radius**2
    dilated = ndimage.binary_dilation(grid.occupied, structure=ball)
    return OccupancyGrid(grid.origin.copy(), grid.voxel_edge, dilated)


_NEIGHBOR_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def astar(
    grid: OccupancyGrid,
    start: tuple[int, int, int],
    goal: tuple[int, int, int],
    weights: AStarWeights = AStarWeights(),
) -> list[tuple[int, int, int]]:
    """Cheapest 26-connected path between two free voxels.

    A step to offset (dx, dy, dz) costs a1*dx^2 + a2*dy^2 + a3*dz^2.
    The heuristic min(a) * Chebyshev distance never exceeds the remaining
    cost (every step closes each axis gap by at most one at cost >= min(a)),
    so returned paths are optimal. Ties pop in lexicographic voxel order.

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

    def heuristic(v):
        return a_min * max(
            abs(v[0] - goal[0]), abs(v[1] - goal[1]), abs(v[2] - goal[2])
        )

    occupied = grid.occupied
    nx, ny, nz = occupied.shape
    g_score = {start: 0.0}
    came_from: dict = {}
    open_heap = [(heuristic(start), start)]
    closed = set()

    while open_heap:
        _, current = heapq.heappop(open_heap)
        if current in closed:
            continue
        if current == goal:
            path = [current]
            while current in came_from:
                current = came_from[current]
                path.append(current)
            return path[::-1]
        closed.add(current)
        cx, cy, cz = current
        base = g_score[current]
        for dx, dy, dz in _NEIGHBOR_OFFSETS:
            vx, vy, vz = cx + dx, cy + dy, cz + dz
            if not (0 <= vx < nx and 0 <= vy < ny and 0 <= vz < nz):
                continue
            if occupied[vx, vy, vz]:
                continue
            neighbor = (vx, vy, vz)
            tentative = base + weights.step_cost(dx, dy, dz)
            if tentative < g_score.get(neighbor, math.inf):
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                heapq.heappush(open_heap, (tentative + heuristic(neighbor), neighbor))

    raise NoPath(f"no free path from {start} to {goal}")


def path_cost(path, weights: AStarWeights = AStarWeights()) -> float:
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += weights.step_cost(b[0] - a[0], b[1] - a[1], b[2] - a[2])
    return total


def standoff_distance(task: InspectionTask, camera: CameraSpec) -> float:
    """Camera-to-surface distance realizing the requested footprint width.

    Pinhole relation on the horizontal axis; the vertical field of view must
    cover the footprint height at that distance.

    Raises:
        UnreachableStandoff: beyond ``camera.max_standoff``, or the vertical
            coverage falls short of the footprint height.
    """
    d = (task.footprint_width / 2.0) / math.tan(camera.fov_h / 2.0)
    if d > camera.max_standoff:
        raise UnreachableStandoff(
            f"standoff {d:.2f} m exceeds camera max range {camera.max_standoff:.2f} m"
        )
    vertical_cover = 2.0 * d * math.tan(camera.fov_v / 2.0)
    if vertical_cover + 1e-9 < task.footprint_height:
        raise UnreachableStandoff(
            f"vertical coverage {vertical_cover:.3f} m at standoff {d:.2f} m "
            f"cannot reach the {task.footprint_height:.3f} m footprint height"
        )
    return d


def _pick_side(
    surface: PlanarSurface, standoff: float, grid: OccupancyGrid | None
) -> float:
    """+1.0 to stand along the plane normal, -1.0 for the opposite side.

    With a grid, the side whose standoff slab holds fewer occupied voxel
    centers wins; ties (and no grid) go to the normal side.
    """
    if grid is None or not grid.occupied.any():
        return 1.0
    idx = np.argwhere(grid.occupied)
    centers = grid.origin + (idx + 0.5) * grid.voxel_edge
    sd = surface.model.signed_distance(centers)
    band = standoff + grid.voxel_edge
    pos = int(np.count_nonzero((sd > 0.25 * grid.voxel_edge) & (sd <= band)))
    neg = int(np.count_nonzero((sd < -0.25 * grid.voxel_edge) & (sd >= -band)))
    return 1.0 if pos <= neg else -1.0


def plan_coverage(
    task: InspectionTask,
    camera: CameraSpec,
    grid: OccupancyGrid | None = None,
) -> list[StopPoint]:
    """Serpentine lattice of photo positions covering the surface boundary.

    Photo centers tile the boundary's bounding rectangle in the plane basis
    with step footprint_width * (1 - overlap) along rows (the overlap between
    consecutive photos) and footprint_height across rows; cells whose
    footprint misses the boundary polygon are dropped. Rows alternate
    direction.

    Raises:
        EmptySurface: degenerate boundary.
        UnreachableStandoff: see :func:`standoff_distance`.
    """
    surface = task.surface
    if surface.boundary is None or len(surface.boundary) < 3:
        raise EmptySurface("surface boundary is degenerate")
    basis = plane_basis(surface.model)
    poly2d = basis.to_plane(surface.boundary)
    lo = poly2d.min(axis=0)
    hi = poly2d.max(axis=0)
    extent = hi - lo
    if min(extent) <= 0:
        raise EmptySurface("surface boundary has zero extent")

    standoff = standoff_distance(task, camera)
    side = _pick_side(surface, standoff, grid)
    outward = side * basis.normal

    w, h = task.footprint_width, task.footprint_height
    step_u = w * (1.0 - task.overlap)
    step_v = h
    n_u = 1 if extent[0] <= w else 1 + math.ceil((extent[0] - w) / step_u - 1e-9)
    n_v = 1 if extent[1] <= h else 1 + math.ceil((extent[1] - h) / step_v - 1e-9)

    stops: list[StopPoint] = []
    for row in range(n_v):
        cv = lo[1] + h / 2.0 + row * step_v
        cols = range(n_u) if row % 2 == 0 else range(n_u - 1, -1, -1)
        for col in cols:
            cu = lo[0] + w / 2.0 + col * step_u
            rect_min = np.array([cu - w / 2.0, cv - h / 2.0])
            rect_max = np.array([cu + w / 2.0, cv + h / 2.0])
            if not rect_intersects_polygon(rect_min, rect_max, poly2d):
                continue
            on_plane = basis.to_world(np.array([cu, cv]))
            position = on_plane + standoff * outward
            stops.append(StopPoint(position, -outward, row, col))
    if not stops:
        raise EmptySurface("no photo footprint intersects the boundary")
    return stops


@dataclass(frozen=True)
class FlightPlan:
    """Ordered stops plus the voxel-center waypoint chain threading them."""

    stops: list
    waypoints: np.ndarray
    legs: list          # per-leg voxel index paths
    leg_costs: list


def generate_waypoints(
    stops: list[StopPoint],
    grid: OccupancyGrid,
    weights: AStarWeights = AStarWeights(),
) -> FlightPlan:
    """Thread the coverage stops with A* legs over the inflated grid.

    Raises:
        StopPointBlocked: a stop's voxel is occupied after inflation.
        NoPath: some leg admits no free path (the leg index is attached).
    """
    if not stops:
        raise ValueError("need at least one stop point")
    voxels = []
    for i, stop in enumerate(stops):
        v = grid.world_to_index(stop.position)
        if not grid.in_bounds(v):
            raise StopPointBlocked(
                f"stop position {stop.position} is outside the grid", stop_index=i
            )
        if grid.occupied[v]:
            raise StopPointBlocked(
                f"stop voxel {v} is occupied after inflation", stop_index=i
            )
        voxels.append(v)

    chain = [voxels[0]]
    legs = []
    leg_costs = []
    for i in range(len(voxels) - 1):
        try:
            leg = astar(grid, voxels[i], voxels[i + 1], weights)
        except NoPath as err:
            raise NoPath(str(err), leg_index=i) from err
        legs.append(leg)
        leg_costs.append(path_cost(leg, weights))
        chain.extend(leg[1:])
    waypoints = np.array([grid.index_to_center(v) for v in chain])
    return FlightPlan(list(stops), waypoints, legs, leg_costs)
