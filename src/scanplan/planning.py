"""Coverage stop-point generation and collision-free waypoint search.

A surface is photographed from a lattice of standoff positions ordered in a
serpentine sweep. Consecutive stops are joined by a straight leg where it
is free in an inflated occupancy grid, and otherwise by an A* path over
that grid with per-axis weighted step costs.

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

    The grid has ``voxel_edge`` voxels and spans the cloud and its
    ``inflate_radius`` inflation; space outside it is free, so a stop may
    stand anywhere. Each photo covers ``footprint_width`` x
    ``footprint_height`` of the surface (the width fixes the standoff);
    photos along a row share ``overlap`` of the width, and rows abut."""

    voxel_edge: float = 0.25
    inflate_radius: float = 0.6
    footprint_width: float = 0.6
    footprint_height: float = 0.4
    overlap: float = 0.2

    def __post_init__(self):
        if not self.voxel_edge > 0:
            raise ValueError("voxel_edge must be > 0")
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

    def occupied_at(self, indices: np.ndarray) -> np.ndarray:
        """Occupied flags of ``(N, 3)`` voxel indices; a voxel outside the grid is free."""
        inside = np.all((indices >= 0) & (indices < self.dims), axis=1)
        flags = np.zeros(len(indices), dtype=bool)
        flags[inside] = self.occupied[tuple(indices[inside].T)]
        return flags


# The most voxels an occupancy grid may have: 64 MiB per boolean copy, of
# which the plan stage holds a few. Deck's grid has 30,268 (94 x 46 x 7).
MAX_GRID_VOXELS = 2**26


def build_occupancy(
    cloud: PointCloud, voxel_edge: float, inflate_radius: float
) -> OccupancyGrid:
    """Grid over the cloud's voxels and ``floor(inflate_radius / voxel_edge)
    + 1`` more on each side: room for :func:`inflate` to reach, and a layer
    it leaves free. A voxel is occupied iff it contains at least one point;
    every voxel outside the grid is free (:meth:`OccupancyGrid.occupied_at`).
    An empty cloud yields an all-free grid around the origin.

    Raises:
        GridTooLarge: over ``MAX_GRID_VOXELS`` voxels, before any is allocated.
    """
    margin = (math.floor(inflate_radius / voxel_edge) + 1) * voxel_edge
    lo, hi = cloud.bounds() if len(cloud) else (np.zeros(3), np.zeros(3))
    lo = lo - margin
    extent = (hi + margin) - lo
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


def astar(
    grid: OccupancyGrid,
    start: tuple[int, int, int],
    goal: tuple[int, int, int],
    weights: AStarWeights = AStarWeights(),
) -> list[tuple[int, int, int]]:
    """Cheapest 26-connected path between two free voxels: its voxels,
    start to goal.

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
    occupied = memoryview(grid.occupied.reshape(-1))
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
            path = [current]
            while current in came_from:
                current = came_from[current]
                path.append(current)
            return [(k // nyz, k // nz % ny, k % nz) for k in reversed(path)]
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


def _pick_side(surface: PlanarSurface, standoff: float, grid: OccupancyGrid) -> float:
    """+1.0 to stand along the plane normal, -1.0 for the opposite side: the
    side whose standoff slab holds fewer occupied voxel centers wins, and a
    tie goes to the normal side."""
    centers = grid.index_to_center(np.argwhere(grid.occupied))
    sd = surface.model.signed_distance(centers)
    band = standoff + grid.voxel_edge
    pos = int(np.count_nonzero((sd > 0.25 * grid.voxel_edge) & (sd <= band)))
    neg = int(np.count_nonzero((sd < -0.25 * grid.voxel_edge) & (sd >= -band)))
    return 1.0 if pos <= neg else -1.0


def plan_coverage(
    surface: PlanarSurface,
    cfg: PlanningConfig,
    camera: CameraSpec,
    grid: OccupancyGrid,
) -> Stops:
    """Serpentine lattice of photo positions covering the surface boundary.

    Photo centers tile the boundary's bounding rectangle in the plane basis
    with step ``cfg.footprint_width * (1 - cfg.overlap)`` along rows and
    ``cfg.footprint_height`` across rows; cells whose footprint misses the
    boundary polygon are dropped. Each lattice row is tested against the
    polygon in one pass of :func:`~scanplan.polygons.rects_intersect_polygon`.
    Rows alternate direction. Each stop stands at :func:`standoff_distance`
    on the side of the plane that ``grid`` shows to be freer.

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
    """Ordered stops plus the waypoint chain that joins them."""

    stops: Stops
    waypoints: np.ndarray


def segment_voxels(grid: OccupancyGrid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(leg, voxels)``: (M,) leg numbers and (M, 3) voxel indices, with
    repeats, some perhaps outside the grid; leg i is the closed segment from
    ``points[i]`` to ``points[i + 1]``.

    A leg's voxels are ``grid.world_to_indices(p)`` for every point p of
    its segment. That index changes only where the segment crosses a voxel
    boundary plane, so it is read at the two ends, at each crossing and
    halfway between consecutive crossings: an exact voxel traversal
    (Amanatides & Woo, Eurographics 1987) of all legs in one numpy pass.
    """
    at = (np.asarray(points, dtype=float) - grid.origin) / grid.voxel_edge
    ends = np.floor(at).astype(int)
    start, span = at[:-1], np.diff(at, axis=0)
    # One crossing per boundary plane that a leg crosses on an axis, at the
    # time in [0, 1] where start + time * span reaches the plane.
    count = np.abs(np.diff(ends, axis=0)).ravel()
    pair = np.repeat(np.arange(count.size), count)
    plane = (np.minimum(ends[:-1], ends[1:]).ravel()[pair] + 1
             + np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count))
    leg, axis = np.divmod(pair, 3)
    time = (plane - start[leg, axis]) / span[leg, axis]
    # Each leg's distinct times, its ends included, in order: leg + 1j * time
    # sorts by leg, then by time. Crossings at one time meet at one point,
    # where each crossed axis takes its plane's index.
    legs = np.arange(len(span))
    events = np.concatenate([leg + 1j * time, legs + 0j, legs + 1j])
    events, group = np.unique(events, return_inverse=True)
    leg, time = events.real.astype(int), events.imag
    # Between consecutive times of a leg, the index is that of the midpoint.
    same = leg[1:] == leg[:-1]
    leg = np.concatenate([leg, leg[1:][same]])
    time = np.concatenate([time, (time[:-1] + time[1:])[same] / 2])
    voxels = np.floor(start[leg] + time[:, None] * span[leg]).astype(int)
    voxels[group[:pair.size], axis] = plane
    return leg, voxels


def generate_waypoints(
    stops: Stops,
    grid: OccupancyGrid,
    weights: AStarWeights = AStarWeights(),
) -> FlightPlan:
    """Join the coverage stops, in sweep order, into the waypoints a
    vehicle flies over the inflated grid, outside which every voxel is free
    (:meth:`OccupancyGrid.occupied_at`).

    A leg whose straight segment is free (:func:`segment_voxels`) flies
    straight from one stop to the next. Only a blocked leg is searched with
    :func:`astar`, in the grid padded with free voxels until it holds every
    stop: it flies from its stop through the centres of the path's voxels
    to the next stop, leaving out a centre that equals its stop. With no
    leg blocked, the waypoints are the stop positions.

    Raises:
        StopPointBlocked: a stop's voxel is occupied after inflation (the
            message names the stop).
        NoPath: some leg admits no free path (the message names the leg).
    """
    if not len(stops):
        raise ValueError("need at least one stop point")
    positions = stops.positions
    indices = grid.world_to_indices(positions)
    blocked = grid.occupied_at(indices)
    if blocked.any():
        i = int(np.argmax(blocked))
        raise StopPointBlocked(
            f"stop {i}: stop voxel {tuple(indices[i].tolist())} is occupied "
            "after inflation"
        )

    leg, voxels = segment_voxels(grid, positions)
    blocked = np.zeros(len(positions) - 1, dtype=bool)
    blocked[leg[grid.occupied_at(voxels)]] = True
    logger.info("waypoints: %d legs, %d blocked", len(blocked), np.count_nonzero(blocked))
    chain, done = [], 0
    if blocked.any():
        low = np.maximum(-indices.min(axis=0), 0)
        high = np.maximum(indices.max(axis=0) + 1 - grid.dims, 0)
        padded = OccupancyGrid(grid.origin - low * grid.voxel_edge, grid.voxel_edge,
                               np.pad(grid.occupied, np.stack([low, high], axis=1)))
    for i in np.flatnonzero(blocked).tolist():
        try:
            path = astar(padded, indices[i] + low, indices[i + 1] + low, weights)
        except NoPath as err:
            start, goal = (tuple(indices[j].tolist()) for j in (i, i + 1))
            raise NoPath(f"leg {i}: no free path from {start} to {goal}") from err
        # From the grid's own origin, so that a centre keeps its bits.
        centres = grid.index_to_center(np.subtract(path, low))
        at_stop = (centres == positions[i]).all(1) | (centres == positions[i + 1]).all(1)
        chain += [positions[done:i + 1], centres[~at_stop]]
        done = i + 1
    waypoints = np.concatenate(chain + [positions[done:]]) if chain else positions
    return FlightPlan(stops, waypoints)
