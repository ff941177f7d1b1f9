"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: linear scans, union-find over the
full distance matrix, gift wrapping, Dijkstra without a heuristic, a voxel
traversal in exact rational arithmetic, one polygon edge at a time, one
value of a file at a time, voxels grouped through sorted copies. None of it
shares code with the package under test, except :func:`cold_icp`, the ICP loop
without its warm start: it runs the package's kd-tree and Kabsch fit, so
that it checks the warm start alone; :func:`straight_or_astar_waypoints`,
the waypoint chain leg by leg, which runs :func:`scanplan.planning.astar` on
each blocked leg, so that it checks the choice of legs alone; and
:func:`flown_coverage`, which rasters a surface in the package's plane
basis, the frame its photo lattice is laid in.
"""

import heapq
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from scanplan.errors import (
    DegenerateGeometry,
    IcpDiverged,
    InsufficientOverlap,
    NoPath,
    StopPointBlocked,
)
from scanplan.planning import AStarWeights, OccupancyGrid, astar
from scanplan.registration import _kabsch
from scanplan.segmentation import plane_basis
from scanplan.spatial import KdTree


def linear_nearest(points: np.ndarray, query: np.ndarray) -> tuple[int, float]:
    """Exhaustive nearest neighbor; ties resolve to the lowest index."""
    d = np.linalg.norm(points - query, axis=1)
    idx = int(np.argmin(d))  # argmin returns the first (lowest) index on ties
    return idx, float(d[idx])


def linear_runner_up(points: np.ndarray, query: np.ndarray) -> float:
    """Second-smallest distance from the query to any point; inf for one point."""
    d = np.sort(np.linalg.norm(points - query, axis=1))
    return float(d[1]) if len(d) > 1 else math.inf


def linear_radius(points: np.ndarray, query: np.ndarray, radius: float) -> list[int]:
    d = np.linalg.norm(points - query, axis=1)
    return [int(i) for i in np.nonzero(d <= radius)[0]]


def linear_knearest_distances(points: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """The k smallest distances from the query to the points, increasing."""
    return np.sort(np.linalg.norm(points - query, axis=1))[:k]


def linear_pairs_within(points: np.ndarray, radius: float) -> list[tuple[int, int]]:
    """Every index pair (i, j), i < j, at distance <= radius, in order."""
    return [(i, j) for i in range(len(points))
            for j in linear_radius(points, points[i], radius) if j > i]


def unionfind_components(n: int, pairs) -> list[frozenset]:
    """Connected components of the graph on nodes 0..n-1 with edges ``pairs``."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for i, j in pairs:
        union(int(i), int(j))
    groups: dict[int, set] = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return [frozenset(g) for g in groups.values()]


def unionfind_clusters(points: np.ndarray, eps: float) -> list[frozenset]:
    """Connected components of the closed eps-distance graph."""
    n = len(points)
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    return unionfind_components(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if d[i, j] <= eps]
    )


def ordered_clusters(points: np.ndarray, eps: float, min_size: int) -> list[list[int]]:
    """Components of at least ``min_size`` points as sorted index lists,
    largest first, equal sizes by smallest member index."""
    kept = [sorted(c) for c in unionfind_clusters(points, eps) if len(c) >= min_size]
    return sorted(kept, key=lambda c: (-len(c), c[0]))


def gift_wrap_hull(points: np.ndarray) -> np.ndarray:
    """Naive convex hull: from the lowest point, wrap by scanning all points.

    Counter-clockwise output; collinear boundary points are skipped by
    preferring the farthest point along ties.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    n = len(pts)
    start = min(range(n), key=lambda i: (pts[i][1], pts[i][0]))
    hull = [start]
    current = start
    while True:
        candidate = (current + 1) % n
        for j in range(n):
            if j == current:
                continue
            a = pts[candidate] - pts[current]
            b = pts[j] - pts[current]
            cross = a[0] * b[1] - a[1] * b[0]
            if cross < 0:
                candidate = j
            elif cross == 0:
                far_c = np.dot(pts[candidate] - pts[current],
                               pts[candidate] - pts[current])
                far_j = np.dot(pts[j] - pts[current], pts[j] - pts[current])
                if far_j > far_c:
                    candidate = j
        current = candidate
        if current == start:
            break
        hull.append(current)
    return pts[hull]


def edge_test_hull(points: np.ndarray) -> set:
    """O(n^3) hull as a vertex set: a pair is a hull edge iff every other
    point sits on one side of it."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    n = len(pts)
    vertices = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rel = pts - pts[i]
            cross = rel[:, 0] * (pts[j][1] - pts[i][1]) - rel[:, 1] * (
                pts[j][0] - pts[i][0]
            )
            if np.all(cross >= 0) and np.any(cross > 0):
                vertices.add(tuple(pts[i]))
                vertices.add(tuple(pts[j]))
    return vertices


def dijkstra_grid(occupied: np.ndarray, start, goal, weights=(1.0, 1.0, 1.0)):
    """Optimal 26-connected path cost on a voxel grid, None when unreachable."""
    a1, a2, a3 = weights
    nx, ny, nz = occupied.shape
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ]
    start, goal = tuple(start), tuple(goal)
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        if v == goal:
            return d
        done.add(v)
        x, y, z = v
        for dx, dy, dz in offsets:
            w = (x + dx, y + dy, z + dz)
            if not (0 <= w[0] < nx and 0 <= w[1] < ny and 0 <= w[2] < nz):
                continue
            if occupied[w]:
                continue
            nd = d + a1 * dx * dx + a2 * dy * dy + a3 * dz * dz
            if nd < dist.get(w, float("inf")):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return None


def monte_carlo_polygon_area(polygon: np.ndarray, n_samples: int, rng) -> float:
    """Rejection-sampling area estimate over the polygon's bounding box."""
    poly = np.asarray(polygon, dtype=float)
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    samples = rng.uniform(lo, hi, size=(n_samples, 2))
    box_area = float(np.prod(hi - lo))
    return box_area * _points_in_poly(samples, poly).mean()


def _points_in_poly(points, poly) -> np.ndarray:
    """Even-odd rule, one pass per edge over all points: a point is inside
    when a ray from it towards +x crosses the boundary an odd number of
    times."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    for (x1, y1), (x2, y2) in zip(poly, np.roll(poly, -1, axis=0)):
        straddles = (y1 > y) != (y2 > y)
        # A level edge (y1 == y2) straddles no point, so its division by
        # zero is never used.
        with np.errstate(divide="ignore", invalid="ignore"):
            crosses = x < x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= straddles & crosses
    return inside


def point_in_polygon(point, polygon) -> bool:
    """Even-odd membership test, one edge at a time; boundary points count
    as inside."""
    x, y = float(point[0]), float(point[1])
    p = np.asarray(polygon, dtype=float)
    n = len(p)
    inside = False
    for i in range(n):
        x1, y1 = p[i]
        x2, y2 = p[(i + 1) % n]
        # On-edge check (within a tiny band) counts as inside.
        if _on_segment(x, y, x1, y1, x2, y2):
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def _on_segment(x, y, x1, y1, x2, y2, tol=1e-12) -> bool:
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    seg2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
    if cross * cross > tol * max(seg2, tol):
        return False
    dot = (x - x1) * (x2 - x1) + (y - y1) * (y2 - y1)
    return -tol <= dot <= seg2 + tol


def _segments_intersect(a0, a1, b0, b1) -> bool:
    """True when closed segments a0-a1 and b0-b1 share a point."""
    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    def on_seg(p, q, r):
        return (
            min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
        )

    o1 = orient(a0, a1, b0)
    o2 = orient(a0, a1, b1)
    o3 = orient(b0, b1, a0)
    o4 = orient(b0, b1, a1)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(a0, a1, b0):
        return True
    if o2 == 0 and on_seg(a0, a1, b1):
        return True
    if o3 == 0 and on_seg(b0, b1, a0):
        return True
    if o4 == 0 and on_seg(b0, b1, a1):
        return True
    return False


def polygon_is_simple(polygon) -> bool:
    """True when no two non-adjacent edges intersect, pair by pair."""
    p = np.asarray(polygon, dtype=float)
    n = len(p)
    if n < 3:
        return False
    edges = [(p[i], p[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(edges[i][0], edges[i][1], edges[j][0], edges[j][1]):
                return False
    return True


def rect_intersects_polygon(rect_min, rect_max, polygon) -> bool:
    """True when the closed axis-aligned rectangle and the polygon share any
    point: a vertex inside the rectangle, a corner in or on the polygon, or
    two crossing edges."""
    p = np.asarray(polygon, dtype=float)
    xmin, ymin = rect_min
    xmax, ymax = rect_max
    if np.any((p[:, 0] >= xmin) & (p[:, 0] <= xmax)
              & (p[:, 1] >= ymin) & (p[:, 1] <= ymax)):
        return True
    corners = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    if any(point_in_polygon(np.array(c), p) for c in corners):
        return True
    n = len(p)
    for i in range(n):
        e0, e1 = p[i], p[(i + 1) % n]
        for k in range(4):
            if _segments_intersect(e0, e1, corners[k], corners[(k + 1) % 4]):
                return True
    return False


_NEIGHBOR_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def tuple_key_astar(occupied: np.ndarray, start, goal, weights=(1.0, 1.0, 1.0)):
    """A* keyed by voxel tuples, the step cost and heuristic recomputed per
    neighbour; ties pop in lexicographic voxel order. None when unreachable."""
    a1, a2, a3 = weights
    a_min = min(weights)
    start, goal = tuple(start), tuple(goal)

    def heuristic(v):
        return a_min * max(
            abs(v[0] - goal[0]), abs(v[1] - goal[1]), abs(v[2] - goal[2])
        )

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
            tentative = base + (a1 * dx * dx + a2 * dy * dy + a3 * dz * dz)
            if tentative < g_score.get(neighbor, math.inf):
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                heapq.heappush(open_heap, (tentative + heuristic(neighbor), neighbor))
    return None


def path_cost(path, weights=AStarWeights()) -> float:
    """The cost of a voxel path: its step costs added in path order."""
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += weights.step_cost(b[0] - a[0], b[1] - a[1], b[2] - a[2])
    return total


def exact_segment_voxels(start, end) -> set:
    """Every voxel floor(p) of the points p of the closed segment from
    ``start`` to ``end``, given in voxel units, in exact rational
    arithmetic: the index is read at both ends, at each boundary crossing
    and halfway between consecutive crossings."""
    a = [Fraction(float(v)) for v in start]
    d = [Fraction(float(e)) - s for e, s in zip(end, a)]
    times = {Fraction(0), Fraction(1)}
    for k in range(3):
        lo, hi = sorted((math.floor(a[k]), math.floor(a[k] + d[k])))
        times.update((j - a[k]) / d[k] for j in range(lo + 1, hi + 1))
    times = sorted(times)
    probes = times + [(s + t) / 2 for s, t in zip(times, times[1:])]
    return {tuple(math.floor(a[k] + t * d[k]) for k in range(3)) for t in probes}


def sampled_segment_voxels(grid, start, end, samples: int) -> set:
    """The voxels of ``samples`` evenly spaced points of the segment from
    ``start`` to ``end`` (world coordinates), ends included."""
    a, b = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    points = [a + s * (b - a) for s in np.linspace(0.0, 1.0, samples)]
    return {tuple(v) for v in grid.world_to_indices(np.array(points)).tolist()}


def segment_meets_box(start, end, lo, hi) -> bool:
    """Whether the closed segment from ``start`` to ``end`` meets the closed
    box [lo, hi], by clipping its parameter range [0, 1] to each axis's slab."""
    t0, t1 = 0.0, 1.0
    for a, b, low, high in zip(start, end, lo, hi):
        if a == b:
            if not low <= a <= high:
                return False
            continue
        s, t = sorted(((low - a) / (b - a), (high - a) / (b - a)))
        t0, t1 = max(t0, s), min(t1, t)
    return t0 <= t1


def straight_or_astar_waypoints(stops, grid, weights=AStarWeights()):
    """The waypoints of ``generate_waypoints``, one leg at a time: a leg
    flies straight to the next stop when no voxel of
    :func:`exact_segment_voxels` is occupied, and otherwise through the
    centres of its ``astar`` path, a centre equal to either stop left out;
    raises what ``generate_waypoints`` raises, with the same messages.

    A voxel outside the grid is free. A search runs in the smallest box that
    holds the grid and every stop's voxel, free outside the grid."""
    def occupied(v):
        return grid.in_bounds(v) and grid.occupied[v]

    voxels = []
    for i, position in enumerate(stops.positions):
        v = tuple(int(c) for c in np.floor((position - grid.origin) / grid.voxel_edge))
        if occupied(v):
            raise StopPointBlocked(
                f"stop {i}: stop voxel {v} is occupied after inflation")
        voxels.append(v)
    low = np.minimum(np.min(voxels, axis=0), 0)
    box = np.zeros(np.maximum(np.max(voxels, axis=0) + 1, grid.dims) - low, dtype=bool)
    box[tuple(slice(-lo, n - lo) for lo, n in zip(low, grid.dims))] = grid.occupied
    box = OccupancyGrid(np.zeros(3), 1.0, box)
    at = (stops.positions - grid.origin) / grid.voxel_edge
    chain = [stops.positions[0]]
    for i in range(len(voxels) - 1):
        ends = stops.positions[i], stops.positions[i + 1]
        if any(occupied(v) for v in exact_segment_voxels(at[i], at[i + 1])):
            try:
                path = astar(box, np.subtract(voxels[i], low), np.subtract(voxels[i + 1], low),
                             weights)
            except NoPath as err:
                raise NoPath(f"leg {i}: no free path from {voxels[i]} to {voxels[i + 1]}") from err
            chain.extend(c for c in grid.index_to_center(np.add(path, low))
                         if not any(np.array_equal(c, e) for e in ends))
        chain.append(ends[1])
    return np.array(chain)


def flown_coverage(surface, stops, rows, width: float, height: float,
                   cell: float = 0.02) -> float:
    """Share of the surface's boundary polygon that ``width`` x ``height``
    photos cover, one taken at the row of ``rows`` nearest to each stop.

    The polygon is rastered at ``cell`` in the surface's plane basis, the
    frame its stops are laid out in, so a footprint, centred on its row's
    projection, is one slice of the raster: the cells whose centres lie in
    it."""
    basis = plane_basis(surface.model)
    poly = basis.to_plane(surface.boundary)
    lo = poly.min(axis=0)
    shape = np.ceil((poly.max(axis=0) - lo) / cell).astype(int)
    iu, iv = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
    centres = lo + cell * (np.stack([iu.ravel(), iv.ravel()], axis=1) + 0.5)
    inside = _points_in_poly(centres, poly).reshape(shape)
    covered = np.zeros(shape, dtype=bool)
    rows = np.asarray(rows, dtype=float).reshape(-1, 3)
    half = np.array([width, height]) / 2
    for stop in np.asarray(stops, dtype=float).reshape(-1, 3):
        shot = basis.to_plane(rows[np.argmin(np.linalg.norm(rows - stop, axis=1))])
        first = np.ceil((shot - half - lo) / cell - 0.5).astype(int)
        end = np.floor((shot + half - lo) / cell - 0.5).astype(int) + 1
        (u0, v0), (u1, v1) = np.clip(first, 0, shape), np.clip(end, 0, shape)
        covered[u0:u1, v0:v1] = True
    return float((covered & inside).sum() / inside.sum())


def render_svg_per_point(cloud=None, polygons=(), polylines=(), view="top", size=800):
    """SVG text with every coordinate mapped and formatted one point at a time."""
    ax, ay = {"top": (0, 1), "elevation": (0, 2)}[view]
    pts2d = None
    if cloud is not None and len(cloud) > 0:
        stride = math.ceil(len(cloud) / 20000)
        pts2d = cloud.points[::stride][:, (ax, ay)]
    poly2d = [np.asarray(p, dtype=float)[:, (ax, ay)] for p in polygons]
    line2d = [np.asarray(p, dtype=float)[:, (ax, ay)] for p in polylines]
    groups = ([] if pts2d is None else [pts2d]) + poly2d + line2d
    if groups:
        allpts = np.vstack(groups)
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
    else:
        lo = np.zeros(2)
        hi = np.ones(2)
    span = np.maximum(hi - lo, 1e-6)
    pad = 0.05 * span.max()
    lo, hi = lo - pad, hi + pad
    scale = size / (hi - lo).max()

    def sx(x):
        return (x - lo[0]) * scale

    def sy(y):
        return (hi[1] - y) * scale

    w = (hi[0] - lo[0]) * scale
    h = (hi[1] - lo[1]) * scale
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.1f}" '
        f'height="{h:.1f}" viewBox="0 0 {w:.1f} {h:.1f}">',
        f'<rect width="{w:.1f}" height="{h:.1f}" fill="white"/>',
    ]
    if pts2d is not None:
        for p in pts2d:
            out.append(
                f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="1" '
                'fill="#888888"/>'
            )
    for poly in poly2d:
        coords = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in poly)
        out.append(
            f'<polygon points="{coords}" fill="none" stroke="#2255cc" '
            'stroke-width="1.5"/>'
        )
    for line in line2d:
        coords = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in line)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="#cc3322" '
            'stroke-width="1"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def voxel_centroids_sorted(points: np.ndarray, leaf: float) -> np.ndarray:
    """Voxel centroids through sorted copies: the voxel indices and the points
    lexsorted by voxel, each run of equal indices summed in its sorted order
    and divided by its length. Rows in voxel-index order, not put on the grid.
    """
    idx = np.floor((points - points.min(axis=0)) / leaf).astype(np.int64)
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
    idx_sorted = idx[order]
    pts_sorted = points[order]
    boundaries = np.nonzero(np.any(np.diff(idx_sorted, axis=0) != 0, axis=1))[0] + 1
    starts = np.concatenate(([0], boundaries))
    counts = np.diff(np.concatenate((starts, [len(pts_sorted)])))
    voxel = np.repeat(np.arange(len(starts)), counts)
    sums = np.stack([np.bincount(voxel, weights=axis) for axis in pts_sorted.T], axis=1)
    return sums / counts[:, None]


def fixed6(value) -> str:
    """A float as the text files print it: ``"%.6f" % value``."""
    return "%.6f" % float(value)


def to_grid_per_value(value) -> float:
    """The nearest multiple of 1e-6 to a float, -0.0 made 0.0."""
    return round(float(value) * 1e6) / 1e6 + 0.0


def format_rows(rows, sep: str = " ") -> str:
    """One text line per row, its values joined by ``sep``: a float as
    :func:`fixed6` prints it, an int by ``str``."""
    return "".join(sep.join(str(v) if isinstance(v, int) else fixed6(v) for v in row) + "\n"
                   for row in rows)


def write_cloud_per_value(path, points, sources=None):
    """A cloud file built as one list of lines, each coordinate formatted
    alone by "%.6f" (the points lie on the grid)."""
    lines = [str(len(points)), "# x y z [tag]"]
    for k, p in enumerate(points.tolist()):
        tag = "" if sources is None else f" {int(sources[k])}"
        lines.append(f"{'%.6f' % p[0]} {'%.6f' % p[1]} {'%.6f' % p[2]}{tag}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_waypoints_csv_per_value(path, waypoints):
    lines = [",".join(map(fixed6, w)) for w in np.asarray(waypoints).tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_scan_log_per_value(path, log):
    """A scan log written one record and one value at a time: stamps and
    ranges by :func:`fixed6`, header values and rotation entries by repr."""
    records = []
    for tag, stream in (("V", log.vertical), ("H", log.horizontal), ("I", log.imu)):
        records += [(tag, float(t), rec) for t, rec in zip(stream.stamps, stream.records)]
    order = {"V": 0, "H": 1, "I": 2}
    records.sort(key=lambda r: (r[1], order[r[0]]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# angle_min {float(log.angle_min)!r}\n")
        fh.write(f"# angle_inc {float(log.angle_inc)!r}\n")
        fh.write(f"# range_max {float(log.range_max)!r}\n")
        for tag, t, rec in records:
            if tag == "I":
                vals = " ".join(repr(float(v)) for v in np.ravel(rec))
            else:
                vals = " ".join(fixed6(v) for v in rec)
            fh.write(f"{tag} {fixed6(t)} {vals}\n")


class Malformed(Exception):
    """A malformed cloud file: the reason and the 1-based line, or None."""

    def __init__(self, reason, line=None):
        super().__init__(reason, line)
        self.reason = reason
        self.line = line


def read_cloud_whole_text(path):
    """A cloud file read as one text, one line and one value at a time.

    Returns (points (N, 3), tags (N,) or None); raises Malformed. A tag is
    read by ``int`` and must fit an int64.
    """
    text = Path(path).read_text(encoding="ascii").splitlines()
    if len(text) < 2:
        raise Malformed("cloud file needs a 2-line header")
    try:
        count = int(text[0].strip())
    except ValueError:
        raise Malformed(f"bad point count {text[0]!r}", line=1) from None
    pts = []
    tags = []
    for line_no, line in enumerate(text[2:], start=3):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) not in (3, 4):
            raise Malformed("expected 'x y z [tag]'", line=line_no)
        try:
            pts.append([float(tokens[0]), float(tokens[1]), float(tokens[2])])
        except ValueError:
            raise Malformed("bad coordinate", line=line_no) from None
        if len(tokens) == 4:
            try:
                tag = int(tokens[3])
            except ValueError:
                tag = None
            if tag is None or not -2**63 <= tag < 2**63:
                raise Malformed(f"bad source tag {tokens[3]!r}", line=line_no)
            tags.append(tag)
    if len(pts) != count:
        raise Malformed(f"header promises {count} points, file holds {len(pts)}")
    if tags and len(tags) != len(pts):
        raise Malformed("source tags must cover every point or none")
    points = np.array(pts) if pts else np.zeros((0, 3))
    return points, np.array(tags, dtype=np.int64) if tags else None


def cold_icp(src, tgt, rot, trans, cfg):
    """Point-to-point ICP that queries the kd-tree for every source row on
    every iteration; otherwise the loop of ``registration._icp``."""
    if len(src) == 0 or len(tgt) == 0:
        raise IcpDiverged("empty point set")
    tree = KdTree(tgt)
    prev_residual = None
    grow_streak = 0
    for _ in range(cfg.max_iterations):
        idx, dist, _ = tree.nearest(src + trans if rot is None else src @ rot.T + trans)
        mask = dist <= cfg.max_correspondence_dist
        n_pairs = int(mask.sum())
        if n_pairs == 0:
            raise IcpDiverged("no correspondences within max_correspondence_dist")
        if rot is not None and n_pairs < 3:
            raise DegenerateGeometry(f"only {n_pairs} corresponding points")
        if n_pairs < cfg.min_pairs:
            raise InsufficientOverlap(
                f"only {n_pairs} matched pairs, need {cfg.min_pairs}"
            )
        residual = float(dist[mask].mean())
        p = src[mask]
        q = tgt[idx[mask]]
        if rot is None:
            trans = q.mean(axis=0) - p.mean(axis=0)
        else:
            rot, trans = _kabsch(p, q)
        if prev_residual is not None:
            if residual > prev_residual:
                grow_streak += 1
                if grow_streak >= 3:
                    raise IcpDiverged("mean residual grew for 3 consecutive iterations")
            else:
                grow_streak = 0
            if abs(prev_residual - residual) < cfg.convergence_eps:
                break
        prev_residual = residual
    return rot, trans


def transform_cloud(pose, cloud):
    """A cloud with a pose applied to every point; order and source tags
    are kept."""
    from scanplan.geometry import PointCloud

    return PointCloud(pose.apply(cloud.points), cloud.sources)


def concat_clouds(clouds, retag: bool = False):
    """Clouds concatenated in order. With ``retag`` each cloud's points get
    its list position as their tag; otherwise tags are kept when every
    cloud has them."""
    from scanplan.geometry import PointCloud

    pts = np.vstack([c.points for c in clouds])
    if retag:
        src = np.concatenate([np.full(len(c), i) for i, c in enumerate(clouds)])
    elif all(c.sources is not None for c in clouds):
        src = np.concatenate([c.sources for c in clouds])
    else:
        src = None
    return PointCloud(pts, src)


def register_clouds_by_concat(stations, cfg):
    """register_clouds as it was: the merged cloud is concatenated anew for
    every station, then once more with the station tags. It runs the
    package's overlap prediction and ICP."""
    from scanplan.registration import icp_align_3d, predict_overlap

    first_cloud, first_pose = stations[0]
    parts = [transform_cloud(first_pose, first_cloud)]
    for cloud, recorded in stations[1:]:
        merged = concat_clouds(parts)
        idx_merged, idx_src = predict_overlap(
            merged, cloud, recorded, margin=cfg.max_correspondence_dist)
        pose = icp_align_3d(cloud.select(idx_src), merged.select(idx_merged),
                            init=recorded, cfg=cfg)
        parts.append(transform_cloud(pose, cloud))
    return concat_clouds(parts, retag=True)


def argmin_nearest_sample(timestamps, t):
    """Index of the smallest |timestamps - t|; the earliest wins ties."""
    return int(np.argmin(np.abs(timestamps - t)))


def path_clearance(waypoints, start, end, samples: int = 21) -> float:
    """Least distance from the polyline through ``waypoints`` to the segment
    ``start``-``end``: each piece of the polyline is sampled at ``samples``
    evenly spaced points, and each sample's distance to the segment is exact."""
    wp = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    a, b = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    best = math.inf
    for p, q in zip(wp, wp[1:]):
        for s in np.linspace(0.0, 1.0, samples):
            x = p + s * (q - p)
            t = min(1.0, max(0.0, float(np.dot(x - a, b - a) / np.dot(b - a, b - a))))
            best = min(best, float(np.linalg.norm(x - (a + t * (b - a)))))
    return best


def rectangles_matched(planes, rectangles, angle_deg: float = 5.0,
                       offset_m: float = 0.1) -> int:
    """Truth rectangles that some fitted plane matches: a plane ``(normal, d)``
    with n.x + d = 0 matches a rectangle when the two normals agree within
    ``angle_deg`` in either orientation and the rectangle's centre lies
    within ``offset_m`` of the plane (the benchmark's 5 degree and 0.1 m
    limits)."""
    cos_limit = math.cos(math.radians(angle_deg))
    count = 0
    for rect in rectangles:
        rn = np.asarray(rect.normal, dtype=float)
        rn = rn / np.linalg.norm(rn)
        centre = np.asarray(rect.center, dtype=float)
        for normal, d in planes:
            n = np.asarray(normal, dtype=float)
            length = float(np.linalg.norm(n))
            if (abs(float(n @ rn)) >= cos_limit * length
                    and abs(float(n @ centre) + d) <= offset_m * length):
                count += 1
                break
    return count
