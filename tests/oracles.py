"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: linear scans, union-find over the
full distance matrix, gift wrapping, Dijkstra without a heuristic, one
polygon edge at a time, one value of a file at a time. None of it shares
code with the package under test, except :func:`cold_icp`, the ICP loop
without its warm start: it runs the package's kd-tree and Kabsch fit, so
that it checks the warm start alone.
"""

import heapq
import math
from pathlib import Path

import numpy as np

from scanplan.errors import DegenerateGeometry, IcpDiverged, InsufficientOverlap
from scanplan.registration import _kabsch
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


def unionfind_clusters(points: np.ndarray, eps: float) -> list[frozenset]:
    """Connected components of the closed eps-distance graph."""
    n = len(points)
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

    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] <= eps:
                union(i, j)
    groups: dict[int, set] = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return [frozenset(g) for g in groups.values()]


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


def segments_intersect(a0, a1, b0, b1) -> bool:
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
            if segments_intersect(edges[i][0], edges[i][1], edges[j][0], edges[j][1]):
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
            if segments_intersect(e0, e1, corners[k], corners[(k + 1) % 4]):
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


def render_svg_per_point(cloud=None, polygons=(), polylines=(), view="top", size=800):
    """SVG text with every coordinate mapped and formatted one point at a time."""
    ax, ay = {"top": (0, 1), "elevation": (0, 2)}[view]
    pts2d = None
    if cloud is not None and len(cloud) > 0:
        stride = max(1, len(cloud) // 20000)
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


def _fmt(value) -> str:
    return repr(float(value))


def write_cloud_per_value(path, points, sources=None, comment="x y z [tag]"):
    """A cloud file built as one list of lines, each value formatted alone."""
    lines = [str(len(points)), f"# {comment}"]
    if sources is None:
        for p in points:
            lines.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    else:
        for p, tag in zip(points, sources):
            lines.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} {int(tag)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_waypoints_csv_per_value(path, waypoints):
    lines = [f"{_fmt(w[0])},{_fmt(w[1])},{_fmt(w[2])}" for w in waypoints]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_scan_log_per_value(path, log):
    """A scan log written one record and one value at a time."""
    records = (
        [("V", s.timestamp, s) for s in log.vertical]
        + [("H", s.timestamp, s) for s in log.horizontal]
        + [("I", s.timestamp, s) for s in log.imu]
    )
    order = {"V": 0, "H": 1, "I": 2}
    records.sort(key=lambda r: (r[1], order[r[0]]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# angle_min {float(log.angle_min)!r}\n")
        fh.write(f"# angle_inc {float(log.angle_inc)!r}\n")
        fh.write(f"# range_max {float(log.range_max)!r}\n")
        for tag, t, rec in records:
            values = rec.rotation.ravel() if tag == "I" else rec.ranges
            vals = " ".join(repr(float(v)) for v in values)
            fh.write(f"{tag} {float(t)!r} {vals}\n")


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


def linear_pose_at(entries, timestamp):
    """The pose of the entry whose timestamp equals ``timestamp``, found by a
    linear scan; None when there is none."""
    for t, pose in entries:
        if t == timestamp:
            return pose
    return None


def argmin_nearest_sample(timestamps, t):
    """Index of the smallest |timestamps - t|; the earliest wins ties."""
    return int(np.argmin(np.abs(timestamps - t)))
