"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: linear scans, union-find over the
full distance matrix, gift wrapping, Dijkstra without a heuristic. None of
it shares code with the package under test.
"""

import heapq

import numpy as np


def linear_nearest(points: np.ndarray, query: np.ndarray) -> tuple[int, float]:
    """Exhaustive nearest neighbor; ties resolve to the lowest index."""
    d = np.linalg.norm(points - query, axis=1)
    idx = int(np.argmin(d))  # argmin returns the first (lowest) index on ties
    return idx, float(d[idx])


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
