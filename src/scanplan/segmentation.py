"""Planar surface extraction: RANSAC fitting, boundary hulls, area gating.

Planes are pulled out of the cloud one at a time. Each candidate is trimmed
to its largest radius-connected component (detached coplanar patches would
otherwise stretch the boundary), bounded by the convex hull of the projected
inliers, and accepted only when its hull area falls inside the configured
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import ClusterConfig, euclidean_cluster
from .errors import DegenerateGeometry, NoPlaneFound
from .geometry import PointCloud
from .polygons import shoelace_area

_DEGENERATE_SAMPLE_TOL = 1e-9
_MAX_RESAMPLE_ATTEMPTS = 1000


@dataclass(frozen=True)
class PlaneModel:
    """Plane a*x + b*y + c*z + d = 0 with (a, b, c) a unit normal and d <= 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        norm = math.sqrt(self.a**2 + self.b**2 + self.c**2)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"plane normal has norm {norm!r}, expected 1")

    @property
    def normal(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.normal + self.d

    def distance(self, points: np.ndarray) -> np.ndarray:
        return np.abs(self.signed_distance(points))


def _canonical_plane(normal: np.ndarray, d: float) -> PlaneModel:
    """Normalize and orient so d <= 0 (ties: first nonzero normal entry > 0)."""
    n = np.asarray(normal, dtype=float)
    scale = np.linalg.norm(n)
    if scale == 0:
        raise DegenerateGeometry("zero plane normal")
    n = n / scale
    d = d / scale
    flip = False
    if d > 0:
        flip = True
    elif d == 0:
        nz = n[np.nonzero(n)[0][0]]
        flip = nz < 0
    if flip:
        n, d = -n, -d
    return PlaneModel(float(n[0]), float(n[1]), float(n[2]), float(d))


@dataclass(frozen=True)
class RansacConfig:
    """Sampling and acceptance parameters for iterative plane extraction."""

    distance_threshold: float = 0.20
    iterations: int = 200
    min_inliers: int = 100
    min_area: float = 2.0
    max_area: float = math.inf
    rng_seed: int = 0

    def __post_init__(self):
        if not self.distance_threshold > 0:
            raise ValueError("distance_threshold must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class PlanarSurface:
    """An extracted plane with its inliers, convex boundary and area."""

    model: PlaneModel
    inliers: np.ndarray
    boundary: np.ndarray     # (K, 3) vertices on the plane, counter-clockwise
    area: float

    def __post_init__(self):
        object.__setattr__(self, "inliers", np.asarray(self.inliers, dtype=np.int64))
        object.__setattr__(self, "boundary", np.asarray(self.boundary, dtype=float))


def refine_plane(points: np.ndarray) -> PlaneModel:
    """Total-least-squares plane through a point set.

    The normal is the eigenvector of the centered covariance with the
    smallest eigenvalue.

    Raises:
        DegenerateGeometry: fewer than 3 points or all points collinear.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 3:
        raise DegenerateGeometry("need at least 3 points to fit a plane")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered
    evals, evecs = np.linalg.eigh(cov)
    # evals ascending; a collinear set has two (near-)zero eigenvalues.
    if evals[1] <= 1e-12 * max(evals[2], 1.0):
        raise DegenerateGeometry("points are collinear")
    normal = evecs[:, 0]
    return _canonical_plane(normal, -float(normal @ centroid))


def plane_from_3_points(p0, p1, p2) -> PlaneModel:
    # np.cross spelled out in its own operation order: the same bits at a
    # tenth of the cost, which matters once per RANSAC hypothesis.
    a0, a1, a2 = (np.asarray(p1) - p0).tolist()
    b0, b1, b2 = (np.asarray(p2) - p0).tolist()
    normal = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    if np.linalg.norm(normal) <= _DEGENERATE_SAMPLE_TOL:
        raise DegenerateGeometry("sample points are collinear")
    return _canonical_plane(normal, -float(normal @ np.asarray(p0)))


def ransac_plane(
    cloud: PointCloud, cfg: RansacConfig = RansacConfig()
) -> tuple[PlaneModel, np.ndarray]:
    """Best plane over seeded random 3-point hypotheses, then refined.

    The winning hypothesis (most inliers; first trial wins ties) is re-fit by
    total least squares over its inliers and the inlier set is re-evaluated
    against the refined model, so reported inliers are always within
    ``distance_threshold`` of the returned plane.

    Raises:
        NoPlaneFound: best inlier count below ``min_inliers`` (degenerate
            clouds such as collinear sets end up here too).
    """
    pts = cloud.points
    n = len(pts)
    if n < 3:
        raise NoPlaneFound(f"cloud has {n} points, need at least 3")
    rng = np.random.default_rng(cfg.rng_seed)

    best_count = 0
    best_model = None
    for _ in range(cfg.iterations):
        model = None
        for _attempt in range(_MAX_RESAMPLE_ATTEMPTS):
            i, j, k = rng.choice(n, size=3, replace=False)
            try:
                model = plane_from_3_points(pts[i], pts[j], pts[k])
                break
            except DegenerateGeometry:
                continue  # redraw without consuming the iteration
        if model is None:
            break  # geometry offers no non-collinear sample
        count = int(np.count_nonzero(model.distance(pts) <= cfg.distance_threshold))
        if count > best_count:
            best_count = count
            best_model = model

    if best_model is None or best_count < cfg.min_inliers:
        raise NoPlaneFound(
            f"best hypothesis had {best_count} inliers, need {cfg.min_inliers}"
        )

    inliers0 = np.nonzero(best_model.distance(pts) <= cfg.distance_threshold)[0]
    refined = refine_plane(pts[inliers0])
    inliers = np.nonzero(refined.distance(pts) <= cfg.distance_threshold)[0]
    if len(inliers) < cfg.min_inliers:
        raise NoPlaneFound(
            f"refined model keeps {len(inliers)} inliers, need {cfg.min_inliers}"
        )
    return refined, inliers


@dataclass(frozen=True)
class PlaneBasis:
    """Deterministic in-plane frame: u and v span the plane, origin lies on it."""

    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray
    normal: np.ndarray

    def to_plane(self, points: np.ndarray) -> np.ndarray:
        rel = np.asarray(points, dtype=float) - self.origin
        return np.stack([rel @ self.u, rel @ self.v], axis=-1)

    def to_world(self, coords: np.ndarray) -> np.ndarray:
        c = np.asarray(coords, dtype=float)
        return self.origin + np.outer(c[..., 0].ravel(), self.u).reshape(
            c.shape[:-1] + (3,)
        ) + np.outer(c[..., 1].ravel(), self.v).reshape(c.shape[:-1] + (3,))


def plane_basis(model: PlaneModel) -> PlaneBasis:
    """Orthonormal basis: u from the global axis least aligned with the normal."""
    n = model.normal
    axis = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[axis] = 1.0
    u = e - (e @ n) * n
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    origin = -model.d * n
    return PlaneBasis(origin, u, v, n)


def project_to_plane(
    points: np.ndarray, model: PlaneModel
) -> tuple[np.ndarray, PlaneBasis]:
    """In-plane 2D coordinates of the orthogonal projections of ``points``."""
    basis = plane_basis(model)
    return basis.to_plane(points), basis


def convex_hull_2d(points2d: np.ndarray) -> np.ndarray:
    """Convex hull by monotone chain, counter-clockwise, collinear-free.

    Starts at the lexicographically smallest point, so the output is
    invariant under input permutation.

    Raises:
        DegenerateGeometry: fewer than 3 distinct points or all collinear.
    """
    pts = np.unique(np.asarray(points2d, dtype=float).reshape(-1, 2), axis=0)
    if len(pts) < 3:
        raise DegenerateGeometry("hull needs at least 3 distinct points")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # Python floats round exactly as numpy scalars do, at a third of the cost.
    rows = pts.tolist()
    lower: list[list[float]] = []
    for p in rows:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in reversed(rows):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise DegenerateGeometry("points are collinear")
    return hull


def surface_area(surface: PlanarSurface) -> float:
    """Area of the boundary polygon via the shoelace rule in the plane basis."""
    coords, _ = project_to_plane(surface.boundary, surface.model)
    return abs(shoelace_area(coords))


def _boundary_and_area(pts: np.ndarray, model: PlaneModel) -> tuple[np.ndarray, float]:
    coords, basis = project_to_plane(pts, model)
    hull2d = convex_hull_2d(coords)
    return basis.to_world(hull2d), abs(shoelace_area(hull2d))


def extract_surfaces(
    cloud: PointCloud,
    cfg: RansacConfig = RansacConfig(),
    cluster_eps: float = 0.3,
) -> tuple[list[PlanarSurface], PointCloud]:
    """Iteratively extract planar surfaces and return the leftovers.

    Loop: fit a plane, trim its inliers to the largest ``cluster_eps``
    component, bound and measure it, and accept it when the area lies in
    [min_area, max_area]. The trimmed component is removed from the working
    cloud whether accepted or not (rejected ones end up in the remainder);
    the loop exits when no further plane reaches ``min_inliers``.

    Returns:
        (surfaces, remainder). Surface inlier indices refer to the input
        cloud; the remainder cloud's ``sources`` field carries each point's
        original index into the input cloud.
    """
    surfaces: list[PlanarSurface] = []
    active = np.arange(len(cloud), dtype=np.int64)
    rejected: list[np.ndarray] = []
    pts_all = cloud.points
    round_index = 0

    while len(active) >= max(3, cfg.min_inliers):
        working = PointCloud(pts_all[active])
        try:
            model, local_inliers = ransac_plane(
                working,
                # vary the stream per round, still fully seed-determined
                cfg=replace(cfg, rng_seed=cfg.rng_seed + round_index),
            )
        except NoPlaneFound:
            break
        round_index += 1

        clusters = euclidean_cluster(
            working.select(local_inliers),
            ClusterConfig(radius=cluster_eps, min_cluster_size=1),
        )
        largest = local_inliers[clusters[0].indices]
        component = active[largest]

        try:
            boundary, area = _boundary_and_area(pts_all[component], model)
        except DegenerateGeometry:
            boundary, area = None, 0.0

        if boundary is not None and cfg.min_area <= area <= cfg.max_area:
            surfaces.append(PlanarSurface(model, component, boundary, area))
        else:
            rejected.append(component)
        keep_mask = np.ones(len(active), dtype=bool)
        keep_mask[largest] = False
        active = active[keep_mask]

    remainder_idx = np.sort(
        np.concatenate([active] + rejected) if rejected else active
    )
    remainder = PointCloud(pts_all[remainder_idx], sources=remainder_idx)
    return surfaces, remainder
