"""Point-to-point ICP alignment (2D and 3D) and multi-station registration.

One ICP loop (Besl & McKay, PAMI 1992) serves d = 2 and d = 3 with a
d-dimensional Kabsch fit; ``icp_align_2d`` and ``icp_align_3d`` adapt it to
planar transforms and poses. The 2D path recovers per-scan translation for
the pose track (rotation comes from the IMU, so it can be locked); the 3D
path merges station clouds after an axis-aligned-box overlap prediction
seeded by the recorded poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, IcpDiverged, InsufficientOverlap, NoOverlap
from .geometry import PointCloud, Pose, concat_clouds, transform_cloud
from .spatial import KdTree

_DIVERGENCE_STREAK = 3


def _normalize_angle(angle: float) -> float:
    """Wrap into (-pi, pi]; in-range values pass through bit-exact."""
    if -math.pi < angle <= math.pi:
        return angle
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass(frozen=True)
class RigidTransform2D:
    """Planar rigid motion: rotation by ``angle`` about the origin, then shift."""

    angle: float
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(2)
        object.__setattr__(self, "angle", _normalize_angle(float(self.angle)))
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform2D":
        return RigidTransform2D(0.0, np.zeros(2))

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return np.array([[c, -s], [s, c]])

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.matrix().T + self.translation


@dataclass(frozen=True)
class IcpConfig:
    """Iteration and correspondence limits shared by the 2D and 3D aligners.

    ``convergence_eps`` bounds the change of the mean correspondence distance
    between iterations; ``rotation_locked`` freezes the rotation at the
    initial guess so only translation is optimized (used when the rotation is
    already known from the IMU). ``min_pairs`` is the fewest matched pairs
    accepted before InsufficientOverlap is raised.
    """

    max_iterations: int = 50
    convergence_eps: float = 1e-4
    max_correspondence_dist: float = 1.0
    rotation_locked: bool = False
    min_pairs: int = 10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.convergence_eps > 0:
            raise ValueError("convergence_eps must be > 0")
        if not self.max_correspondence_dist > 0:
            raise ValueError("max_correspondence_dist must be > 0")


def _points_collinear(points: np.ndarray, tol: float = 1e-9) -> bool:
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        return True
    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    return svals[1] <= tol * max(svals[0], 1.0)


def _kabsch(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation + translation mapping p onto q, in any dimension."""
    p_mean = p.mean(axis=0)
    q_mean = q.mean(axis=0)
    h = (p - p_mean).T @ (q - q_mean)
    u, _, vt = np.linalg.svd(h)
    # diag(1, ..., 1, det) turns a best-fit reflection into a rotation.
    fix = np.ones(len(p_mean))
    fix[-1] = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag(fix) @ u.T
    return rot, q_mean - rot @ p_mean


def _icp(
    src: np.ndarray,
    tgt: np.ndarray,
    rot: np.ndarray,
    trans: np.ndarray,
    cfg: IcpConfig,
    fewest_pairs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Point-to-point ICP on (N, d) arrays, from the rigid guess (rot, trans).

    Alternates nearest-neighbor correspondence with a closed-form rigid
    re-fit from the original source points until the mean correspondence
    distance changes by less than ``cfg.convergence_eps``. With
    ``cfg.rotation_locked`` the rotation stays at the guess and only the
    translation is fitted. Fewer than ``fewest_pairs`` matched pairs raise
    DegenerateGeometry; the other errors are those of the two adapters.
    """
    tree = KdTree(tgt)
    prev_residual = None
    grow_streak = 0

    for _ in range(cfg.max_iterations):
        idx, dist = tree.nearest(src @ rot.T + trans)
        mask = dist <= cfg.max_correspondence_dist
        n_pairs = int(mask.sum())
        if n_pairs == 0:
            raise IcpDiverged("no correspondences within max_correspondence_dist")
        if n_pairs < fewest_pairs:
            raise DegenerateGeometry(f"only {n_pairs} corresponding points")
        if n_pairs < cfg.min_pairs:
            raise InsufficientOverlap(
                f"only {n_pairs} matched pairs, need {cfg.min_pairs}"
            )
        residual = float(dist[mask].mean())

        p = src[mask]
        q = tgt[idx[mask]]
        if cfg.rotation_locked:
            trans = q.mean(axis=0) - rot @ p.mean(axis=0)
        else:
            rot, trans = _kabsch(p, q)

        if prev_residual is not None:
            if residual > prev_residual:
                grow_streak += 1
                if grow_streak >= _DIVERGENCE_STREAK:
                    raise IcpDiverged(
                        f"mean residual grew for {_DIVERGENCE_STREAK} consecutive iterations"
                    )
            else:
                grow_streak = 0
            if abs(prev_residual - residual) < cfg.convergence_eps:
                break
        prev_residual = residual

    return rot, trans


def icp_align_2d(
    source: np.ndarray,
    target: np.ndarray,
    init: RigidTransform2D | None = None,
    cfg: IcpConfig = IcpConfig(),
) -> RigidTransform2D:
    """Align a 2D source point set onto a target set.

    Args:
        source: (N, 2) points to move.
        target: (M, 2) fixed points.
        init: starting transform (identity when omitted). With
            ``cfg.rotation_locked`` the returned angle equals ``init.angle``.
        cfg: iteration/correspondence limits.

    Raises:
        ValueError: fewer than 3 points in either set.
        DegenerateGeometry: all points collinear while rotation is free.
        IcpDiverged: no correspondences within reach, or the mean residual
            grew for three consecutive iterations.
        InsufficientOverlap: fewer matched pairs than ``cfg.min_pairs``.
    """
    src = np.asarray(source, dtype=float).reshape(-1, 2)
    tgt = np.asarray(target, dtype=float).reshape(-1, 2)
    if len(src) < 3 or len(tgt) < 3:
        raise ValueError("icp_align_2d needs at least 3 points in each set")
    if init is None:
        init = RigidTransform2D.identity()
    if not cfg.rotation_locked and (_points_collinear(src) or _points_collinear(tgt)):
        raise DegenerateGeometry("all points collinear and rotation unlocked")
    rot, trans = _icp(src, tgt, init.matrix(), init.translation, cfg, fewest_pairs=1)
    if cfg.rotation_locked:
        return RigidTransform2D(init.angle, trans)
    return RigidTransform2D(math.atan2(rot[1, 0], rot[0, 0]), trans)


def icp_align_3d(
    source: PointCloud,
    target: PointCloud,
    init: Pose | None = None,
    cfg: IcpConfig = IcpConfig(),
) -> Pose:
    """3D analogue of :func:`icp_align_2d`.

    Returns the pose mapping source-local coordinates onto the target frame.

    Raises:
        IcpDiverged: an empty cloud, no correspondences within reach, or a
            growing residual.
        DegenerateGeometry: fewer than 3 corresponding points.
        InsufficientOverlap: fewer matched pairs than ``cfg.min_pairs``.
    """
    if init is None:
        init = Pose.identity()
    if len(source) == 0 or len(target) == 0:
        raise IcpDiverged("empty cloud")
    rot, trans = _icp(
        source.points, target.points, init.rotation, init.translation, cfg,
        fewest_pairs=3,
    )
    return Pose(rot, trans)


def predict_overlap(
    a: PointCloud,
    b: PointCloud,
    pose_a: Pose,
    pose_b: Pose,
    margin: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of each cloud's points inside the posed bounding-box overlap.

    Both clouds are placed with their recorded poses; the overlap region is
    the intersection of the two axis-aligned bounding boxes, dilated by
    ``margin``. Raises NoOverlap when the boxes are separated by more than
    ``margin`` on some axis (callers fall back to the full clouds).
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if len(a) == 0 or len(b) == 0:
        raise NoOverlap("empty cloud")
    ga = pose_a.apply(a.points)
    gb = pose_b.apply(b.points)
    lo = np.maximum(ga.min(axis=0), gb.min(axis=0))
    hi = np.minimum(ga.max(axis=0), gb.max(axis=0))
    if np.any(lo - hi > margin):
        raise NoOverlap("bounding boxes separated by more than the margin")
    lo = lo - margin
    hi = hi + margin
    in_a = np.all((ga >= lo) & (ga <= hi), axis=1)
    in_b = np.all((gb >= lo) & (gb <= hi), axis=1)
    return np.nonzero(in_a)[0], np.nonzero(in_b)[0]


def register_clouds(
    stations: list[tuple[PointCloud, Pose]],
    cfg: IcpConfig = IcpConfig(),
) -> PointCloud:
    """Merge station clouds into one global cloud tagged by station index.

    Station 0 (placed with its recorded pose) is the reference. Each later
    station is aligned against the merged cloud so far: predicted-overlap
    subsets feed a 3D ICP seeded by the recorded pose, and the refined pose
    places the full station cloud. No points are dropped.
    """
    if not stations:
        raise ValueError("register_clouds needs at least one station")
    merged_parts: list[PointCloud] = []
    first_cloud, first_pose = stations[0]
    merged_parts.append(transform_cloud(first_pose, first_cloud))

    for k, (cloud, recorded) in enumerate(stations[1:], start=1):
        merged = concat_clouds(merged_parts)
        try:
            idx_merged, idx_src = predict_overlap(
                merged, cloud, Pose.identity(), recorded,
                margin=cfg.max_correspondence_dist,
            )
            tgt = merged.select(idx_merged)
            src = cloud.select(idx_src)
            if len(tgt) == 0 or len(src) == 0:
                raise NoOverlap("empty overlap subset")
        except NoOverlap:
            tgt, src = merged, cloud
        try:
            refined = icp_align_3d(src, tgt, init=recorded, cfg=cfg)
        except (IcpDiverged, InsufficientOverlap) as err:
            raise type(err)(f"station {k}: {err}") from err
        merged_parts.append(transform_cloud(refined, cloud))

    return concat_clouds(merged_parts, retag=True)
