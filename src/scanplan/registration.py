"""Point-to-point ICP: the pose track's scan matcher and station registration.

One ICP loop (Besl & McKay, PAMI 1992) serves d = 2 and d = 3. The 2D path
fits a translation only: the IMU gives the attitude, so the pose track
hands it horizontal scans already rotated into a common frame, and all that
is left to recover is how far the platform moved between them. The 3D path
fits a full rigid motion with a Kabsch fit to merge station clouds, after
an axis-aligned-box overlap prediction seeded by the recorded poses.

The loop warm-starts its correspondences (after Greenspan & Godin, 3DIM
2001, and Nüchter et al., 3DIM 2007): a source point is sent to the
kd-tree again only when it has moved far enough, against the gap between
its nearest and second-nearest target points, that its nearest neighbour
may have changed. The test is exact, rounding included, so the pairs are
those of a query of every point on every iteration, and the poses are the
same to the bit (see ``_icp``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, IcpDiverged, InsufficientOverlap, NoOverlap
from .geometry import PointCloud, Pose, concat_clouds, transform_cloud
from .spatial import KdTree

_DIVERGENCE_STREAK = 3
# Relative rounding bound of the warm-start guard in _icp. A distance computed
# in d dimensions is within (d/2 + 2) * 2**-53 of itself, relatively; the
# guard needs about twice that of e + R + S, and this is 64 * 2**-53.
_ROUNDING = 32 * np.finfo(float).eps


@dataclass(frozen=True)
class IcpConfig:
    """Iteration and correspondence limits shared by the 2D and 3D aligners.

    ``convergence_eps`` bounds the change of the mean correspondence distance
    between iterations; ``max_correspondence_dist`` is the farthest a nearest
    neighbour may lie and still form a pair; ``min_pairs`` is the fewest
    pairs accepted before InsufficientOverlap is raised.
    """

    max_iterations: int = 50
    convergence_eps: float = 1e-4
    max_correspondence_dist: float = 1.0
    min_pairs: int = 10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.convergence_eps > 0:
            raise ValueError("convergence_eps must be > 0")
        if not self.max_correspondence_dist > 0:
            raise ValueError("max_correspondence_dist must be > 0")
        if self.min_pairs < 1:
            raise ValueError("min_pairs must be >= 1")


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


def _norms(v: np.ndarray) -> np.ndarray:
    """Row lengths of ``v``, rounded as cKDTree rounds its distances: the
    squares summed over the axis in order, then one square root."""
    return np.sqrt((v ** 2).sum(axis=1))


def _kept(dist: np.ndarray, runner_up: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Rows whose kept target is still their unique nearest: the distance
    to it, plus a bound on rounding, is below the runner-up distance at the
    anchor less the shift from the anchor (see ``_icp``)."""
    tol = _ROUNDING * (dist + runner_up + shift)
    return dist + tol < runner_up - shift


def _icp(
    src: np.ndarray,
    tgt: np.ndarray,
    rot: np.ndarray | None,
    trans: np.ndarray,
    cfg: IcpConfig,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Point-to-point ICP on (N, d) arrays, from the guess (rot, trans).

    Alternates nearest-neighbour correspondence with a closed-form re-fit
    from the original source points until the mean correspondence distance
    changes by less than ``cfg.convergence_eps``. Without a rotation
    (``rot`` None) the fit is the translation mean(q) - mean(p), which one
    pair determines; with one, a Kabsch fit moves both and needs 3 pairs
    (DegenerateGeometry below that). The errors are those of the aligners.

    Correspondences are warm-started. Each source row keeps the position it
    was last queried at (its anchor), the nearest target index, and the
    runner-up distance R from that query. After the row has moved by S from
    its anchor, every other target point is at least R - S away (triangle
    inequality). So when e, the row's distance to its kept target, satisfies
    e + tol < R - S, the kept index is still the unique nearest, and e,
    computed as cKDTree computes it, is the distance the tree would return:
    the row skips the query. Rows that were tied at their anchor have R
    equal to their distance and never pass. ``tol`` covers the rounding of
    e, R and S, each a few ulps of itself; a float difference rounds
    relative to its result, not to the coordinates, so the bound holds as
    well for clouds a million metres from the origin. Every other row is
    queried again and re-anchored. The pairs, and so the fits, residuals
    and errors, are those of querying every row on every iteration.
    """
    if len(src) == 0 or len(tgt) == 0:
        raise IcpDiverged("empty point set")
    tree = KdTree(tgt)
    prev_residual = None
    grow_streak = 0
    anchor = None

    for _ in range(cfg.max_iterations):
        moved = src + trans if rot is None else src @ rot.T + trans
        if anchor is None:
            anchor = moved
            idx, dist, runner_up = tree.nearest(moved)
        else:
            dist = _norms(tgt[idx] - moved)
            stale = np.nonzero(~_kept(dist, runner_up, _norms(moved - anchor)))[0]
            if len(stale):
                anchor[stale] = moved[stale]
                idx[stale], dist[stale], runner_up[stale] = tree.nearest(moved[stale])
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
    cfg: IcpConfig = IcpConfig(),
) -> np.ndarray:
    """The (2,) translation that moves a 2D source point set onto a target set.

    Both sets must share one orientation (the pose track rotates each scan
    by its IMU sample first), so only the translation is fitted.

    Raises:
        IcpDiverged: an empty set, no correspondences within reach, or the
            mean residual grew for three consecutive iterations.
        InsufficientOverlap: fewer matched pairs than ``cfg.min_pairs``.
    """
    src = np.asarray(source, dtype=float).reshape(-1, 2)
    tgt = np.asarray(target, dtype=float).reshape(-1, 2)
    return _icp(src, tgt, None, np.zeros(2), cfg)[1]


def icp_align_3d(
    source: PointCloud,
    target: PointCloud,
    init: Pose = Pose.identity(),
    cfg: IcpConfig = IcpConfig(),
) -> Pose:
    """The rigid pose, rotation and translation both fitted from ``init``
    (the identity when omitted), that maps the source onto the target frame.

    Raises:
        IcpDiverged: an empty cloud, no correspondences within reach, or a
            growing residual.
        DegenerateGeometry: fewer than 3 corresponding points.
        InsufficientOverlap: fewer matched pairs than ``cfg.min_pairs``.
    """
    return Pose(*_icp(source.points, target.points, init.rotation, init.translation, cfg))


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
