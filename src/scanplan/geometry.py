"""Core value types and frame transformations.

The scanner reports (range, bearing) pairs in its own plane; a rigid pose
(rotation from the IMU, translation from scan matching) maps local points
into the global frame anchored at the platform's initial position.
All angles are radians, all distances meters, everything float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Detection arc half-angle for a 270-degree scanner.
DEFAULT_ARC_LIMIT = 0.75 * math.pi

ROTATION_TOL = 1e-9


def validate_rotation(matrix: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Check that ``matrix`` is a proper rotation (orthonormal, det +1).

    Returns the matrix as a float64 array. Raises ValueError otherwise;
    the matrix is never silently re-orthogonalized.
    """
    r = np.asarray(matrix, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("rotation contains non-finite entries")
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > tol:
        raise ValueError(f"rotation not orthonormal: max |R^T R - I| = {err:.3e}")
    det = np.linalg.det(r)
    if abs(det - 1.0) > tol:
        raise ValueError(f"rotation determinant {det!r} is not +1")
    return r


def rotation_about_z(angle: float) -> np.ndarray:
    """Yaw rotation matrix (right-handed, about +z)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def polar_to_local_arrays(ranges: np.ndarray, bearings: np.ndarray) -> np.ndarray:
    """Map vertical-scan returns to local Cartesian coordinates, (N, 3).

    The scan plane is the local x-z plane; the convention negates both
    in-plane coordinates (the scanner faces the -x/-z quadrant):
    (range, bearing) -> (-range*cos(bearing), 0, -range*sin(bearing)).
    """
    ranges = np.asarray(ranges, dtype=float)
    bearings = np.asarray(bearings, dtype=float)
    out = np.zeros(ranges.shape + (3,))
    out[..., 0] = -ranges * np.cos(bearings)
    out[..., 2] = -ranges * np.sin(bearings)
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid transform mapping local scanner coordinates to the global frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = validate_rotation(self.rotation)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("translation contains non-finite entries")
        object.__setattr__(self, "rotation", _readonly(r))
        object.__setattr__(self, "translation", _readonly(t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply R x + T to one point (3,) or a stack (N, 3)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -(rt @ self.translation))

    def compose(self, other: "Pose") -> "Pose":
        """Pose applying ``other`` first, then ``self``."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points in one frame, optionally tagged by source scan.

    ``points`` is (N, 3) float64 and ``sources``, when present, is (N,) int
    with one tag per point. Instances are value types: the arrays are
    read-only and all operations return new clouds.
    """

    points: np.ndarray
    sources: np.ndarray | None = field(default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud contains non-finite points")
        object.__setattr__(self, "points", _readonly(pts))
        if self.sources is not None:
            src = np.asarray(self.sources, dtype=np.int64)
            if src.shape != (len(pts),):
                raise ValueError(
                    f"sources must tag every point: {src.shape} vs {len(pts)} points"
                )
            src = src.copy()
            src.setflags(write=False)
            object.__setattr__(self, "sources", src)

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.zeros((0, 3)))

    def select(self, indices) -> "PointCloud":
        idx = np.asarray(indices, dtype=np.int64)
        src = self.sources[idx] if self.sources is not None else None
        return PointCloud(self.points[idx], src)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(min corner, max corner) of the axis-aligned bounding box."""
        if len(self) == 0:
            raise ValueError("empty cloud has no bounds")
        return self.points.min(axis=0), self.points.max(axis=0)


def transform_cloud(pose: Pose, cloud: PointCloud) -> PointCloud:
    """Apply a pose to every point; order and source tags are preserved."""
    return PointCloud(pose.apply(cloud.points), cloud.sources)


def concat_clouds(clouds, retag: bool = False) -> PointCloud:
    """Concatenate clouds in order.

    With ``retag`` each input cloud's points get its list position as source
    tag; otherwise existing tags are kept when every input has them.
    """
    clouds = list(clouds)
    if not clouds:
        return PointCloud.empty()
    pts = np.vstack([c.points for c in clouds])
    if retag:
        src = np.concatenate(
            [np.full(len(c), i, dtype=np.int64) for i, c in enumerate(clouds)]
        )
    elif all(c.sources is not None for c in clouds):
        src = np.concatenate([c.sources for c in clouds])
    else:
        src = None
    return PointCloud(pts, src)
