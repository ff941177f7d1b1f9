"""Core value types and frame transformations.

The platform carries two 2D scanners mounted at right angles. Each reports
one range per bearing ``angle_min + i * angle_inc`` (:func:`scan_bearings`)
in its own plane of the platform's local frame, and both negate the
in-plane coordinates (at bearing 0 a scanner looks along -x):

- the vertical scanner sweeps the local x-z plane,
  (range, bearing) -> (-range*cos(bearing), 0, -range*sin(bearing))
  (:func:`polar_to_local_arrays`);
- the horizontal scanner sweeps the local x-y plane with the same map, its
  y and z columns swapped: (-range*cos(bearing), -range*sin(bearing), 0)
  (:func:`horizontal_polar_to_local_arrays`).

A rigid pose (rotation from the IMU, translation from scan matching) maps
local points into the global frame anchored at the platform's initial
position. All angles are radians, all distances meters, everything float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

# Detection arc half-angle for a 270-degree scanner.
DEFAULT_ARC_LIMIT = 0.75 * math.pi

ROTATION_TOL = 1e-9


def validate_rotation(matrix: np.ndarray) -> np.ndarray:
    """Check that ``matrix`` is a proper rotation (orthonormal, det +1).

    Returns the matrix as a float64 array. Raises ValueError when an entry
    of R^T R - I, or det - 1, exceeds ROTATION_TOL; the matrix is never
    silently re-orthogonalized.
    """
    r = np.asarray(matrix, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("rotation contains non-finite entries")
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > ROTATION_TOL:
        raise ValueError(f"rotation not orthonormal: max |R^T R - I| = {err:.3e}")
    det = np.linalg.det(r)
    if abs(det - 1.0) > ROTATION_TOL:
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


def scan_bearings(angle_min: float, angle_inc: float, count: int) -> np.ndarray:
    """The bearing of each of a scan's ``count`` rays, in ray order."""
    return angle_min + angle_inc * np.arange(count)


def outside_arc(angle_min: float, angle_inc: float, count: int) -> bool:
    """Whether a scan of ``count`` rays has a bearing outside the detection
    arc, +-DEFAULT_ARC_LIMIT, by more than 1e-12 rad."""
    last_bearing = angle_min + angle_inc * (count - 1)
    return (abs(angle_min) > DEFAULT_ARC_LIMIT + 1e-12
            or abs(last_bearing) > DEFAULT_ARC_LIMIT + 1e-12)


def polar_to_local_arrays(ranges: np.ndarray, bearings: np.ndarray) -> np.ndarray:
    """Vertical-scan returns in local coordinates, (N, 3): the x-z plane."""
    ranges = np.asarray(ranges, dtype=float)
    bearings = np.asarray(bearings, dtype=float)
    out = np.zeros(ranges.shape + (3,))
    out[..., 0] = -ranges * np.cos(bearings)
    out[..., 2] = -ranges * np.sin(bearings)
    return out


def horizontal_polar_to_local_arrays(
    ranges: np.ndarray, bearings: np.ndarray
) -> np.ndarray:
    """Horizontal-scan returns in local coordinates, (N, 3): the x-y plane."""
    return polar_to_local_arrays(ranges, bearings)[..., [0, 2, 1]]


def plane_axes(normal: np.ndarray, u_dir=None) -> tuple[np.ndarray, np.ndarray]:
    """In-plane unit axes (u, v = normal x u) of a plane; ``normal`` is used as given.

    u is ``u_dir``, or else the global axis least aligned with the unit
    normal (the first on ties), projected into the plane. A ``u_dir`` along
    the normal is a ValueError.
    """
    n = np.asarray(normal, dtype=float)
    if u_dir is None:
        u = np.zeros(3)
        u[int(np.argmin(np.abs(n)))] = 1.0
    else:
        u = np.asarray(u_dir, dtype=float)
    u = u - (u @ n) * n
    length = np.linalg.norm(u)
    if length == 0:
        raise ValueError("in-plane direction is parallel to the normal")
    u = u / length
    return u, np.cross(n, u)


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


# --- the grid --------------------------------------------------------------------
#
# Cloud coordinates, and the ranges and stamps the simulator makes, live on a
# grid of 1 um, 5,000 times below the smallest noise of any scene. For k up
# to 2**51, k / 1e6 as a float lies within k * 2**-53 <= 0.25 steps of k, and
# the product with 1e6 rounds to a float less than 0.5 from k, so rint gives k back:
# putting a value on the grid twice changes nothing. The float lies less than
# half a micrometre from k um, so "%.6f" prints k um, which reads back as the
# same float. The grid ends at 2**51 um (about 2.25e9 m); past it the product
# can round halfway, and rint can land on k +- 1.
GRID_LIMIT = 2.0**51 / 1e6


def to_grid(a: np.ndarray) -> np.ndarray:
    """Round ``a`` in place to the nearest multiple of 1e-6 and return it;
    -0.0 becomes 0.0. Values must lie within +-GRID_LIMIT."""
    a *= 1e6
    np.rint(a, out=a)
    a /= 1e6
    a += 0.0
    return a


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points in one frame, optionally tagged by source scan.

    ``points`` is (N, 3) float64 on the 1 um grid (:func:`to_grid`; a value
    past +-GRID_LIMIT is a ValueError) and ``sources``, when present, is (N,)
    int with one tag per point. Instances are value types: the arrays are
    read-only and all operations return new clouds.
    """

    points: np.ndarray
    sources: np.ndarray | None = field(default=None)

    def __post_init__(self):
        # The arrays are copied, so the caller's own stay free to change.
        sources = self.sources
        self._adopt(np.array(self.points, dtype=float),
                    None if sources is None else np.array(sources, dtype=np.int64))

    @classmethod
    def _own(cls, points: np.ndarray, sources: np.ndarray | None = None) -> "PointCloud":
        """A cloud of ``points`` and ``sources`` not copied, the points put on
        the grid in place: for arrays just built by scanplan that nothing
        else will write."""
        cloud = object.__new__(cls)
        cloud._adopt(np.asarray(points, dtype=float),
                     None if sources is None else np.asarray(sources, dtype=np.int64))
        return cloud

    def _adopt(self, pts: np.ndarray, src: np.ndarray | None) -> None:
        """Check the arrays, put the points on the grid in place, make the
        arrays read-only and hold them."""
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
        if src is not None and src.shape != (len(pts),):
            raise ValueError(
                f"sources must tag every point: {src.shape} vs {len(pts)} points"
            )
        if pts.size and not -GRID_LIMIT <= pts.min() <= pts.max() <= GRID_LIMIT:
            if not np.isfinite(pts).all():
                raise ValueError("cloud contains non-finite points")
            raise ValueError(f"cloud reaches past the +-{GRID_LIMIT:.6g} m of the grid")
        to_grid(pts)
        for a in (pts, src):
            if a is not None:
                a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "sources", src)

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.zeros((0, 3)))

    def select(self, indices) -> "PointCloud":
        idx = np.asarray(indices, dtype=np.int64)
        src = self.sources[idx] if self.sources is not None else None
        return PointCloud._own(self.points[idx], src)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(min corner, max corner) of the axis-aligned bounding box."""
        if len(self) == 0:
            raise ValueError("empty cloud has no bounds")
        return self.points.min(axis=0), self.points.max(axis=0)


# --- number text ---------------------------------------------------------------
#
# Every coordinate, range and stamp of a text artifact (the format is set out
# in scanplan.artifacts) is printed as FLOAT_FORMAT prints it. A value on the
# grid reads back bit for bit; inf and nan print as "inf" and "nan".
FLOAT_FORMAT = "%.6f"


def format_table(values: np.ndarray, tags: np.ndarray | None = None,
                 sep: str = " ") -> str:
    """One text line per row of ``values`` (n, c), its numbers joined by
    ``sep``: each float as :data:`FLOAT_FORMAT` prints it, and ``tags`` (n,),
    when given, as an integer last column."""
    values = np.asarray(values, dtype=float)
    n, width = values.shape
    columns = [values[:, j].tolist() for j in range(width)]
    formats = [FLOAT_FORMAT] * width
    if tags is not None:
        columns.append(np.asarray(tags, dtype=np.int64).tolist())
        formats.append("%d")
    line = sep.join(formats) + "\n"
    return (line * n) % tuple(chain.from_iterable(zip(*columns)))
