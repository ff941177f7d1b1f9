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
# putting a value on the grid twice changes nothing, and its six decimals
# read back bit for bit. The grid ends at 2**51 um (about 2.25e9 m); past it
# the product can round halfway, and rint can land on k +- 1.
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
# format_table prints the numbers of the artifact files (the format is set
# out in scanplan.artifacts) in numpy passes: a float as rint(|v| * 1e6),
# the integer's digits with a '.' six from the end, which for a value on the
# grid is the text of "%.6f". Each cell's text is laid out in a fixed-width
# byte row, the bytes around it are NUL, and a block's rows are joined by
# dropping the NULs. A value the row cannot hold (not finite, or |v| >= 1e12)
# is printed by repr.

# The magnitudes whose micrometres fit the 18 digits of a row.
_FIXED_LIMIT = 1e12
_INT_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)

# A cell's row of _ROW bytes holds an integer's 18 digits from byte 6 on.
# A float's '.' goes in before byte _DOT, six digits from the end, and its
# separator after them; a tag's separator follows its digits. The bytes
# before a cell's text are cleared.
_ROW = 28
_DOT = 18


def _digit_quads() -> np.ndarray:
    """The strings "0000" to "9999", 4 bytes each, as uint32 words."""
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for i in range(4):
        digit = np.arange(10, dtype=np.uint8) + ord("0")
        quads[..., i] = digit.reshape((10,) + (1,) * (3 - i))
    return quads.view(np.uint32).ravel()


_QUADS = _digit_quads()


def _digit_rows(v: np.ndarray) -> bytearray:
    """The rows of each v in [0, 10**18), one after the other: 4 NUL bytes,
    "00", the 18 zero-padded digits of v and 4 NUL bytes."""
    rows = bytearray(len(v) * _ROW)
    words = np.frombuffer(rows, dtype=np.uint32).reshape(len(v), _ROW // 4)
    high = v // 10**8
    low = v - high * 10**8
    head = high // 10**8                # "00" and the first 2 digits
    high -= head * 10**8
    for col, quad in enumerate((head, high // 10**4, high % 10**4,
                                low // 10**4, low % 10**4), start=1):
        np.take(_QUADS, quad, out=words[:, col], mode="clip")
    return rows


def format_table(values: np.ndarray, tags: np.ndarray | None = None,
                 sep: str = " ") -> str:
    """One text line per row of ``values`` (n, c), its numbers joined by
    ``sep`` (one character); ``tags`` (n,) adds an integer last column.

    A float is printed with six decimals, from rint(|v| * 1e6) and the sign
    bit of v: for a value on the grid that is the text of ``"%.6f"``, which
    reads back bit for bit. A float that is not finite or has |v| >= 1e12 is
    printed by ``repr``, and a tag as ``str`` prints it: the number format of
    :mod:`scanplan.artifacts`.
    """
    values = np.asarray(values, dtype=float)
    n, width = values.shape
    cols = width + (tags is not None)
    if cols == 0:
        return "\n" * n
    v = values.ravel()
    fc = np.arange(v.size)          # the cell of each value
    if tags is not None:
        fc += fc // width
    mag = np.abs(v)
    by_repr = ~(mag < _FIXED_LIMIT)
    repr_cells = fc[by_repr]
    texts = list(map(repr, v[by_repr].tolist()))
    mag[by_repr] = 0.0
    mag *= 1e6
    np.rint(mag, out=mag)

    # Each cell's digits; the first byte of its text, where a float keeps
    # its units digit; and its row, the '.' and separator written in.
    num = np.zeros((n, cols), dtype=np.int64)
    num[:, :width] = mag.reshape(n, width)
    if tags is not None:
        tags = np.asarray(tags, dtype=np.int64)
        small = (tags >= 0) & (tags < _INT_POW10[18])
        num[:, width] = np.where(small, tags, 0)
        tag_cells = np.arange(width, n * cols, cols)[~small]
        repr_cells = np.concatenate([repr_cells, tag_cells])
        texts += map(str, tags[~small].tolist())
    first = (_DOT + 5) - np.searchsorted(_INT_POW10[1:18], num, "right")
    np.minimum(first[:, :width], _DOT - 1, out=first[:, :width])
    rows = _digit_rows(num.ravel())
    cells = np.frombuffer(rows, dtype=np.uint8).reshape(n, cols, _ROW)
    floats = cells[:, :width]
    floats[..., _DOT + 1:] = floats[..., _DOT:-1]
    floats[..., _DOT] = ord(".")
    cells *= np.arange(_ROW) >= first[..., None]
    minus = fc[np.signbit(v)]
    cells.reshape(-1, _ROW)[minus, first.ravel()[minus] - 1] = ord("-")
    cells[:, :width, _DOT + 7] = ord(sep)
    cells[:, width:, _DOT + 6] = ord(sep)
    cells[:, -1, _DOT + 7 - (tags is not None)] = ord("\n")
    if texts:
        ends = sep * (cols - 1) + "\n"
        np.frombuffer(rows, dtype=np.uint8).reshape(-1, _ROW)[repr_cells] = np.array(
            [t + ends[c % cols] for t, c in zip(texts, repr_cells.tolist())],
            dtype=f"S{_ROW}").view(np.uint8).reshape(-1, _ROW)
    return rows.translate(None, b"\0").decode("ascii")
