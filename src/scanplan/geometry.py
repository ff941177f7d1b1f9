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


def scan_bearings(angle_min: float, angle_inc: float, count: int) -> np.ndarray:
    """The bearing of each of a scan's ``count`` rays, in ray order."""
    return angle_min + angle_inc * np.arange(count)


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
        # The arrays are copied, so the caller's own stay free to change.
        sources = self.sources
        self._adopt(np.array(self.points, dtype=float),
                    None if sources is None else np.array(sources, dtype=np.int64))

    @classmethod
    def _own(cls, points: np.ndarray, sources: np.ndarray | None = None) -> "PointCloud":
        """A cloud of ``points`` and ``sources`` as they are, not copied: for
        arrays just built by scanplan that nothing else will write."""
        cloud = object.__new__(cls)
        cloud._adopt(np.asarray(points, dtype=float),
                     None if sources is None else np.asarray(sources, dtype=np.int64))
        return cloud

    def _adopt(self, pts: np.ndarray, src: np.ndarray | None) -> None:
        """Check the arrays, make them read-only and hold them."""
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud contains non-finite points")
        if src is not None and src.shape != (len(pts),):
            raise ValueError(
                f"sources must tag every point: {src.shape} vs {len(pts)} points"
            )
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
# out in scanplan.artifacts) in numpy passes. A float's shortest digits are
# found in exact integer and float arithmetic on its value scaled to 17
# digits. Each cell's text is then laid out in a fixed-width byte row, the
# bytes around it are NUL, and a block's rows are joined by dropping the NULs.
# What the fast path cannot decide is printed by repr, so every cell holds
# repr's characters.

_POW10 = np.array([float(10**k) for k in range(23)])   # exact up to 10**22
_INT_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
_SPLITTER = 134217729.0   # 2**27 + 1


def _split(a):
    """Veltkamp's split of a into halves of 26 bits, a = hi + lo."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(x: np.ndarray, k: np.ndarray):
    """x * 10**k exactly, as hi + lo (Dekker's two-product; numpy never
    fuses a multiply and an add, so every step rounds as written)."""
    hi = x * _POW10[k]
    xh, xl = _split(x)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    return hi, ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl


def _rounded(n, f, h, s: int):
    """The nearest multiple Q of 10**s to V = n + f, whether it reads back
    (|Q - V| < h), and whether V lies halfway between two multiples that
    read back, where repr's rule for a tie would decide."""
    u = _INT_POW10[s]
    a = n // u
    b = n - a * u
    twice = 2 * b + (f > 0)   # 2 (V mod u), made odd when V is not whole
    up = twice > u
    d = (up * u - b).astype(float)   # Q - n, exact wherever |Q - V| is near h
    passes = (d - h < f) & (f < d + h)
    tie = passes & (twice == u)
    return (a + up) * u, passes & ~tie, tie


def _shortest_digits(x: np.ndarray):
    """repr's digits of each x in [1e-4, 1e16) that is not a power of two.

    Returns (q, e10, p, ok): the digits as a 17-digit integer q (the p
    significant ones, then zeros), with x printed as q * 10**(e10 - 16).
    Where ``ok`` is False the digits are undecided and repr must print x.

    With V = x * 10**(16 - e10) in [1e16, 1e17) and h the half-ulp of x on
    the same scale, a multiple Q of 10**s reads back as x exactly when
    |Q - V| < h. Each length is tried on the nearest such Q; when a length
    fails, every shorter one fails too, so the search drops values as they
    fail. Two cases need no test. A nearest Q never lies at |Q - V| = h:
    x +- ulp/2 has over 17 significant digits, except on [2**52, 2**54),
    where it is a half or odd integer and x itself is nearer. Nor does Q
    reach 10**17: x would be the float nearest a power of ten and below it,
    and each such float is at or above its power of ten (_DECADES).
    """
    # The decade of x: each float nearest 10**e (-4 <= e <= 16) rounds up,
    # so x >= it exactly when x >= 10**e.
    e10 = np.searchsorted(_DECADES, x, side="right") - 5
    hi, lo = _scaled(x, 16 - e10)
    floor_lo = np.floor(lo)
    n = hi.astype(np.int64) + floor_lo.astype(np.int64)   # V = n + f exactly
    f = lo - floor_lo
    h = (0.5 * np.spacing(x)) * _POW10[16 - e10]
    ok = f != 0.5
    # 17 digits always read back. Most values need 16 or 17, so 16 is tried
    # on all of them and shorter lengths on the values still passing.
    q, passes, tie = _rounded(n, f, h, 1)
    passes &= ok
    ok &= ~tie
    q = np.where(passes, q, n + (f > 0.5))
    p = np.where(passes, 16, 17)
    live = np.nonzero(passes)[0]
    for s in range(2, 17):
        if not len(live):
            break
        qs, passes, tie = _rounded(n[live], f[live], h[live], s)
        ok[live[tie]] = False
        live, qs = live[passes], qs[passes]
        q[live] = qs
        p[live] = 17 - s
    return q, e10, p, ok


# A cell's row of _ROW bytes holds six '0's, then an integer's 18 digits;
# a float's '.' is inserted before byte ``dot``. Everything outside the
# bytes [first, end] (its text, then the separator at ``end``) is cleared.
_ROW = 28
_DIGITS = 6


def _digit_quads() -> np.ndarray:
    """The strings "0000" to "9999", 4 bytes each, as uint32 words."""
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for i in range(4):
        digit = np.arange(10, dtype=np.uint8) + ord("0")
        quads[..., i] = digit.reshape((10,) + (1,) * (3 - i))
    return quads.view(np.uint32).ravel()


def _byte_masks():
    """Row masks: by ``dot``, the bytes before it; by first * _ROW + end,
    the bytes first to end."""
    before = np.arange(_ROW) < np.arange(_ROW + 1)[:, None]
    kept = before[None, 1:] > before[:-1, None]
    row = np.dtype((np.void, _ROW))
    return before.view(np.uint8).view(row).ravel(), kept.view(np.uint8).view(row).ravel()


_QUADS = _digit_quads()
_BEFORE, _KEPT = _byte_masks()


def _digit_rows(v: np.ndarray) -> bytearray:
    """The rows of each v in [0, 10**18), one after the other: six '0's,
    the 18 zero-padded digits of v and 4 spare bytes."""
    rows = bytearray(len(v) * _ROW)
    words = np.frombuffer(rows, dtype=np.uint32).reshape(len(v), _ROW // 4)
    words[:, 0] = _QUADS[0]
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

    Floats are printed as ``repr`` prints them and tags as ``str`` does: the
    number format of :mod:`scanplan.artifacts`.
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
    fast = np.nonzero((mag >= 1e-4) & (mag < 1e16)
                      & (mag.view(np.int64) & (2**52 - 1) != 0))[0]
    q, e10, p, ok = _shortest_digits(mag[fast])
    repr_cell = mag != 0
    repr_cell[fast] = ~ok
    repr_cells = fc[repr_cell]
    texts = list(map(repr, v[repr_cell].tolist()))

    # Per cell: the digits, the byte before which the '.' goes, the first
    # byte and the separator's byte. The defaults print 0.0.
    num = np.zeros(n * cols, dtype=np.int64)
    dot = np.full(n * cols, _DIGITS + 2, dtype=np.int64)
    end = np.full(n * cols, _DIGITS + 4, dtype=np.int64)
    digit_cells, e10 = fc[fast[ok]], e10[ok]
    num[digit_cells] = q[ok]
    dot[digit_cells] = e10 + (_DIGITS + 2)
    end[digit_cells] = np.maximum(p[ok], e10 + 2) + (_DIGITS + 2)   # a ".0" shows a 0
    first = np.minimum(dot - 1, _DIGITS + 1)
    minus = fc[np.signbit(v)]
    first[minus] -= 1
    if tags is not None:
        tags = np.asarray(tags, dtype=np.int64)
        tc = np.arange(width, n * cols, cols)
        small = (tags >= 0) & (tags < _INT_POW10[18])
        num[tc] = np.where(small, tags, 0)
        dot[tc] = _ROW
        end[tc] = _DIGITS + 18
        first[tc] = _DIGITS + 17 - np.searchsorted(_INT_POW10[1:18], tags, "right")
        repr_cells = np.concatenate([repr_cells, tc[~small]])
        texts += map(str, tags[~small].tolist())
    rows = _cell_rows(num, dot, first, end, minus, fc, sep, cols)
    if texts:
        ends = sep * (cols - 1) + "\n"
        np.frombuffer(rows, dtype=np.uint8).reshape(-1, _ROW)[repr_cells] = np.array(
            [t + ends[c % cols] for t, c in zip(texts, repr_cells.tolist())],
            dtype=f"S{_ROW}").view(np.uint8).reshape(-1, _ROW)
    return rows.translate(None, b"\0").decode("ascii")


def _cell_rows(num, dot, first, end, minus, point_cells, sep: str,
               cols: int) -> bytearray:
    """Each cell's row: its digit row, shifted one byte right from ``dot``
    on, with the '.' (in ``point_cells``), the '-' (in ``minus``) and the
    separator written over it, and NUL outside [first, end]."""
    digits = np.frombuffer(_digit_rows(num), dtype=np.uint8)
    rows = bytearray(len(digits))
    out = np.frombuffer(rows, dtype=np.uint8)
    out[:1] = digits[:1]
    np.subtract(digits[1:], digits[:-1], out=out[1:])
    out *= _BEFORE.take(dot).view(np.uint8)
    out[1:] += digits[:-1]
    del digits   # before the second mask is made
    base = np.arange(0, len(out), _ROW)
    out[base[point_cells] + dot[point_cells]] = ord(".")
    out[base[minus] + first[minus]] = ord("-")
    seps = np.full(cols, ord(sep), dtype=np.uint8)
    seps[-1] = ord("\n")
    out[base + end] = np.tile(seps, len(base) // cols)
    out *= _KEPT.take(first * _ROW + end).view(np.uint8)
    return rows
