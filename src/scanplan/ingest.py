"""Scan-log parsing, pose-track estimation and single-station cloud assembly.

Log format (line-oriented ASCII, the contract between generators and the
pipeline):

    # angle_min <rad>
    # angle_inc <rad>
    # range_max <m>
    V <t> <r1> <r2> ... <rN>     vertical scan ranges, bearings implied
    H <t> <r1> ... <rN>          horizontal scan ranges
    I <t> <r11> <r12> ... <r33>  IMU rotation matrix, row-major

The three header lines come first: a log has one header, which gives the
bearings of every scan (the two scan planes are set out in
:mod:`scanplan.geometry`), and a header line after the first record is
malformed. One validity rule, applied in :func:`local_points` only: a range
reading is a valid return when 0 < range <= range_max. Other readings (0
marks a no-return) stay in the record as written and are skipped by every
consumer.

The IMU owns the rotation channel of the pose track: each pose takes the
nearest IMU sample, untouched. The translation channel chains 2D scan
matching between consecutive horizontal scans, each first rotated by its
IMU sample so that only a translation is fitted. The vertical component
stays 0 (a horizontal scanner cannot observe it).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptyLog,
    IcpDiverged,
    InsufficientOverlap,
    MalformedRecord,
    MissingPose,
    UnsortedTimestamps,
)
from .geometry import (
    DEFAULT_ARC_LIMIT,
    PointCloud,
    Pose,
    format_rows,
    horizontal_polar_to_local_arrays,
    polar_to_local_arrays,
    scan_bearings,
    validate_rotation,
)
from .registration import IcpConfig, icp_align_2d

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LaserScan:
    """One sweep's ranges, in ray order; its log's header gives the bearings."""

    timestamp: float
    ranges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ranges", np.asarray(self.ranges, dtype=float))


@dataclass(frozen=True)
class ImuSample:
    timestamp: float
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", validate_rotation(self.rotation))


@dataclass(frozen=True)
class ScanLog:
    """Vertical scans, horizontal scans and IMU samples under one header."""

    vertical: list
    horizontal: list
    imu: list
    angle_min: float
    angle_inc: float
    range_max: float


@dataclass(frozen=True)
class PoseTrack:
    """(timestamp, Pose) pairs with strictly increasing timestamps."""

    entries: list
    _by_time: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ts = [t for t, _ in self.entries]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise UnsortedTimestamps("pose track timestamps must strictly increase")
        # A NaN stamp equals no timestamp, so it gets no key (a dict would
        # still find the very same NaN object).
        object.__setattr__(
            self, "_by_time", {t: pose for t, pose in self.entries if t == t}
        )

    def pose_at(self, timestamp: float) -> Pose:
        pose = self._by_time.get(timestamp)
        if pose is None:
            raise MissingPose(timestamp)
        return pose


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedRecord(f"bad {what} {token!r}", line=line_no) from None
    if math.isnan(value):
        raise MalformedRecord(f"{what} is NaN", line=line_no)
    return value


def _parse_floats(tokens: list[str], line_no: int, what: str) -> np.ndarray:
    """``tokens`` as floats in one numpy call, which converts each token as
    ``float`` does; the token-by-token pass runs only to name a bad or NaN
    token."""
    try:
        values = np.array(tokens, dtype=float)
        if not np.isnan(values).any():
            return values
    except ValueError:
        pass
    return np.array([_parse_float(tok, line_no, what) for tok in tokens])


def parse_scan_log(path, arc_limit: float = DEFAULT_ARC_LIMIT) -> ScanLog:
    """Read and validate a scan log.

    Raises:
        MalformedRecord: unknown record type, bad number, negative range,
            implied bearing outside the detection arc, missing header, a
            header line after the first record, or no IMU sample at or
            before the first scan.
        UnsortedTimestamps: a stream's timestamps fail to strictly increase.
        EmptyLog: no scan records at all.
    """
    header: dict[str, float] = {}
    vertical: list[LaserScan] = []
    horizontal: list[LaserScan] = []
    imu: list[ImuSample] = []

    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] in ("angle_min", "angle_inc", "range_max"):
                    if vertical or horizontal or imu:
                        raise MalformedRecord(
                            f"header line '# {parts[0]} ...' after the first record",
                            line=line_no,
                        )
                    header[parts[0]] = _parse_float(parts[1], line_no, parts[0])
                continue
            tokens = line.split()
            tag = tokens[0]
            if tag in ("V", "H"):
                for key in ("angle_min", "angle_inc", "range_max"):
                    if key not in header:
                        raise MalformedRecord(
                            f"scan record before header line '# {key} ...'", line=line_no
                        )
                if header["angle_inc"] <= 0:
                    raise MalformedRecord("angle_inc must be > 0", line=line_no)
                if len(tokens) < 3:
                    raise MalformedRecord("scan record needs a timestamp and ranges",
                                          line=line_no)
                t = _parse_float(tokens[1], line_no, "timestamp")
                if t < 0:
                    raise MalformedRecord("timestamp must be >= 0", line=line_no)
                ranges = _parse_floats(tokens[2:], line_no, "range")
                if np.any(ranges < 0):
                    raise MalformedRecord("negative range reading", line=line_no)
                last_bearing = header["angle_min"] + header["angle_inc"] * (len(ranges) - 1)
                if abs(header["angle_min"]) > arc_limit + 1e-12 or abs(last_bearing) > arc_limit + 1e-12:
                    raise MalformedRecord(
                        f"implied bearing outside the +-{arc_limit:.6f} rad arc",
                        line=line_no,
                    )
                (vertical if tag == "V" else horizontal).append(LaserScan(t, ranges))
            elif tag == "I":
                if len(tokens) != 11:
                    raise MalformedRecord(
                        "IMU record needs a timestamp and 9 matrix entries", line=line_no
                    )
                t = _parse_float(tokens[1], line_no, "timestamp")
                entries = _parse_floats(tokens[2:], line_no, "rotation entry")
                try:
                    sample = ImuSample(t, entries.reshape(3, 3))
                except ValueError as err:
                    raise MalformedRecord(str(err), line=line_no) from None
                imu.append(sample)
            else:
                raise MalformedRecord(f"unknown record type {tag!r}", line=line_no)

    if not vertical and not horizontal:
        raise EmptyLog(f"{path} contains no scan records")
    for name, stream in (("vertical", vertical), ("horizontal", horizontal), ("imu", imu)):
        ts = [s.timestamp for s in stream]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise UnsortedTimestamps(f"{name} stream timestamps must strictly increase")
    first_scan_t = min(s.timestamp for s in vertical + horizontal)
    if not imu or imu[0].timestamp > first_scan_t:
        raise MalformedRecord("no IMU sample at or before the first scan")

    return ScanLog(
        vertical, horizontal, imu,
        header["angle_min"], header["angle_inc"], header["range_max"],
    )


def write_scan_log(path, log: ScanLog) -> None:
    """Serialize a ScanLog in the format parse_scan_log reads (lossless)."""
    records = (
        [("V", s.timestamp, s) for s in log.vertical]
        + [("H", s.timestamp, s) for s in log.horizontal]
        + [("I", s.timestamp, s) for s in log.imu]
    )
    # Stable interleave by time; stream order V < H < I on equal stamps.
    order = {"V": 0, "H": 1, "I": 2}
    records.sort(key=lambda r: (r[1], order[r[0]]))
    with open(path, "w", encoding="ascii") as fh:
        # repr(float(v)): under numpy 2 the repr of a numpy scalar is
        # "np.float64(...)", which the parser rejects.
        fh.write(f"# angle_min {float(log.angle_min)!r}\n")
        fh.write(f"# angle_inc {float(log.angle_inc)!r}\n")
        fh.write(f"# range_max {float(log.range_max)!r}\n")
        for tag, t, rec in records:
            values = rec.rotation.ravel() if tag == "I" else rec.ranges
            fh.write(f"{tag} {float(t)!r} {format_rows([values.tolist()])}")


def local_points(log: ScanLog, scan: LaserScan, to_local) -> np.ndarray:
    """Local points (N, 3) of a scan's valid returns: 0 < range <= range_max.

    ``to_local`` is the map of the scan's plane from :mod:`scanplan.geometry`.
    """
    valid = (scan.ranges > 0) & (scan.ranges <= log.range_max)
    bearings = scan_bearings(log.angle_min, log.angle_inc, len(scan.ranges))
    return to_local(scan.ranges[valid], bearings[valid])


def _nearest_sample(timestamps: np.ndarray, t: float) -> int:
    """Index of the time-nearest sample; earlier sample wins ties.

    ``timestamps`` must increase. The rounded |timestamps - t| never rises
    up to the first sample at or after t and never falls from it on, so
    the first minimum is that sample or the one before it. Rounding can
    give samples before that one the same difference (far from t), and
    the walk back then takes the first of them, as an argmin would.
    """
    i = int(np.searchsorted(timestamps, t))
    if i > 0 and (i == len(timestamps)
                  or abs(timestamps[i - 1] - t) <= abs(timestamps[i] - t)):
        i -= 1
        best = abs(timestamps[i] - t)
        while i > 0 and abs(timestamps[i - 1] - t) == best:
            i -= 1
    return i


def estimate_pose_track(log: ScanLog, icp_cfg: IcpConfig = IcpConfig()) -> PoseTrack:
    """Pose per vertical-scan timestamp: IMU rotation + chained 2D scan matching.

    Consecutive horizontal scans are pre-rotated by their IMU attitude and
    aligned translation-only; the increments accumulate into the horizontal
    translation (z stays 0). Each vertical scan takes the nearest IMU
    rotation and the translation accumulated at its nearest horizontal scan.

    Raises:
        IcpDiverged / InsufficientOverlap: from a scan pair, named in the message.
    """
    if len(log.horizontal) < 2:
        raise ValueError("pose-track estimation needs at least 2 horizontal scans")
    if not log.imu:
        raise ValueError("pose-track estimation needs IMU samples")
    imu_ts = np.array([s.timestamp for s in log.imu])

    def imu_for(t: float) -> np.ndarray:
        return log.imu[_nearest_sample(imu_ts, t)].rotation

    h_ts = np.array([s.timestamp for s in log.horizontal])

    def rotated_xy(i: int) -> np.ndarray:
        local = local_points(log, log.horizontal[i], horizontal_polar_to_local_arrays)
        return (local @ imu_for(h_ts[i]).T)[:, :2]

    cumulative = np.zeros((len(log.horizontal), 2))
    prev_points = rotated_xy(0)
    for i in range(1, len(log.horizontal)):
        cur_points = rotated_xy(i)
        try:
            delta = icp_align_2d(cur_points, prev_points, icp_cfg)
        except (IcpDiverged, InsufficientOverlap) as err:
            raise type(err)(f"scan pair {i - 1}: {err}") from err
        cumulative[i] = cumulative[i - 1] + delta
        prev_points = cur_points

    entries = []
    for scan in log.vertical:
        rotation = imu_for(scan.timestamp)
        xy = cumulative[_nearest_sample(h_ts, scan.timestamp)]
        entries.append(
            (scan.timestamp, Pose(rotation, np.array([xy[0], xy[1], 0.0])))
        )
    return PoseTrack(entries)


def build_cloud(log: ScanLog, track: PoseTrack) -> PointCloud:
    """Map every valid vertical-scan return through its scan pose.

    Invalid readings (see :func:`local_points`) are dropped; the drop count
    is logged. Output points carry the vertical scan index as source tag.

    Raises:
        MissingPose: the track lacks a vertical-scan timestamp.
    """
    parts = []
    tags = []
    dropped = 0
    for scan_index, scan in enumerate(log.vertical):
        pose = track.pose_at(scan.timestamp)
        local = local_points(log, scan, polar_to_local_arrays)
        dropped += len(scan.ranges) - len(local)
        if not len(local):
            continue
        parts.append(pose.apply(local))
        tags.append(np.full(len(local), scan_index, dtype=np.int64))
    if dropped:
        logger.info("build_cloud dropped %d invalid/out-of-range returns", dropped)
    if not parts:
        return PointCloud.empty()
    return PointCloud(np.vstack(parts), np.concatenate(tags))
