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
malformed. One validity rule, in :func:`_valid_returns` only: a range
reading is a valid return when 0 < range <= range_max. Other readings (0
marks a no-return) stay in the record as written and are skipped by every
consumer.

After its header a log is read a block of lines at a time. A block of
records spelled as :func:`write_scan_log` spells them is converted by one
``np.loadtxt`` pass per line width and checked by vector tests; any other
block is read line by line, with the same values and the same error on the
same line. Each stream of a :class:`ScanLog` is one :class:`Stream`, a
stamps array and its records, and a block's scans are row views of one
table. So a log is held in a few large arrays rather than one small one
per scan, and dropping it gives the memory back to the OS instead of
leaving it in malloc's heap.

The IMU owns the rotation channel of the pose track: each pose takes the
nearest IMU sample, untouched. The translation channel chains 2D scan
matching between consecutive horizontal scans, each first rotated by its
IMU sample so that only a translation is fitted. The vertical component
stays 0 (a horizontal scanner cannot observe it). The track is a list of
poses, one per vertical scan in ``log.vertical`` order, and
:func:`build_cloud` pairs scans and poses by that order, not by timestamp;
the parser's checks (no NaN stamp, strictly increasing per stream) are the
only ones the stamps get.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyLog,
    IcpDiverged,
    InsufficientOverlap,
    MalformedRecord,
    UnsortedTimestamps,
)
from .geometry import (
    DEFAULT_ARC_LIMIT,
    FLOAT_FORMAT,
    PointCloud,
    Pose,
    horizontal_polar_to_local_arrays,
    outside_arc,
    polar_to_local_arrays,
    scan_bearings,
    validate_rotation,
)
from .registration import IcpConfig, icp_align_2d

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class Stream:
    """One stream of a log: ``records[k]``, a scan's ranges in ray order or
    an IMU rotation (3, 3), is stamped ``stamps[k]`` seconds. ``stamps`` is
    a float64 (n,) array and each record a float64 array; stamps and
    records of different lengths are a ValueError."""

    stamps: np.ndarray
    records: tuple

    def __post_init__(self):
        stamps = np.asarray(self.stamps, dtype=np.float64)
        records = tuple(np.asarray(r, dtype=np.float64) for r in self.records)
        if stamps.shape != (len(records),):
            raise ValueError(f"{stamps.shape} stamps for {len(records)} records")
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "records", records)

    def __len__(self) -> int:
        return len(self.stamps)


@dataclass(frozen=True)
class ScanLog:
    """Vertical scans, horizontal scans and IMU samples under one header."""

    vertical: Stream
    horizontal: Stream
    imu: Stream
    angle_min: float
    angle_inc: float
    range_max: float


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


def _parse_line(line_no: int, raw: str, header: dict, streams: tuple) -> None:
    """Check one log line and add it to ``header`` or to its stream of
    ``streams``: the (stamps, records) lists of the V, H and I streams."""
    if not raw.isascii():
        raise MalformedRecord("non-ASCII byte", line=line_no)
    line = raw.strip()
    if not line:
        return
    if line.startswith("#"):
        parts = line[1:].split()
        if len(parts) == 2 and parts[0] in ("angle_min", "angle_inc", "range_max"):
            if any(stamps for stamps, _ in streams):
                raise MalformedRecord(
                    f"header line '# {parts[0]} ...' after the first record",
                    line=line_no,
                )
            value = _parse_float(parts[1], line_no, parts[0])
            if not math.isfinite(value):
                raise MalformedRecord(f"{parts[0]} must be finite", line=line_no)
            if parts[0] != "angle_min" and not value > 0:
                raise MalformedRecord(f"{parts[0]} must be > 0", line=line_no)
            header[parts[0]] = value
        return
    tokens = line.split()
    tag = tokens[0]
    if tag in ("V", "H"):
        if len(header) < 3:
            key = next(k for k in ("angle_min", "angle_inc", "range_max")
                       if k not in header)
            raise MalformedRecord(f"scan record before header line '# {key} ...'",
                                  line=line_no)
        if len(tokens) < 3:
            raise MalformedRecord("scan record needs a timestamp and ranges",
                                  line=line_no)
        t = _parse_float(tokens[1], line_no, "timestamp")
        if t < 0:
            raise MalformedRecord("timestamp must be >= 0", line=line_no)
        ranges = _parse_floats(tokens[2:], line_no, "range")
        if np.any(ranges < 0):
            raise MalformedRecord("negative range reading", line=line_no)
        if outside_arc(header["angle_min"], header["angle_inc"], len(ranges)):
            raise MalformedRecord(
                f"implied bearing outside the +-{DEFAULT_ARC_LIMIT:.6f} rad arc",
                line=line_no,
            )
        record = ranges
    elif tag == "I":
        if len(tokens) != 11:
            raise MalformedRecord(
                "IMU record needs a timestamp and 9 matrix entries", line=line_no
            )
        t = _parse_float(tokens[1], line_no, "timestamp")
        entries = _parse_floats(tokens[2:], line_no, "rotation entry")
        try:
            record = validate_rotation(entries.reshape(3, 3))
        except ValueError as err:
            raise MalformedRecord(str(err), line=line_no) from None
    else:
        raise MalformedRecord(f"unknown record type {tag!r}", line=line_no)
    stamps, records = streams["VHI".index(tag)]
    stamps.append(t)
    records.append(record)


# Lines after the header are read this many at a time. With 1081-ray scans
# a block's table of scans is ~0.7 MB. On the 360-scan room log, blocks of
# 112 to 256 lines took ~3.2 MB off the peak memory of `scanplan run`;
# blocks of 48 and 64, whose tables stay in malloc's heap, took 0 and 1.7 MB.
_READ_BLOCK_LINES = 128
# The bytes of a block that _parse_block takes, and how each of its lines starts.
_CANONICAL_LOG = b"0123456789.-+eE \nVHI"
_RECORD_START = re.compile(r"[VHI] \S")


def _parse_block(lines: list[str], header: dict, streams: tuple) -> bool:
    """Add the records of a block of log lines read after the header to
    ``streams`` (as :func:`_parse_line` does), one ``np.loadtxt`` pass per
    line width; False, with ``streams`` untouched, when the block takes
    :func:`_parse_line`.

    The pass takes a block of records alone: each line a tag, one space and
    then numbers one space apart, in ``_CANONICAL_LOG`` bytes. Within these
    bytes numpy converts a number as ``float`` does, or fails, and no number
    is NaN. Each width's table then gets the line parser's checks as vector
    tests (a scan's stamp and ranges >= 0, its width inside the arc), and
    each IMU record the rotation check. A block that fails any of them gives
    False, and the line parser then names the first bad line.
    """
    by_width: dict[int, list[int]] = {}
    for k, line in enumerate(lines):
        if (not line.isascii()
                or line.encode("ascii").translate(None, _CANONICAL_LOG)
                or not _RECORD_START.match(line)):
            return False
        by_width.setdefault(line.count(" "), []).append(k)
    records = [None] * len(lines)
    for width, rows in by_width.items():
        try:
            table = np.loadtxt([lines[k][2:] for k in rows], comments=None, ndmin=2)
        except ValueError:
            return False
        is_imu = np.array([lines[k][0] == "I" for k in rows])
        if table.shape != (len(rows), width):
            return False
        if not is_imu.all() and (
                width < 2
                or outside_arc(header["angle_min"], header["angle_inc"], width - 1)
                or (table.min(axis=1)[~is_imu] < 0).any()):
            return False
        for k, t, values, imu in zip(rows, table[:, 0].tolist(), table[:, 1:],
                                     is_imu.tolist()):
            try:
                records[k] = t, validate_rotation(values.reshape(3, 3)) if imu else values
            except ValueError:
                return False
    for line, (t, record) in zip(lines, records):
        stamps, stream = streams["VHI".index(line[0])]
        stamps.append(t)
        stream.append(record)
    return True


def parse_scan_log(path) -> ScanLog:
    """Read and validate a scan log.

    The header lines are read one at a time and the rest in blocks of
    ``_READ_BLOCK_LINES`` lines, each converted in one pass per line width
    (:func:`_parse_block`) or, where that pass does not take it, line by
    line. A block's scans share one array, large enough that malloc maps
    it apart from its heap, so dropping the log gives its memory back to
    the OS.

    Raises:
        MalformedRecord: a non-ASCII byte, unknown record type, bad
            number, negative range, implied bearing outside the detection
            arc, a header value that is not finite, an ``angle_inc`` or
            ``range_max`` that is not > 0, a header key missing at the
            first scan record, a header line after the first record, or no
            IMU sample at or before the first scan.
        UnsortedTimestamps: a stream's stamps fail to strictly increase; the
            message names the first record out of order and both stamps.
        EmptyLog: no scan records at all.
    """
    header: dict[str, float] = {}
    streams = ([], []), ([], []), ([], [])

    def take(first: int, lines: list[str]) -> None:
        if not _parse_block(lines, header, streams):
            for line_no, raw in enumerate(lines, start=first):
                _parse_line(line_no, raw, header, streams)

    block: list[str] = []
    first = 1   # the line number of block[0]
    # latin-1 decodes every byte, so a non-ASCII byte reaches the line
    # checks and is named by its line, after the lines before it.
    with open(path, "r", encoding="latin-1") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if len(header) < 3:
                _parse_line(line_no, raw, header, streams)
                continue
            if not block:
                first = line_no
            block.append(raw)
            if len(block) == _READ_BLOCK_LINES:
                take(first, block)
                block = []
    if block:
        take(first, block)

    vertical, horizontal, imu = (Stream(*stream) for stream in streams)
    if not vertical and not horizontal:
        raise EmptyLog(f"{path} contains no scan records")
    for name, stream in (("vertical scan", vertical), ("horizontal scan", horizontal),
                         ("IMU sample", imu)):
        late = np.flatnonzero(stream.stamps[1:] <= stream.stamps[:-1]) + 1
        if len(late):
            before, t = stream.stamps[late[0] - 1:late[0] + 1].tolist()
            raise UnsortedTimestamps(f"{name} {late[0]} at {t!r} s does not follow {before!r} s")
    first_scan_t = min(stream.stamps[0] for stream in (vertical, horizontal) if stream)
    if not imu or imu.stamps[0] > first_scan_t:
        raise MalformedRecord("no IMU sample at or before the first scan")

    return ScanLog(
        vertical, horizontal, imu,
        header["angle_min"], header["angle_inc"], header["range_max"],
    )


def write_scan_log(path, log: ScanLog) -> None:
    """Serialize a ScanLog in the format parse_scan_log reads, one record at
    a time. A scan with no ranges, which the parser rejects, is a ValueError
    raised before the file is opened.

    Stamps and ranges are printed in seconds and metres as
    :data:`~scanplan.geometry.FLOAT_FORMAT` (``"%.6f"``) prints them, so they
    read back bit for bit when they lie on the 1 um grid, as the simulator's
    do (:func:`scanplan.geometry.to_grid`). The header values and the 9
    entries of each IMU rotation are printed by ``repr`` and read back
    exactly, as the parser's rotation check needs: the number format of
    :mod:`scanplan.artifacts`.
    """
    for name, stream in (("vertical", log.vertical), ("horizontal", log.horizontal)):
        if empty := [t for t, ranges in zip(stream.stamps.tolist(), stream.records)
                     if len(ranges) == 0]:
            raise ValueError(f"{name} scan at {empty[0]!r} s has no ranges")
    records = [(tag, t, record)
               for tag, stream in zip("VHI", (log.vertical, log.horizontal, log.imu))
               for t, record in zip(stream.stamps.tolist(), stream.records)]
    # Stable interleave by time; stream order V < H < I on equal stamps.
    records.sort(key=lambda r: (r[1], "VHI".index(r[0])))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# angle_min {float(log.angle_min)!r}\n")
        fh.write(f"# angle_inc {float(log.angle_inc)!r}\n")
        fh.write(f"# range_max {float(log.range_max)!r}\n")
        for tag, t, record in records:
            # tolist() first: under numpy 2 the repr of a numpy scalar is
            # "np.float64(...)", which the parser rejects.
            values = record.ravel().tolist()
            spec = " ".join(["%r" if tag == "I" else FLOAT_FORMAT] * len(values))
            fh.write(f"{tag} {FLOAT_FORMAT % t} {spec % tuple(values)}\n")


def _valid_returns(log: ScanLog, ranges: np.ndarray) -> np.ndarray:
    """The mask of a scan's valid returns: 0 < range <= range_max."""
    return (ranges > 0) & (ranges <= log.range_max)


def local_points(log: ScanLog, ranges: np.ndarray, to_local) -> np.ndarray:
    """Local points (N, 3) of a scan's valid returns (:func:`_valid_returns`).

    ``to_local`` is the map of the scan's plane from :mod:`scanplan.geometry`.
    """
    valid = _valid_returns(log, ranges)
    bearings = scan_bearings(log.angle_min, log.angle_inc, len(ranges))
    return to_local(ranges[valid], bearings[valid])


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


def estimate_pose_track(log: ScanLog, icp_cfg: IcpConfig = IcpConfig()) -> list[Pose]:
    """The pose of each vertical scan, in ``log.vertical`` order: IMU
    rotation + chained 2D scan matching.

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
    imu, h_ts = log.imu, log.horizontal.stamps

    def imu_for(t: float) -> np.ndarray:
        return imu.records[_nearest_sample(imu.stamps, t)]

    def rotated_xy(i: int) -> np.ndarray:
        local = local_points(log, log.horizontal.records[i], horizontal_polar_to_local_arrays)
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

    poses = []
    for t in log.vertical.stamps.tolist():
        xy = cumulative[_nearest_sample(h_ts, t)]
        poses.append(Pose(imu_for(t), np.array([xy[0], xy[1], 0.0])))
    return poses


def build_cloud(log: ScanLog, poses: list[Pose]) -> PointCloud:
    """Map every valid vertical-scan return through its scan pose, the
    ``poses`` entry at the scan's index in ``log.vertical``.

    Invalid readings (see :func:`_valid_returns`) are dropped; the drop count
    is logged. Output points carry the vertical scan index as source tag.
    The valid returns are counted first, so the points are one (N, 3) array
    allocated once, each scan's slice written in scan order, and the tags
    one ``np.repeat``; no per-scan array outlives its scan.

    Raises:
        ValueError: ``poses`` does not hold one pose per vertical scan,
            raised before anything is built.
    """
    if len(poses) != len(log.vertical):
        raise ValueError(f"{len(poses)} poses for {len(log.vertical)} vertical scans")
    scans = log.vertical.records
    counts = [int(np.count_nonzero(_valid_returns(log, ranges))) for ranges in scans]
    total = sum(counts)
    dropped = sum(map(len, scans)) - total
    if dropped:
        logger.info("build_cloud dropped %d invalid/out-of-range returns", dropped)
    if not total:
        return PointCloud.empty()
    points = np.empty((total, 3))
    end = 0
    for ranges, pose, count in zip(scans, poses, counts):
        points[end:end + count] = pose.apply(local_points(log, ranges, polar_to_local_arrays))
        end += count
    sources = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return PointCloud._own(points, sources)
