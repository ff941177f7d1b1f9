"""Ray-cast simulation of the dual-scanner platform yawing in place.

The virtual platform carries a vertically and a horizontally scanning
rangefinder plus an attitude sensor. Each simulated sweep ray-casts against
the scene's rectangles; no-returns are written as range 0, which ingest
skips as invalid. Points and segments are invisible to rays (measure zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_ARC_LIMIT,
    Pose,
    horizontal_polar_to_local_arrays,
    outside_arc,
    polar_to_local_arrays,
    rotation_about_z,
    scan_bearings,
    to_grid,
)
from .ingest import ScanLog, Stream
from .scenes import RectanglePrimitive, SceneSpec


@dataclass(frozen=True)
class DeviceParams:
    """Rangefinder geometry and timing.

    Both scanners sit at the platform origin, as ingest assumes when it maps
    their returns (the scan planes are set out in :mod:`scanplan.geometry`).
    """

    range_max: float = 30.0
    angle_min: float = -DEFAULT_ARC_LIMIT
    angle_inc: float = math.radians(0.25)
    rays_per_scan: int = 1081
    scan_period: float = 0.025

    def __post_init__(self):
        if not self.rays_per_scan >= 1:
            raise ValueError(f"rays_per_scan must be >= 1, got {self.rays_per_scan}")
        for name in ("angle_min", "angle_inc", "range_max", "scan_period"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "angle_min" and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")


def _cast(origin: np.ndarray, dirs: np.ndarray,
          rects: list[RectanglePrimitive], range_max: float) -> np.ndarray:
    """Distance along each unit ray to the nearest rectangle, 0 for no hit."""
    best = np.full(len(dirs), np.inf)
    for rect in rects:
        u, v, n = rect.axes()
        center = np.asarray(rect.center, dtype=float)
        denom = dirs @ n
        facing = np.abs(denom) > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(facing, ((center - origin) @ n) / denom, -1.0)
        rel = origin + t[:, None] * dirs - center
        hit = (
            facing
            & (t > 1e-9)
            & (np.abs(rel @ u) <= rect.width / 2.0)
            & (np.abs(rel @ v) <= rect.height / 2.0)
        )
        best = np.where(hit & (t < best), t, best)
    ranges = np.where(np.isfinite(best) & (best <= range_max), best, 0.0)
    return ranges


def scan_truth(
    station,
    n_scans: int,
    yaw_span: float = 2.0 * math.pi,
    drift_per_scan=(0.0, 0.0, 0.0),
    scan_period: float = 0.025,
) -> list[dict]:
    """Ground-truth platform state per scan; fully determined by the arguments."""
    station = np.asarray(station, dtype=float)
    drift = np.asarray(drift_per_scan, dtype=float)
    step = yaw_span / n_scans if n_scans > 1 else 0.0
    truth = []
    for k in range(n_scans):
        truth.append({
            "timestamp": k * scan_period,
            "position": (station + k * drift).tolist(),
            "yaw": k * step,
        })
    return truth


def true_pose_track(truth: list[dict]) -> list[Pose]:
    """The true pose of each scan of :func:`scan_truth`, in scan order: the
    track :func:`scanplan.ingest.build_cloud` takes for the simulated log."""
    return [Pose(rotation_about_z(rec["yaw"]), np.asarray(rec["position"]))
            for rec in truth]


def simulate_yaw_scan(
    scene: SceneSpec,
    station=(0.0, 0.0, 0.0),
    device: DeviceParams = DeviceParams(),
    n_scans: int = 72,
    yaw_span: float = 2.0 * math.pi,
    drift_per_scan=(0.0, 0.0, 0.0),
    range_noise: float = 0.0,
    seed: int = 0,
) -> ScanLog:
    """Simulate a yaw sweep and return the scan log.

    One vertical scan, one horizontal scan and one attitude sample are
    emitted per step, all at the same timestamp, so the log's three
    streams (:class:`~scanplan.ingest.Stream`) share one stamps array. The
    stamps and ranges lie on the 1 um grid (:func:`scanplan.geometry.to_grid`),
    so a written log reads back as it was made. The attitude channel is the
    exact ground-truth yaw rotation; optional translation drift accumulates
    per scan. Ground truth for scoring comes from :func:`scan_truth` with
    the same arguments.

    Raises ValueError for ``n_scans`` < 1, a negative or infinite
    ``range_noise``, a non-finite ``station`` or ``drift_per_scan``, or
    bearings past the detection arc.
    """
    if not n_scans >= 1:
        raise ValueError(f"n_scans must be >= 1, got {n_scans}")
    if not 0 <= range_noise < math.inf:
        raise ValueError(f"range_noise must be finite and >= 0, got {range_noise}")
    for name, vector in (("station", station), ("drift_per_scan", drift_per_scan)):
        if not np.isfinite(np.asarray(vector, dtype=float)).all():
            raise ValueError(f"{name} must be finite, got {tuple(map(float, vector))}")
    rng = np.random.default_rng(seed)
    rects = scene.rectangles()
    if outside_arc(device.angle_min, device.angle_inc, device.rays_per_scan):
        raise ValueError("device bearings exceed the detection arc")
    bearings = scan_bearings(device.angle_min, device.angle_inc, device.rays_per_scan)

    # Local unit ray directions: the returns of unit range in each scan plane.
    unit = np.ones_like(bearings)
    vertical_dirs = polar_to_local_arrays(unit, bearings)
    horizontal_dirs = horizontal_polar_to_local_arrays(unit, bearings)

    vertical, horizontal = [], []
    truth = scan_truth(station, n_scans, yaw_span, drift_per_scan, device.scan_period)
    stamps = to_grid(np.array([rec["timestamp"] for rec in truth]))
    rotations = [rotation_about_z(rec["yaw"]) for rec in truth]
    for rot, rec in zip(rotations, truth):
        pos = np.asarray(rec["position"])
        for dirs, out in ((vertical_dirs, vertical), (horizontal_dirs, horizontal)):
            ranges = _cast(pos, dirs @ rot.T, rects, device.range_max)
            if range_noise > 0:
                hits = ranges > 0
                ranges = np.where(
                    hits, np.maximum(ranges + rng.normal(0, range_noise, len(ranges)),
                                     1e-6), ranges
                )
            out.append(to_grid(ranges))

    return ScanLog(*(Stream(stamps, records) for records in (vertical, horizontal, rotations)),
                   device.angle_min, device.angle_inc, device.range_max)
