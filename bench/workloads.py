"""Seeded benchmark workloads: input builders, CLI commands and ground truth.

Inputs are made with the library calls (``generate_scene``,
``simulate_yaw_scan``, ``write_scan_log``, ``write_cloud``,
``write_stations``), never with ``scanplan simulate``: under numpy 2 that
verb writes an ``np.float64(...)`` header the parser rejects (ROADMAP defect
3a). The program under test only ever sees the written files.

Every builder is a pure function of the seed, and its output is cached per
(workload, seed, builder-source hash), so a change to the scene or file code
rebuilds the inputs instead of reusing stale ones.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from scanplan import artifacts
from scanplan.geometry import PointCloud, Pose, rotation_about_z
from scanplan.ingest import write_scan_log
from scanplan.scenes import (
    BoxPrimitive,
    CrossedPlanesPrimitive,
    RectanglePrimitive,
    generate_scene,
    preset_scene,
)
from scanplan.simulate import DeviceParams, simulate_yaw_scan

ROOM_STATION = (0.0, 0.0, 1.5)
ROOM_SCANS = 360
ROOM_RANGE_NOISE = 0.005   # 0.01 m diverges ICP on pair 0 (defect 3b)
STATION_COUNT = 4
STATION_YAW_ERR = math.radians(1.0)
STATION_SHIFT_ERR = np.array([0.05, -0.04, 0.02])


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                              # "run" or "register"
    build: Callable[[int, Path], Path]     # (seed, empty dir) -> input path
    truth: list                            # rectangles in the output frame
    min_surfaces: int | None               # graded floor; None: no surfaces

    def cli_args(self, input_path: Path, out_dir: Path) -> list[str]:
        """The scanplan command line that runs this workload on its input."""
        if self.verb == "register":
            return ["register", "--stations", str(input_path),
                    "--out", str(self.output_cloud(out_dir))]
        return ["run", "--input", str(input_path), "--out", str(out_dir)]

    def output_cloud(self, out_dir: Path) -> Path:
        """The artifact graded for ``cloud_err_mm``."""
        return out_dir / ("merged.xyz" if self.verb == "register" else "registered.xyz")


def truth_rectangles(primitives, shift=(0.0, 0.0, 0.0)) -> list[RectanglePrimitive]:
    """Every planar rectangle of a scene, moved by ``shift``.

    Box faces and the parts of a crossed-planes composite count as
    rectangles; points and segments have no area and are skipped.
    """
    rects: list[RectanglePrimitive] = []
    for prim in primitives:
        if isinstance(prim, CrossedPlanesPrimitive):
            rects.extend(truth_rectangles(prim.parts()))
        elif isinstance(prim, BoxPrimitive):
            rects.extend(prim.faces())
        elif isinstance(prim, RectanglePrimitive):
            rects.append(prim)
    offset = np.asarray(shift, dtype=float)
    return [
        RectanglePrimitive(tuple(np.asarray(r.center, float) + offset), r.normal,
                           r.width, r.height, r.u_dir)
        for r in rects
    ]


def _room_sweep(seed: int, out: Path) -> Path:
    # DeviceParams' default angle_inc is a Python float, so the header
    # round-trips (the CLI's np.radians value does not: defect 3a).
    log = simulate_yaw_scan(
        preset_scene("room"), station=ROOM_STATION, device=DeviceParams(),
        n_scans=ROOM_SCANS, range_noise=ROOM_RANGE_NOISE, seed=seed,
    )
    path = out / "sweep.log"
    write_scan_log(path, log)
    return path


def _cloud_builder(preset: str, density: float, noise: float):
    def build(seed: int, out: Path) -> Path:
        cloud = generate_scene(preset_scene(preset, density, noise), seed=seed)
        path = out / f"{preset}.xyz"
        artifacts.write_cloud(path, cloud)
        return path
    return build


def station_pose(k: int) -> Pose:
    """True pose of station k: yaw 0.3 k rad, translation (0.5, -0.3, 0.1) k m."""
    return Pose(rotation_about_z(0.3 * k), np.array([0.5 * k, -0.3 * k, 0.1 * k]))


def recorded_pose(k: int) -> Pose:
    """Station k's pose as recorded: 1 degree and (5, -4, 2) cm off the truth.

    Station 0 is the reference frame and is recorded exactly, so the merged
    cloud's error measures the 3D ICP alone.
    """
    if k == 0:
        return station_pose(0)
    true = station_pose(k)
    return Pose(rotation_about_z(0.3 * k + STATION_YAW_ERR),
                true.translation + STATION_SHIFT_ERR)


def _stations(seed: int, out: Path) -> Path:
    entries = []
    scene = preset_scene("room", density=100.0, noise_sigma=0.005)
    for k in range(STATION_COUNT):
        world = generate_scene(scene, seed=STATION_COUNT * seed + k)
        pose = station_pose(k)
        local = (world.points - pose.translation) @ pose.rotation
        name = f"station_{k}.xyz"
        artifacts.write_cloud(out / name, PointCloud(local))
        entries.append((name, recorded_pose(k)))
    path = out / "stations.json"
    artifacts.write_stations(path, entries)
    return path


def _truth(preset: str, shift=(0.0, 0.0, 0.0)) -> list[RectanglePrimitive]:
    return truth_rectangles(preset_scene(preset).primitives, shift)


# Why each workload exists: see bench/README.md.
WORKLOADS = {
    wl.name: wl for wl in (
        # The cloud is relative to the first scan pose (yaw 0) with z = 0 at
        # the scanner, so the truth moves down by the station height.
        Workload("room_sweep", "run", _room_sweep,
                 _truth("room", tuple(-v for v in ROOM_STATION)), 4),
        Workload("crossed_planes", "run", _cloud_builder("crossed_planes", 400.0, 0.01),
                 _truth("crossed_planes"), 2),
        Workload("deck", "run", _cloud_builder("deck", 100.0, 0.01),
                 _truth("deck"), 1),
        Workload("stations", "register", _stations, _truth("room"), None),
    )
}


def _builder_hash(src_root: Path) -> str:
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for name in ("scenes", "simulate", "ingest", "artifacts", "geometry"):
        digest.update((src_root / "scanplan" / f"{name}.py").read_bytes())
    return digest.hexdigest()[:12]


def build_input(wl: Workload, seed: int, cache: Path, src_root: Path) -> Path:
    """Build (or reuse) the input of ``wl`` for ``seed`` under ``cache``."""
    final = cache / f"{wl.name}-{seed}-{_builder_hash(src_root)}"
    marker = final / "input.txt"
    if marker.exists():
        return final / marker.read_text(encoding="ascii")
    staging = final.with_name(final.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    path = wl.build(seed, staging)
    (staging / "input.txt").write_text(path.name, encoding="ascii")
    shutil.rmtree(final, ignore_errors=True)
    staging.rename(final)
    return final / path.name
