"""Fast self-tests of the benchmark at tiny sizes."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import grade  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from scanplan import artifacts  # noqa: E402
from scanplan.geometry import PointCloud  # noqa: E402
from scanplan.ingest import write_scan_log  # noqa: E402
from scanplan.scenes import generate_scene, preset_scene  # noqa: E402
from scanplan.simulate import DeviceParams, simulate_yaw_scan  # noqa: E402


def _plane_of(rect):
    _, _, n = rect.axes()
    return list(n), -float(n @ np.asarray(rect.center, dtype=float))


def test_perfect_cloud_and_planes_grade_to_full_match():
    rects = workloads.truth_rectangles(preset_scene("crossed_planes").primitives)
    assert len(rects) == 8
    cloud = generate_scene(preset_scene("crossed_planes", density=20.0), seed=1)
    assert grade.cloud_error_mm(cloud.points, rects) < 1e-9
    planes = [_plane_of(r) for r in rects]
    assert grade.surfaces_matched(planes, rects) == 8


def test_match_rules_angle_offset_orientation_and_uniqueness():
    rects = workloads.truth_rectangles(preset_scene("room").primitives)
    normal, d = _plane_of(rects[0])
    flipped = ([-c for c in normal], -d)
    tilt = math.radians(6.0)
    tilted = ([normal[0] * math.cos(tilt), math.sin(tilt), normal[2]], d)
    assert grade.surfaces_matched([flipped], rects) == 1
    assert grade.surfaces_matched([(normal, d + 0.09)], rects) == 1
    assert grade.surfaces_matched([(normal, d + 0.11)], rects) == 0
    assert grade.surfaces_matched([tilted], rects) == 0
    assert grade.surfaces_matched([(normal, d), (normal, d)], rects) == 1


def test_room_sweep_truth_is_in_the_scanner_frame():
    rects = workloads.WORKLOADS["room_sweep"].truth
    assert sorted(round(r.center[2], 9) for r in rects) == [0.0] * 4
    points = np.array([[3.9, 0.0, 0.0], [4.0, 0.0, 1.6]])
    dist = grade.distance_to_rectangles(points, rects)
    assert np.allclose(dist, [0.1, 0.1])


def test_operation_counting(tmp_path):
    for name in ("registered.xyz", "filtered.xyz", "surfaces.json",
                 "clusters.json", "scene_top.svg", "scene_elevation.svg"):
        (tmp_path / name).write_text("x")
    plans = {"version": 1, "plans": [{"status": "ok"}, {"status": "StopPointBlocked"}]}
    (tmp_path / "plan.json").write_text(json.dumps(plans))
    assert run.count_operations(run.RUN_STAGES, tmp_path, 3) == (8, 1, 1, True)
    assert run.count_operations(run.RUN_STAGES, tmp_path, 1) == (8, 2, 1, False)
    (tmp_path / "filtered.xyz").unlink()
    assert run.count_operations(run.RUN_STAGES, tmp_path, 3)[1:] == (2, 1, False)


def _tiny_sweep(seed, out):
    device = DeviceParams(angle_inc=math.radians(1.0), rays_per_scan=271)
    log = simulate_yaw_scan(preset_scene("room"), station=(0.0, 0.0, 1.5),
                            device=device, n_scans=24, seed=seed)
    path = out / "tiny.log"
    write_scan_log(path, log)
    return path


def _tiny_stations(seed, out):
    entries = []
    for k in range(2):
        world = generate_scene(preset_scene("room", density=10.0), seed=seed + k)
        pose = workloads.station_pose(k)
        local = (world.points - pose.translation) @ pose.rotation
        artifacts.write_cloud(out / f"s{k}.xyz", PointCloud(local))
        entries.append((f"s{k}.xyz", workloads.recorded_pose(k)))
    artifacts.write_stations(out / "stations.json", entries)
    return out / "stations.json"


@pytest.mark.parametrize("verb, build, expected_spans", [
    ("run", _tiny_sweep, {"cli.main", "pipeline.run_pipeline", "ingest.parse_scan_log",
                          "ingest.estimate_pose_track", "registration.icp_align_2d",
                          "spatial.KdTree.nearest", "artifacts.write", "plots.render_svg"}),
    ("register", _tiny_stations, {"cli.main", "registration.register_clouds",
                                  "registration.icp_align_3d", "artifacts.read_cloud"}),
])
def test_traced_run_writes_the_same_bytes(tmp_path, verb, build, expected_spans):
    inputs = tmp_path / "in"
    inputs.mkdir()
    wl = workloads.Workload("tiny", verb, build, [], None)
    input_path = build(0, inputs)
    plain = run.run_once(wl, input_path, tmp_path / "plain" / "out", None)
    spans = tmp_path / "traced" / "spans.json"
    traced = run.run_once(wl, input_path, tmp_path / "traced" / "out", spans)
    assert plain["ok"], plain["stderr"]
    assert traced["ok"], traced["stderr"]
    assert plain["digests"] and plain["digests"] == traced["digests"]
    assert expected_spans <= set(traced["layers"])
    # Every span nests under the one cli.main root.
    rows = json.loads(spans.read_text())
    assert sum(parent < 0 for _, _, _, parent, _, _ in rows) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deck", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
