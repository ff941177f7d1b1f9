import math

import numpy as np
import pytest

from scanplan.errors import (
    EmptyLog,
    MalformedRecord,
    MissingPose,
    UnsortedTimestamps,
)
from scanplan.geometry import Pose
from scanplan.ingest import (
    LaserScan,
    PoseTrack,
    build_cloud,
    estimate_pose_track,
    parse_scan_log,
    write_scan_log,
)
from scanplan.registration import IcpConfig
from scanplan.scenes import RectanglePrimitive, SceneSpec, preset_scene
from scanplan.simulate import (
    DeviceParams,
    scan_truth,
    simulate_yaw_scan,
    true_pose_track,
)

HEADER = "# angle_min -2.356194490192345\n# angle_inc 0.004363323129985824\n# range_max 30.0\n"
IDENTITY = "1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0"


def open_walls():
    """Two perpendicular walls that stay inside the arc through the sweep."""
    return SceneSpec((
        RectanglePrimitive((-4.0, 0.0, 1.0), (1, 0, 0), 6.0, 2.0),
        RectanglePrimitive((0.0, -4.0, 1.0), (0, 1, 0), 6.0, 2.0),
    ))


def fine_device():
    return DeviceParams(angle_inc=math.radians(0.25), rays_per_scan=1081)


def test_parse_well_formed_file(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER
        + f"I 0.0 {IDENTITY}\n"
        + "V 0.0 1.0 2.0 3.0\n"
        + "H 0.0 1.5 2.5 3.5\n",
        encoding="ascii",
    )
    log = parse_scan_log(path)
    assert len(log.vertical) == 1
    assert len(log.horizontal) == 1
    assert len(log.imu) == 1
    assert log.range_max == 30.0
    assert np.allclose(log.vertical[0].ranges, [1.0, 2.0, 3.0])


def test_parse_bearing_out_of_arc(tmp_path):
    path = tmp_path / "scan.log"
    # 1100 ranges at 0.25 deg from -135 deg crosses +135 deg.
    ranges = " ".join(["1.0"] * 1100)
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nV 0.0 {ranges}\n", encoding="ascii")
    with pytest.raises(MalformedRecord):
        parse_scan_log(path)


def test_parse_negative_range(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nV 0.0 1.0 -2.0\n", encoding="ascii")
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert err.value.line == 5


def test_parse_unknown_record(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + "X 0.0 1.0\n", encoding="ascii")
    with pytest.raises(MalformedRecord):
        parse_scan_log(path)


def test_parse_bad_rotation(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER + "I 0.0 2.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0\nV 0.1 1.0\n",
        encoding="ascii",
    )
    with pytest.raises(MalformedRecord):
        parse_scan_log(path)


def test_parse_unsorted_timestamps(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER + f"I 0.0 {IDENTITY}\nV 1.0 1.0\nV 0.5 1.0\n", encoding="ascii"
    )
    with pytest.raises(UnsortedTimestamps):
        parse_scan_log(path)


def test_parse_empty_log(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\n", encoding="ascii")
    with pytest.raises(EmptyLog):
        parse_scan_log(path)


def test_parse_requires_imu_before_first_scan(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"V 0.0 1.0\nI 1.0 {IDENTITY}\n", encoding="ascii")
    with pytest.raises(MalformedRecord):
        parse_scan_log(path)


def test_parse_invalid_ranges_masked(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER + f"I 0.0 {IDENTITY}\nV 0.0 0.0 5.0 31.0\n", encoding="ascii"
    )
    log = parse_scan_log(path)
    assert list(log.vertical[0].valid) == [False, True, False]


def test_write_read_round_trip(tmp_path):
    log = simulate_yaw_scan(
        open_walls(), station=(0.1, -0.2, 0.0), n_scans=6,
        yaw_span=math.radians(30.0), drift_per_scan=(0.01, 0.0, 0.0),
        device=DeviceParams(angle_inc=math.radians(1.0), rays_per_scan=271),
        range_noise=0.005, seed=3,
    )
    path = tmp_path / "sim.log"
    write_scan_log(path, log)
    back = parse_scan_log(path)
    assert len(back.vertical) == len(log.vertical)
    assert len(back.horizontal) == len(log.horizontal)
    assert len(back.imu) == len(log.imu)
    for a, b in zip(log.vertical, back.vertical):
        assert a.timestamp == b.timestamp
        assert np.array_equal(a.ranges, b.ranges)  # repr round-trip is exact
    for a, b in zip(log.imu, back.imu):
        assert np.array_equal(a.rotation, b.rotation)


def test_pose_track_stationary_zero_translation():
    log = simulate_yaw_scan(open_walls(), n_scans=10, yaw_span=0.0,
                            device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    for _, pose in track.entries:
        assert np.linalg.norm(pose.translation) <= 1e-6
    assert np.allclose(track.entries[0][1].rotation, np.eye(3))


def test_pose_track_pure_yaw_zero_translation():
    log = simulate_yaw_scan(open_walls(), n_scans=24,
                            yaw_span=math.radians(60.0), device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    for _, pose in track.entries:
        assert np.linalg.norm(pose.translation) <= 1e-3


def test_pose_track_recovers_drift():
    drift = (0.05, 0.0, 0.0)
    n = 24
    log = simulate_yaw_scan(open_walls(), n_scans=n, yaw_span=math.radians(60.0),
                            drift_per_scan=drift, device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    truth = scan_truth((0.0, 0.0, 0.0), n, yaw_span=math.radians(60.0),
                       drift_per_scan=drift)
    recovered = track.entries[-1][1].translation
    expected = np.asarray(truth[-1]["position"])
    assert np.linalg.norm(recovered - expected) <= 0.1 * np.linalg.norm(expected)


def test_pose_track_rotations_passthrough():
    log = simulate_yaw_scan(open_walls(), n_scans=8, yaw_span=math.radians(40.0),
                            device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    imu_by_t = {s.timestamp: s.rotation for s in log.imu}
    for t, pose in track.entries:
        assert np.array_equal(pose.rotation, imu_by_t[t])


def test_pose_track_needs_two_horizontal_scans():
    log = simulate_yaw_scan(open_walls(), n_scans=1, yaw_span=0.0,
                            device=fine_device())
    with pytest.raises(ValueError):
        estimate_pose_track(log, IcpConfig())


def test_build_cloud_single_scan_identity_pose():
    scan = LaserScan(0.0, np.array([1.0, 2.0]), -0.1, 0.2, "vertical")
    from scanplan.ingest import ScanLog

    log = ScanLog([scan], [], [], -0.1, 0.2, 30.0)
    track = PoseTrack([(0.0, Pose.identity())])
    cloud = build_cloud(log, track)
    assert len(cloud) == 2
    expected = [[-1.0 * math.cos(-0.1), 0.0, -1.0 * math.sin(-0.1)],
                [-2.0 * math.cos(0.1), 0.0, -2.0 * math.sin(0.1)]]
    assert np.allclose(cloud.points, expected)
    assert np.array_equal(cloud.sources, [0, 0])


def test_build_cloud_empty_vertical_scans():
    from scanplan.ingest import ScanLog

    log = ScanLog([], [], [], 0.0, 0.1, 30.0)
    cloud = build_cloud(log, PoseTrack([]))
    assert len(cloud) == 0


def test_build_cloud_missing_pose():
    scan = LaserScan(5.0, np.array([1.0]), 0.0, 0.1, "vertical")
    from scanplan.ingest import ScanLog

    log = ScanLog([scan], [], [], 0.0, 0.1, 30.0)
    with pytest.raises(MissingPose):
        build_cloud(log, PoseTrack([(0.0, Pose.identity())]))


def test_build_cloud_size_equals_valid_points():
    log = simulate_yaw_scan(open_walls(), n_scans=6, yaw_span=math.radians(30.0),
                            device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    cloud = build_cloud(log, track)
    expected = sum(int(s.valid.sum()) for s in log.vertical)
    assert len(cloud) == expected


def test_full_yaw_room_reconstruction_with_truth_track():
    # 360 deg sweep inside a square room; score against the analytic walls.
    room = preset_scene("room")
    dev = DeviceParams(angle_inc=math.radians(0.75), rays_per_scan=361)
    noise = 0.01
    log = simulate_yaw_scan(room, station=(0.0, 0.0, 1.5), n_scans=72,
                            yaw_span=2.0 * math.pi, device=dev,
                            range_noise=noise, seed=5)
    truth = scan_truth((0.0, 0.0, 1.5), 72, yaw_span=2.0 * math.pi)
    track = PoseTrack(true_pose_track(truth))
    cloud = build_cloud(log, track)
    assert len(cloud) > 3000
    p = cloud.points
    wall_dist = np.minimum.reduce([
        np.abs(p[:, 0] - 4.0), np.abs(p[:, 0] + 4.0),
        np.abs(p[:, 1] - 4.0), np.abs(p[:, 1] + 4.0),
    ])
    rms = float(np.sqrt(np.mean(wall_dist**2)))
    assert rms <= 2.0 * noise


def test_pose_track_timestamps_strictly_increasing():
    with pytest.raises(UnsortedTimestamps):
        PoseTrack([(0.0, Pose.identity()), (0.0, Pose.identity())])
