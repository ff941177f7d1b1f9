import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanplan.errors import (
    EmptyLog,
    MalformedRecord,
    MissingPose,
    UnsortedTimestamps,
)
from scanplan.geometry import Pose, polar_to_local_arrays
from scanplan.ingest import (
    LaserScan,
    PoseTrack,
    ScanLog,
    _nearest_sample,
    build_cloud,
    estimate_pose_track,
    local_points,
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

from oracles import argmin_nearest_sample, linear_pose_at, write_scan_log_per_value

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
    # The readings stay as written; only the 5.0 m return at ray 1 is valid.
    assert list(log.vertical[0].ranges) == [0.0, 5.0, 31.0]
    expected = polar_to_local_arrays([5.0], [log.angle_min + log.angle_inc])
    assert np.array_equal(
        local_points(log, log.vertical[0], polar_to_local_arrays), expected
    )


def test_parse_header_after_first_record(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER + f"I 0.0 {IDENTITY}\nV 0.0 1.0 2.0\n# angle_inc 0.01\nV 0.1 1.0\n",
        encoding="ascii",
    )
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert err.value.line == 6


# Spellings that float() reads (and the parser must too) next to ones it
# rejects; every range record is parsed in one call, or token by token only
# to name the bad token.
GOOD_RANGES = ["1_0", "+1e-3", ".5", "5.", "-0", "1E+2", "inf", "Infinity",
               "1e400", "1e-400", "0"]


def test_parse_range_spellings_read_as_float_reads_them(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nV 0.0 {' '.join(GOOD_RANGES)}\n",
                    encoding="ascii")
    ranges = parse_scan_log(path).vertical[0].ranges
    assert ranges.tobytes() == np.array([float(t) for t in GOOD_RANGES]).tobytes()


@pytest.mark.parametrize("tokens, message", [
    ("1.0 x 2.0 nan", "bad range 'x'"),
    ("1.0 nan 2.0 x", "range is NaN"),
    ("1.0 0x10 2.0", "bad range '0x10'"),
    ("1.0 -nan", "range is NaN"),
    ("1.0 -2.0 x", "bad range 'x'"),
    ("1.0 -2.0 3.0", "negative range reading"),
])
def test_parse_bad_range_names_the_line_and_first_bad_token(tmp_path, tokens, message):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nV 0.0 1.0\nH 0.1 {tokens}\n",
                    encoding="ascii")
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert (err.value.line, err.value.reason) == (6, message)


def test_parse_bad_rotation_entry_names_the_token(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + "I 0.0 1.0 0.0 0.0 0.0 one 0.0 0.0 0.0 1.0\n", encoding="ascii")
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert (err.value.line, err.value.reason) == (4, "bad rotation entry 'one'")


def test_write_scan_log_bytes_equal_the_per_value_writer(tmp_path):
    log = simulate_yaw_scan(
        open_walls(), station=(0.1, -0.2, 0.0), n_scans=6,
        yaw_span=math.radians(30.0), drift_per_scan=(0.01, 0.0, 0.0),
        device=DeviceParams(angle_inc=math.radians(1.0), rays_per_scan=271),
        range_noise=0.005, seed=3,
    )
    edge = np.array([-0.0, 0.0, 1e-300, 1e300, 5e-324, 2.0**53, 0.1])
    log.vertical[0] = LaserScan(log.vertical[0].timestamp, edge)
    log.horizontal[1] = LaserScan(log.horizontal[1].timestamp, np.zeros(0))
    write_scan_log(tmp_path / "new.log", log)
    write_scan_log_per_value(tmp_path / "old.log", log)
    assert (tmp_path / "new.log").read_bytes() == (tmp_path / "old.log").read_bytes()


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


def test_in_memory_log_matches_its_file_round_trip(tmp_path):
    # Noisy returns just inside range_max land past it. Whether the log comes
    # from the simulator or from its file, those readings are invalid.
    device = DeviceParams(range_max=4.5, angle_inc=math.radians(0.5), rays_per_scan=541)
    log = simulate_yaw_scan(open_walls(), station=(0.0, 0.0, 1.0), device=device,
                            n_scans=12, yaw_span=math.radians(30.0),
                            range_noise=0.01, seed=0)
    assert any((s.ranges > device.range_max).any() for s in log.horizontal)
    path = tmp_path / "sim.log"
    write_scan_log(path, log)
    back = parse_scan_log(path)

    track = estimate_pose_track(log, IcpConfig())
    track_back = estimate_pose_track(back, IcpConfig())
    assert len(track.entries) == len(track_back.entries)
    for (t, pose), (t_back, pose_back) in zip(track.entries, track_back.entries):
        assert t == t_back
        assert pose.translation.tobytes() == pose_back.translation.tobytes()
        assert pose.rotation.tobytes() == pose_back.rotation.tobytes()
    cloud = build_cloud(log, track)
    cloud_back = build_cloud(back, track_back)
    assert cloud.points.tobytes() == cloud_back.points.tobytes()
    assert cloud.sources.tobytes() == cloud_back.sources.tobytes()


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
    scan = LaserScan(0.0, np.array([1.0, 2.0]))
    log = ScanLog([scan], [], [], -0.1, 0.2, 30.0)
    track = PoseTrack([(0.0, Pose.identity())])
    cloud = build_cloud(log, track)
    assert len(cloud) == 2
    expected = [[-1.0 * math.cos(-0.1), 0.0, -1.0 * math.sin(-0.1)],
                [-2.0 * math.cos(0.1), 0.0, -2.0 * math.sin(0.1)]]
    assert np.allclose(cloud.points, expected)
    assert np.array_equal(cloud.sources, [0, 0])


def test_build_cloud_empty_vertical_scans():
    log = ScanLog([], [], [], 0.0, 0.1, 30.0)
    cloud = build_cloud(log, PoseTrack([]))
    assert len(cloud) == 0


def test_build_cloud_missing_pose():
    scan = LaserScan(5.0, np.array([1.0]))
    log = ScanLog([scan], [], [], 0.0, 0.1, 30.0)
    with pytest.raises(MissingPose):
        build_cloud(log, PoseTrack([(0.0, Pose.identity())]))


def test_build_cloud_size_equals_valid_points():
    log = simulate_yaw_scan(open_walls(), n_scans=6, yaw_span=math.radians(30.0),
                            device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    cloud = build_cloud(log, track)
    expected = sum(
        int(np.count_nonzero((s.ranges > 0) & (s.ranges <= log.range_max)))
        for s in log.vertical
    )
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


# Stamps within 1e300 of zero keep every difference finite.
stamp_floats = st.floats(-1e300, 1e300)
stamp_lists = st.lists(stamp_floats, min_size=1, max_size=40, unique=True).map(sorted)


def probe_times(stamps):
    """Each stamp, each midpoint between neighbours, and points past both ends."""
    mids = [a / 2 + b / 2 for a, b in zip(stamps, stamps[1:])]
    return stamps + mids + [stamps[0] - 1.0, stamps[-1] + 1.0, 0.0, -0.0]


@settings(max_examples=200, deadline=None)
@given(stamps=stamp_lists)
def test_pose_at_matches_linear_scan(stamps):
    poses = [Pose(np.eye(3), np.array([float(i), 0.0, 0.0])) for i in range(len(stamps))]
    entries = list(zip(np.array(stamps), poses))
    track = PoseTrack(entries)
    for t in probe_times(stamps):
        want = linear_pose_at(entries, t)
        if want is None:
            with pytest.raises(MissingPose):
                track.pose_at(t)
        else:
            assert track.pose_at(t) is want


def test_pose_at_finds_no_nan_stamp():
    nan = float("nan")
    track = PoseTrack([(0.0, Pose.identity()), (nan, Pose.identity())])
    with pytest.raises(MissingPose):
        track.pose_at(nan)


@settings(max_examples=200, deadline=None)
@given(stamps=stamp_lists, extra=stamp_floats)
def test_nearest_sample_matches_argmin(stamps, extra):
    ts = np.array(stamps)
    for t in probe_times(stamps) + [extra]:
        assert _nearest_sample(ts, t) == argmin_nearest_sample(ts, t)


def test_nearest_sample_ties_go_to_the_earlier_sample():
    ts = np.array([0.0, 1.0, 2.0, 4.0])
    assert _nearest_sample(ts, 0.5) == 0
    assert _nearest_sample(ts, 3.0) == 2
    assert _nearest_sample(ts, 9.0) == 3
    assert _nearest_sample(ts, -9.0) == 0
    # Far from t, two distinct stamps round to the same difference; the
    # earlier one wins, as in an argmin over all differences.
    ts = np.array([1.0, np.nextafter(1.0, 2.0), 3e20])
    assert _nearest_sample(ts, 1e20) == argmin_nearest_sample(ts, 1e20) == 0
