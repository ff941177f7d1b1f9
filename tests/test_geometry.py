import math
import tracemalloc

import numpy as np
import pytest

from scanplan.geometry import (
    GRID_LIMIT,
    PointCloud,
    Pose,
    horizontal_polar_to_local_arrays,
    polar_to_local_arrays,
    rotation_about_z,
    scan_bearings,
    validate_rotation,
)
from scanplan.preprocess import voxel_downsample

from oracles import to_grid_per_value


def test_polar_to_local_unit_range_zero_bearing():
    assert np.allclose(polar_to_local_arrays([1.0], [0.0]), [[-1.0, 0.0, 0.0]])


def test_polar_to_local_quarter_turn():
    p = polar_to_local_arrays([2.0], [math.pi / 2])
    assert np.allclose(p, [[0.0, 0.0, -2.0]], atol=1e-15)


def test_polar_to_local_diagonal():
    p = polar_to_local_arrays([math.sqrt(2.0)], [math.pi / 4])
    assert np.allclose(p, [[-1.0, 0.0, -1.0]])


def test_polar_to_local_plane_and_norm(rng):
    ranges = rng.uniform(0.1, 30.0, 200)
    bearings = rng.uniform(-0.75 * math.pi, 0.75 * math.pi, 200)
    pts = polar_to_local_arrays(ranges, bearings)
    assert np.all(pts[:, 1] == 0.0)
    assert np.allclose(np.linalg.norm(pts, axis=1), ranges)


@pytest.mark.parametrize("angle_inc, rays", [(math.radians(0.25), 1081),
                                              (math.radians(1.0), 271)])
def test_scan_planes_are_the_written_out_unit_rays(angle_inc, rays):
    b = scan_bearings(-0.75 * math.pi, angle_inc, rays)
    ones, zeros = np.ones_like(b), np.zeros_like(b)
    vertical = np.stack([-np.cos(b), zeros, -np.sin(b)], axis=1)
    horizontal = np.stack([-np.cos(b), -np.sin(b), zeros], axis=1)
    assert polar_to_local_arrays(ones, b).tobytes() == vertical.tobytes()
    assert horizontal_polar_to_local_arrays(ones, b).tobytes() == horizontal.tobytes()


def test_transform_point_identity():
    pose = Pose.identity()
    assert np.allclose(pose.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_transform_point_yaw_quarter_turn():
    pose = Pose(rotation_about_z(math.pi / 2), np.zeros(3))
    assert np.allclose(pose.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0],
                       atol=1e-15)


def test_transform_point_pure_translation():
    pose = Pose(np.eye(3), np.ones(3))
    assert np.allclose(pose.apply([-1.0, 0.0, -1.0]), [0.0, 1.0, 0.0])


def test_transform_preserves_distances(rng):
    pose = Pose(rotation_about_z(0.7), np.array([1.0, -2.0, 0.5]))
    a = rng.normal(size=(50, 3))
    b = rng.normal(size=(50, 3))
    fa, fb = pose.apply(a), pose.apply(b)
    assert np.allclose(
        np.linalg.norm(fa - fb, axis=1), np.linalg.norm(a - b, axis=1), atol=1e-9
    )


def test_validate_rotation_rejects_non_orthonormal():
    bad = np.eye(3)
    bad[0, 0] = 1.0 + 1e-6
    with pytest.raises(ValueError):
        validate_rotation(bad)


def test_validate_rotation_rejects_reflection():
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        validate_rotation(refl)


def test_cloud_rejects_nonfinite():
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0.0, 0.0]]))


def test_cloud_sources_must_cover_all_points():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), sources=np.array([0, 1]))


def test_cloud_copies_the_callers_arrays(rng):
    points, tags = rng.normal(size=(5, 3)), np.arange(5)
    cloud = PointCloud(points, tags)
    points[0], tags[0] = 9.0, 9
    assert cloud.points[0, 0] != 9.0 and cloud.sources[0] == 0
    assert not cloud.points.flags.writeable and not cloud.sources.flags.writeable


def test_derived_clouds_are_read_only_values(rng):
    cloud = PointCloud(rng.normal(size=(6, 3)), np.arange(6))
    derived = [cloud.select([4, 0, 2]), voxel_downsample(cloud)]
    for d in derived:
        with pytest.raises(ValueError):
            d.points[0, 0] = 1.0
        assert d.sources is None or not d.sources.flags.writeable
        assert not np.shares_memory(d.points, cloud.points)
    assert np.array_equal(derived[0].points, cloud.points[[4, 0, 2]])
    assert np.array_equal(derived[0].sources, [4, 0, 2])


def test_a_cloud_holds_its_points_on_the_grid(rng):
    points = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-7, 9, (300, 3))
    points[:4, 0] = [-0.0, -4e-7, 5e-7, -GRID_LIMIT]
    cloud = PointCloud(points)
    want = [to_grid_per_value(v) for v in points.ravel().tolist()]
    assert cloud.points.ravel().tolist() == want
    assert not np.signbit(cloud.points[:3, 0]).any()


@pytest.mark.parametrize("value", [np.nextafter(GRID_LIMIT, np.inf), -1e10, np.inf, np.nan])
def test_a_cloud_past_the_grid_is_refused(value):
    points = np.zeros((4, 3))
    points[2, 1] = value
    message = "non-finite" if not np.isfinite(value) else "past the"
    with pytest.raises(ValueError, match=message):
        PointCloud(points)


def test_an_owned_array_goes_on_the_grid_in_place(rng):
    # No copy of the array is made, whole or in part: the bound check reads
    # the minimum and maximum, and rounding works in place.
    points = rng.normal(size=(200_000, 3))
    head = points[:100].ravel().tolist()
    tracemalloc.start()
    try:
        cloud = PointCloud._own(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cloud.points is points and not points.flags.writeable
    assert peak < 10_000
    assert points[:100].ravel().tolist() == [to_grid_per_value(v) for v in head]
