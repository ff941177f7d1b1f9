import math

import numpy as np
import pytest

from scanplan.geometry import (
    PointCloud,
    Pose,
    concat_clouds,
    polar_to_local_arrays,
    rotation_about_z,
    transform_cloud,
    validate_rotation,
)


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


def test_transform_cloud_identity_and_translation():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    assert np.allclose(transform_cloud(Pose.identity(), cloud).points, cloud.points)
    moved = transform_cloud(Pose(np.eye(3), [1.0, 0.0, 0.0]), cloud)
    assert np.allclose(moved.points, [[1.0, 0.0, 0.0]])


def test_transform_cloud_inverse_round_trip(rng):
    pose = Pose(rotation_about_z(1.2), np.array([0.3, -0.7, 2.0]))
    cloud = PointCloud(rng.normal(size=(100, 3)), sources=np.arange(100))
    back = transform_cloud(pose.inverse(), transform_cloud(pose, cloud))
    assert np.allclose(back.points, cloud.points, atol=1e-9)
    assert np.array_equal(back.sources, cloud.sources)


def test_compose_matches_sequential_application(rng):
    a = Pose(rotation_about_z(0.4), np.array([1.0, 0.0, 0.0]))
    b = Pose(rotation_about_z(-1.1), np.array([0.0, 2.0, -1.0]))
    pts = rng.normal(size=(10, 3))
    assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-12)


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


def test_concat_clouds_retag():
    a = PointCloud(np.zeros((2, 3)))
    b = PointCloud(np.ones((3, 3)))
    merged = concat_clouds([a, b], retag=True)
    assert np.array_equal(merged.sources, [0, 0, 1, 1, 1])
    assert len(merged) == 5
