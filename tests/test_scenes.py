import math

import numpy as np
import pytest

from scanplan.geometry import (
    horizontal_polar_to_local_arrays,
    polar_to_local_arrays,
    to_grid,
)
from scanplan.ingest import local_points
from scanplan.scenes import (
    BoxPrimitive,
    CrossedPlanesPrimitive,
    PointPrimitive,
    RectanglePrimitive,
    SceneSpec,
    SegmentPrimitive,
    generate_scene,
    preset_scene,
    scene_from_dict,
    scene_to_dict,
)
from scanplan.simulate import DeviceParams, simulate_yaw_scan


def test_point_primitive_single_point():
    cloud = generate_scene(SceneSpec((PointPrimitive((1.0, 2.0, 3.0)),)))
    assert len(cloud) == 1
    assert np.allclose(cloud.points[0], [1.0, 2.0, 3.0])


def test_rectangle_density_count_and_noise_band():
    spec = SceneSpec(
        (RectanglePrimitive((0.0, 0.0, 0.0), (0, 0, 1), 2.0, 3.0),),
        density=100.0, noise_sigma=0.01,
    )
    cloud = generate_scene(spec, seed=1)
    assert len(cloud) == 600
    # All points within a few sigma of the plane, none wildly off.
    assert np.abs(cloud.points[:, 2]).max() < 0.06
    assert np.abs(cloud.points[:, 0]).max() <= 1.0
    assert np.abs(cloud.points[:, 1]).max() <= 1.5


def test_cube_zero_noise_points_on_faces():
    spec = SceneSpec((BoxPrimitive((0.0, 0.0, 0.0), (2.0, 2.0, 2.0)),),
                     density=50.0)
    cloud = generate_scene(spec, seed=2)
    on_face = np.isclose(np.abs(cloud.points), 1.0).any(axis=1)
    assert on_face.all()


def test_segment_points_collinear():
    spec = SceneSpec((SegmentPrimitive((0.0, 0, 0), (3.0, 0, 0)),), density=100.0)
    cloud = generate_scene(spec)
    assert len(cloud) >= 2
    assert np.allclose(cloud.points[:, 1:], 0.0)


def test_generation_deterministic():
    spec = preset_scene("cube", density=80.0, noise_sigma=0.005)
    a = generate_scene(spec, seed=9)
    b = generate_scene(spec, seed=9)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crossed_planes_samples_its_rectangles_in_order(seed):
    # The composite written out: the cube's six faces, then the two sheets.
    faces = [((1, 0, 0), (1, 0, 0), 2.0, 2.0), ((-1, 0, 0), (-1, 0, 0), 2.0, 2.0),
             ((0, 1, 0), (0, 1, 0), 2.0, 2.0), ((0, -1, 0), (0, -1, 0), 2.0, 2.0),
             ((0, 0, 1), (0, 0, 1), 2.0, 2.0), ((0, 0, -1), (0, 0, -1), 2.0, 2.0),
             ((0, 0, 0), (0, 1, 0), 6.0, 6.0), ((0, 0, 0), (1, 0, 0), 6.0, 6.0)]
    rng = np.random.default_rng(seed)
    expected = to_grid(np.vstack([
        RectanglePrimitive(tuple(map(float, c)), n, w, h).sample(400.0, 0.01, rng)
        for c, n, w, h in faces
    ]))
    cloud = generate_scene(preset_scene("crossed_planes", 400.0, 0.01), seed=seed)
    assert cloud.points.tobytes() == expected.tobytes()


def test_crossed_planes_extends_past_cube():
    spec = preset_scene("crossed_planes", density=60.0)
    cloud = generate_scene(spec, seed=0)
    assert np.abs(cloud.points).max() > 2.0  # sheets reach past the 2 m cube


def test_scene_dict_round_trip():
    spec = SceneSpec(
        (
            PointPrimitive((1.0, 0, 0)),
            SegmentPrimitive((0.0, 0, 0), (1.0, 1, 1)),
            RectanglePrimitive((0.0, 3, 1), (0, -1, 0), 4.0, 3.0, u_dir=(1, 0, 0)),
            BoxPrimitive((0.0, 0, 0), (2.0, 2, 2)),
            CrossedPlanesPrimitive((0.0, 0, 0), 2.0),
        ),
        density=42.0, noise_sigma=0.003,
    )
    back = scene_from_dict(scene_to_dict(spec))
    assert back == spec


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_scene("mystery")


def test_simulate_empty_scene_all_no_returns():
    log = simulate_yaw_scan(
        SceneSpec((), density=1.0), n_scans=3,
        device=DeviceParams(angle_inc=math.radians(1.0), rays_per_scan=271),
    )
    for ranges in log.vertical.records + log.horizontal.records:
        assert np.all(ranges == 0.0)
        assert len(local_points(log, ranges, polar_to_local_arrays)) == 0


def test_simulate_single_wall_hits_match_analytic():
    wall = SceneSpec((RectanglePrimitive((-3.0, 0.0, 1.0), (1, 0, 0), 4.0, 2.0),))
    dev = DeviceParams(angle_inc=math.radians(0.5), rays_per_scan=541)
    log = simulate_yaw_scan(wall, station=(0.0, 0.0, 1.0), n_scans=1,
                            yaw_span=0.0, device=dev)
    local = local_points(log, log.horizontal.records[0], horizontal_polar_to_local_arrays)
    # Horizontal rays at height 1.0 end on the x=-3 plane, in the scan plane.
    assert len(local) > 0
    assert np.allclose(local[:, 0], -3.0, atol=1e-9)
    assert np.all(local[:, 2] == 0.0)
