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


def _box_surface_distance(points, center, size):
    """Distance from each point to the surface of the axis-aligned box."""
    d = np.abs(points - center) - np.asarray(size) / 2
    outside = np.linalg.norm(np.maximum(d, 0.0), axis=1)
    return np.where(outside > 0, outside, -d.max(axis=1))


def test_box_faces_of_non_cubic_boxes_lie_on_the_box(rng):
    # Each face spans the box along its own axes: its corners are box
    # corners. Noise-free samples lie on the box; noisy ones lie within
    # 3 sigma of it but for the Gaussian tail (0.27 % of points), and none
    # beyond 6 sigma.
    sigma, noisy = 0.01, []
    for _ in range(40):
        center = rng.uniform(-5.0, 5.0, 3)
        size = rng.uniform(0.5, 4.0, 3)
        box = BoxPrimitive(tuple(center), tuple(size))
        corners = center + np.array(
            [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]) * size / 2
        for face in box.faces():
            u, v, _ = face.axes()
            for su in (-1, 1):
                for sv in (-1, 1):
                    corner = (np.asarray(face.center) + su * face.width / 2 * u
                              + sv * face.height / 2 * v)
                    assert np.linalg.norm(corners - corner, axis=1).min() < 1e-12
        exact = box.sample(20.0, 0.0, rng)
        assert _box_surface_distance(exact, center, size).max() < 1e-12
        noisy.append(_box_surface_distance(box.sample(20.0, sigma, rng), center, size))
    noisy = np.concatenate(noisy)
    assert np.mean(noisy <= 3 * sigma) > 0.99 and noisy.max() < 6 * sigma


def test_segment_points_collinear():
    spec = SceneSpec((SegmentPrimitive((0.0, 0, 0), (3.0, 0, 0)),), density=100.0)
    cloud = generate_scene(spec)
    assert len(cloud) >= 2
    assert np.allclose(cloud.points[:, 1:], 0.0)


def test_point_preset_is_one_point():
    assert len(generate_scene(preset_scene("point"))) == 1


@pytest.mark.parametrize("density", [100.0, 0.01])
def test_line_preset_samples_its_segment(density):
    (segment,) = preset_scene("line").primitives
    a, b = np.array(segment.start), np.array(segment.end)
    length = float(np.linalg.norm(b - a))
    cloud = generate_scene(preset_scene("line", density=density))
    assert len(cloud) == max(2, round(math.sqrt(density) * length))
    # Each point lies between the ends, on the line through them.
    assert np.all((np.minimum(a, b) <= cloud.points) & (cloud.points <= np.maximum(a, b)))
    t = (cloud.points - a) @ (b - a) / length ** 2
    assert np.allclose(a + np.outer(t, b - a), cloud.points, atol=1e-6)


def test_a_scene_without_primitives_samples_no_points():
    assert len(generate_scene(SceneSpec())) == 0


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


def test_simulate_a_segment_returns_nothing():
    # A segment has no area (no rectangles), so no ray ends on it.
    log = simulate_yaw_scan(
        preset_scene("line"), n_scans=3,
        device=DeviceParams(angle_inc=math.radians(1.0), rays_per_scan=271),
    )
    assert len(log.vertical) == len(log.horizontal) == 3
    for ranges in log.vertical.records + log.horizontal.records:
        assert np.all(ranges == 0.0)


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
