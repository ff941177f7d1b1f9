import math

import numpy as np
import pytest

from scanplan.errors import DegenerateGeometry, IcpDiverged, NoOverlap
from scanplan.geometry import PointCloud, Pose, rotation_about_z, transform_cloud
from scanplan.registration import (
    IcpConfig,
    RigidTransform2D,
    icp_align_2d,
    icp_align_3d,
    predict_overlap,
    register_clouds,
)


def ring_2d(n=120, radius=3.0):
    """A square-ish room outline: rich geometry for 2D matching."""
    t = np.linspace(0, 2 * math.pi, n, endpoint=False)
    r = radius / np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t)))
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


def test_icp2d_recovers_pure_translation():
    src = ring_2d()
    tgt = src + np.array([0.3, -0.1])
    out = icp_align_2d(src, tgt, cfg=IcpConfig())
    assert np.allclose(out.translation, [0.3, -0.1], atol=1e-6)
    assert abs(out.angle) < 1e-6


def test_icp2d_rotation_locked_with_correct_init():
    rng = np.random.default_rng(7)
    src = ring_2d(200) + rng.normal(0, 0.002, size=(200, 2))
    angle = math.radians(5.0)
    shift = np.array([0.2, 0.05])
    rot = RigidTransform2D(angle, shift)
    tgt = rot.apply(src)
    out = icp_align_2d(
        src, tgt, init=RigidTransform2D(angle, np.zeros(2)),
        cfg=IcpConfig(rotation_locked=True),
    )
    assert out.angle == angle  # bit-exact: locked rotation never moves
    assert np.allclose(out.translation, shift, atol=1e-3)


def test_icp2d_free_rotation_recovers_rotation_and_shift():
    # Point-to-point ICP on this square outline needs a guess within a few
    # degrees; from the identity it settles in a local minimum.
    src = ring_2d()
    true = RigidTransform2D(math.radians(5.0), np.array([0.2, -0.1]))
    init = RigidTransform2D(math.radians(3.0), np.zeros(2))
    out = icp_align_2d(src, true.apply(src), init=init, cfg=IcpConfig())
    assert out.angle == pytest.approx(true.angle, abs=1e-9)
    assert np.allclose(out.translation, true.translation, atol=1e-9)


def test_icp2d_disjoint_sets_diverge():
    src = ring_2d(50, radius=1.0)
    tgt = ring_2d(50, radius=1.0) + np.array([100.0, 0.0])
    with pytest.raises(IcpDiverged):
        icp_align_2d(src, tgt, cfg=IcpConfig(max_correspondence_dist=1.0))


def test_icp2d_collinear_unlocked_degenerate():
    src = np.stack([np.linspace(0, 1, 30), np.zeros(30)], axis=1)
    tgt = src + np.array([0.1, 0.0])
    with pytest.raises(DegenerateGeometry):
        icp_align_2d(src, tgt, cfg=IcpConfig())
    # Locked rotation is fine: only translation is estimated.
    out = icp_align_2d(src, tgt, cfg=IcpConfig(rotation_locked=True, min_pairs=3))
    assert out.angle == 0.0


def test_icp2d_residual_nonincreasing_on_well_posed_problem():
    # Hook into the loop indirectly: alignment of identical sets converges
    # immediately with zero residual, a translated copy in one refit.
    src = ring_2d()
    out = icp_align_2d(src, src.copy(), cfg=IcpConfig())
    assert np.allclose(out.translation, 0.0, atol=1e-12)


def cube_cloud(rng, n=600, half=0.5):
    faces = []
    for axis in range(3):
        for sign in (-half, half):
            uv = rng.uniform(-half, half, size=(n // 6, 2))
            pts = np.zeros((n // 6, 3))
            others = [a for a in range(3) if a != axis]
            pts[:, others[0]] = uv[:, 0]
            pts[:, others[1]] = uv[:, 1]
            pts[:, axis] = sign
            faces.append(pts)
    return PointCloud(np.vstack(faces))


def test_icp3d_identical_clouds_identity():
    rng = np.random.default_rng(3)
    cloud = cube_cloud(rng)
    pose = icp_align_3d(cloud, cloud, cfg=IcpConfig())
    assert np.allclose(pose.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(pose.translation, 0.0, atol=1e-9)


def test_icp3d_recovers_known_pose():
    rng = np.random.default_rng(4)
    cloud = cube_cloud(rng, n=1200)
    true = Pose(rotation_about_z(math.radians(6.0)), np.array([0.3, -0.2, 0.1]))
    target = transform_cloud(true, cloud)
    init = Pose(rotation_about_z(math.radians(10.0)), np.array([0.5, 0.0, 0.0]))
    got = icp_align_3d(cloud, target, init=init, cfg=IcpConfig(max_iterations=100))
    assert np.allclose(got.translation, true.translation, atol=1e-3)
    angle_err = math.acos(
        min(1.0, (np.trace(got.rotation.T @ true.rotation) - 1.0) / 2.0)
    )
    assert math.degrees(angle_err) < 0.1


def test_icp3d_mirrored_target_still_gives_a_rotation():
    # A thin slab and its mirror image across x = 0: each point's nearest
    # neighbour is its own mirror, so the unconstrained best fit is the
    # reflection diag(-1, 1, 1), which the Kabsch fit must turn into a rotation.
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-0.01, 0.01, 200),
                           rng.uniform(-1.0, 1.0, (200, 2))])
    src, tgt = PointCloud(pts), PointCloud(pts * [-1.0, 1.0, 1.0])
    pose = icp_align_3d(src, tgt, cfg=IcpConfig(max_iterations=1))
    assert np.linalg.det(pose.rotation) == pytest.approx(1.0)


def test_icp3d_tiny_overlap_degenerate():
    # Two points within reach, everything else far away: < 3 pairs.
    src = PointCloud(np.array([[0.0, 0, 0], [0.1, 0, 0], [50.0, 50, 50],
                               [60.0, 60, 60]]))
    tgt = PointCloud(np.array([[0.0, 0, 0], [0.1, 0, 0], [-50.0, -50, -50],
                               [-60.0, -60, -60]]))
    with pytest.raises(DegenerateGeometry):
        icp_align_3d(src, tgt, cfg=IcpConfig(min_pairs=1))


def test_predict_overlap_identical_clouds(rng):
    cloud = PointCloud(rng.uniform(0, 1, size=(100, 3)))
    ia, ib = predict_overlap(cloud, cloud, Pose.identity(), Pose.identity(), 0.1)
    assert len(ia) == len(ib) == 100


def test_predict_overlap_disjoint_raises(rng):
    a = PointCloud(rng.uniform(0, 1, size=(50, 3)))
    b = PointCloud(rng.uniform(5, 6, size=(50, 3)))
    with pytest.raises(NoOverlap):
        predict_overlap(a, b, Pose.identity(), Pose.identity(), 0.5)


def test_predict_overlap_slab(rng):
    # Unit cubes overlapping in a 0.5-wide slab; margin 0 keeps slab points.
    a = PointCloud(rng.uniform(0, 1, size=(400, 3)))
    b = PointCloud(rng.uniform(0, 1, size=(400, 3)) + np.array([0.5, 0.0, 0.0]))
    ia, ib = predict_overlap(a, b, Pose.identity(), Pose.identity(), 0.0)
    lo = np.array([0.5, 0.0, 0.0])
    hi = np.array([1.0, 1.0, 1.0])
    lo = np.maximum(lo, np.maximum(a.points.min(0), b.points.min(0)))
    hi = np.minimum(hi, np.minimum(a.points.max(0), b.points.max(0)))
    expect_a = {
        i for i, p in enumerate(a.points) if np.all(p >= lo) and np.all(p <= hi)
    }
    expect_b = {
        i for i, p in enumerate(b.points) if np.all(p >= lo) and np.all(p <= hi)
    }
    assert set(ia.tolist()) == expect_a
    assert set(ib.tolist()) == expect_b


def test_register_single_station_passthrough(rng):
    cloud = PointCloud(rng.uniform(0, 1, size=(50, 3)))
    out = register_clouds([(cloud, Pose.identity())])
    assert len(out) == 50
    assert np.allclose(out.points, cloud.points)


def test_register_two_half_scans():
    # Independently sampled halves of a 2 m box shell with ~30% overlap;
    # the diagonal cut keeps every face orientation inside the overlap so
    # all six degrees of freedom stay constrained. Station 1's recorded
    # pose carries ~5 cm error.
    shell_a = cube_cloud(np.random.default_rng(11), n=6000, half=1.0)
    shell_b = cube_cloud(np.random.default_rng(22), n=6000, half=1.0)
    diag_a = shell_a.points[:, 0] + shell_a.points[:, 1]
    diag_b = shell_b.points[:, 0] + shell_b.points[:, 1]
    a = PointCloud(shell_a.points[diag_a <= 0.4])
    b_global = PointCloud(shell_b.points[diag_b >= -0.4])
    # True pose of station 1 is the identity; the recorded pose is off.
    recorded = Pose(np.eye(3), np.array([0.04, -0.02, 0.01]))
    merged = register_clouds(
        [(a, Pose.identity()), (b_global, recorded)],
        IcpConfig(max_iterations=100, max_correspondence_dist=0.08, min_pairs=3),
    )
    assert len(merged) == len(a) + len(b_global)
    got_b = merged.points[merged.sources == 1]
    rms = np.sqrt(np.mean(np.sum((got_b - b_global.points) ** 2, axis=1)))
    assert rms <= 0.02


def test_register_preserves_point_count(rng):
    clouds = [
        (PointCloud(rng.uniform(0, 1, size=(40, 3))), Pose.identity()),
        (PointCloud(rng.uniform(0.5, 1.5, size=(60, 3))), Pose.identity()),
    ]
    merged = register_clouds(clouds, IcpConfig(min_pairs=3))
    assert len(merged) == 100
    assert np.array_equal(np.unique(merged.sources), [0, 1])
