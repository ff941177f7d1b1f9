import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanplan import registration
from scanplan.errors import (
    DegenerateGeometry,
    IcpDiverged,
    InsufficientOverlap,
)
from scanplan.geometry import PointCloud, Pose, rotation_about_z
from scanplan.registration import (
    IcpConfig,
    _kept,
    icp_align_2d,
    icp_align_3d,
    register_clouds,
)
from scanplan.scenes import generate_scene, preset_scene
from scanplan.spatial import KdTree

from oracles import cold_icp, register_clouds_by_concat, transform_cloud


def ring_2d(n=120, radius=3.0):
    """A square-ish room outline: rich geometry for 2D matching."""
    t = np.linspace(0, 2 * math.pi, n, endpoint=False)
    r = radius / np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t)))
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


def test_icp2d_recovers_pure_translation():
    src = ring_2d()
    tgt = src + np.array([0.3, -0.1])
    shift = icp_align_2d(src, tgt, cfg=IcpConfig())
    assert shift.shape == (2,)
    assert np.allclose(shift, [0.3, -0.1], atol=1e-6)


def test_icp2d_disjoint_sets_diverge():
    src = ring_2d(50, radius=1.0)
    tgt = ring_2d(50, radius=1.0) + np.array([100.0, 0.0])
    with pytest.raises(IcpDiverged):
        icp_align_2d(src, tgt, cfg=IcpConfig(max_correspondence_dist=1.0))


def test_icp2d_collinear_points_are_not_degenerate():
    # Only the translation is fitted, so points on one line raise nothing.
    # Across the line the fit is exact; along it, point-to-point ICP stops
    # in the first local minimum, so that component is not checked.
    src = np.stack([np.linspace(0, 1, 30), np.zeros(30)], axis=1)
    tgt = src + np.array([0.1, 0.0])
    shift = icp_align_2d(src, tgt, cfg=IcpConfig(min_pairs=3))
    assert shift[1] == 0.0


def test_icp2d_one_pair_fixes_the_translation():
    shift = icp_align_2d([[0.0, 0.0]], [[0.3, -0.1]], cfg=IcpConfig(min_pairs=1))
    assert np.allclose(shift, [0.3, -0.1], atol=1e-12)


@pytest.mark.parametrize("align, src, tgt", [
    (icp_align_2d, np.zeros((0, 2)), ring_2d()),
    (icp_align_2d, ring_2d(), np.zeros((0, 2))),
    (icp_align_3d, PointCloud.empty(), PointCloud(np.ones((5, 3)))),
    (icp_align_3d, PointCloud(np.ones((5, 3))), PointCloud.empty()),
], ids=["2d_source", "2d_target", "3d_source", "3d_target"])
def test_empty_point_set_diverges(align, src, tgt):
    with pytest.raises(IcpDiverged, match="empty point set"):
        align(src, tgt)


def test_icp2d_residual_nonincreasing_on_well_posed_problem():
    # Hook into the loop indirectly: alignment of identical sets converges
    # immediately with zero residual, a translated copy in one refit.
    src = ring_2d()
    assert np.allclose(icp_align_2d(src, src.copy(), cfg=IcpConfig()), 0.0, atol=1e-12)


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


def three_stations(n):
    """Three cube shells of ``n`` points, each later one seen from a recorded
    pose a few cm and a few tenths of a degree off."""
    shells = [cube_cloud(np.random.default_rng(k), n=n, half=1.0) for k in range(3)]
    return [(shells[0], Pose.identity()),
            (shells[1], Pose(rotation_about_z(0.004), np.array([0.03, -0.02, 0.01]))),
            (shells[2], Pose(rotation_about_z(-0.003), np.array([-0.02, 0.0, 0.02])))]


def test_register_fills_the_merged_cloud_as_the_concatenation_did():
    stations = three_stations(1200)
    cfg = IcpConfig(max_iterations=60, max_correspondence_dist=0.1, min_pairs=3)
    merged = register_clouds(stations, cfg)
    want = register_clouds_by_concat(stations, cfg)
    assert np.array_equal(merged.points, want.points)
    assert np.array_equal(merged.sources, want.sources)
    assert not merged.points.flags.writeable and not merged.sources.flags.writeable


def test_register_copies_neither_station_nor_merged_cloud_for_its_icp(monkeypatch):
    # When a station's ICP starts, the memory traced since register_clouds
    # began is the merged buffer (points and tags) and little else: the ICP
    # is handed the station cloud and a view of the buffer, not copies.
    stations = three_stations(6000)
    align = registration.icp_align_3d
    at_icp = []

    def traced(source, target, init, cfg):
        at_icp.append(tracemalloc.get_traced_memory()[0])
        return align(source, target, init=init, cfg=cfg)

    monkeypatch.setattr(registration, "icp_align_3d", traced)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        merged = register_clouds(stations, IcpConfig(max_correspondence_dist=0.1, min_pairs=3))
    finally:
        tracemalloc.stop()
    buffer = merged.points.nbytes + merged.sources.nbytes
    assert len(at_icp) == 2
    assert max(at_icp) - base < buffer + stations[0][0].points.nbytes / 8


def l_shaped_station(rng):
    """Two unit blocks at opposite ends of a 6 m box whose corner at the
    origin holds no point."""
    return PointCloud(np.vstack([rng.uniform(0, 1, size=(30, 3)) + [0.0, 5.0, 0.0],
                                 rng.uniform(0, 1, size=(30, 3)) + [5.0, 0.0, 0.0]]))


@pytest.mark.parametrize("case", ["boxes_apart", "empty_subset"])
def test_full_cloud_fallback_finds_no_pair_within_reach(rng, case):
    # Station 1 has no point within reach of the merged cloud: its box lies
    # 0.6 m past station 0's at a 0.5 m reach, or the boxes meet where
    # station 1 has no point. Its ICP against the whole merged cloud finds
    # no pair and the error names the station.
    a = PointCloud(rng.uniform(0, 1, size=(40, 3)))
    if case == "boxes_apart":
        b, recorded = (PointCloud(rng.uniform(0, 1, size=(60, 3))),
                       Pose(np.eye(3), np.array([0.0, 0.0, 1.6])))
    else:
        b, recorded = l_shaped_station(rng), Pose.identity()
    cfg = IcpConfig(max_correspondence_dist=0.5, min_pairs=3)
    gaps = np.linalg.norm(a.points[:, None] - recorded.apply(b.points)[None], axis=2)
    assert gaps.min() > cfg.max_correspondence_dist
    with pytest.raises(IcpDiverged, match="^station 1: no correspondences within "
                       "max_correspondence_dist$"):
        register_clouds([(a, Pose.identity()), (b, recorded)], cfg)


@pytest.mark.parametrize("error, reach, message", [
    (DegenerateGeometry, 0.45, "only 2 corresponding points"),
    (InsufficientOverlap, 0.65, "only 4 matched pairs, need 5"),
])
def test_register_names_the_station_in_every_icp_error(error, reach, message):
    # Station 1 is station 0's 1 m row of points 0.1 m apart, recorded
    # 0.3 m past its end: 2 or 4 of its points lie within reach of that end.
    row = PointCloud(np.column_stack([np.arange(11) * 0.1, np.zeros(11), np.zeros(11)]))
    recorded = Pose(np.eye(3), np.array([1.3, 0.0, 0.0]))
    with pytest.raises(error, match=f"^station 1: {message}$"):
        register_clouds([(row, Pose.identity()), (row, recorded)],
                        IcpConfig(max_correspondence_dist=reach, min_pairs=5))


# --- warm-started correspondences against the cold loop ---------------------

def _outcome(call):
    """The call's result, or the type and message of the ICP error it raised."""
    try:
        return call()
    except (IcpDiverged, InsufficientOverlap, DegenerateGeometry) as err:
        return type(err), str(err)


def assert_matches_cold_loop(src, tgt, cfg, init=None):
    """icp_align_2d (init None) or icp_align_3d (init a Pose) gives the bits,
    or the error and message, of the loop that queries every row."""
    if init is None:
        got = _outcome(lambda: icp_align_2d(src, tgt, cfg).tobytes())
        want = _outcome(lambda: cold_icp(src, tgt, None, np.zeros(2), cfg)[1].tobytes())
    else:
        def bits(pose):
            return pose.rotation.tobytes(), pose.translation.tobytes()
        src, tgt = PointCloud(src).points, PointCloud(tgt).points   # on the grid
        got = _outcome(lambda: bits(icp_align_3d(
            PointCloud(src), PointCloud(tgt), init=init, cfg=cfg)))
        want = _outcome(lambda: bits(Pose(*cold_icp(
            src, tgt, init.rotation, init.translation, cfg))))
    assert got == want
    return got


icp_configs = st.builds(
    IcpConfig,
    max_iterations=st.integers(1, 30),
    convergence_eps=st.sampled_from([1e-12, 1e-6, 1e-3]),
    max_correspondence_dist=st.sampled_from([0.05, 0.3, 1.0, 5.0]),
    min_pairs=st.integers(1, 12),
)


def noisy_copy(rng, src, n_tgt, noise):
    """Target rows drawn from the source rows, jittered."""
    rows = src[rng.integers(0, len(src), n_tgt)]
    return rows + rng.normal(scale=noise, size=rows.shape)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_src=st.integers(1, 60),
       n_tgt=st.integers(1, 60), dim=st.sampled_from([2, 3]),
       offset=st.sampled_from([0.0, 1e6]), noise=st.sampled_from([0.0, 0.01, 0.2]),
       cfg=icp_configs)
def test_warm_start_matches_cold_loop_on_random_clouds(
        seed, n_src, n_tgt, dim, offset, noise, cfg):
    # Offsets of 1e6 m put the clouds at UTM scale; a one-row target has no
    # runner-up (inf).
    rng = np.random.default_rng(seed)
    src = rng.uniform(-1.0, 1.0, size=(n_src, dim))
    tgt = noisy_copy(rng, src, n_tgt, noise) + rng.uniform(-0.3, 0.3, dim)
    src, tgt = src + offset, tgt + offset
    if dim == 2:
        assert_matches_cold_loop(src, tgt, cfg)
    else:
        init = Pose(rotation_about_z(rng.uniform(-0.2, 0.2)), rng.uniform(-0.1, 0.1, 3))
        assert_matches_cold_loop(src, tgt, cfg, init)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 6), dim=st.sampled_from([2, 3]),
       shift=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5]), min_size=3, max_size=3),
       drop=st.integers(0, 5), offset=st.sampled_from([0.0, 1e6]), cfg=icp_configs)
def test_warm_start_matches_cold_loop_on_integer_grids(size, dim, shift, drop, offset, cfg):
    # Half-integer shifts put source points exactly midway between target
    # points, so the nearest neighbour is tied and the lowest index must win.
    axes = [np.arange(float(size))] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    tgt = grid[drop % len(grid):] + offset
    src = grid + np.array(shift[:dim]) + offset
    if dim == 2:
        assert_matches_cold_loop(src, tgt, cfg)
    else:
        assert_matches_cold_loop(src, tgt, cfg, Pose.identity())


@pytest.mark.parametrize("dim", [2, 3])
def test_warm_start_matches_cold_loop_on_one_point_target(dim):
    src = np.random.default_rng(6).uniform(-0.5, 0.5, size=(20, dim))
    tgt = np.full((1, dim), 0.25)
    cfg = IcpConfig(min_pairs=1)
    init = None if dim == 2 else Pose.identity()
    assert_matches_cold_loop(src, tgt, cfg, init)


@pytest.mark.parametrize("dim", [2, 3])
def test_warm_start_matches_cold_loop_on_disjoint_sets(dim):
    rng = np.random.default_rng(7)
    src = rng.uniform(0, 1, size=(40, dim))
    tgt = rng.uniform(0, 1, size=(40, dim)) + 100.0
    init = None if dim == 2 else Pose.identity()
    got = assert_matches_cold_loop(src, tgt, IcpConfig(), init)
    assert got == (IcpDiverged, "no correspondences within max_correspondence_dist")


@pytest.mark.parametrize("dim", [2, 3])
def test_warm_start_matches_cold_loop_on_too_few_pairs(dim):
    # All 30 rows pair on the first iteration; the fit follows the 20 rows
    # whose copies lie 0.18 to -x, which leaves the other 10 out of reach.
    rng = np.random.default_rng(8)
    src = rng.uniform(0, 3, size=(30, dim))
    along_x = np.eye(dim)[0]
    tgt = np.vstack([src[:10] + 0.18 * along_x, src[10:] - 0.18 * along_x])
    init = None if dim == 2 else Pose.identity()
    got = assert_matches_cold_loop(
        src, tgt, IcpConfig(max_correspondence_dist=0.2, min_pairs=25), init)
    assert got[0] is InsufficientOverlap


@pytest.mark.parametrize("dim", [2, 3])
def test_warm_start_matches_cold_loop_when_every_row_pairs(dim):
    # The reach spans both clouds, so every row pairs on every iteration and
    # the fit reads the source and the kept matches without copying them.
    # The 2D source is a strided view, as the pose track's scans are.
    cfg = IcpConfig(max_iterations=100, max_correspondence_dist=100.0)
    if dim == 2:
        ring = ring_2d(400)
        src = np.column_stack([ring, np.zeros(len(ring))])[:, :2]
        tgt = ring + np.array([0.3, -0.1])
        assert_matches_cold_loop(src, tgt, cfg)
    else:
        cube = cube_cloud(np.random.default_rng(4), n=1200)
        true = Pose(rotation_about_z(math.radians(6.0)), np.array([0.3, -0.2, 0.1]))
        tgt = transform_cloud(true, cube)
        init = Pose(rotation_about_z(math.radians(10.0)), np.array([0.5, 0.0, 0.0]))
        assert_matches_cold_loop(cube.points, tgt.points, cfg, init)


def test_station_icp_copies_no_pairs_when_every_row_pairs():
    # Two 9,600-point room stations, placed and recorded as the benchmark's
    # register run places them: every row pairs on every iteration. Traced
    # peaks, in copies of one cloud's points (230,400 B): 8.28 when each
    # iteration gathered the matches again and copied out the pairs, 7.28
    # with the matches kept and nothing copied. The bound sits halfway: one
    # more (N, 3) array alive at the peak fails it, and an allocation change
    # of under half a copy elsewhere in the call does not.
    scene = preset_scene("room", density=100.0, noise_sigma=0.005)
    target = generate_scene(scene, seed=0)
    true = Pose(rotation_about_z(0.3), np.array([0.5, -0.3, 0.1]))
    source = PointCloud((generate_scene(scene, seed=1).points - true.translation)
                        @ true.rotation)
    init = Pose(rotation_about_z(0.3 + math.radians(1.0)),
                true.translation + np.array([0.05, -0.04, 0.02]))
    tracemalloc.start()
    try:
        pose = icp_align_3d(source, target, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(source) == len(target) == 9600
    assert np.abs(pose.translation - true.translation).max() < 0.03
    assert peak < 7.78 * target.points.nbytes


@pytest.mark.parametrize("dim", [2, 3])
def test_kept_rows_get_the_answer_the_tree_would_give(dim):
    # Anchors on the bisector of two targets are (nearly) tied; moves of
    # 1e-18 to 1e-15 leave the true distances within rounding of each
    # other. Wherever the guard keeps a row, querying the moved point
    # returns the kept index and the recomputed distance, bit for bit.
    rng = np.random.default_rng(9)
    missed = 0
    for _ in range(10):
        a, b = targets = rng.uniform(-1, 1, size=(2, dim))
        tree = KdTree(targets)
        axis = (b - a) / np.linalg.norm(b - a)
        offsets = rng.normal(size=(4000, dim))
        offsets -= np.outer(offsets @ axis, axis)
        anchors = (a / 2 + b / 2) + offsets
        moved = anchors + rng.normal(size=(4000, dim)) * 10.0 ** rng.uniform(-18, -15, (4000, 1))
        idx, _, runner_up = tree.nearest(anchors)
        dist = np.sqrt(((targets[idx] - moved) ** 2).sum(axis=1))
        shift = np.sqrt(((moved - anchors) ** 2).sum(axis=1))
        kept = _kept(dist, runner_up, shift)
        now_idx, now_dist, _ = tree.nearest(moved[kept])
        assert np.array_equal(now_idx, idx[kept])
        assert np.array_equal(now_dist, dist[kept])
        now_idx, now_dist, _ = tree.nearest(moved)
        changed = (now_idx != idx) | (now_dist != dist)
        missed += int((changed & (dist < runner_up - shift)).sum())
    # A guard without the rounding bound would have kept some changed rows.
    assert missed > 0


def test_warm_start_queries_only_rows_that_may_have_moved_neighbour(monkeypatch):
    # The ring and the cube of the recovery tests: after the first query of
    # every row, fewer than 3/4 of the rows are queried per iteration, and
    # the poses are the cold loop's to the bit.
    queried = []
    real_nearest = KdTree.nearest

    def counting(self, queries):
        queried.append(len(queries))
        return real_nearest(self, queries)

    monkeypatch.setattr(KdTree, "nearest", counting)
    ring = ring_2d(400)
    cube = cube_cloud(np.random.default_rng(4), n=1200)
    true = Pose(rotation_about_z(math.radians(6.0)), np.array([0.3, -0.2, 0.1]))
    init = Pose(rotation_about_z(math.radians(10.0)), np.array([0.5, 0.0, 0.0]))
    cases = [
        (ring, ring + np.array([0.3, -0.1]), None),
        (cube.points, transform_cloud(true, cube).points, init),
    ]
    cfg = IcpConfig(max_iterations=100)
    for src, tgt, start in cases:
        queried.clear()
        if start is None:
            icp_align_2d(src, tgt, cfg)
        else:
            icp_align_3d(PointCloud(src), PointCloud(tgt), start, cfg)
        first, *later = queried
        assert first == len(src)
        assert len(later) >= 4
        assert sum(later) < 0.75 * len(src) * len(later)
        assert_matches_cold_loop(src, tgt, cfg, start)
