import json
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scanplan import artifacts
from scanplan.artifacts import (
    export_boundary,
    import_boundary,
    read_cloud,
    read_stations,
    read_surfaces,
    write_cloud,
    write_stations,
    write_plans,
    write_surfaces,
    write_waypoints_csv,
)
from scanplan.errors import (
    EmptySurface,
    MalformedRecord,
    NonPlanarEdit,
    SelfIntersectingPolygon,
)
from scanplan.geometry import GRID_LIMIT, PointCloud, Pose, rotation_about_z
from scanplan.planning import (
    CameraSpec,
    FlightPlan,
    PlanningConfig,
    build_occupancy,
    plan_coverage,
)
from scanplan.segmentation import PlanarSurface, PlaneModel

from oracles import (
    Malformed,
    read_cloud_whole_text,
    to_grid_per_value,
    write_cloud_per_value,
    write_waypoints_csv_per_value,
)

# The grid of an empty cloud: every voxel, in it or outside it, is free.
NO_OBSTACLES = build_occupancy(PointCloud.empty(), 0.25, 0.6)


def test_cloud_round_trip_bit_exact(tmp_path, rng):
    cloud = PointCloud(rng.normal(size=(200, 3)) * 1e3,
                       sources=rng.integers(0, 5, 200))
    path = tmp_path / "cloud.xyz"
    write_cloud(path, cloud)
    back = read_cloud(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.sources, cloud.sources)
    # Writing again produces the identical file.
    path2 = tmp_path / "cloud2.xyz"
    write_cloud(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_cloud_count_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("3\n# comment\n0 0 0\n", encoding="ascii")
    with pytest.raises(MalformedRecord):
        read_cloud(path)


def test_cloud_empty_round_trip(tmp_path):
    path = tmp_path / "empty.xyz"
    write_cloud(path, PointCloud.empty())
    assert len(read_cloud(path)) == 0


# Values whose six decimals are easy to get wrong: signed zero, values that
# round to zero or by a tie, a carry into the next decade, the edges of the
# grid and integers held as floats.
EDGE_FLOATS = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, -4e-7, 0.0078125, 9.9999995,
               GRID_LIMIT, -GRID_LIMIT, 1.0, -2.0, 0.1, 1 / 3, 123456789.0]
# Waypoints are printed as they are, so their edges go on past the grid.
PAST_THE_GRID = [float(np.nextafter(GRID_LIMIT, np.inf)), 9.0e9, 999999999999.9999,
                 1e12, -1e300, 2.0**53]


def _edge_cloud(rng, n, tagged):
    """n points: EDGE_FLOATS first, then values spread over 11 decades."""
    spread = rng.normal(size=3 * n) * 10.0 ** rng.integers(-5, 6, 3 * n)
    points = np.concatenate([EDGE_FLOATS, spread])[: 3 * n].reshape(n, 3)
    tags = None
    if tagged:
        tags = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64)
        tags[: min(n, 3)] = [0, -1, 2**63 - 1][: min(n, 3)]
    return PointCloud(points, tags)


@pytest.mark.parametrize("tagged", [False, True])
@pytest.mark.parametrize("n", [0, 1, 4, 5, 9, 100])
def test_write_cloud_bytes_equal_the_per_value_writer(
        tmp_path, rng, monkeypatch, n, tagged):
    # With blocks of 4 rows, n = 4 is one full block and n = 5 one row more.
    monkeypatch.setattr(artifacts, "_WRITE_BLOCK_ROWS", 4)
    cloud = _edge_cloud(rng, n, tagged)
    write_cloud(tmp_path / "new.xyz", cloud)
    write_cloud_per_value(tmp_path / "old.xyz", cloud.points, cloud.sources)
    assert (tmp_path / "new.xyz").read_bytes() == (tmp_path / "old.xyz").read_bytes()


def test_write_cloud_default_block_bytes_equal_the_per_value_writer(tmp_path, rng):
    n = artifacts._WRITE_BLOCK_ROWS + 1
    cloud = _edge_cloud(rng, n, True)
    write_cloud(tmp_path / "new.xyz", cloud)
    write_cloud_per_value(tmp_path / "old.xyz", cloud.points, cloud.sources)
    assert (tmp_path / "new.xyz").read_bytes() == (tmp_path / "old.xyz").read_bytes()


@pytest.mark.parametrize("n", [1, 2, 50])
def test_waypoints_csv_bytes_equal_the_per_value_writer(tmp_path, rng, n):
    waypoints = rng.permutation(np.array((EDGE_FLOATS + PAST_THE_GRID) * 12))
    waypoints = waypoints[: 3 * n].reshape(n, 3)
    plan = FlightPlan([], waypoints)
    write_waypoints_csv(tmp_path / "new.csv", plan)
    write_waypoints_csv_per_value(tmp_path / "old.csv", waypoints)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_plan_file_holds_each_stop_and_each_error(tmp_path, rng):
    # Every stop record carries its own position, the surface's facing and
    # its cell as JSON integers, as a per-stop writer prints them.
    stops = plan_coverage(square_surface(3.0, 2.0), PlanningConfig(),
                          CameraSpec(fov_h_deg=24.0, fov_v_deg=20.0), NO_OBSTACLES)
    waypoints = rng.normal(size=(7, 3))
    plans = [FlightPlan(stops, waypoints), EmptySurface("no boundary")]
    write_plans(tmp_path / "plan.json", plans)
    expected = {"version": 1, "plans": [
        {"surface_index": 0, "status": "ok",
         "stop_points": [{"position": [float(v) for v in position],
                          "facing": [float(v) for v in stops.facing],
                          "row": int(row), "col": int(col)}
                         for position, (row, col) in zip(stops.positions, stops.cells)],
         "waypoints": [[float(v) for v in w] for w in waypoints]},
        {"surface_index": 1, "status": "EmptySurface", "error": "no boundary"}]}
    assert len(stops) == 30
    assert (tmp_path / "plan.json").read_text(encoding="ascii") == (
        json.dumps(expected, indent=1, sort_keys=True) + "\n")


HEADER = "3\n# comment\n"
ROWS = "1 2 3\n-0.0 1e-300 1e+9\n4.5 5.5 6.5\n"
TAGGED = "1 2 3 0\n4 5 6 +7\n7 8 9 1_0\n"

# Cloud files at the edges of the format; each is read by read_cloud and by
# the line-by-line reference, whole and cut short by one or two bytes as an
# interrupted write leaves it, and both must agree on the values or on the error.
EDGE_FILES = {
    "plain": HEADER + ROWS,
    "tagged": HEADER + TAGGED,
    "no_final_newline": HEADER + ROWS.rstrip("\n"),
    "blank_and_space_lines": "3\n# c\n\n  \n1 2 3\n\t\n4 5 6\n \n7 8 9\n\n",
    "crlf": (HEADER + TAGGED).replace("\n", "\r\n"),
    "lone_cr": (HEADER + ROWS).replace("\n", "\r"),
    "form_feed_and_vt": "3\f# c\n1 2 3\x0b4 5 6\f7 8 9\n",
    "file_group_record_separators": "3\x1c# c\x1d1 2 3\x1e4 5 6\n7 8 9\n",
    "unit_separator_is_whitespace": "2\n# c\n1\x1f2 3\n4 5\x1f6\n",
    "tabs_and_padding": "  2 \n#\n\t1\t2\t3 \n 4  5  6\n",
    "float_spellings": "3\n# c\n1_0 +1e-3 .5\n5. -0 1E+2\n  0 +0.0 2\n",
    "empty_cloud": "0\n# c\n",
    "empty_cloud_with_blanks": "0\n# c\n\n \n",
    "count_signs": "+2\n# c\n1 2 3\n4 5 6\n",
    "count_padding_and_underscore": " 1_0 \n# c\n" + "1 2 3\n" * 10,
    "no_lines": "",
    "one_line": "3\n",
    "header_only_no_newline": "0\n# c",
    "bad_count": "three\n# c\n1 2 3\n",
    "count_too_high": HEADER.replace("3", "4", 1) + ROWS,
    "count_too_low": HEADER.replace("3", "2", 1) + ROWS,
    "count_negative": "-1\n# c\n",
    "count_huge": "1000000000000000000000\n# c\n1 2 3\n",
    "two_tokens": HEADER + "1 2 3\n4 5\n6 7 8\n",
    "five_tokens": HEADER + "1 2 3\n4 5 6 7 8\n6 7 8\n",
    "bad_coordinate": HEADER + "1 2 3\n4 x 6\n7 8 9\n",
    "bad_coordinate_and_tag": HEADER + "1 2 3 0\n4 x 6 y\n7 8 9 1\n",
    "hex_coordinate": HEADER + "1 2 3\n0x10 5 6\n7 8 9\n",
    "bad_tag": HEADER + "1 2 3 0\n1 1 0 x\n7 8 9 1\n",
    "float_tag": HEADER + "1 2 3 0\n1 1 0 1.5\n7 8 9 1\n",
    "tag_past_int64": HEADER + "1 2 3 0\n1 1 0 9223372036854775808\n7 8 9 1\n",
    "tag_below_int64": HEADER + "1 2 3 0\n1 1 0 -9223372036854775809\n7 8 9 1\n",
    "int64_extremes": "2\n# c\n1 2 3 9223372036854775807\n4 5 6 -9223372036854775808\n",
    "mixed_tags": HEADER + "1 2 3 0\n4 5 6\n7 8 9 1\n",
    "mixed_tags_and_bad_count": HEADER.replace("3", "5", 1) + "1 2 3 0\n4 5 6\n7 8 9 1\n",
    "mixed_tags_then_bad_line": HEADER + "1 2 3 0\n4 5 6\n7 8 9 1\n1 2\n",
    "two_bad_lines": HEADER + "1 2 3\n1 2\n4 x 6\n",
    "bad_line_and_bad_count": "9\n# c\n1 2 3\n4 x 6\n",
    "nan_coordinate": HEADER + "1 2 3\nnan 5 6\n7 8 9\n",
    "inf_coordinate": HEADER + "1 2 3\n4 -Infinity 6\n7 8 9\n",
    "overflow_to_inf": HEADER + "1 2 3\n4 1e400 6\n7 8 9\n",
    "past_the_grid": HEADER + "1 2 3\n4 -1e300 6\n7 8 9\n",
    "at_the_grid_edges": HEADER + "1 2 3\n2251799813.685248 -2251799813.685248 6\n"
                         "7 8 -2251799813.6852475\n",
    "just_past_the_grid": HEADER + "1 2 3\n4 5 6\n7 8 2251799813.685249\n",
    "off_the_grid": HEADER + "0.0000005 0.0000015 -0.0000004\n4 5 6\n7 8 0.1234567\n",
    "non_ascii": HEADER + "1 2 3\n4 5 6\xe9\n7 8 9\n",
}


def _read(reader, path):
    try:
        return reader(path)
    except (MalformedRecord, Malformed) as err:
        return ("error", err.reason, err.line)
    except ValueError:  # a non-ASCII byte, or a point not finite or past the grid
        return ("value error",)


def _read_reference(path):
    """The whole-text reader's values, put on the grid point by point."""
    got = _read(read_cloud_whole_text, path)
    if isinstance(got[0], str):
        return got
    points, tags = got
    if not all(abs(v) <= GRID_LIMIT for v in points.ravel().tolist()):
        return ("value error",)
    on_grid = [to_grid_per_value(v) for v in points.ravel().tolist()]
    return np.array(on_grid).reshape(points.shape), tags


@pytest.mark.parametrize("cut", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_read_cloud_matches_the_whole_text_reader(tmp_path, name, cut):
    data = EDGE_FILES[name].encode("latin-1")
    path = tmp_path / "cloud.xyz"
    path.write_bytes(data[:-cut] if cut else data)
    want = _read_reference(path)
    got = _read(read_cloud, path)
    if isinstance(want[0], str):
        assert got == want
        return
    assert isinstance(got, PointCloud)
    assert got.points.tobytes() == np.asarray(want[0], dtype=float).tobytes()
    if want[1] is None:
        assert got.sources is None
    else:
        assert got.sources.dtype == np.int64
        assert np.array_equal(got.sources, want[1])


def test_read_cloud_bad_tag_names_the_line(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text(EDGE_FILES["bad_tag"], encoding="ascii")
    with pytest.raises(MalformedRecord, match=r"^line 4: bad source tag 'x'$"):
        read_cloud(path)


@pytest.mark.parametrize("tagged", [False, True])
def test_read_cloud_long_file_matches_the_whole_text_reader(tmp_path, rng, tagged):
    # Errors planted deep in a 1,000-row file are named by their line.
    cloud = _edge_cloud(rng, 1000, tagged)
    path = tmp_path / "cloud.xyz"
    write_cloud_per_value(path, cloud.points, cloud.sources)
    got = read_cloud(path)
    assert got.points.tobytes() == cloud.points.tobytes()
    if tagged:
        assert np.array_equal(got.sources, cloud.sources)
    else:
        assert got.sources is None
    lines = path.read_text(encoding="ascii").splitlines()
    for line_no, bad in [(700, "1 2"), (701, "1 2 y" + " 0" * tagged),
                         (998, "1 2 3 z" if tagged else "1 2 3 4 5")]:
        broken = lines.copy()
        broken[line_no - 1] = bad
        path.write_text("\n".join(broken) + "\n", encoding="ascii")
        assert _read(read_cloud, path) == _read_reference(path)
        assert _read(read_cloud, path)[2] == line_no


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_cloud_from_a_pipe(tmp_path, rng):
    # A pipe reports size 0, yet every row must be read.
    cloud = _edge_cloud(rng, 300, True)
    write_cloud(tmp_path / "cloud.xyz", cloud)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(
        target=pipe.write_bytes, args=((tmp_path / "cloud.xyz").read_bytes(),))
    writer.start()
    try:
        got = read_cloud(pipe)
    finally:
        writer.join()
    assert got.points.tobytes() == cloud.points.tobytes()
    assert np.array_equal(got.sources, cloud.sources)


# Clouds as write_cloud writes them: any coordinates inside the grid's reach,
# with the edges (signed zero, the least subnormal, ties, the reach itself)
# drawn often, and tags over all of int64 or none.
_coordinates = st.floats(-GRID_LIMIT, GRID_LIMIT) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 5e-7, -1.5e-6, 0.0078125, GRID_LIMIT, -GRID_LIMIT])
_tags = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1, 0])


@st.composite
def _written_clouds(draw):
    n = draw(st.integers(0, 30))
    points = draw(hnp.arrays(float, (n, 3), elements=_coordinates))
    tags = draw(st.none() | hnp.arrays(np.int64, n, elements=_tags))
    return PointCloud(points, tags)


@settings(max_examples=200, deadline=None)
@given(cloud=_written_clouds())
@example(cloud=PointCloud.empty())
@example(cloud=PointCloud([[-0.0, 5e-324, GRID_LIMIT], [1e-4, -GRID_LIMIT, 0.1]],
                          sources=[-(2**63), 2**63 - 1]))
def test_read_cloud_takes_every_written_cloud_in_one_pass(cloud):
    # The line-by-line path refuses, so a cloud that came back went through
    # the one numpy parse, and came back bit for bit. A file of no rows has
    # no tags.
    def refuse(lines):
        raise AssertionError("a written cloud fell back to the line-by-line path")

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(artifacts, "_parse_lines", refuse)
        path = Path(tmp) / "cloud.xyz"
        write_cloud(path, cloud)
        got = read_cloud(path)
    assert got.points.shape == cloud.points.shape
    assert got.points.tobytes() == cloud.points.tobytes()
    if cloud.sources is None or len(cloud) == 0:
        assert got.sources is None
    else:
        assert got.sources.dtype == np.int64
        assert got.sources.tobytes() == cloud.sources.tobytes()


@pytest.mark.parametrize("tagged", [False, True])
def test_read_cloud_peak_memory_stays_under_three_times_the_file(tmp_path, rng, tagged):
    # A Python object per line or value would cost several times the file.
    cloud = PointCloud(rng.normal(size=(10_000, 3)) * 10.0,
                       rng.integers(0, 4, 10_000) if tagged else None)
    path = tmp_path / "cloud.xyz"
    write_cloud(path, cloud)
    tracemalloc.start()
    try:
        read_cloud(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size


def square_surface(width=4.0, height=3.0):
    model = PlaneModel(0.0, 0.0, 1.0, 0.0)
    boundary = np.array([
        [0.0, 0.0, 0.0], [width, 0.0, 0.0], [width, height, 0.0], [0.0, height, 0.0],
    ])
    return PlanarSurface(model, np.arange(10), boundary, width * height)


def test_surfaces_json_schema(tmp_path):
    path = tmp_path / "surfaces.json"
    write_surfaces(path, [square_surface()])
    data = json.loads(path.read_text())
    assert data["version"] == 1
    entry = data["planes"][0]
    assert set(entry) == {"normal", "d", "boundary", "area", "inlier_count"}
    assert entry["inlier_count"] == 10
    back = read_surfaces(path)
    assert len(back) == 1
    assert back[0].area == pytest.approx(12.0)


def test_boundary_export_import_round_trip(tmp_path):
    surface = square_surface()
    path = tmp_path / "boundary.json"
    export_boundary(surface, path)
    back = import_boundary(surface, path)
    assert np.array_equal(back.boundary, surface.boundary)
    assert back.area == pytest.approx(surface.area)
    # Re-exporting the unedited import reproduces the file bit-exact.
    path2 = tmp_path / "boundary2.json"
    export_boundary(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_boundary_closed_ring_imports_as_the_open_ring(tmp_path):
    # A polygon editor may save the ring closed, its first vertex repeated last.
    surface = square_surface()
    path = tmp_path / "ring.json"
    export_boundary(surface, path)
    data = json.loads(path.read_text())
    data["boundary"].append(data["boundary"][0])
    path.write_text(json.dumps(data), encoding="ascii")
    assert import_boundary(surface, path) is surface


def test_boundary_closed_two_point_ring_rejected(tmp_path):
    # Once its closing vertex goes, the ring has 2 points: no polygon.
    surface = square_surface()
    path = tmp_path / "ring.json"
    ring = surface.boundary[:2].tolist()
    path.write_text(json.dumps({"boundary": ring + ring[:1]}), encoding="ascii")
    with pytest.raises(NonPlanarEdit,
                       match="boundary must be at least 3 points of 3 coordinates") as err:
        import_boundary(surface, path)
    assert err.type is NonPlanarEdit


def test_boundary_shrink_halves_stop_count(tmp_path):
    camera = CameraSpec(fov_h_deg=24.0, fov_v_deg=20.0)
    full = square_surface(22.0, 10.0)
    stops_full = plan_coverage(full, PlanningConfig(), camera, NO_OBSTACLES)

    path = tmp_path / "half.json"
    export_boundary(full, path)
    data = json.loads(path.read_text())
    data["boundary"] = [
        [0.0, 0.0, 0.0], [11.0, 0.0, 0.0], [11.0, 10.0, 0.0], [0.0, 10.0, 0.0],
    ]
    path.write_text(json.dumps(data), encoding="ascii")
    half = import_boundary(full, path)
    stops_half = plan_coverage(half, PlanningConfig(), camera, NO_OBSTACLES)
    ratio = len(stops_half) / len(stops_full)
    assert ratio == pytest.approx(0.5, rel=0.02)


def test_boundary_non_convex_edit_accepted(tmp_path):
    surface = square_surface()
    path = tmp_path / "l-shape.json"
    export_boundary(surface, path)
    data = json.loads(path.read_text())
    data["boundary"] = [
        [0.0, 0, 0], [4.0, 0, 0], [4.0, 1.0, 0], [1.0, 1.0, 0],
        [1.0, 3.0, 0], [0.0, 3.0, 0],
    ]
    path.write_text(json.dumps(data), encoding="ascii")
    edited = import_boundary(surface, path)
    assert edited.area == pytest.approx(4.0 + 2.0)


def test_boundary_off_plane_vertex_rejected(tmp_path):
    surface = square_surface()
    path = tmp_path / "bad.json"
    export_boundary(surface, path)
    data = json.loads(path.read_text())
    data["boundary"][0] = [0.0, 0.0, 1.0]  # 1 m off the plane
    path.write_text(json.dumps(data), encoding="ascii")
    with pytest.raises(NonPlanarEdit):
        import_boundary(surface, path, distance_threshold=0.2)


def test_boundary_self_intersection_rejected(tmp_path):
    surface = square_surface()
    path = tmp_path / "bowtie.json"
    export_boundary(surface, path)
    data = json.loads(path.read_text())
    data["boundary"] = [
        [0.0, 0, 0], [4.0, 3.0, 0], [4.0, 0, 0], [0.0, 3.0, 0],
    ]
    path.write_text(json.dumps(data), encoding="ascii")
    with pytest.raises(SelfIntersectingPolygon):
        import_boundary(surface, path)


def test_stations_round_trip(tmp_path):
    path = tmp_path / "stations.json"
    entries = [
        ("a.xyz", Pose.identity()),
        ("b.xyz", Pose(rotation_about_z(0.3), np.array([1.0, 2.0, 0.0]))),
    ]
    write_stations(path, entries)
    back = read_stations(path)
    assert back[0][0] == "a.xyz"
    assert np.allclose(back[1][1].rotation, entries[1][1].rotation)
    assert np.allclose(back[1][1].translation, entries[1][1].translation)
