import json

import numpy as np
import pytest

from scanplan.artifacts import (
    export_boundary,
    import_boundary,
    read_cloud,
    read_stations,
    read_surfaces,
    write_cloud,
    write_stations,
    write_surfaces,
)
from scanplan.errors import MalformedRecord, NonPlanarEdit, SelfIntersectingPolygon
from scanplan.geometry import PointCloud, Pose, rotation_about_z
from scanplan.planning import CameraSpec, PlanningConfig, plan_coverage
from scanplan.segmentation import PlanarSurface, PlaneModel


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


def test_boundary_shrink_halves_stop_count(tmp_path):
    camera = CameraSpec(fov_h_deg=24.0, fov_v_deg=20.0)
    full = square_surface(22.0, 10.0)
    stops_full = plan_coverage(full, PlanningConfig(), camera)

    path = tmp_path / "half.json"
    export_boundary(full, path)
    data = json.loads(path.read_text())
    data["boundary"] = [
        [0.0, 0.0, 0.0], [11.0, 0.0, 0.0], [11.0, 10.0, 0.0], [0.0, 10.0, 0.0],
    ]
    path.write_text(json.dumps(data), encoding="ascii")
    half = import_boundary(full, path)
    stops_half = plan_coverage(half, PlanningConfig(), camera)
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
