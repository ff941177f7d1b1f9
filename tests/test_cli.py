"""The command line end to end, called in-process through ``cli.main``."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scanplan
from scanplan.artifacts import read_cloud, read_surfaces, write_cloud
from scanplan.cli import EXIT_OK, EXIT_STAGE, EXIT_VALIDATION, main
from scanplan.geometry import PointCloud
from scanplan.ingest import Stream, write_scan_log
from scanplan.planning import PlanningConfig
from scanplan.scenes import preset_scene, scene_to_dict
from scanplan.simulate import simulate_yaw_scan

from oracles import flown_coverage


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A simulated room sweep and the artifacts ``run`` makes of it."""
    # A whole-degree resolution goes through np.radians, whose numpy scalar
    # must still be written as a plain float the parser reads back.
    tmp = tmp_path_factory.mktemp("sweep")
    log = tmp / "sweep.log"
    assert main([
        "simulate", "--preset", "room", "--station", "0", "0", "1.5",
        "--rays-per-scan", "271", "--angular-resolution-deg", "1",
        "--out", str(log),
    ]) == EXIT_OK
    out = tmp / "out"
    assert main(["run", "--input", str(log), "--out", str(out)]) == EXIT_OK
    return log, out


@pytest.fixture(scope="module")
def deck(tmp_path_factory):
    """A small noisy deck cloud and the artifacts ``run`` makes of it."""
    tmp = tmp_path_factory.mktemp("deck")
    cloud = tmp / "deck.xyz"
    assert main(["generate", "--preset", "deck", "--density", "20",
                 "--noise", "0.01", "--out", str(cloud)]) == EXIT_OK
    out = tmp / "run"
    assert main(["run", "--input", str(cloud), "--out", str(out)]) == EXIT_OK
    return cloud, out


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_simulate_then_run_round_trip(sweep):
    _, out = sweep
    for name in ("registered.xyz", "filtered.xyz", "surfaces.json",
                 "clusters.json", "plan.json"):
        assert (out / name).is_file()


def test_ingest_matches_run(sweep, tmp_path):
    log, out = sweep
    cloud = tmp_path / "registered.xyz"
    assert main(["ingest", "--input", str(log), "--out", str(cloud)]) == EXIT_OK
    assert cloud.read_bytes() == (out / "registered.xyz").read_bytes()


def test_stage_verbs_match_run(deck, tmp_path):
    cloud, out = deck
    steps = tmp_path / "steps"
    steps.mkdir()
    for argv in (
        ["filter", "--input", str(cloud), "--out", str(steps / "filtered.xyz")],
        ["segment", "--input", str(steps / "filtered.xyz"),
         "--out", str(steps / "surfaces.json"),
         "--remainder", str(steps / "remainder.xyz")],
        ["cluster", "--input", str(steps / "remainder.xyz"),
         "--out", str(steps / "clusters.json")],
        ["plan", "--cloud", str(steps / "filtered.xyz"),
         "--surfaces", str(steps / "surfaces.json"),
         "--out", str(steps / "plan.json")],
    ):
        assert main(argv) == EXIT_OK
    expected = {name: data for name, data in _files(out).items()
                if name.endswith((".json", ".csv")) or name == "filtered.xyz"}
    assert any(name.startswith("plan_") for name in expected)
    got = _files(steps)
    assert {name: got.get(name) for name in expected} == expected


def test_run_prints_the_peak_rss_after_each_stage(deck, tmp_path, capsys):
    cloud, _ = deck
    capsys.readouterr()
    assert main(["run", "--input", str(cloud), "--out", str(tmp_path / "run")]) == EXIT_OK
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if " peak " in line]
    assert [row[0] for row in rows] == [
        "register", "filter", "segment", "cluster", "plan", "render"]
    peaks = [float(row[row.index("peak") + 1]) for row in rows]
    assert 0 < peaks[0] and peaks == sorted(peaks)


def test_two_runs_write_identical_directories(deck, tmp_path):
    cloud, out = deck
    again = tmp_path / "again"
    assert main(["run", "--input", str(cloud), "--out", str(again)]) == EXIT_OK
    assert _files(again) == _files(out)


@pytest.mark.parametrize("verb", ["ingest", "run"])
def test_blank_horizontal_scan_fails_its_scan_pair(tmp_path, capsys, verb):
    # A scan of no-returns is valid input, so it is a stage failure (exit 3)
    # of the pair that needs it, not a validation error.
    log = simulate_yaw_scan(preset_scene("room"), station=(0.0, 0.0, 1.5))
    scans = list(log.horizontal.records)
    scans[5] = np.zeros_like(scans[5])
    log = dataclasses.replace(log, horizontal=Stream(log.horizontal.stamps, scans))
    path = tmp_path / "blank.log"
    write_scan_log(path, log)
    capsys.readouterr()
    assert main([verb, "--input", str(path), "--out", str(tmp_path / "out")]) == EXIT_STAGE
    assert ": scan pair 4: empty point set" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    pytest.param(["--range-noise", "0.01"], marks=pytest.mark.xfail(
        strict=True, reason="defect 1a: IcpDiverged on scan pair 0 of a noisy 72-scan room")),
    pytest.param(["--scans", "24"], marks=pytest.mark.xfail(
        strict=True, reason="defect 1b: IcpDiverged on a noise-free 24-scan room")),
], ids=["1a_noisy_72_scans", "1b_24_scans"])
def test_short_or_noisy_room_sweep_registers(tmp_path, extra):
    log = tmp_path / "sweep.log"
    assert main(["simulate", "--preset", "room", "--station", "0", "0", "1.5",
                 *extra, "--out", str(log)]) == EXIT_OK
    assert main(["run", "--input", str(log), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_filter_and_run_share_the_small_cloud_rule(tmp_path):
    # 12 points, fewer than the filter's 50 neighbours: both pass them on.
    cloud = tmp_path / "small.xyz"
    assert main(["generate", "--preset", "surface", "--density", "1",
                 "--out", str(cloud)]) == EXIT_OK
    filtered = tmp_path / "filtered.xyz"
    assert main(["filter", "--input", str(cloud), "--out", str(filtered)]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["run", "--input", str(cloud), "--out", str(out)]) == EXIT_OK
    assert filtered.read_bytes() == (out / "filtered.xyz").read_bytes()


def test_register_two_stations(tmp_path):
    # Station 1 is the same scan recorded 3 cm off; ICP moves it back.
    cloud = tmp_path / "cube.xyz"
    assert main(["generate", "--preset", "cube", "--density", "50",
                 "--out", str(cloud)]) == EXIT_OK
    identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    stations = tmp_path / "stations.json"
    stations.write_text(json.dumps({"stations": [
        {"cloud": "cube.xyz", "rotation": identity, "translation": [0.0, 0.0, 0.0]},
        {"cloud": "cube.xyz", "rotation": identity, "translation": [0.03, -0.02, 0.01]},
    ]}), encoding="ascii")
    merged = tmp_path / "merged.xyz"
    assert main(["register", "--stations", str(stations),
                 "--out", str(merged)]) == EXIT_OK
    points = read_cloud(cloud).points
    got = read_cloud(merged)
    n = len(points)
    assert np.array_equal(got.sources, [0] * n + [1] * n)
    assert np.array_equal(got.points[:n], points)
    assert np.allclose(got.points[n:], points, atol=1e-6)


def test_register_reads_an_absolute_cloud_path_as_it_is(tmp_path):
    # The stations file sits in another directory than the cloud it names.
    cloud = tmp_path / "clouds" / "cube.xyz"
    cloud.parent.mkdir()
    assert main(["generate", "--preset", "cube", "--density", "50",
                 "--out", str(cloud)]) == EXIT_OK
    identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    stations = tmp_path / "stations" / "stations.json"
    stations.parent.mkdir()
    stations.write_text(json.dumps({"stations": [
        {"cloud": str(cloud), "rotation": identity, "translation": [0.0, 0.0, 0.0]},
    ]}), encoding="ascii")
    merged = tmp_path / "merged.xyz"
    assert main(["register", "--stations", str(stations),
                 "--out", str(merged)]) == EXIT_OK
    got = read_cloud(merged)
    assert np.array_equal(got.points, read_cloud(cloud).points)
    assert np.array_equal(got.sources, np.zeros(len(got), dtype=int))


@pytest.mark.parametrize("n_stations, config, code, message", [
    (0, {}, EXIT_VALIDATION,
     "validation error: register_clouds needs at least one station"),
    (2, {"icp": {"min_pairs": 1000000}}, EXIT_STAGE,
     "stage register: station 1: only 1200 matched pairs, need 1000000"),
], ids=["no_stations", "too_few_pairs"])
def test_register_failure_exits_naming_the_cause(
        tmp_path, capsys, n_stations, config, code, message):
    # The cube pair of the README: station 1 is the same scan 3 cm off.
    assert main(["generate", "--preset", "cube", "--density", "50",
                 "--out", str(tmp_path / "cube.xyz")]) == EXIT_OK
    identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    stations = [
        {"cloud": "cube.xyz", "rotation": identity, "translation": [0.0, 0.0, 0.0]},
        {"cloud": "cube.xyz", "rotation": identity, "translation": [0.03, -0.02, 0.01]},
    ][:n_stations]
    (tmp_path / "stations.json").write_text(json.dumps({"stations": stations}),
                                            encoding="ascii")
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="ascii")
    merged = tmp_path / "merged.xyz"
    capsys.readouterr()
    assert main(["register", "--config", str(tmp_path / "config.json"),
                 "--stations", str(tmp_path / "stations.json"),
                 "--out", str(merged)]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not merged.exists()


def test_edit_boundary_export_then_import_keeps_the_surfaces_bytes(deck, tmp_path):
    _, out = deck
    surfaces = out / "surfaces.json"
    boundary = tmp_path / "boundary.json"
    edited = tmp_path / "surfaces.json"
    assert main(["edit-boundary", "export", "--surfaces", str(surfaces),
                 "--boundary", str(boundary)]) == EXIT_OK
    assert main(["edit-boundary", "import", "--surfaces", str(surfaces),
                 "--boundary", str(boundary), "--out", str(edited)]) == EXIT_OK
    assert edited.read_bytes() == surfaces.read_bytes()


@pytest.mark.parametrize("verb, extra", [
    ("generate", ["--density", "20", "--noise", "0.01"]),
    ("simulate", ["--station", "0", "0", "1.5", "--rays-per-scan", "91",
                  "--angular-resolution-deg", "2", "--scans", "4"]),
])
@pytest.mark.parametrize("preset", ["cube", "crossed_planes", "deck", "room"])
def test_scene_file_gives_the_preset_bytes(tmp_path, verb, extra, preset):
    density = 20.0 if verb == "generate" else 100.0
    noise = 0.01 if verb == "generate" else 0.0
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_to_dict(preset_scene(preset, density, noise))),
                     encoding="ascii")
    # generate's flags set the preset's sampling, which the scene file holds.
    file_extra = [] if verb == "generate" else extra
    from_preset, from_file = tmp_path / "preset.out", tmp_path / "file.out"
    assert main([verb, "--preset", preset, *extra, "--out", str(from_preset)]) == EXIT_OK
    assert main([verb, "--scene", str(scene), *file_extra, "--out", str(from_file)]) == EXIT_OK
    assert from_file.read_bytes() == from_preset.read_bytes()
    if verb == "simulate":
        truth = Path(str(from_file) + ".truth.json")
        assert truth.read_bytes() == Path(str(from_preset) + ".truth.json").read_bytes()


def _run_with_config(config):
    return {"config.json": config}, ["run", "--config", "{tmp}/config.json",
                                     "--input", "{tmp}/cloud.xyz", "--out", "{tmp}/out"]


def _generate_scene(scene):
    return {"scene.json": scene}, ["generate", "--scene", "{tmp}/scene.json",
                                   "--out", "{tmp}/scene.xyz"]


_IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
_PLANE = {"normal": [0.0, 0.0, 1.0], "d": 0.0, "area": 0.5, "inlier_count": 3,
          "boundary": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]}


@pytest.mark.parametrize(
    "files, argv, message",
    [(*_run_with_config({"ransca": {"iterations": 10}}), "unknown key(s) ransca"),
     (*_run_with_config({"ransac": {"min_aera": 1.0}}), "unknown key(s) min_aera"),
     (*_run_with_config({"ransac": {"area_estimator": "hull"}}),
      "unknown key(s) area_estimator"),
     (*_run_with_config({"ransac": {"iterations": "10"}}),
      "ransac.iterations: expected int, got str"),
     (*_run_with_config({"planning": {"voxel_edge": None}}),
      "planning.voxel_edge: expected float, got null"),
     (*_run_with_config({"icp": {"max_iterations": 2.5}}),
      "icp.max_iterations: expected int, got float"),
     (*_run_with_config({"icp": []}), "icp: expected an object, got list"),
     (*_run_with_config({"camera": {"image_width": 640}}), "unknown key(s) image_width"),
     (*_run_with_config({"icp": {"rotation_locked": True}}),
      "unknown key(s) rotation_locked"),
     (*_run_with_config({"ransac": {"max_area": 40.0}}), "unknown key(s) max_area"),
     (*_run_with_config({"planning": {"bounds_margin": 2.0}}),
      "config.planning: unknown key(s) bounds_margin"),
     (*_run_with_config({"ransac": {"min_area": 10**400}}),
      "ransac.min_area: expected a finite float, got an integer too large for a float"),
     ({"config.json": {"ransac": {"min_area": -5}}},
      ["segment", "--config", "{tmp}/config.json", "--input", "{tmp}/cloud.xyz",
       "--out", "{tmp}/surfaces.json"], "min_area must be >= 0"),
     ({"stations.json": {"stations": [
         {"cloud": "cloud.xyz", "translation": [0.0, 0.0, 0.0]}]}},
      ["register", "--stations", "{tmp}/stations.json", "--out", "{tmp}/merged.xyz"],
      "stations.json stations[0]: missing key(s) rotation"),
     ({"stations.json": {"stations": [
         {"cloud": 5, "rotation": _IDENTITY, "translation": [0.0, 0.0, 0.0]}]}},
      ["register", "--stations", "{tmp}/stations.json", "--out", "{tmp}/merged.xyz"],
      "stations.json stations[0].cloud: expected str, got int"),
     ({"stations.json": {"stations": [
         {"cloud": "cloud.xyz", "rotation": _IDENTITY[:2],
          "translation": [0.0, 0.0, 0.0]}]}},
      ["register", "--stations", "{tmp}/stations.json", "--out", "{tmp}/merged.xyz"],
      "stations.json stations[0].rotation: rotation must be 3x3, got shape (2, 3)"),
     ({"surfaces.json": {"planes": [{k: v for k, v in _PLANE.items() if k != "d"}]}},
      ["plan", "--cloud", "{tmp}/cloud.xyz", "--surfaces", "{tmp}/surfaces.json",
       "--out", "{tmp}/plan.json"],
      "surfaces.json planes[0]: missing key(s) d"),
     ({"surfaces.json": {"planes": [{**_PLANE, "area": None}]}},
      ["plan", "--cloud", "{tmp}/cloud.xyz", "--surfaces", "{tmp}/surfaces.json",
       "--out", "{tmp}/plan.json"],
      "surfaces.json planes[0].area: expected float, got null"),
     ({"surfaces.json": {"planes": [{**_PLANE, "d": float("nan")}]}},
      ["plan", "--cloud", "{tmp}/cloud.xyz", "--surfaces", "{tmp}/surfaces.json",
       "--out", "{tmp}/plan.json"],
      "surfaces.json planes[0].d: expected a finite float, got nan"),
     ({"surfaces.json": {"planes": [_PLANE]},
       "boundary.json": {"normal": [0.0, 0.0, 1.0], "d": 0.0}},
      ["edit-boundary", "import", "--surfaces", "{tmp}/surfaces.json",
       "--boundary", "{tmp}/boundary.json"],
      "boundary.json: missing key(s) boundary"),
     ({"surfaces.json": {"planes": [_PLANE]},
       "boundary.json": {"boundary": [[0.0, 0.0, None], *_PLANE["boundary"][1:]]}},
      ["edit-boundary", "import", "--surfaces", "{tmp}/surfaces.json",
       "--boundary", "{tmp}/boundary.json"],
      "boundary.json boundary: expected float, got null"),
     (*_generate_scene({"primitives": [{"type": "sphere", "center": [0, 0, 0]}]}),
      "scene.primitives[0]: unknown type 'sphere'"),
     (*_generate_scene({"primitives": [
         {"type": "rectangle", "normal": [0, 0, 1], "width": 1.0, "height": 1.0}]}),
      "scene.primitives[0] (rectangle): missing key(s) center"),
     (*_generate_scene({"primitives": [
         {"type": "point", "position": [0, 0, 0], "radius": 1.0}]}),
      "scene.primitives[0] (point): unknown key(s) radius"),
     (*_generate_scene({"primitives": [
         {"type": "box", "center": [0, 0, 0], "size": 2.0}]}),
      "scene.primitives[0] (box).size: expected a list of 3 numbers"),
     (*_generate_scene({"density": "10", "primitives": []}),
      "scene.density: expected float, got str"),
     (*_generate_scene({"density": -1.0, "primitives": []}),
      "scene: density must be > 0"),
     (*_generate_scene({"version": 1, "density": 10.0}),
      "scene: expected an object with a 'primitives' list"),
     (*_generate_scene([{"type": "point", "position": [0, 0, 0]}]),
      "scene: expected an object with a 'primitives' list")],
    ids=["top_level", "nested", "removed_field", "string_for_int",
         "null_for_float", "float_for_int", "list_for_section",
         "removed_camera_field", "removed_icp_field", "removed_ransac_field",
         "removed_planning_field",
         "huge_int_for_float", "segment_negative_min_area",
         "station_without_rotation", "station_number_for_cloud",
         "station_two_row_rotation", "plane_without_d", "plane_null_area",
         "plane_nan_d", "boundary_file_without_boundary", "boundary_null_coordinate",
         "scene_unknown_type", "scene_missing_field", "scene_unknown_key",
         "scene_number_for_vector", "scene_string_for_number", "scene_negative_density",
         "scene_without_primitives", "scene_not_an_object"],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, files, argv, message):
    # Bad config keys and values, and input files that lack a key or hold
    # one they should not, end with exit 2 and a message naming the key.
    cloud = tmp_path / "cloud.xyz"
    assert main(["generate", "--preset", "surface", "--density", "10",
                 "--out", str(cloud)]) == EXIT_OK
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="ascii")
    capsys.readouterr()
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


# One row per range check of a config type: tests/test_tooling.py checks
# that every message a config's __post_init__ raises is here.
CONFIG_RANGE_ERRORS = [
    ({"planning": {"inflate_radius": -1}},
     "config.planning: inflate_radius must be >= 0"),
    ({"planning": {"footprint_width": 0}},
     "config.planning: footprint dimensions must be > 0"),
    ({"planning": {"overlap": 1.0}}, "config.planning: overlap must be in [0, 1)"),
    ({"planning": {"voxel_edge": 0}}, "config.planning: voxel_edge must be > 0"),
    ({"surface_cluster_eps": -1}, "config: surface_cluster_eps must be > 0"),
    ({"ransac": {"min_inliers": -3}}, "config.ransac: min_inliers must be >= 1"),
    ({"ransac": {"min_area": -5}}, "config.ransac: min_area must be >= 0"),
    ({"ransac": {"rng_seed": -1}}, "config.ransac: rng_seed must be >= 0"),
    ({"ransac": {"distance_threshold": 0}},
     "config.ransac: distance_threshold must be > 0"),
    ({"ransac": {"iterations": 0}}, "config.ransac: iterations must be >= 1"),
    ({"icp": {"min_pairs": -3}}, "config.icp: min_pairs must be >= 1"),
    ({"icp": {"max_iterations": 0}}, "config.icp: max_iterations must be >= 1"),
    ({"icp": {"convergence_eps": 0}}, "config.icp: convergence_eps must be > 0"),
    ({"icp": {"max_correspondence_dist": -1}},
     "config.icp: max_correspondence_dist must be > 0"),
    ({"cluster": {"radius": 0}}, "config.cluster: radius must be > 0"),
    ({"cluster": {"min_cluster_size": 0}}, "config.cluster: min_cluster_size must be >= 1"),
    ({"outlier_filter": {"k_neighbors": 0}},
     "config.outlier_filter: k_neighbors must be >= 1"),
    ({"outlier_filter": {"d_t": 0}}, "config.outlier_filter: d_t must be > 0"),
    ({"voxel_grid": {"leaf_size": -0.05}}, "config.voxel_grid: leaf_size must be > 0"),
    ({"camera": {"fov_h_deg": 180}},
     "config.camera: fields of view must be in (0, 180) degrees"),
    ({"astar_weights": {"a2": 0}}, "config.astar_weights: A* weights must be > 0"),
]


@pytest.mark.parametrize("config, message", CONFIG_RANGE_ERRORS, ids=[
    "negative_inflate_radius", "zero_footprint", "full_overlap", "zero_voxel_edge",
    "negative_cluster_eps", "negative_min_inliers", "negative_min_area",
    "negative_rng_seed", "zero_distance_threshold",
    "zero_ransac_iterations", "negative_min_pairs", "zero_max_iterations",
    "zero_convergence_eps", "negative_correspondence_dist", "zero_cluster_radius",
    "zero_min_cluster_size", "zero_k_neighbors", "zero_d_t", "negative_leaf_size",
    "flat_field_of_view", "zero_astar_weight"])
def test_config_value_out_of_range_exits_2_before_any_stage(
        deck, tmp_path, capsys, config, message):
    # A value the config rejects ends the run before a stage writes anything,
    # even one that only the plan or segment stage reads.
    cloud, _ = deck
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="ascii")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--input", str(cloud), "--out", str(out)]) == EXIT_VALIDATION
    assert f"validation error: {message}" in capsys.readouterr().err
    assert list(out.rglob("*")) == []


def test_nan_timestamp_exits_2_naming_the_line(tmp_path, capsys):
    log = tmp_path / "nan.log"
    log.write_text("# angle_min -0.1\n# angle_inc 0.1\n# range_max 30.0\n"
                   "I 0.0 1 0 0 0 1 0 0 0 1\nV 0.0 1.0 2.0 3.0\nH nan 1.0 2.0 3.0\n",
                   encoding="ascii")
    capsys.readouterr()
    assert main(["run", "--input", str(log), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "validation error: line 6: timestamp is NaN" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_ascii_byte_after_a_bad_record_exits_2_naming_the_record(tmp_path, capsys):
    log = tmp_path / "bad.log"
    log.write_bytes(b"# angle_min -0.1\n# angle_inc 0.1\n# range_max 30.0\n"
                    b"I 0.0 1 0 0 0 1 0 0 0 1\nV 0.0 1.0\nH 0.0 1.0\n"
                    b"V 0.1 -2.0\nV 0.2 1.0 \xe9 1.0\n")
    capsys.readouterr()
    assert main(["ingest", "--input", str(log),
                 "--out", str(tmp_path / "out.xyz")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: line 7: negative range reading\n"
    assert not (tmp_path / "out.xyz").exists()


@pytest.mark.parametrize("key, value, line", [
    ("range_max", "0", 3), ("range_max", "-10", 3), ("angle_inc", "0", 2)])
def test_nonpositive_header_value_exits_2_naming_its_line(
        tmp_path, capsys, key, value, line):
    header = {"angle_min": "-0.1", "angle_inc": "0.1", "range_max": "30.0", key: value}
    log = tmp_path / "bad.log"
    log.write_text("".join(f"# {k} {v}\n" for k, v in header.items())
                   + "I 0.0 1 0 0 0 1 0 0 0 1\nV 0.0 1.0 2.0 3.0\nH 0.0 1.0 2.0 3.0\n",
                   encoding="ascii")
    capsys.readouterr()
    assert main(["run", "--input", str(log), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert (f"validation error: line {line}: {key} must be > 0"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_log_that_cannot_be_pose_tracked_exits_2_and_makes_no_output_dir(
        tmp_path, capsys):
    log = tmp_path / "one.log"
    assert main(["simulate", "--preset", "room", "--scans", "1",
                 "--out", str(log)]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", "--input", str(log), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert ("validation error: pose-track estimation needs at least 2 horizontal scans"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, message", [
    (["--rays-per-scan", "0"], "rays_per_scan must be >= 1, got 0"),
    (["--rays-per-scan", "-5"], "rays_per_scan must be >= 1, got -5"),
    (["--angular-resolution-deg", "0"], "angle_inc must be > 0, got 0.0"),
    (["--angular-resolution-deg", "inf"], "angle_inc must be finite, got inf"),
    (["--angular-resolution-deg", "nan"], "angle_inc must be finite, got nan"),
    (["--scans", "0"], "n_scans must be >= 1, got 0"),
    (["--scans", "-3"], "n_scans must be >= 1, got -3"),
    (["--range-noise", "-0.1"], "range_noise must be finite and >= 0, got -0.1"),
    (["--range-noise", "inf"], "range_noise must be finite and >= 0, got inf"),
    (["--drift", "nan", "0", "0"], "drift_per_scan must be finite, got (nan, 0.0, 0.0)"),
    (["--station", "0", "0", "inf"], "station must be finite, got (0.0, 0.0, inf)"),
    # The last bearing lies 9.4e-10 rad past the arc, which the log parser
    # would refuse.
    (["--scans", "4", "--angular-resolution-deg", "0.25000000005"],
     "device bearings exceed the detection arc"),
], ids=["zero_rays", "negative_rays", "zero_resolution", "infinite_resolution",
        "nan_resolution", "zero_scans",
        "negative_scans", "negative_noise", "infinite_noise", "nan_drift",
        "infinite_station", "bearing_past_the_arc"])
def test_simulate_value_it_cannot_take_exits_2(tmp_path, capsys, extra, message):
    log = tmp_path / "sweep.log"
    capsys.readouterr()
    assert main(["simulate", "--preset", "room", *extra, "--out", str(log)]) == EXIT_VALIDATION
    assert f"validation error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
def test_generate_noise_it_cannot_take_exits_2(tmp_path, capsys, noise):
    cloud = tmp_path / "scene.xyz"
    capsys.readouterr()
    assert main(["generate", "--preset", "deck", "--noise", noise,
                 "--out", str(cloud)]) == EXIT_VALIDATION
    assert (f"validation error: noise_sigma must be finite and >= 0, got {float(noise)}"
            in capsys.readouterr().err)
    assert not cloud.exists()


@pytest.mark.parametrize("density", ["inf", "nan", "0"])
def test_generate_density_it_cannot_take_exits_2(tmp_path, capsys, density):
    cloud = tmp_path / "scene.xyz"
    capsys.readouterr()
    assert main(["generate", "--preset", "surface", "--density", density,
                 "--out", str(cloud)]) == EXIT_VALIDATION
    assert (f"validation error: density must be > 0 and finite, got {float(density)}"
            in capsys.readouterr().err)
    assert not cloud.exists()


@pytest.mark.parametrize("flag", ["--density", "--noise"], ids=["density", "noise"])
def test_generate_sampling_flag_with_a_scene_file_exits_2(tmp_path, capsys, flag):
    # The scene file sets its own density and noise; a flag that would be
    # ignored is refused, and nothing is written.
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_to_dict(preset_scene("surface", 20.0))),
                     encoding="ascii")
    capsys.readouterr()
    assert main(["generate", "--scene", str(scene), flag, "0.05",
                 "--out", str(tmp_path / "scene.xyz")]) == EXIT_VALIDATION
    assert ("validation error: --density and --noise sample a --preset scene"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [scene]


@pytest.mark.parametrize("argv, path", [
    (["run", "--input", "{tmp}/dir", "--out", "{tmp}/out"], "{tmp}/dir"),
    (["filter", "--input", "{tmp}/cloud.xyz", "--out", "{tmp}/dir"], "{tmp}/dir"),
    (["run", "--config", "{tmp}/dir", "--input", "{tmp}/cloud.xyz", "--out", "{tmp}/out"],
     "{tmp}/dir"),
    (["run", "--input", "{tmp}/cloud.xyz", "--out", "{tmp}/file"], "{tmp}/file"),
], ids=["run_input_dir", "filter_out_dir", "run_config_dir", "run_out_file"])
def test_path_of_the_wrong_kind_exits_2_naming_it(tmp_path, capsys, argv, path):
    # A directory where a file is read or written, or a file where the
    # artifact directory goes, is bad input like a missing file.
    cloud = tmp_path / "cloud.xyz"
    assert main(["generate", "--preset", "surface", "--density", "10",
                 "--out", str(cloud)]) == EXIT_OK
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("", encoding="ascii")
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ")
    assert path.format(tmp=tmp_path) in err


def test_malformed_cloud_exits_2_and_makes_no_output_dir(tmp_path, capsys):
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text("2\n# x y z [tag]\n0 0 0\n1 x 0\n", encoding="ascii")
    capsys.readouterr()
    assert main(["run", "--input", str(cloud), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "validation error: line 4: bad coordinate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_source_tag_exits_2_naming_the_line(tmp_path, capsys):
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text("2\n# x y z [tag]\n0 0 0 0\n1 1 0 x\n", encoding="ascii")
    capsys.readouterr()
    assert main(["filter", "--input", str(cloud),
                 "--out", str(tmp_path / "out.xyz")]) == EXIT_VALIDATION
    assert "validation error: line 4: bad source tag 'x'" in capsys.readouterr().err


def _check_partly_planned(out_dir, err, prefix, failed):
    """plan.json in ``out_dir`` holds an ok entry and, for each of ``failed``
    (surface index -> (error class, message)), the error; only the planned
    surfaces have a plan_<k>.csv, and stderr names each failed surface."""
    entries = json.loads((out_dir / "plan.json").read_text(encoding="ascii"))["plans"]
    assert [e["surface_index"] for e in entries] == list(range(len(entries)))
    planned = [e["surface_index"] for e in entries if e["status"] == "ok"]
    assert planned and all(entries[k]["stop_points"] for k in planned)
    assert {e["surface_index"]: (e["status"], e["error"]) for e in entries
            if e["status"] != "ok"} == failed
    assert sorted(p.name for p in out_dir.glob("plan_*.csv")) == sorted(
        f"plan_{k}.csv" for k in planned)
    assert [line for line in err.splitlines() if line.startswith(prefix)] == [
        f"{prefix}surface {k}: {message}" for k, (_, message) in sorted(failed.items())]


def test_plan_records_a_surface_it_cannot_plan_and_plans_the_rest(tmp_path, capsys):
    cloud, surfaces = tmp_path / "cloud.xyz", tmp_path / "surfaces.json"
    assert main(["generate", "--preset", "surface", "--density", "50",
                 "--out", str(cloud)]) == EXIT_OK
    assert main(["segment", "--input", str(cloud), "--out", str(surfaces)]) == EXIT_OK
    data = json.loads(surfaces.read_text(encoding="ascii"))
    assert len(data["planes"]) == 1
    # A 2-vertex boundary cannot be covered: EmptySurface.
    plane = data["planes"][0]
    data["planes"].append({**plane, "boundary": plane["boundary"][:2]})
    surfaces.write_text(json.dumps(data), encoding="ascii")
    out = tmp_path / "plans"
    out.mkdir()
    capsys.readouterr()
    assert main(["plan", "--cloud", str(cloud), "--surfaces", str(surfaces),
                 "--out", str(out / "plan.json")]) == EXIT_STAGE
    captured = capsys.readouterr()
    assert "planned 1/2 surfaces" in captured.out
    _check_partly_planned(out, captured.err, "stage plan: ",
                          {1: ("EmptySurface", "surface boundary is degenerate")})


def test_replanning_into_the_same_out_removes_the_plans_of_failed_or_gone_surfaces(
        tmp_path, capsys):
    cloud, surfaces = tmp_path / "cloud.xyz", tmp_path / "surfaces.json"
    assert main(["generate", "--preset", "surface", "--density", "50",
                 "--out", str(cloud)]) == EXIT_OK
    assert main(["segment", "--input", str(cloud), "--out", str(surfaces)]) == EXIT_OK
    data = json.loads(surfaces.read_text(encoding="ascii"))
    plane = data["planes"][0]
    out = tmp_path / "plans"
    out.mkdir()
    (out / "plan_notes.csv").write_text("kept\n", encoding="ascii")
    plan = ["plan", "--cloud", str(cloud), "--surfaces", str(surfaces),
            "--out", str(out / "plan.json")]
    surfaces.write_text(json.dumps({**data, "planes": [plane, plane]}), encoding="ascii")
    assert main(plan) == EXIT_OK
    assert sorted(p.name for p in out.glob("plan_*.csv")) == [
        "plan_0.csv", "plan_1.csv", "plan_notes.csv"]
    # The one surface left cannot be planned with a 2-vertex boundary, and
    # surface 1 is gone.
    surfaces.write_text(json.dumps({**data, "planes": [
        {**plane, "boundary": plane["boundary"][:2]}]}), encoding="ascii")
    capsys.readouterr()
    assert main(plan) == EXIT_STAGE
    assert capsys.readouterr().err == "stage plan: surface 0: surface boundary is degenerate\n"
    assert [p.name for p in out.glob("plan_*.csv")] == ["plan_notes.csv"]
    entries = json.loads((out / "plan.json").read_text(encoding="ascii"))["plans"]
    assert [e["status"] for e in entries] == ["EmptySurface"]


def test_run_records_the_surfaces_it_cannot_plan_and_plans_the_rest(tmp_path, capsys):
    # A wall in the open plans; the sheets of the crossed planes block every
    # standoff position in front of them.
    scene = {"density": 20, "noise_sigma": 0.01, "primitives": [
        {"type": "rectangle", "center": [0.0, 3.0, 1.5], "normal": [0, -1, 0],
         "width": 4.0, "height": 3.0},
        {"type": "crossed_planes", "center": [12.0, 0.0, 0.0], "edge": 2.0}]}
    (tmp_path / "scene.json").write_text(json.dumps(scene), encoding="ascii")
    cloud, out = tmp_path / "cloud.xyz", tmp_path / "out"
    assert main(["generate", "--scene", str(tmp_path / "scene.json"),
                 "--out", str(cloud)]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", "--input", str(cloud), "--out", str(out)]) == EXIT_STAGE
    err = capsys.readouterr().err
    entries = json.loads((out / "plan.json").read_text(encoding="ascii"))["plans"]
    failed = {e["surface_index"]: (e["status"], e["error"]) for e in entries
              if e["status"] != "ok"}
    assert failed and {status for status, _ in failed.values()} == {"StopPointBlocked"}
    assert all(message.startswith("stop ") for _, message in failed.values())
    _check_partly_planned(out, err, "stage plan: ", failed)


def test_grid_too_large_to_build_exits_3_naming_the_plan_stage(tmp_path, capsys):
    # Two walls 28 km apart: their occupancy grid would have 179 billion
    # voxels. run and plan refuse it before allocating anything.
    wall = tmp_path / "wall.xyz"
    assert main(["generate", "--preset", "surface", "--out", str(wall)]) == EXIT_OK
    points = read_cloud(wall).points
    cloud = tmp_path / "two_walls.xyz"
    write_cloud(cloud, PointCloud(np.concatenate([points, points + [2e4, 2e4, 0.0]])))
    message = ("stage plan: occupancy grid of shape (80022, 80007, 18) "
               "has more than 67,108,864 voxels\n")
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["run", "--input", str(cloud), "--out", str(out)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err.endswith(message) and "Traceback" not in err
    assert not (out / "plan.json").exists()
    assert main(["plan", "--cloud", str(cloud), "--surfaces", str(out / "surfaces.json"),
                 "--out", str(tmp_path / "plan.json")]) == EXIT_STAGE
    assert capsys.readouterr().err == message
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("preset, count", [("deck", 1), ("room", 4)])
def test_the_flown_plan_covers_what_its_stops_cover(tmp_path, preset, count):
    # Photos taken at the waypoints nearest the stops cover as much of each
    # surface as photos taken at the stops. Every leg here is free, so the
    # flown file is the stops themselves.
    cloud, out = tmp_path / "cloud.xyz", tmp_path / "out"
    assert main(["generate", "--preset", preset, "--out", str(cloud)]) == EXIT_OK
    assert main(["run", "--input", str(cloud), "--out", str(out)]) == EXIT_OK
    surfaces = read_surfaces(out / "surfaces.json")
    plans = json.loads((out / "plan.json").read_text(encoding="ascii"))["plans"]
    assert len(surfaces) == len(plans) == count
    cfg = PlanningConfig()
    for k, (surface, plan) in enumerate(zip(surfaces, plans)):
        stops = np.array([stop["position"] for stop in plan["stop_points"]])
        rows = np.loadtxt(out / f"plan_{k}.csv", delimiter=",", ndmin=2)
        planned, flown = (flown_coverage(surface, stops, at, cfg.footprint_width,
                                         cfg.footprint_height) for at in (stops, rows))
        assert planned > 0.99 and flown >= 0.99 * planned
        assert len(rows) == len(stops)


@pytest.mark.parametrize("preset, footprint, count", [
    ("deck", {"footprint_width": 1.0, "footprint_height": 0.6}, 1),
    ("room", {"footprint_width": 2.0, "footprint_height": 1.2}, 4),
], ids=["deck_2.35m_standoff", "room_4.70m_standoff"])
def test_a_wide_footprint_plans_from_stops_far_outside_the_cloud(
        tmp_path, preset, footprint, count):
    # A wide footprint puts the stops 2.35 or 4.70 m off their surfaces,
    # beyond the cloud's grid, where space is free.
    cloud, out, config = tmp_path / "cloud.xyz", tmp_path / "out", tmp_path / "config.json"
    config.write_text(json.dumps({"planning": footprint}), encoding="ascii")
    assert main(["generate", "--preset", preset, "--out", str(cloud)]) == EXIT_OK
    assert main(["run", "--config", str(config), "--input", str(cloud),
                 "--out", str(out)]) == EXIT_OK
    plans = json.loads((out / "plan.json").read_text(encoding="ascii"))["plans"]
    assert [plan["status"] for plan in plans] == ["ok"] * count


def test_plan_and_run_print_a_failed_surface_alike(tmp_path, capsys):
    # Every surface of the crossed planes fails; both verbs name each one in
    # the same stderr line.
    cloud, out = tmp_path / "cloud.xyz", tmp_path / "out"
    assert main(["generate", "--preset", "crossed_planes", "--out", str(cloud)]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", "--input", str(cloud), "--out", str(out)]) == EXIT_STAGE
    run_lines = capsys.readouterr().err.splitlines()
    assert main(["plan", "--cloud", str(out / "filtered.xyz"),
                 "--surfaces", str(out / "surfaces.json"),
                 "--out", str(tmp_path / "plan.json")]) == EXIT_STAGE
    plan_lines = capsys.readouterr().err.splitlines()
    assert run_lines and all(line.startswith("stage plan: surface ") for line in run_lines)
    assert plan_lines == run_lines


def test_run_prints_each_stage_failure_once(tmp_path):
    # In a fresh process, where logging writes to stderr: the failure line
    # is printed, and the stage does not log it a second time.
    wall = tmp_path / "wall.xyz"
    assert main(["generate", "--preset", "surface", "--out", str(wall)]) == EXIT_OK
    points = read_cloud(wall).points
    cloud = tmp_path / "two_walls.xyz"
    write_cloud(cloud, PointCloud(np.concatenate([points, points + [2e4, 2e4, 0.0]])))
    env = {**os.environ, "PYTHONPATH": str(Path(scanplan.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "scanplan", "run", "--input", str(cloud),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == EXIT_STAGE
    assert done.stderr == ("stage plan: occupancy grid of shape (80022, 80007, 18) "
                           "has more than 67,108,864 voxels\n")


@pytest.mark.parametrize("planes, index, message", [
    ([], 0, "surfaces.json holds no surfaces"),
    ([_PLANE], 1, "surface index 1 out of range 0..0"),
], ids=["no_surfaces", "index_past_the_last"])
def test_edit_boundary_without_that_surface_exits_2(
        tmp_path, capsys, planes, index, message):
    surfaces = tmp_path / "surfaces.json"
    surfaces.write_text(json.dumps({"planes": planes}), encoding="ascii")
    boundary = tmp_path / "boundary.json"
    capsys.readouterr()
    assert main(["edit-boundary", "export", "--surfaces", str(surfaces),
                 "--index", str(index), "--boundary", str(boundary)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not boundary.exists()


def test_importing_the_cli_leaves_scipy_ndimage_unloaded():
    # scipy.ndimage costs tens of milliseconds of start-up on every command.
    code = "import sys, scanplan.cli; print('scipy.ndimage' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(scanplan.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert done.stdout.strip() == "False"


def test_importing_the_cli_leaves_the_rest_of_scipy_spatial_unloaded():
    # scanplan binds cKDTree from the compiled scipy.spatial._ckdtree alone;
    # the package __init__ would load these too, about 0.1 s and 15 MB.
    unused = ["scipy.spatial.distance", "scipy.spatial._qhull",
              "scipy.spatial.transform", "scipy.linalg"]
    code = f"import sys, scanplan.cli; print([m for m in {unused!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(scanplan.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_freezes_its_objects_and_later_cycles_are_freed():
    # The frozen import-time objects are skipped by interpreter shutdown's
    # collections; a cycle made after the import must still be collected.
    code = ("import gc, weakref, scanplan.cli\n"
            "class Node: pass\n"
            "a, b = Node(), Node()\n"
            "a.other, b.other = b, a\n"
            "alive = weakref.ref(a)\n"
            "del a, b\n"
            "gc.collect()\n"
            "print(gc.get_freeze_count() > 0, alive() is None)")
    env = {**os.environ, "PYTHONPATH": str(Path(scanplan.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert done.stdout.split() == ["True", "True"]


def test_run_with_surfaces_leaves_scipy_sparse_csgraph_unloaded(deck, tmp_path):
    # The segment and cluster stages label their components without
    # scipy.sparse, whose csgraph package costs import time and memory.
    cloud, _ = deck
    out = tmp_path / "run"
    code = ("import sys\nfrom scanplan.cli import main\n"
            f"code = main(['run', '--input', {str(cloud)!r}, '--out', {str(out)!r}])\n"
            "print(code, 'scipy.sparse.csgraph' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(scanplan.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert json.loads((out / "surfaces.json").read_text(encoding="ascii"))["planes"]
    assert done.stdout.split()[-2:] == [str(EXIT_OK), "False"]
