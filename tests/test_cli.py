"""The command line end to end, called in-process through ``cli.main``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scanplan
from scanplan.artifacts import read_cloud
from scanplan.cli import EXIT_OK, EXIT_STAGE, EXIT_VALIDATION, main
from scanplan.ingest import LaserScan, write_scan_log
from scanplan.scenes import preset_scene, scene_to_dict
from scanplan.simulate import simulate_yaw_scan


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
    blank = log.horizontal[5]
    log.horizontal[5] = LaserScan(blank.timestamp, np.zeros_like(blank.ranges))
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
    from_preset, from_file = tmp_path / "preset.out", tmp_path / "file.out"
    assert main([verb, "--preset", preset, *extra, "--out", str(from_preset)]) == EXIT_OK
    assert main([verb, "--scene", str(scene), *extra, "--out", str(from_file)]) == EXIT_OK
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
     (*_run_with_config({"ransac": {"min_area": 10**400}}),
      "ransac.min_area: expected a finite float, got an integer too large for a float"),
     ({}, ["segment", "--input", "{tmp}/cloud.xyz", "--out", "{tmp}/surfaces.json",
           "--min-area", "-5"], "min_area must be >= 0"),
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


@pytest.mark.parametrize("config, message", [
    ({"planning": {"inflate_radius": -1}},
     "config.planning: inflate_radius must be >= 0"),
    ({"planning": {"footprint_width": 0}},
     "config.planning: footprint dimensions must be > 0"),
    ({"planning": {"overlap": 1.0}}, "config.planning: overlap must be in [0, 1)"),
    ({"surface_cluster_eps": -1}, "config: surface_cluster_eps must be > 0"),
    ({"ransac": {"min_inliers": -3}}, "config.ransac: min_inliers must be >= 1"),
    ({"ransac": {"min_area": -5}}, "config.ransac: min_area must be >= 0"),
    ({"ransac": {"rng_seed": -1}}, "config.ransac: rng_seed must be >= 0"),
    ({"icp": {"min_pairs": -3}}, "config.icp: min_pairs must be >= 1"),
], ids=["negative_inflate_radius", "zero_footprint", "full_overlap",
        "negative_cluster_eps", "negative_min_inliers", "negative_min_area",
        "negative_rng_seed", "negative_min_pairs"])
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


def test_bad_source_tag_exits_2_naming_the_line(tmp_path, capsys):
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text("2\n# x y z [tag]\n0 0 0 0\n1 1 0 x\n", encoding="ascii")
    capsys.readouterr()
    assert main(["filter", "--input", str(cloud),
                 "--out", str(tmp_path / "out.xyz")]) == EXIT_VALIDATION
    assert "validation error: line 4: bad source tag 'x'" in capsys.readouterr().err


def test_importing_the_cli_leaves_scipy_ndimage_unloaded():
    # scipy.ndimage costs tens of milliseconds of start-up on every command.
    code = "import sys, scanplan.cli; print('scipy.ndimage' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(scanplan.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert done.stdout.strip() == "False"
