"""The command line end to end, called in-process through ``cli.main``."""

import json

import pytest

from scanplan.cli import EXIT_OK, EXIT_VALIDATION, main


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


@pytest.mark.parametrize(
    "config, message",
    [({"ransca": {"iterations": 10}}, "unknown key(s) ransca"),
     ({"ransac": {"min_aera": 1.0}}, "unknown key(s) min_aera"),
     ({"ransac": {"area_estimator": "hull"}}, "unknown key(s) area_estimator"),
     ({"ransac": {"iterations": "10"}}, "ransac.iterations: expected int, got str"),
     ({"planning": {"voxel_edge": None}},
      "planning.voxel_edge: expected float, got null"),
     ({"icp": {"max_iterations": 2.5}}, "icp.max_iterations: expected int, got float"),
     ({"icp": []}, "icp: expected an object, got list")],
    ids=["top_level", "nested", "removed_field", "string_for_int",
         "null_for_float", "float_for_int", "list_for_section"],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, config, message):
    cloud = tmp_path / "cloud.xyz"
    assert main(["generate", "--preset", "surface", "--density", "10",
                 "--out", str(cloud)]) == EXIT_OK
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="ascii")
    capsys.readouterr()
    code = main(["run", "--config", str(cfg), "--input", str(cloud),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
