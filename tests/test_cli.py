"""The command line end to end, called in-process through ``cli.main``."""

import json

import pytest

from scanplan.cli import EXIT_OK, EXIT_VALIDATION, main


def test_simulate_then_run_round_trip(tmp_path):
    # A whole-degree resolution goes through np.radians, whose numpy scalar
    # must still be written as a plain float the parser reads back.
    log = tmp_path / "sweep.log"
    assert main([
        "simulate", "--preset", "room", "--station", "0", "0", "1.5",
        "--rays-per-scan", "271", "--angular-resolution-deg", "1",
        "--out", str(log),
    ]) == EXIT_OK
    out = tmp_path / "out"
    assert main(["run", "--input", str(log), "--out", str(out)]) == EXIT_OK
    for name in ("registered.xyz", "filtered.xyz", "surfaces.json",
                 "clusters.json", "plan.json"):
        assert (out / name).is_file()


@pytest.mark.parametrize(
    "config, key",
    [({"ransca": {"iterations": 10}}, "ransca"),
     ({"ransac": {"min_aera": 1.0}}, "min_aera")],
    ids=["top_level", "nested"],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, config, key):
    cloud = tmp_path / "cloud.xyz"
    assert main(["generate", "--preset", "surface", "--density", "10",
                 "--out", str(cloud)]) == EXIT_OK
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="ascii")
    capsys.readouterr()
    code = main(["run", "--config", str(cfg), "--input", str(cloud),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert f"unknown key(s) {key}" in capsys.readouterr().err
