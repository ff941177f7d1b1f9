import gc
import math
import weakref
from dataclasses import asdict

import pytest

from scanplan import artifacts, pipeline
from scanplan.cli import main
from scanplan.ingest import ScanLog, write_scan_log
from scanplan.pipeline import PipelineConfig, run_pipeline
from scanplan.planning import CameraSpec
from scanplan.registration import IcpConfig
from scanplan.scenes import RectanglePrimitive, SceneSpec, generate_scene, preset_scene
from scanplan.segmentation import RansacConfig
from scanplan.simulate import DeviceParams, simulate_yaw_scan


@pytest.mark.parametrize("cfg", [
    PipelineConfig(),
    PipelineConfig(
        icp=IcpConfig(max_iterations=7, min_pairs=5),
        ransac=RansacConfig(min_area=1.5, rng_seed=7),
        camera=CameraSpec(fov_h_deg=30.0, max_standoff=6.5),
        surface_cluster_eps=0.5,
    ),
], ids=["defaults", "changed"])
def test_config_round_trips_through_its_file_form(tmp_path, cfg):
    path = tmp_path / "config.json"
    artifacts.write_json(path, asdict(cfg))
    assert PipelineConfig.load(path) == cfg


def test_config_file_form_of_max_area_and_fields_of_view():
    data = asdict(PipelineConfig())
    assert data["camera"] == {"fov_h_deg": 24.0, "fov_v_deg": 20.0, "max_standoff": 10.0}


def test_config_integers_pass_as_floats():
    cfg = PipelineConfig.from_dict(
        {"surface_cluster_eps": 1, "ransac": {"min_area": 3}}
    )
    assert type(cfg.surface_cluster_eps) is float and cfg.surface_cluster_eps == 1.0
    assert type(cfg.ransac.min_area) is float and cfg.ransac.min_area == 3.0


def _walls_log(tmp_path):
    """A short sweep of two walls written as a scan log; returns its path."""
    walls = SceneSpec((
        RectanglePrimitive((-4.0, 0.0, 1.0), (1, 0, 0), 6.0, 2.0),
        RectanglePrimitive((0.0, -4.0, 1.0), (0, 1, 0), 6.0, 2.0),
    ))
    log = simulate_yaw_scan(walls, n_scans=6, yaw_span=math.radians(30.0),
                            device=DeviceParams(angle_inc=math.radians(0.25),
                                                rays_per_scan=1081))
    path = tmp_path / "walls.log"
    write_scan_log(path, log)
    return path


@pytest.mark.parametrize("kind", ["scan log", "cloud file"])
def test_the_registered_cloud_is_dropped_after_the_filter(tmp_path, monkeypatch, kind):
    # No stage after the filter reads the registered cloud, so run_pipeline
    # holds it no longer: it is gone by the time segment starts.
    if kind == "scan log":
        path = _walls_log(tmp_path)
    else:
        path = tmp_path / "deck.xyz"
        artifacts.write_cloud(path, generate_scene(preset_scene("deck", 5.0, 0.01), seed=0))
    filter_cloud, segment_cloud = pipeline.filter_cloud, pipeline.segment_cloud
    registered = []

    def watched_filter(cloud, *args):
        registered.append(weakref.ref(cloud))
        return filter_cloud(cloud, *args)

    def checked_segment(*args):
        assert registered and registered[0]() is None, "the registered cloud is still held"
        return segment_cloud(*args)

    monkeypatch.setattr(pipeline, "filter_cloud", watched_filter)
    monkeypatch.setattr(pipeline, "segment_cloud", checked_segment)
    result = run_pipeline(path, PipelineConfig(), tmp_path / "out")
    assert "segment" in result.timings


@pytest.mark.parametrize("verb", ["run", "ingest"])
def test_the_scan_log_is_freed_before_its_cloud_is_written(tmp_path, monkeypatch, verb):
    # The cloud is built, so the log is read no more: writing the cloud's
    # text must not stack on the log's arrays.
    def scan_logs():
        return [o for o in gc.get_objects() if isinstance(o, ScanLog)]

    path = _walls_log(tmp_path)
    held = scan_logs()  # by earlier tests, if at all
    write_cloud, written = artifacts.write_cloud, []

    def checked_write_cloud(out, cloud):
        if not written:
            assert all(any(log is h for h in held) for log in scan_logs()), \
                "a ScanLog is alive while the cloud is written"
            written.append(str(out))
        write_cloud(out, cloud)

    monkeypatch.setattr(artifacts, "write_cloud", checked_write_cloud)
    out = tmp_path / "out"
    target = out if verb == "run" else tmp_path / "walls.xyz"
    assert main([verb, "--input", str(path), "--out", str(target)]) == 0
    assert written == [str(out / "registered.xyz" if verb == "run" else target)]
