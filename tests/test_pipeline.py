from dataclasses import asdict

import pytest

from scanplan import artifacts
from scanplan.pipeline import PipelineConfig
from scanplan.planning import CameraSpec
from scanplan.registration import IcpConfig
from scanplan.segmentation import RansacConfig


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
