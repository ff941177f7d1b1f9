import math
from dataclasses import replace

import pytest

from scanplan.pipeline import PipelineConfig
from scanplan.planning import CameraSpec
from scanplan.registration import IcpConfig
from scanplan.segmentation import RansacConfig


@pytest.mark.parametrize("cfg", [
    PipelineConfig(),
    PipelineConfig(
        icp=IcpConfig(max_iterations=7, rotation_locked=True),
        ransac=RansacConfig(min_area=1.5, max_area=40.0),
        camera=CameraSpec(fov_h=math.radians(30.0), image_width=640),
        surface_cluster_eps=0.5,
    ),
], ids=["defaults", "changed"])
def test_config_round_trips_through_its_file_form(tmp_path, cfg):
    path = tmp_path / "config.json"
    cfg.save(path)
    back = PipelineConfig.load(path)
    # Degrees in the file: the angles come back to within an ulp.
    assert back.camera.fov_h == pytest.approx(cfg.camera.fov_h, rel=1e-15)
    assert back.camera.fov_v == pytest.approx(cfg.camera.fov_v, rel=1e-15)
    same_angles = replace(back.camera, fov_h=cfg.camera.fov_h, fov_v=cfg.camera.fov_v)
    assert replace(back, camera=same_angles) == cfg


def test_config_file_form_of_max_area_and_fields_of_view():
    data = PipelineConfig().to_dict()
    assert data["ransac"]["max_area"] is None
    assert data["camera"]["fov_v_deg"] == pytest.approx(20.0)
    assert "fov_v" not in data["camera"]


def test_config_integers_pass_as_floats():
    cfg = PipelineConfig.from_dict(
        {"surface_cluster_eps": 1, "ransac": {"min_area": 3}}
    )
    assert type(cfg.surface_cluster_eps) is float and cfg.surface_cluster_eps == 1.0
    assert type(cfg.ransac.min_area) is float and cfg.ransac.min_area == 3.0
