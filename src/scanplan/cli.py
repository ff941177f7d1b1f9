"""Command-line front end for the batch pipeline.

Verbs: generate, simulate, ingest, register, filter, segment, cluster,
plan, run, edit-boundary. Configuration comes from one JSON file
(--config); no flag sets a stage setting. Exit codes: 0 success,
2 validation error, 3 stage failure (stage named on stderr).
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import StageError, ValidationError
from .ingest import write_scan_log
from .pipeline import (
    PipelineConfig,
    cloud_from_log,
    cluster_cloud,
    filter_cloud,
    format_timings,
    plan_failures,
    plan_surfaces,
    run_pipeline,
    segment_cloud,
)
from .registration import register_clouds
from .scenes import generate_scene, preset_scene, scene_from_dict, scene_to_dict
from .simulate import DeviceParams, scan_truth, simulate_yaw_scan

# The imports above leave some 40,000 objects tracked by the cycle collector,
# most of them in function <-> module-globals cycles that live as long as the
# process. Interpreter shutdown walks them again in its own collections: a
# process that only imports this module took 40 ms to exit, 8 ms with them
# frozen (2-vCPU VM). Frozen objects are skipped by every collection; cycles
# made after this line are still freed.
gc.freeze()

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STAGE = 3


def _load_config(args) -> PipelineConfig:
    return PipelineConfig.load(args.config) if args.config else PipelineConfig()


def _scene_from_args(args, **sampling):
    if args.scene:
        data = json.loads(Path(args.scene).read_text(encoding="ascii"))
        return scene_from_dict(data)
    return preset_scene(args.preset, **sampling)


def cmd_generate(args) -> int:
    sampling = {key: value for key, value in
                (("density", args.density), ("noise_sigma", args.noise))
                if value is not None}
    if args.scene and sampling:
        raise ValidationError(
            "--density and --noise sample a --preset scene; "
            "a --scene file sets its own density and noise_sigma")
    scene = _scene_from_args(args, **sampling)
    cloud = generate_scene(scene, seed=args.seed)
    artifacts.write_cloud(args.out, cloud)
    print(f"wrote {len(cloud)} points to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scene = _scene_from_args(args)
    device = DeviceParams(
        angle_inc=np.radians(args.angular_resolution_deg),
        rays_per_scan=args.rays_per_scan,
    )
    drift = tuple(args.drift)
    log = simulate_yaw_scan(
        scene,
        station=tuple(args.station),
        device=device,
        n_scans=args.scans,
        drift_per_scan=drift,
        range_noise=args.range_noise,
        seed=args.seed,
    )
    write_scan_log(args.out, log)
    truth = {
        "version": 1,
        "scene": scene_to_dict(scene),
        "poses": scan_truth(tuple(args.station), args.scans,
                            drift_per_scan=drift,
                            scan_period=device.scan_period),
    }
    truth_path = Path(str(args.out) + ".truth.json")
    artifacts.write_json(truth_path, truth)
    print(f"wrote {args.scans} scans to {args.out} (+ {truth_path.name})")
    return EXIT_OK


def cmd_ingest(args) -> int:
    cloud, scans = cloud_from_log(args.input, _load_config(args))
    artifacts.write_cloud(args.out, cloud)
    print(f"built {len(cloud)} points from {scans} vertical scans")
    return EXIT_OK


def cmd_register(args) -> int:
    cfg = _load_config(args)
    stations = []
    base = Path(args.stations).parent
    for cloud_path, pose in artifacts.read_stations(args.stations):
        # An absolute path replaces the base when joined.
        stations.append((artifacts.read_cloud(base / cloud_path), pose))
    merged = register_clouds(stations, cfg.icp)
    artifacts.write_cloud(args.out, merged)
    print(f"registered {len(stations)} stations into {len(merged)} points")
    return EXIT_OK


def cmd_filter(args) -> int:
    cfg = _load_config(args)
    cloud = artifacts.read_cloud(args.input)
    filtered, removed = filter_cloud(cloud, cfg, args.out)
    print(f"{len(cloud)} -> {len(filtered)} points ({removed} outliers removed)")
    return EXIT_OK


def cmd_segment(args) -> int:
    cfg = _load_config(args)
    cloud = artifacts.read_cloud(args.input)
    surfaces, remainder = segment_cloud(cloud, cfg, args.out)
    if args.remainder:
        artifacts.write_cloud(args.remainder, remainder)
    print(f"extracted {len(surfaces)} surfaces, {len(remainder)} points left over")
    return EXIT_OK


def cmd_cluster(args) -> int:
    cfg = _load_config(args)
    clusters = cluster_cloud(artifacts.read_cloud(args.input), cfg, args.out)
    print(f"found {len(clusters)} clusters")
    return EXIT_OK


def cmd_plan(args) -> int:
    cfg = _load_config(args)
    cloud = artifacts.read_cloud(args.cloud)
    surfaces = artifacts.read_surfaces(args.surfaces)
    plans = plan_surfaces(cloud, surfaces, cfg, args.out)
    failures = plan_failures(plans)
    for message in failures:
        print(f"stage plan: {message}", file=sys.stderr)
    print(f"planned {len(plans) - len(failures)}/{len(plans)} surfaces")
    return EXIT_STAGE if failures else EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_pipeline(args.input, cfg, args.out)
    print(format_timings(result))
    for stage, message in result.failures:
        print(f"stage {stage}: {message}", file=sys.stderr)
    return EXIT_STAGE if result.failures else EXIT_OK


def cmd_edit_boundary(args) -> int:
    cfg = _load_config(args)
    surfaces = artifacts.read_surfaces(args.surfaces)
    if not surfaces:
        raise ValidationError(f"{args.surfaces} holds no surfaces")
    if not 0 <= args.index < len(surfaces):
        raise ValidationError(
            f"surface index {args.index} out of range 0..{len(surfaces) - 1}"
        )
    if args.action == "export":
        artifacts.export_boundary(surfaces[args.index], args.boundary)
        print(f"exported surface {args.index} boundary to {args.boundary}")
    else:
        edited = artifacts.import_boundary(
            surfaces[args.index], args.boundary,
            distance_threshold=cfg.ransac.distance_threshold,
        )
        surfaces[args.index] = edited
        artifacts.write_surfaces(args.out or args.surfaces, surfaces)
        print(f"replaced surface {args.index} boundary "
              f"(area now {edited.area:.3f} m^2)")
    return EXIT_OK


def _add_scene_args(p: argparse.ArgumentParser):
    p.add_argument("--preset", default="surface",
                   help="built-in scene: point, line, surface, cube, "
                        "crossed_planes, deck, room")
    p.add_argument("--scene", help="scene spec JSON (overrides --preset)")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="pipeline config JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanplan",
        description="Scan logs to surfaces, obstacle clusters and photo flight plans.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="sample a synthetic scene into a cloud file")
    _add_scene_args(p)
    p.add_argument("--density", type=float,
                   help="points per m^2 of a --preset scene (default 100)")
    p.add_argument("--noise", type=float,
                   help="sampling noise sigma (m) of a --preset scene (default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="ray-cast a yaw sweep into a scan log")
    _add_scene_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--station", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    p.add_argument("--scans", type=int, default=72)
    p.add_argument("--drift", type=float, nargs=3, default=[0.0, 0.0, 0.0],
                   help="translation drift per scan (m)")
    p.add_argument("--range-noise", type=float, default=0.0)
    p.add_argument("--angular-resolution-deg", type=float, default=0.25)
    p.add_argument("--rays-per-scan", type=int, default=1081)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="scan log to a single-station cloud")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("register", help="merge station clouds (stations JSON)")
    _add_common(p)
    p.add_argument("--stations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("filter", help="outlier removal + voxel downsample")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("segment", help="extract planar surfaces")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--remainder", help="optional path for the leftover cloud")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("cluster", help="cluster leftover points into obstacles")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("plan", help="coverage stops + waypoints per surface")
    _add_common(p)
    p.add_argument("--cloud", required=True, help="occupancy source cloud")
    p.add_argument("--surfaces", required=True)
    p.add_argument("--out", required=True, help="plan JSON path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="all stages on a scan log or cloud file")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("edit-boundary", help="export or import a surface boundary")
    _add_common(p)
    p.add_argument("action", choices=["export", "import"])
    p.add_argument("--surfaces", required=True, help="surfaces JSON")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--boundary", required=True, help="boundary JSON path")
    p.add_argument("--out", help="output surfaces JSON (import; default in place)")
    p.set_defaults(func=cmd_edit_boundary)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except StageError as err:
        print(f"stage {args.verb}: {err}", file=sys.stderr)
        return EXIT_STAGE
    except (ValidationError, OSError, ValueError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
