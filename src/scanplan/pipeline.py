"""End-to-end batch pipeline: ingest/register, filter, segment, cluster, plan.

Every stage persists its artifact, so stages can be re-run in isolation from
the files. All randomness is seeded through the config; two runs with the
same config produce byte-identical artifacts. Per-stage wall times are
reported on the returned result (and by the CLI on stdout), never written
into artifacts.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import artifacts, plots
from .clustering import ClusterConfig, euclidean_cluster
from .errors import StageError, ValidationError
from .ingest import build_cloud, estimate_pose_track, parse_scan_log
from .planning import (
    AStarWeights,
    CameraSpec,
    InspectionTask,
    build_occupancy,
    generate_waypoints,
    inflate,
    plan_coverage,
)
from .preprocess import (
    OutlierFilterConfig,
    VoxelGridConfig,
    remove_statistical_outliers,
    voxel_downsample,
)
from .registration import IcpConfig
from .segmentation import RansacConfig, extract_surfaces

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlanningConfig:
    voxel_edge: float = 0.25
    bounds_margin: float = 2.0
    inflate_radius: float = 0.6
    footprint_width: float = 0.6
    footprint_height: float = 0.4
    overlap: float = 0.2

    def __post_init__(self):
        if not self.voxel_edge > 0:
            raise ValueError("voxel_edge must be > 0")
        if self.bounds_margin < 0:
            raise ValueError("bounds_margin must be >= 0")


@dataclass(frozen=True)
class PipelineConfig:
    """Bundle of every stage's parameters; JSON round-trippable."""

    icp: IcpConfig = field(default_factory=IcpConfig)
    outlier_filter: OutlierFilterConfig = field(default_factory=OutlierFilterConfig)
    voxel_grid: VoxelGridConfig = field(default_factory=VoxelGridConfig)
    ransac: RansacConfig = field(default_factory=RansacConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    astar_weights: AStarWeights = field(default_factory=AStarWeights)
    camera: CameraSpec = field(default_factory=CameraSpec)
    planning: PlanningConfig = field(default_factory=PlanningConfig)
    surface_cluster_eps: float = 0.3

    def to_dict(self) -> dict:
        data = asdict(self)
        data["version"] = 1
        # Degrees at the file boundary; radians everywhere inside.
        cam = data["camera"]
        cam["fov_h_deg"] = math.degrees(cam.pop("fov_h"))
        cam["fov_v_deg"] = math.degrees(cam.pop("fov_v"))
        if math.isinf(data["ransac"]["max_area"]):
            data["ransac"]["max_area"] = None
        return data

    @staticmethod
    def from_dict(data: dict) -> "PipelineConfig":
        """Inverse of :meth:`to_dict`; missing keys take their defaults.

        Raises:
            ValidationError: a key the format does not have, at the top
                level or inside a section, or a section that is not an
                object.
        """
        data = _known_keys(
            "top level", data, _field_names(PipelineConfig) | {"version"}
        )
        data.pop("version", None)
        kwargs = {}
        for name, cls in (
            ("icp", IcpConfig),
            ("outlier_filter", OutlierFilterConfig),
            ("voxel_grid", VoxelGridConfig),
            ("cluster", ClusterConfig),
            ("astar_weights", AStarWeights),
            ("planning", PlanningConfig),
        ):
            if name in data:
                kwargs[name] = cls(**_known_keys(name, data[name], _field_names(cls)))
        if "ransac" in data:
            ransac = _known_keys("ransac", data["ransac"], _field_names(RansacConfig))
            if ransac.get("max_area") is None:
                ransac["max_area"] = math.inf
            kwargs["ransac"] = RansacConfig(**ransac)
        if "camera" in data:
            # The file holds the fields of view in degrees.
            in_degrees = {"fov_h_deg", "fov_v_deg"}
            cam = _known_keys(
                "camera", data["camera"],
                _field_names(CameraSpec) - {"fov_h", "fov_v"} | in_degrees,
            )
            for axis in ("fov_h", "fov_v"):
                if f"{axis}_deg" in cam:
                    cam[axis] = math.radians(cam.pop(f"{axis}_deg"))
            kwargs["camera"] = CameraSpec(**cam)
        if "surface_cluster_eps" in data:
            kwargs["surface_cluster_eps"] = float(data["surface_cluster_eps"])
        return PipelineConfig(**kwargs)

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n",
            encoding="ascii",
        )

    @staticmethod
    def load(path) -> "PipelineConfig":
        return PipelineConfig.from_dict(
            json.loads(Path(path).read_text(encoding="ascii"))
        )


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def _known_keys(section: str, values, allowed: set) -> dict:
    """A copy of one config object; a key outside ``allowed`` is an error."""
    if not isinstance(values, dict):
        raise ValidationError(
            f"config {section}: expected an object, got {type(values).__name__}"
        )
    unknown = sorted(set(values) - allowed)
    if unknown:
        raise ValidationError(f"config {section}: unknown key(s) {', '.join(unknown)}")
    return dict(values)


@dataclass
class PipelineResult:
    status: int                 # 0 ok, 3 some stage failed
    artifacts: dict             # name -> path
    timings: dict               # stage -> seconds
    counts: dict                # stage -> headline number
    failures: list              # (stage, message)


class _Stage:
    """Context helper recording wall time per stage."""

    def __init__(self, result: PipelineResult, name: str):
        self.result = result
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.result.timings[self.name] = time.perf_counter() - self.t0
        if exc is not None and isinstance(exc, StageError):
            self.result.failures.append((self.name, str(exc)))
            self.result.status = 3
            logger.error("stage %s failed: %s", self.name, exc)
            return True  # keep the partial artifacts, stop the pipeline
        return False


def run_pipeline(input_path, cfg: PipelineConfig, out_dir) -> PipelineResult:
    """Run every stage on a scan log (``*.log``/``*.txt``) or a cloud file.

    Artifacts written into ``out_dir``: registered.xyz, filtered.xyz,
    surfaces.json, clusters.json, plan.json, plan_<k>.csv per planned
    surface, and top/elevation SVG renders. A planning failure on one
    surface is recorded in plan.json, the remaining surfaces are still
    planned, and the result carries status 3 with the failure list.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(0, {}, {}, {}, [])
    input_path = Path(input_path)

    # ingest + single-station registration
    with _Stage(result, "register"):
        if input_path.suffix in (".log", ".txt"):
            log = parse_scan_log(input_path)
            track = estimate_pose_track(log, cfg.icp)
            cloud = build_cloud(log, track)
        else:
            cloud = artifacts.read_cloud(input_path)
        registered = out / "registered.xyz"
        artifacts.write_cloud(registered, cloud)
        result.artifacts["registered"] = registered
        result.counts["register"] = len(cloud)
    if result.status:
        return result

    with _Stage(result, "filter"):
        if len(cloud) > cfg.outlier_filter.k_neighbors:
            kept, removed = remove_statistical_outliers(cloud, cfg.outlier_filter)
        else:
            # Too few points for neighborhood statistics; pass through.
            kept, removed = cloud, 0
        filtered = voxel_downsample(kept, cfg.voxel_grid)
        filtered_path = out / "filtered.xyz"
        artifacts.write_cloud(filtered_path, filtered)
        result.artifacts["filtered"] = filtered_path
        result.counts["filter"] = len(filtered)
        logger.info("filter: %d -> %d points (%d outliers removed)",
                    len(cloud), len(filtered), removed)
    if result.status:
        return result

    with _Stage(result, "segment"):
        surfaces, remainder = extract_surfaces(
            filtered, cfg.ransac, cfg.surface_cluster_eps
        )
        surfaces_path = out / "surfaces.json"
        artifacts.write_surfaces(surfaces_path, surfaces)
        result.artifacts["surfaces"] = surfaces_path
        result.counts["segment"] = len(surfaces)
    if result.status:
        return result

    with _Stage(result, "cluster"):
        clusters = euclidean_cluster(remainder, cfg.cluster)
        clusters_path = out / "clusters.json"
        artifacts.write_clusters(clusters_path, clusters, remainder)
        result.artifacts["clusters"] = clusters_path
        result.counts["cluster"] = len(clusters)
    if result.status:
        return result

    entries: list[dict] = []
    with _Stage(result, "plan"):
        grid = build_occupancy(
            filtered, cfg.planning.voxel_edge, cfg.planning.bounds_margin
        )
        inflated = inflate(grid, cfg.planning.inflate_radius)
        plan_count = 0
        for k, surface in enumerate(surfaces):
            task = InspectionTask(
                surface,
                cfg.planning.footprint_width,
                cfg.planning.footprint_height,
                cfg.planning.overlap,
            )
            try:
                stops = plan_coverage(task, cfg.camera, grid=inflated)
                plan = generate_waypoints(stops, inflated, cfg.astar_weights)
            except StageError as err:
                entries.append({
                    "surface_index": k,
                    "status": type(err).__name__,
                    "error": str(err),
                })
                result.failures.append(("plan", f"surface {k}: {err}"))
                continue
            entry = {"surface_index": k, "status": "ok"}
            entry.update(artifacts.plan_to_dict(plan))
            entries.append(entry)
            csv_path = out / f"plan_{k}.csv"
            artifacts.write_waypoints_csv(csv_path, plan)
            result.artifacts[f"plan_{k}_csv"] = csv_path
            plan_count += 1
        plan_path = out / "plan.json"
        artifacts.write_plans(plan_path, entries)
        result.artifacts["plan"] = plan_path
        result.counts["plan"] = plan_count
        if any(stage == "plan" for stage, _ in result.failures):
            result.status = 3

    with _Stage(result, "render"):
        boundaries = [s.boundary for s in surfaces]
        chains = [
            e["waypoints"] for e in entries
            if e["status"] == "ok" and len(e["waypoints"]) > 1
        ]
        for view in ("top", "elevation"):
            svg = out / f"scene_{view}.svg"
            plots.render_svg(
                svg, cloud=filtered, polygons=boundaries, polylines=chains,
                view=view,
            )
            result.artifacts[f"scene_{view}"] = svg

    return result


def format_timings(result: PipelineResult) -> str:
    total = sum(result.timings.values())
    lines = ["stage timings:"]
    for stage, seconds in result.timings.items():
        share = (100.0 * seconds / total) if total > 0 else 0.0
        headline = result.counts.get(stage)
        extra = f" ({headline})" if headline is not None else ""
        lines.append(f"  {stage:<10} {seconds:8.3f} s  {share:5.1f}%{extra}")
    lines.append(f"  {'total':<10} {total:8.3f} s")
    return "\n".join(lines)
