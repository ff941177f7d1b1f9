"""End-to-end batch pipeline: ingest/register, filter, segment, cluster, plan.

Each stage is one function (``ingest_log``, ``filter_cloud``,
``segment_cloud``, ``cluster_cloud``, ``plan_surfaces``) that
``run_pipeline`` and the matching CLI verb both call, so a chain of verbs
writes the same bytes as one run. Every stage persists its artifact, so
stages can be re-run in isolation from the files. All randomness is seeded
through the config; two runs with the same config produce byte-identical
artifacts. Per-stage wall times are reported on the returned result (and by
the CLI on stdout), never written into artifacts.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from . import artifacts, plots
from .clustering import Cluster, ClusterConfig, euclidean_cluster
from .errors import StageError, ValidationError
from .geometry import PointCloud
from .ingest import ScanLog, build_cloud, estimate_pose_track, parse_scan_log
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
from .segmentation import PlanarSurface, RansacConfig, extract_surfaces

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
        for name in _IN_DEGREES:
            data["camera"][f"{name}_deg"] = math.degrees(data["camera"].pop(name))
        if math.isinf(data["ransac"]["max_area"]):
            data["ransac"]["max_area"] = None
        return data

    @staticmethod
    def from_dict(data: dict) -> "PipelineConfig":
        """Inverse of :meth:`to_dict`; missing keys take their defaults.

        Raises:
            ValidationError: a key the format does not have, a value of the
                wrong type, or a section that is not an object.
        """
        if isinstance(data, dict):
            data = {k: v for k, v in data.items() if k != "version"}
        return _from_file(PipelineConfig, data, "")

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


def _from_file(cls, values, section: str):
    """One config dataclass from its JSON object, read strictly.

    Every key must name a field, and every value must have the type of its
    field's default (a JSON integer passes as a float). Nested dataclass
    fields are read the same way. Two fields differ in the file: the camera
    fields of view are held in degrees (``fov_h_deg``, ``fov_v_deg``), and
    a ``max_area`` of null means no upper bound.
    """
    where = section or "top level"
    if not isinstance(values, dict):
        raise ValidationError(
            f"config {where}: expected an object, got {_json_type(values)}"
        )
    values = dict(values)
    kwargs = {}
    for f in fields(cls):
        key = f"{f.name}_deg" if f.name in _IN_DEGREES else f.name
        if key not in values:
            continue
        value = values.pop(key)
        default = f.default if f.default is not MISSING else f.default_factory()
        kind = type(default)
        if is_dataclass(kind):
            kwargs[f.name] = _from_file(kind, value, key)
            continue
        if value is None and f.name == "max_area":
            value = math.inf
        if not (type(value) is kind or kind is float and type(value) is int):
            raise ValidationError(
                f"config {section + '.' if section else ''}{key}: expected "
                f"{kind.__name__}, got {_json_type(value)}"
            )
        value = kind(value)
        kwargs[f.name] = math.radians(value) if key != f.name else value
    if values:
        raise ValidationError(
            f"config {where}: unknown key(s) {', '.join(sorted(values))}"
        )
    return cls(**kwargs)


# CameraSpec fields held in radians inside and in degrees in the file.
_IN_DEGREES = ("fov_h", "fov_v")


def _json_type(value) -> str:
    return "null" if value is None else type(value).__name__


@dataclass
class PipelineResult:
    status: int                 # 0 ok, 3 some stage failed
    artifacts: dict             # name -> path
    timings: dict               # stage -> seconds
    counts: dict                # stage -> headline number
    failures: list              # (stage, message)


class _Stage:
    """Context helper recording wall time per stage, and its StageError.

    The error still propagates: it ends the pipeline, and the artifacts
    written so far stay.
    """

    def __init__(self, result: PipelineResult, name: str):
        self.result = result
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.result.timings[self.name] = time.perf_counter() - self.t0
        if isinstance(exc, StageError):
            self.result.failures.append((self.name, str(exc)))
            self.result.status = 3
            logger.error("stage %s failed: %s", self.name, exc)


# One function per stage, shared by run_pipeline and the CLI verbs: each
# takes its input in memory, writes its artifact and returns its result.

def ingest_log(log: ScanLog, cfg: PipelineConfig, out) -> PointCloud:
    """Pose-track a scan log, map its vertical scans into a cloud, write ``out``."""
    cloud = build_cloud(log, estimate_pose_track(log, cfg.icp))
    artifacts.write_cloud(out, cloud)
    return cloud


def filter_cloud(
    cloud: PointCloud, cfg: PipelineConfig, out
) -> tuple[PointCloud, int]:
    """Statistical outlier removal, then voxel downsampling; writes ``out``.

    A cloud of at most ``k_neighbors`` points is too small for neighborhood
    statistics and goes to the voxel grid whole.

    Returns:
        (filtered cloud, number of outliers removed).
    """
    if len(cloud) > cfg.outlier_filter.k_neighbors:
        kept, removed = remove_statistical_outliers(cloud, cfg.outlier_filter)
    else:
        kept, removed = cloud, 0
    filtered = voxel_downsample(kept, cfg.voxel_grid)
    artifacts.write_cloud(out, filtered)
    return filtered, removed


def segment_cloud(
    cloud: PointCloud, cfg: PipelineConfig, out
) -> tuple[list[PlanarSurface], PointCloud]:
    """Extract planar surfaces, write them to ``out``; returns (surfaces, remainder)."""
    surfaces, remainder = extract_surfaces(cloud, cfg.ransac, cfg.surface_cluster_eps)
    artifacts.write_surfaces(out, surfaces)
    return surfaces, remainder


def cluster_cloud(cloud: PointCloud, cfg: PipelineConfig, out) -> list[Cluster]:
    """Cluster leftover points into obstacles and write them to ``out``."""
    clusters = euclidean_cluster(cloud, cfg.cluster)
    artifacts.write_clusters(out, clusters, cloud)
    return clusters


def plan_surfaces(
    cloud: PointCloud, surfaces: list[PlanarSurface], cfg: PipelineConfig, out
) -> tuple[list[dict], list[str]]:
    """Coverage stops and waypoints per surface, in an occupancy grid of ``cloud``.

    Writes the plan JSON to ``out`` and ``plan_<k>.csv`` beside it for each
    planned surface. A surface whose planning fails gets an entry with the
    error's class name and message; the other surfaces are still planned.

    Returns:
        (plan entries, one "surface <k>: <error>" message per failed surface).
    """
    grid = inflate(
        build_occupancy(cloud, cfg.planning.voxel_edge, cfg.planning.bounds_margin),
        cfg.planning.inflate_radius,
    )
    entries: list[dict] = []
    failures: list[str] = []
    for k, surface in enumerate(surfaces):
        task = InspectionTask(
            surface,
            cfg.planning.footprint_width,
            cfg.planning.footprint_height,
            cfg.planning.overlap,
        )
        try:
            stops = plan_coverage(task, cfg.camera, grid=grid)
            plan = generate_waypoints(stops, grid, cfg.astar_weights)
        except StageError as err:
            entries.append(
                {"surface_index": k, "status": type(err).__name__, "error": str(err)}
            )
            failures.append(f"surface {k}: {err}")
            continue
        entries.append(
            {"surface_index": k, "status": "ok", **artifacts.plan_to_dict(plan)}
        )
        artifacts.write_waypoints_csv(Path(out).parent / f"plan_{k}.csv", plan)
    artifacts.write_plans(out, entries)
    return entries, failures


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

    try:
        with _Stage(result, "register"):
            path = out / "registered.xyz"
            if input_path.suffix in (".log", ".txt"):
                cloud = ingest_log(parse_scan_log(input_path), cfg, path)
            else:
                cloud = artifacts.read_cloud(input_path)
                artifacts.write_cloud(path, cloud)
            result.artifacts["registered"] = path
            result.counts["register"] = len(cloud)

        with _Stage(result, "filter"):
            path = out / "filtered.xyz"
            filtered, removed = filter_cloud(cloud, cfg, path)
            result.artifacts["filtered"] = path
            result.counts["filter"] = len(filtered)
            logger.info("filter: %d -> %d points (%d outliers removed)",
                        len(cloud), len(filtered), removed)

        with _Stage(result, "segment"):
            path = out / "surfaces.json"
            surfaces, remainder = segment_cloud(filtered, cfg, path)
            result.artifacts["surfaces"] = path
            result.counts["segment"] = len(surfaces)

        with _Stage(result, "cluster"):
            path = out / "clusters.json"
            clusters = cluster_cloud(remainder, cfg, path)
            result.artifacts["clusters"] = path
            result.counts["cluster"] = len(clusters)

        with _Stage(result, "plan"):
            path = out / "plan.json"
            entries, failures = plan_surfaces(filtered, surfaces, cfg, path)
            planned = [e["surface_index"] for e in entries if e["status"] == "ok"]
            for k in planned:
                result.artifacts[f"plan_{k}_csv"] = out / f"plan_{k}.csv"
            result.artifacts["plan"] = path
            result.counts["plan"] = len(planned)
            result.failures.extend(("plan", message) for message in failures)
            if failures:
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
    except StageError:
        pass  # recorded by _Stage
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
