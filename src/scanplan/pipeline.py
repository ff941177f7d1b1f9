"""End-to-end batch pipeline: register, filter, segment, cluster, plan, render.

The register stage reads a cloud file as it is, or builds a scan log's cloud
with ``cloud_from_log``, the step the ``ingest`` verb runs too, and writes
it as registered.xyz. Each later stage but render is one function
(``filter_cloud``, ``segment_cloud``, ``cluster_cloud``, ``plan_surfaces``)
that ``run_pipeline`` and the matching CLI verb both call, so a chain of
verbs writes the same bytes as one run. Every stage persists its artifact,
so stages can be re-run in isolation from the files. All randomness is
seeded through the config; two runs with the same config produce
byte-identical artifacts. Per-stage wall times and the process's peak
resident memory at the end of each stage are reported on the returned
result (and by the CLI on stdout), never written into artifacts.

``run_pipeline`` drops each input once no later step reads it: the scan
log when ``cloud_from_log`` returns, before registered.xyz is written, and
the registered cloud after the filter has written and logged its output.
Segment, cluster, plan and render read only the filtered cloud and what
segment returns.

A config is checked once, when it is built: each config type's
``__post_init__`` rejects a bad value, so a bad config file fails before
any stage runs, and the stages do not check their settings again.
"""

from __future__ import annotations

import json
import logging
import re
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts, plots
from .clustering import ClusterConfig, euclidean_cluster
from .errors import StageError
from .geometry import PointCloud
from .ingest import build_cloud, estimate_pose_track, parse_scan_log
from .planning import (
    AStarWeights,
    CameraSpec,
    FlightPlan,
    PlanningConfig,
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

    def __post_init__(self):
        if not self.surface_cluster_eps > 0:
            raise ValueError("surface_cluster_eps must be > 0")

    @staticmethod
    def from_dict(data: dict) -> "PipelineConfig":
        """A config from its JSON object (``dataclasses.asdict`` of one, and an
        optional ``version`` key); missing keys take their defaults.

        Raises:
            ValidationError: a key the format does not have, a value of the
                wrong type or out of range, or a section that is not an object.
        """
        if isinstance(data, dict):
            data = {k: v for k, v in data.items() if k != "version"}
        return artifacts.dataclass_from_json(PipelineConfig, data, "config")

    @staticmethod
    def load(path) -> "PipelineConfig":
        return PipelineConfig.from_dict(
            json.loads(Path(path).read_text(encoding="ascii"))
        )


@dataclass
class PipelineResult:
    timings: dict               # stage -> seconds
    counts: dict                # stage -> headline number
    failures: list              # (stage, message)
    peak_rss_mb: dict = field(default_factory=dict)  # stage -> MB at its end


class _Stage:
    """Context helper recording wall time per stage, the process's peak RSS
    when it ends, and its StageError.

    The error still propagates: it ends the pipeline, and the artifacts
    written so far stay. It is not logged: the caller reports
    ``result.failures``.
    """

    def __init__(self, result: PipelineResult, name: str):
        self.result = result
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.result.timings[self.name] = time.perf_counter() - self.t0
        # ru_maxrss is in KiB on Linux.
        self.result.peak_rss_mb[self.name] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if isinstance(exc, StageError):
            self.result.failures.append((self.name, str(exc)))


# One function per stage, shared by run_pipeline and the CLI verbs: each
# takes its input in memory, writes its artifact and returns its result.

def cloud_from_log(path, cfg: PipelineConfig) -> tuple[PointCloud, int]:
    """A scan log's cloud: parsed, pose-tracked and built.

    The log is local, so it is freed when this returns, before the caller
    writes the cloud.

    Returns:
        (cloud, number of vertical scans in the log).
    """
    log = parse_scan_log(path)
    return build_cloud(log, estimate_pose_track(log, cfg.icp)), len(log.vertical)


def filter_cloud(
    cloud: PointCloud, cfg: PipelineConfig, out
) -> tuple[PointCloud, int]:
    """Statistical outlier removal, then voxel downsampling; writes ``out``.

    Returns:
        (filtered cloud, number of outliers removed).
    """
    kept, removed = remove_statistical_outliers(cloud, cfg.outlier_filter)
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


def cluster_cloud(cloud: PointCloud, cfg: PipelineConfig, out) -> list[np.ndarray]:
    """Cluster leftover points into obstacles and write them to ``out``."""
    clusters = euclidean_cluster(cloud, cfg.cluster)
    artifacts.write_clusters(out, clusters, cloud)
    return clusters


# The name of a surface's waypoint file, plan_<k>.csv, as plan_surfaces writes it.
_PLAN_CSV = re.compile(r"plan_(0|[1-9][0-9]*)\.csv")


def plan_surfaces(
    cloud: PointCloud, surfaces: list[PlanarSurface], cfg: PipelineConfig, out
) -> list[FlightPlan | StageError]:
    """Coverage stops and waypoints per surface, in an occupancy grid of ``cloud``.

    Writes the plan JSON to ``out`` and ``plan_<k>.csv`` beside it for each
    planned surface, and removes every other ``plan_<k>.csv`` there, so a
    re-run leaves no plan of a surface that failed or is gone. A surface
    whose planning fails is recorded with its error; the other surfaces
    are still planned.

    Returns:
        Per surface, in order, its plan or the error that stopped it.
    """
    grid = inflate(
        build_occupancy(cloud, cfg.planning.voxel_edge, cfg.planning.inflate_radius),
        cfg.planning.inflate_radius,
    )
    out_dir = Path(out).parent
    plans: list[FlightPlan | StageError] = []
    written = set()
    for k, surface in enumerate(surfaces):
        try:
            stops = plan_coverage(surface, cfg.planning, cfg.camera, grid=grid)
            plan = generate_waypoints(stops, grid, cfg.astar_weights)
        except StageError as err:
            plans.append(err)
            continue
        plans.append(plan)
        artifacts.write_waypoints_csv(out_dir / f"plan_{k}.csv", plan)
        written.add(f"plan_{k}.csv")
    for stale in out_dir.glob("plan_*.csv"):
        if _PLAN_CSV.fullmatch(stale.name) and stale.name not in written:
            stale.unlink()
    artifacts.write_plans(out, plans)
    return plans


def plan_failures(plans: list[FlightPlan | StageError]) -> list[str]:
    """One "surface <k>: <error>" message per surface that was not planned."""
    return [f"surface {k}: {plan}" for k, plan in enumerate(plans)
            if isinstance(plan, StageError)]


def run_pipeline(input_path, cfg: PipelineConfig, out_dir) -> PipelineResult:
    """Run every stage on a scan log (``*.log``/``*.txt``) or a cloud file.

    Artifacts written into ``out_dir``: registered.xyz, filtered.xyz,
    surfaces.json, clusters.json, plan.json, plan_<k>.csv per planned
    surface, and top/elevation SVG renders. A planning failure on one
    surface is recorded in plan.json, the remaining surfaces are still
    planned, and the result's failure list names it.
    """
    out = Path(out_dir)
    result = PipelineResult({}, {}, [])
    input_path = Path(input_path)

    try:
        with _Stage(result, "register"):
            # The input is read, and a log pose-tracked, before out_dir is
            # made, so an input that cannot be used leaves no directory behind.
            if input_path.suffix in (".log", ".txt"):
                cloud, _ = cloud_from_log(input_path, cfg)
            else:
                cloud = artifacts.read_cloud(input_path)
            out.mkdir(parents=True, exist_ok=True)
            artifacts.write_cloud(out / "registered.xyz", cloud)
            result.counts["register"] = len(cloud)

        with _Stage(result, "filter"):
            filtered, removed = filter_cloud(cloud, cfg, out / "filtered.xyz")
            result.counts["filter"] = len(filtered)
            logger.info("filter: %d -> %d points (%d outliers removed)",
                        len(cloud), len(filtered), removed)
            del cloud  # read by no later stage

        with _Stage(result, "segment"):
            surfaces, remainder = segment_cloud(filtered, cfg, out / "surfaces.json")
            result.counts["segment"] = len(surfaces)

        with _Stage(result, "cluster"):
            clusters = cluster_cloud(remainder, cfg, out / "clusters.json")
            result.counts["cluster"] = len(clusters)

        with _Stage(result, "plan"):
            plans = plan_surfaces(filtered, surfaces, cfg, out / "plan.json")
            failures = plan_failures(plans)
            result.counts["plan"] = len(plans) - len(failures)
            result.failures.extend(("plan", message) for message in failures)

        with _Stage(result, "render"):
            boundaries = [s.boundary for s in surfaces]
            chains = [
                plan.waypoints for plan in plans
                if isinstance(plan, FlightPlan) and len(plan.waypoints) > 1
            ]
            for view in ("top", "elevation"):
                plots.render_svg(
                    out / f"scene_{view}.svg", cloud=filtered,
                    polygons=boundaries, polylines=chains, view=view,
                )
    except StageError:
        pass  # recorded by _Stage
    return result


def format_timings(result: PipelineResult) -> str:
    """One line per stage: wall time, share of the total, the process's peak
    RSS when the stage ended, and the stage's headline count."""
    total = sum(result.timings.values())
    lines = ["stage timings:"]
    for stage, seconds in result.timings.items():
        share = (100.0 * seconds / total) if total > 0 else 0.0
        headline = result.counts.get(stage)
        extra = f" ({headline})" if headline is not None else ""
        peak = result.peak_rss_mb[stage]
        lines.append(
            f"  {stage:<10} {seconds:8.3f} s  {share:5.1f}%  peak {peak:6.1f} MB{extra}"
        )
    lines.append(f"  {'total':<10} {total:8.3f} s")
    return "\n".join(lines)
