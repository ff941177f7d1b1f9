"""scanplan: 2D-laser + IMU scan logs to surfaces, obstacles and flight plans.

The pipeline turns recorded or simulated scan sweeps into a registered 3D
point cloud, filters it, extracts planar surfaces with boundaries, clusters
the leftover points into obstacles, and generates collision-free coverage
waypoints for photographing each surface.
"""

from .clustering import ClusterConfig, euclidean_cluster
from .errors import (
    CloudTooSmall,
    DegenerateGeometry,
    EmptyLog,
    EmptySurface,
    IcpDiverged,
    InsufficientOverlap,
    MalformedRecord,
    NoPath,
    NoPlaneFound,
    NonPlanarEdit,
    ScanPlanError,
    SelfIntersectingPolygon,
    StageError,
    StartOrGoalOccupied,
    StopPointBlocked,
    UnreachableStandoff,
    UnsortedTimestamps,
    ValidationError,
)
from .geometry import (
    PointCloud,
    Pose,
    polar_to_local_arrays,
    rotation_about_z,
    validate_rotation,
)
from .ingest import (
    ImuSample,
    LaserScan,
    ScanLog,
    build_cloud,
    estimate_pose_track,
    parse_scan_log,
    write_scan_log,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .planning import (
    AStarWeights,
    CameraSpec,
    FlightPlan,
    OccupancyGrid,
    PlanningConfig,
    StopPoint,
    astar,
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
from .registration import (
    IcpConfig,
    icp_align_2d,
    icp_align_3d,
    register_clouds,
)
from .scenes import SceneSpec, generate_scene, preset_scene
from .segmentation import (
    PlanarSurface,
    PlaneModel,
    RansacConfig,
    extract_surfaces,
    ransac_plane,
)
from .simulate import DeviceParams, scan_truth, simulate_yaw_scan
from .spatial import KdTree

__version__ = "0.1.0"
