"""Out-of-program tracing of scanplan's layer functions.

``install`` wraps each traced function from outside and rebinds it in every
loaded ``scanplan`` module that holds it, because ``pipeline``, ``cli``,
``ingest`` and ``segmentation`` import functions by name and patching only
the defining module would miss their calls. Spans (name, start, end, parent,
counts, failed) stay in memory until ``dump``; ``summarize`` turns them into
per-layer metrics with self time (span minus its direct children).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


def _queries(args, kwargs, result):
    q = np.asarray(args[1] if len(args) > 1 else kwargs["queries"])
    return {"queries": 1 if q.ndim == 1 else len(q)}


def _len_result(key):
    return lambda args, kwargs, result: {key: len(result)}


# (module, attribute path, span name, counter of the call's work)
TRACED = [
    ("scanplan.cli", "main", "cli.main", None),
    ("scanplan.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("scanplan.ingest", "parse_scan_log", "ingest.parse_scan_log", _file_bytes),
    ("scanplan.ingest", "estimate_pose_track", "ingest.estimate_pose_track", None),
    ("scanplan.ingest", "build_cloud", "ingest.build_cloud", None),
    ("scanplan.registration", "icp_align_2d", "registration.icp_align_2d", None),
    ("scanplan.registration", "icp_align_3d", "registration.icp_align_3d", None),
    ("scanplan.registration", "register_clouds", "registration.register_clouds", None),
    ("scanplan.spatial", "KdTree.__init__", "spatial.KdTree.build",
     lambda args, kwargs, result: {"points": len(args[0])}),
    ("scanplan.spatial", "KdTree.nearest", "spatial.KdTree.nearest", _queries),
    ("scanplan.spatial", "KdTree.knearest", "spatial.KdTree.knearest", _queries),
    ("scanplan.spatial", "KdTree.within_radius_batch",
     "spatial.KdTree.within_radius_batch", _queries),
    ("scanplan.preprocess", "remove_statistical_outliers",
     "preprocess.remove_statistical_outliers",
     lambda args, kwargs, result: {"removed": int(result[1])}),
    ("scanplan.preprocess", "voxel_downsample", "preprocess.voxel_downsample",
     lambda args, kwargs, result: {"points_in": len(args[0]),
                                   "points_out": len(result)}),
    ("scanplan.segmentation", "extract_surfaces", "segmentation.extract_surfaces",
     lambda args, kwargs, result: {"accepted": len(result[0])}),
    ("scanplan.segmentation", "ransac_plane", "segmentation.ransac_plane", None),
    ("scanplan.clustering", "euclidean_cluster", "clustering.euclidean_cluster", None),
    ("scanplan.planning", "build_occupancy", "planning.build_occupancy", None),
    ("scanplan.planning", "inflate", "planning.inflate", None),
    ("scanplan.planning", "plan_coverage", "planning.plan_coverage",
     _len_result("stops")),
    ("scanplan.planning", "generate_waypoints", "planning.generate_waypoints", None),
    ("scanplan.planning", "astar", "planning.astar", _len_result("path_voxels")),
    ("scanplan.artifacts", "write_cloud", "artifacts.write", _file_bytes),
    ("scanplan.artifacts", "write_surfaces", "artifacts.write", _file_bytes),
    ("scanplan.artifacts", "write_clusters", "artifacts.write", _file_bytes),
    ("scanplan.artifacts", "write_plans", "artifacts.write", _file_bytes),
    ("scanplan.artifacts", "write_waypoints_csv", "artifacts.write", _file_bytes),
    ("scanplan.artifacts", "read_cloud", "artifacts.read_cloud", _file_bytes),
    ("scanplan.plots", "render_svg", "plots.render_svg", _file_bytes),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                open_.pop()
                counts = None
                if counter is not None and not failed:
                    counts = counter(args, kwargs, result)
                spans[index] = (name, start, end, parent, counts, failed)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED and rebind it wherever scanplan holds it."""
    for module_name, attr_path, span_name, counter in TRACED:
        owner = importlib.import_module(module_name)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original, counter)
        setattr(owner, attr, wrapped)
        for name, module in list(sys.modules.items()):
            if not name.startswith("scanplan") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def summarize(spans: list) -> dict:
    """Per span name: calls, failed calls, total self seconds and summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for k, (name, start, end, parent, counts, failed) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "failed": 0, "s": 0.0})
        entry["calls"] += 1
        entry["failed"] += int(failed)
        entry["s"] += (end - start) - child_time[k]
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out
