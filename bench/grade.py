"""Grade CLI artifacts against the scene's ground-truth rectangles.

The grader reads the files with numpy and json, not with ``scanplan``'s own
readers, so a reader defect cannot hide a writer defect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MATCH_ANGLE_DEG = 5.0
MATCH_OFFSET_M = 0.1


def read_points(path) -> np.ndarray:
    """The (N, 3) coordinates of a cloud artifact (2 header lines, then x y z [tag])."""
    pts = np.loadtxt(path, skiprows=2, usecols=(0, 1, 2), ndmin=2)
    return pts.reshape(-1, 3)


def distance_to_rectangles(points: np.ndarray, rects) -> np.ndarray:
    """Distance from each point to the nearest truth rectangle (not its plane)."""
    best = np.full(len(points), np.inf)
    for rect in rects:
        u, v, n = rect.axes()
        rel = points - np.asarray(rect.center, dtype=float)
        a = rel @ u
        b = rel @ v
        da = a - np.clip(a, -rect.width / 2.0, rect.width / 2.0)
        db = b - np.clip(b, -rect.height / 2.0, rect.height / 2.0)
        best = np.minimum(best, np.sqrt(da * da + db * db + (rel @ n) ** 2))
    return best


def cloud_error_mm(points: np.ndarray, rects) -> float:
    """Median distance to the nearest truth rectangle, in millimetres."""
    if len(points) == 0:
        return math.inf
    return 1000.0 * float(np.median(distance_to_rectangles(points, rects)))


def surfaces_matched(planes, rects) -> int:
    """Truth rectangles recovered by ``planes`` ((normal, d) with n.x + d = 0).

    A plane matches a rectangle when the normals agree within 5 degrees (either
    orientation) and the plane offsets within 0.1 m. Each rectangle matches at
    most once; a plane takes the closest-offset unmatched candidate.
    """
    cos_limit = math.cos(math.radians(MATCH_ANGLE_DEG))
    taken = [False] * len(rects)
    matched = 0
    for normal, d in planes:
        n = np.asarray(normal, dtype=float)
        n_len = float(np.linalg.norm(n))
        if n_len == 0.0:
            continue
        n, d = n / n_len, d / n_len
        best, best_gap = None, MATCH_OFFSET_M
        for k, rect in enumerate(rects):
            if taken[k]:
                continue
            _, _, rn = rect.axes()
            cos = float(n @ rn)
            if abs(cos) < cos_limit:
                continue
            rd = -float(rn @ np.asarray(rect.center, dtype=float))
            gap = abs(d - math.copysign(1.0, cos) * rd)
            if gap <= best_gap:
                best, best_gap = k, gap
        if best is not None:
            taken[best] = True
            matched += 1
    return matched


def read_planes(path) -> list:
    """(normal, d) of every plane in a surfaces artifact."""
    data = json.loads(Path(path).read_text(encoding="ascii"))
    return [(p["normal"], float(p["d"])) for p in data["planes"]]


def read_plan_outcomes(path) -> list[str]:
    """Per-surface status of a plan artifact: "ok" or the error type."""
    data = json.loads(Path(path).read_text(encoding="ascii"))
    return [entry["status"] for entry in data["plans"]]
