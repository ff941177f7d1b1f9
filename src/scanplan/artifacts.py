"""Artifact file formats: clouds, surfaces, clusters, flight plans, stations.

Cloud files are ASCII ``x y z [tag]`` lines under a 2-line header (count,
comment). Every cloud lies on the 1 um grid (:class:`scanplan.geometry.PointCloud`),
so its file reads back bit for bit, and two runs with the same seeds produce
byte-identical artifacts.

The number format of the text files (cloud files, the waypoint CSV and the
scan log of :mod:`scanplan.ingest`):

- every coordinate, range and stamp is printed in metres or seconds as
  ``"%.6f"`` prints it (:data:`scanplan.geometry.FLOAT_FORMAT`):
  ``0.000000``, ``-1.250000``, and ``inf`` and ``nan`` for values that are
  not finite. A value on the grid reads back as the same float; a value off
  it (a waypoint, a range not made by the simulator) is rounded to the
  nearest micrometre;
- a cloud reaches at most +-2**51 um (about +-2.25e9 m) from the origin,
  :data:`scanplan.geometry.GRID_LIMIT`; a file or a stage that goes further
  is a ValueError;
- the scan log's header values and IMU rotation entries are printed as
  ``repr`` prints them, and read back exactly;
- a tag is printed as ``str`` prints it.

A cloud file is written a block of ``_WRITE_BLOCK_ROWS`` rows at a time
(:func:`scanplan.geometry.format_table`), so besides the cloud's own arrays
only one block's values and text are alive as Python objects. A cloud file
is read from its bytes: when its body holds only the characters that
:func:`write_cloud` writes, numpy's C parser converts it in one pass, so
besides the bytes and the cloud's arrays no Python object per line or value
is made. Every file that :func:`write_cloud` writes takes that pass. Any
other file (CRLF line ends, blank lines, a bad line) is decoded and read one
line at a time, the path that names a bad line. Neither the blocks nor the
choice of path change a byte written or a value read.
"""

from __future__ import annotations

import io
import json
import math
from array import array
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import (
    MalformedRecord,
    NonPlanarEdit,
    SelfIntersectingPolygon,
    StageError,
    ValidationError,
)
from .geometry import PointCloud, Pose, format_table
from .planning import FlightPlan
from .polygons import polygon_is_simple, shoelace_area
from .segmentation import PlanarSurface, PlaneModel, plane_basis

SCHEMA_VERSION = 1


# The rows of a cloud file written at a time (see the module docstring).
_WRITE_BLOCK_ROWS = 4096


# --- point clouds -----------------------------------------------------------

def write_cloud(path, cloud: PointCloud) -> None:
    """Write the header, then the rows a block at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(cloud)}\n# x y z [tag]\n")
        for start in range(0, len(cloud), _WRITE_BLOCK_ROWS):
            rows = slice(start, start + _WRITE_BLOCK_ROWS)
            tags = None if cloud.sources is None else cloud.sources[rows]
            fh.write(format_table(cloud.points[rows], tags))


def read_cloud(path) -> PointCloud:
    """Read a cloud file: in one numpy parse when it is as :func:`write_cloud`
    writes it, else one line at a time.

    Lines are split by ``str.splitlines``; blank lines are skipped. A data
    line is ``x y z`` or ``x y z tag``, and the tags cover every point or
    none. The file is read once, so it may be a pipe.

    Raises:
        MalformedRecord: a short header, a bad count, a line of the wrong
            width, a bad coordinate or tag (naming the line), a count that
            does not match the rows, or tags on only some rows.
        ValueError: a non-ASCII byte, or a coordinate that is not finite or
            lies past the grid's reach (from :class:`PointCloud`).
    """
    data = Path(path).read_bytes()
    parsed = _parse_canonical(data)
    if parsed is None:
        parsed = _parse_lines(data.decode("ascii").splitlines())
    return PointCloud._own(*parsed)


# The bytes of the rows that write_cloud writes, and the record of a tagged row.
_CANONICAL_BODY = b"0123456789.- \n"
_TAGGED_ROW = np.dtype([("xyz", float, 3), ("tag", np.int64)])


def _parse_canonical(data: bytes) -> tuple[np.ndarray, np.ndarray | None] | None:
    """A cloud file's points and tags converted by ``np.loadtxt`` in one pass,
    or None when the file takes :func:`_parse_lines`.

    The pass takes a file as :func:`write_cloud` writes it: two header lines
    ended by the file's first two ``\\n`` with no other line break in them,
    a count that parses, a body of ``_CANONICAL_BODY`` bytes alone whose
    first line is a row of 3 or 4 tokens, and as many rows as the count, all
    of that width. Within these bytes numpy converts a token as ``float`` or
    ``int`` does, or fails. Any other file, or a failed conversion, gives
    None, and :func:`_parse_lines` then names the error or gives the values.
    """
    end = data.find(b"\n", data.find(b"\n") + 1) + 1
    header = data[:end]
    if not end or not header.isascii():
        return None
    text = header.decode("ascii")
    lines = text.splitlines()
    # Only the header may hold bytes outside _CANONICAL_BODY.
    if (lines != text.split("\n")[:2]
            or data.translate(None, _CANONICAL_BODY)
            != header.translate(None, _CANONICAL_BODY)):
        return None
    try:
        count = int(lines[0].strip())
    except ValueError:
        return None
    if end == len(data):
        return (np.zeros((0, 3)), None) if count == 0 else None
    stop = data.find(b"\n", end)
    width = len((data[end:stop] if stop >= 0 else data[end:]).split())
    if width not in (3, 4):
        return None
    dtype, ndmin = (float, 2) if width == 3 else (_TAGGED_ROW, 1)
    try:
        rows = np.loadtxt(io.BytesIO(data), dtype=dtype, comments=None,
                          skiprows=2, ndmin=ndmin)
    except ValueError:
        return None
    if len(rows) != count:
        return None
    if width == 3:
        return rows, None
    # The points and tags stay views of the one table: no copy of either.
    return rows["xyz"], rows["tag"]


def _parse_lines(lines: list[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """A cloud file's points and tags from its lines, one line at a time, by
    ``float`` and ``int`` (a tag must fit an int64); names the first bad line."""
    if len(lines) < 2:
        raise MalformedRecord("cloud file needs a 2-line header")
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise MalformedRecord(f"bad point count {lines[0]!r}", line=1) from None
    coords, tags = array("d"), array("q")
    for line_no, line in enumerate(lines[2:], start=3):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) not in (3, 4):
            raise MalformedRecord("expected 'x y z [tag]'", line=line_no)
        try:
            coords.extend(map(float, tokens[:3]))
        except ValueError:
            raise MalformedRecord("bad coordinate", line=line_no) from None
        if len(tokens) == 4:
            try:
                tags.append(int(tokens[3]))
            except (ValueError, OverflowError):
                raise MalformedRecord(f"bad source tag {tokens[3]!r}",
                                      line=line_no) from None
    held = len(coords) // 3
    if held != count:
        raise MalformedRecord(f"header promises {count} points, file holds {held}")
    if tags and len(tags) != held:
        raise MalformedRecord("source tags must cover every point or none")
    return (np.frombuffer(coords).reshape(-1, 3),
            np.frombuffer(tags, dtype=np.int64) if tags else None)


# --- surfaces ----------------------------------------------------------------

def _plane_json(surface: PlanarSurface) -> dict:
    """The JSON form of a surface's plane and boundary, shared by the
    surfaces file and an exported boundary."""
    return {
        "normal": [surface.model.a, surface.model.b, surface.model.c],
        "d": surface.model.d,
        "boundary": [[float(c) for c in v] for v in surface.boundary],
    }


def write_surfaces(path, surfaces: list[PlanarSurface]) -> None:
    planes = [{**_plane_json(s), "area": float(s.area),
               "inlier_count": int(s.inlier_count)} for s in surfaces]
    write_json(path, {"version": SCHEMA_VERSION, "planes": planes})


def read_surfaces(path) -> list[PlanarSurface]:
    """The surfaces of a file that :func:`write_surfaces` writes; a
    ValidationError names the file and the key when ``planes`` or a key of
    a plane is missing or mistyped."""
    data = json.loads(Path(path).read_text(encoding="ascii"))
    surfaces = []
    for k, entry in enumerate(_list_in(data, "planes", str(path))):
        where = f"{path} planes[{k}]"
        normal, d, boundary, area, count = _values(
            entry, ("normal", "d", "boundary", "area", "inlier_count"), where
        )
        model = PlaneModel(*_vector(normal, f"{where}.normal"),
                           _typed(d, float, f"{where}.d"))
        # Inlier indices are not part of the schema, only their count;
        # file-loaded surfaces carry an empty set and stay usable for planning.
        surfaces.append(PlanarSurface(
            model, np.zeros(0, dtype=np.int64),
            np.array(_vectors(boundary, f"{where}.boundary")),
            _typed(area, float, f"{where}.area"),
            _typed(count, int, f"{where}.inlier_count"),
        ))
    return surfaces


# --- clusters ------------------------------------------------------------------

def write_clusters(path, clusters: list[np.ndarray], cloud: PointCloud) -> None:
    """Each cluster's ``indices`` into ``cloud``, the cluster stage's input,
    and its bounding box. In ``run_pipeline`` that input is the segment
    remainder, whose tags are the indices into the filtered cloud."""
    entries = []
    for c in clusters:
        pts = cloud.points[c]
        entries.append({
            "indices": [int(i) for i in c],
            "bbox_min": [float(v) for v in pts.min(axis=0)],
            "bbox_max": [float(v) for v in pts.max(axis=0)],
        })
    write_json(path, {"version": SCHEMA_VERSION, "clusters": entries})


# --- flight plans ----------------------------------------------------------------

def write_plans(path, plans: list[FlightPlan | StageError]) -> None:
    """One entry per surface, in order: status "ok" with the plan's stops
    and waypoints, or the class name of the error that stopped the surface
    as status and its message as error."""
    entries = []
    for k, plan in enumerate(plans):
        if isinstance(plan, StageError):
            entries.append({"surface_index": k, "status": type(plan).__name__,
                            "error": str(plan)})
            continue
        facing = plan.stops.facing.tolist()  # one list, shared by every stop
        stops = zip(plan.stops.positions.tolist(), plan.stops.cells.tolist())
        entries.append({
            "surface_index": k, "status": "ok",
            "stop_points": [{"position": xyz, "facing": facing, "row": row, "col": col}
                            for xyz, (row, col) in stops],
            "waypoints": plan.waypoints.tolist(),
        })
    write_json(path, {"version": SCHEMA_VERSION, "plans": entries})


def write_waypoints_csv(path, plan: FlightPlan) -> None:
    waypoints = np.asarray(plan.waypoints, dtype=float).reshape(-1, 3)
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, len(waypoints), _WRITE_BLOCK_ROWS):
            fh.write(format_table(waypoints[start:start + _WRITE_BLOCK_ROWS], sep=","))


# --- stations (multi-cloud registration input) ------------------------------------

def read_stations(path) -> list[tuple[str, Pose]]:
    """JSON list of {cloud: path, rotation: 3x3, translation: [x,y,z]}; a
    ValidationError names the file and the key when one is missing or mistyped."""
    data = json.loads(Path(path).read_text(encoding="ascii"))
    stations = []
    for k, entry in enumerate(_list_in(data, "stations", str(path))):
        where = f"{path} stations[{k}]"
        cloud, rotation, translation = _values(
            entry, ("cloud", "rotation", "translation"), where
        )
        try:
            pose = Pose(np.array(_vectors(rotation, f"{where}.rotation")),
                        np.array(_vector(translation, f"{where}.translation")))
        except ValueError as err:  # _vector has checked the translation
            raise ValidationError(f"{where}.rotation: {err}") from err
        stations.append((_typed(cloud, str, f"{where}.cloud"), pose))
    return stations


def write_stations(path, entries: list[tuple[str, Pose]]) -> None:
    data = {
        "version": SCHEMA_VERSION,
        "stations": [
            {
                "cloud": str(name),
                "rotation": [[float(v) for v in row] for row in pose.rotation],
                "translation": [float(v) for v in pose.translation],
            }
            for name, pose in entries
        ],
    }
    write_json(path, data)


# --- operator boundary editing -------------------------------------------------------

def export_boundary(surface: PlanarSurface, path) -> None:
    """Write one surface's plane + boundary for manual polygon edits."""
    write_json(path, {"version": SCHEMA_VERSION, **_plane_json(surface)})


def import_boundary(
    surface: PlanarSurface, path, distance_threshold: float = 0.20
) -> PlanarSurface:
    """Replace a surface's boundary with the (possibly edited) polygon on file.

    The polygon must be simple and its vertices must lie on the surface's
    plane within ``distance_threshold``. A last vertex that repeats the first
    closes the ring and is dropped. Convexity is not required; the area
    is recomputed by the shoelace rule in the plane basis. The surface's own
    boundary brings the surface back as it is, so an export and import of an
    unedited file changes no byte.

    Raises:
        ValidationError (no ``boundary``, or one that is not a list of
        3-vectors), SelfIntersectingPolygon, NonPlanarEdit.
    """
    data = json.loads(Path(path).read_text(encoding="ascii"))
    (boundary,) = _values(data, ("boundary",), str(path))
    boundary = np.array(_vectors(boundary, f"{path} boundary"))
    # A closed ring, as many polygon editors save one, repeats its first
    # vertex at the end; the stored boundary does not.
    if len(boundary) > 1 and np.array_equal(boundary[-1], boundary[0]):
        boundary = boundary[:-1]
    if len(boundary) < 3:
        raise NonPlanarEdit("boundary must be at least 3 points of 3 coordinates")
    dists = surface.model.distance(boundary)
    if float(dists.max()) > distance_threshold:
        raise NonPlanarEdit(
            f"vertex {float(dists.max()):.3f} m off the plane exceeds the "
            f"{distance_threshold:.3f} m threshold"
        )
    coords = plane_basis(surface.model).to_plane(boundary)
    if not polygon_is_simple(coords):
        raise SelfIntersectingPolygon("edited boundary intersects itself")
    if np.array_equal(boundary, surface.boundary):
        return surface
    area = abs(shoelace_area(coords))
    return PlanarSurface(surface.model, surface.inliers, boundary, area,
                         surface.inlier_count)


def write_json(path, data: dict) -> None:
    """The one JSON form of every file written: sorted keys, indent 1, ASCII.

    The text is streamed into the file, never held whole.
    """
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def dataclass_from_json(cls, values, where: str):
    """One dataclass from its JSON object, read strictly.

    Every key must name a field and every field without a default must be
    there. A value must have the type of its field's default (a JSON integer
    passes as a float); a field without a default, or with a None one, takes
    a float, or a list of 3 when it holds a tuple. Nested dataclass fields
    are read the same way. Errors name the value by its path from ``where``,
    e.g. ``config.icp``, or the object whose ``__post_init__`` rejects it.
    """
    if not isinstance(values, dict):
        raise ValidationError(f"{where}: expected an object, got {_json_type(values)}")
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in values
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValidationError(f"{where}: missing key(s) {', '.join(missing)}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in values:
            continue
        value, path = values[f.name], f"{where}.{f.name}"
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        if is_dataclass(default):
            kwargs[f.name] = dataclass_from_json(type(default), value, path)
        elif "tuple" in str(f.type):
            kwargs[f.name] = _vector(value, path)
        else:
            kind = float if default is MISSING or default is None else type(default)
            kwargs[f.name] = _typed(value, kind, path)
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ValidationError(f"{where}: {err}") from err


def _typed(value, kind: type, path: str):
    if not (type(value) is kind or kind is float and type(value) is int):
        raise ValidationError(
            f"{path}: expected {kind.__name__}, got {_json_type(value)}"
        )
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise ValidationError(
                f"{path}: expected a finite float, got an integer too large for a float"
            ) from None
        if not math.isfinite(value):
            raise ValidationError(f"{path}: expected a finite float, got {value!r}")
    return kind(value)


def _vector(value, path: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 3):
        raise ValidationError(f"{path}: expected a list of 3 numbers")
    return tuple(_typed(v, float, path) for v in value)


def _vectors(value, path: str) -> list:
    """A JSON list of 3-vectors: polygon vertices or the rows of a matrix."""
    return [_vector(v, path) for v in _typed(value, list, path)]


def _json_type(value) -> str:
    return "null" if value is None else type(value).__name__


def _values(entry, keys, where: str) -> list:
    """The values of ``keys`` in a JSON object; ``where`` names it in errors."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: expected an object, got {_json_type(entry)}")
    missing = [k for k in keys if k not in entry]
    if missing:
        raise ValidationError(f"{where}: missing key(s) {', '.join(missing)}")
    return [entry[k] for k in keys]


def _list_in(data, key: str, where: str) -> list:
    """The list under ``key`` of a JSON file's top-level object."""
    (items,) = _values(data, (key,), where)
    return _typed(items, list, f"{where} {key}")
