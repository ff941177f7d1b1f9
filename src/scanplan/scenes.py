"""Synthetic scene primitives and deterministic point-cloud sampling.

Scenes are built from a handful of primitives (point, segment, rectangle,
box, crossed-planes composite). A primitive's area is a list of rectangles
(:meth:`rectangles`), which both the sampler and the ray-casting simulator
use. Sampling is seeded and applies Gaussian noise along each rectangle's
normal; points and segments have no normal and stay noise-free so
degenerate-geometry behavior is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .artifacts import dataclass_from_json
from .errors import ValidationError
from .geometry import PointCloud, plane_axes


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero-length direction")
    return v / n


class _Primitive:
    """What every primitive has: its rectangles, sampled one after another."""

    def rectangles(self) -> list[RectanglePrimitive]:
        """The primitive's area as rectangles, in sampling order (none by default)."""
        return []

    def sample(self, density, sigma, rng) -> np.ndarray:
        return np.vstack([r.sample(density, sigma, rng) for r in self.rectangles()])


@dataclass(frozen=True)
class PointPrimitive(_Primitive):
    position: tuple

    def sample(self, density, sigma, rng) -> np.ndarray:
        return np.asarray(self.position, dtype=float).reshape(1, 3)


@dataclass(frozen=True)
class SegmentPrimitive(_Primitive):
    start: tuple
    end: tuple

    def sample(self, density, sigma, rng) -> np.ndarray:
        a = np.asarray(self.start, dtype=float)
        b = np.asarray(self.end, dtype=float)
        # Linear density follows from the areal one: sqrt(density) points/m.
        n = max(2, round(math.sqrt(density) * float(np.linalg.norm(b - a))))
        ts = np.linspace(0.0, 1.0, n)
        return a + np.outer(ts, b - a)


@dataclass(frozen=True)
class RectanglePrimitive(_Primitive):
    """Planar patch: center, outward normal, width along u, height along v."""

    center: tuple
    normal: tuple
    width: float
    height: float
    u_dir: tuple | None = None

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = _unit(self.normal)
        u, v = plane_axes(n, self.u_dir)
        return u, v, n

    def rectangles(self) -> list[RectanglePrimitive]:
        return [self]

    def sample(self, density, sigma, rng) -> np.ndarray:
        u, v, n = self.axes()
        count = max(1, round(density * self.width * self.height))
        us = rng.uniform(-self.width / 2.0, self.width / 2.0, count)
        vs = rng.uniform(-self.height / 2.0, self.height / 2.0, count)
        pts = np.asarray(self.center, float) + np.outer(us, u) + np.outer(vs, v)
        if sigma > 0:
            pts = pts + np.outer(rng.normal(0.0, sigma, count), n)
        return pts


@dataclass(frozen=True)
class BoxPrimitive(_Primitive):
    """Axis-aligned hollow box sampled on its 6 faces."""

    center: tuple
    size: tuple

    def faces(self) -> list[RectanglePrimitive]:
        c = np.asarray(self.center, dtype=float)
        sx, sy, sz = np.asarray(self.size, dtype=float)
        return [
            RectanglePrimitive(tuple(c + [sx / 2, 0, 0]), (1, 0, 0), sy, sz),
            RectanglePrimitive(tuple(c - [sx / 2, 0, 0]), (-1, 0, 0), sy, sz),
            RectanglePrimitive(tuple(c + [0, sy / 2, 0]), (0, 1, 0), sx, sz),
            RectanglePrimitive(tuple(c - [0, sy / 2, 0]), (0, -1, 0), sx, sz),
            RectanglePrimitive(tuple(c + [0, 0, sz / 2]), (0, 0, 1), sx, sy),
            RectanglePrimitive(tuple(c - [0, 0, sz / 2]), (0, 0, -1), sx, sy),
        ]

    def rectangles(self) -> list[RectanglePrimitive]:
        return self.faces()


@dataclass(frozen=True)
class CrossedPlanesPrimitive(_Primitive):
    """A cube with two large sheets crossing through its center.

    The sheets extend well past the cube faces, so standoff positions in
    front of every face are obstructed. ``span`` scales the sheet extent in
    cube edges.
    """

    center: tuple
    edge: float
    span: float = 3.0

    def parts(self) -> list:
        c = np.asarray(self.center, dtype=float)
        reach = self.span * self.edge
        return [
            BoxPrimitive(tuple(c), (self.edge, self.edge, self.edge)),
            RectanglePrimitive(tuple(c), (0, 1, 0), reach, reach),
            RectanglePrimitive(tuple(c), (1, 0, 0), reach, reach),
        ]

    def rectangles(self) -> list[RectanglePrimitive]:
        return [r for part in self.parts() for r in part.rectangles()]


@dataclass(frozen=True)
class SceneSpec:
    """Primitives plus areal sampling density (points/m^2) and noise sigma (m)."""

    primitives: tuple = ()
    density: float = 100.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not 0 < self.density < math.inf:
            raise ValueError(f"density must be > 0 and finite, got {self.density}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "primitives", tuple(self.primitives))

    def rectangles(self) -> list[RectanglePrimitive]:
        """Every primitive's rectangles, in primitive order."""
        return [r for p in self.primitives for r in p.rectangles()]


def generate_scene(spec: SceneSpec, seed: int = 0) -> PointCloud:
    """Deterministically sample a scene; same spec and seed, same cloud."""
    rng = np.random.default_rng(seed)
    parts = [p.sample(spec.density, spec.noise_sigma, rng) for p in spec.primitives]
    if not parts:
        return PointCloud.empty()
    return PointCloud._own(np.vstack(parts))


def preset_scene(name: str, density: float = 100.0, noise_sigma: float = 0.0) -> SceneSpec:
    """Built-in scenes used by the behavior tests and the demos.

    Names: point, line, surface, cube, crossed_planes, deck, room.
    """
    if name == "point":
        prims = (PointPrimitive((2.0, 0.5, 1.0)),)
    elif name == "line":
        prims = (SegmentPrimitive((-1.5, 2.0, 0.0), (1.5, 2.0, 3.0)),)
    elif name == "surface":
        prims = (RectanglePrimitive((0.0, 3.0, 1.5), (0, -1, 0), 4.0, 3.0),)
    elif name == "cube":
        prims = (BoxPrimitive((0.0, 0.0, 0.0), (2.0, 2.0, 2.0)),)
    elif name == "crossed_planes":
        prims = (CrossedPlanesPrimitive((0.0, 0.0, 0.0), 2.0),)
    elif name == "deck":
        prims = (RectanglePrimitive((11.0, 5.0, 0.0), (0, 0, 1), 22.0, 10.0,
                                    u_dir=(1, 0, 0)),)
    elif name == "room":
        # Four walls of an 8 x 8 m room, 3 m tall, around the origin.
        prims = (
            RectanglePrimitive((4.0, 0.0, 1.5), (-1, 0, 0), 8.0, 3.0),
            RectanglePrimitive((-4.0, 0.0, 1.5), (1, 0, 0), 8.0, 3.0),
            RectanglePrimitive((0.0, 4.0, 1.5), (0, -1, 0), 8.0, 3.0),
            RectanglePrimitive((0.0, -4.0, 1.5), (0, 1, 0), 8.0, 3.0),
        )
    else:
        raise ValueError(f"unknown preset scene {name!r}")
    return SceneSpec(prims, density=density, noise_sigma=noise_sigma)


# The scene file's name for each primitive type.
_PRIMITIVE_TYPES = {
    "point": PointPrimitive,
    "segment": SegmentPrimitive,
    "rectangle": RectanglePrimitive,
    "box": BoxPrimitive,
    "crossed_planes": CrossedPlanesPrimitive,
}
_TYPE_NAMES = {cls: name for name, cls in _PRIMITIVE_TYPES.items()}


def scene_to_dict(spec: SceneSpec) -> dict:
    """The scene file form: one object per primitive; ``None`` fields stay out."""
    prims = []
    for p in spec.primitives:
        entry = {"type": _TYPE_NAMES[type(p)]}
        for f in fields(p):
            value = getattr(p, f.name)
            if value is not None:
                entry[f.name] = (
                    [float(v) for v in value] if np.ndim(value) else float(value)
                )
        prims.append(entry)
    return {"version": 1, "density": spec.density,
            "noise_sigma": spec.noise_sigma, "primitives": prims}


def scene_from_dict(data) -> SceneSpec:
    """Inverse of :func:`scene_to_dict`, read strictly.

    Fields with a default may be left out.

    Raises:
        ValidationError: not an object with a ``primitives`` list, an unknown
            primitive type, or a primitive that :func:`dataclass_from_json`
            rejects (unknown key, missing field, value of the wrong type).
    """
    if not isinstance(data, dict) or not isinstance(data.get("primitives"), list):
        raise ValidationError("scene: expected an object with a 'primitives' list")
    prims = []
    for k, entry in enumerate(data["primitives"]):
        where = f"scene.primitives[{k}]"
        kind = entry.get("type") if isinstance(entry, dict) else None
        if not (isinstance(kind, str) and kind in _PRIMITIVE_TYPES):
            raise ValidationError(f"{where}: unknown type {kind!r} "
                                  f"(one of {', '.join(_PRIMITIVE_TYPES)})")
        values = {key: v for key, v in entry.items() if key != "type"}
        prims.append(
            dataclass_from_json(_PRIMITIVE_TYPES[kind], values, f"{where} ({kind})")
        )
    rest = {key: v for key, v in data.items() if key not in ("version", "primitives")}
    return replace(dataclass_from_json(SceneSpec, rest, "scene"), primitives=tuple(prims))
