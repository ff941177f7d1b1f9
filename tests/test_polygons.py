import numpy as np
import pytest

from scanplan.polygons import polygon_is_simple, rects_intersect_polygon

from oracles import gift_wrap_hull
from oracles import polygon_is_simple as simple_oracle
from oracles import rect_intersects_polygon as rect_oracle

SQUARE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
# Non-convex, with level edges at y = 0, 1 and 3.
NOTCH = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [3.0, 3.0],
                  [3.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0]])


def _assert_matches_oracle(rect_min, rect_max, polygon):
    rect_min = np.asarray(rect_min, dtype=float).reshape(-1, 2)
    rect_max = np.asarray(rect_max, dtype=float).reshape(-1, 2)
    got = rects_intersect_polygon(rect_min, rect_max, polygon)
    want = [rect_oracle(lo, hi, polygon) for lo, hi in zip(rect_min, rect_max)]
    assert got.tolist() == want
    return want


def _star_polygon(rng, n, quantum=None):
    """Simple polygon: vertices at sorted angles around the origin."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.5, 3.0, n)
    p = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return p if quantum is None else np.round(p / quantum) * quantum


def _random_rects(rng, n, quantum=None):
    lo = rng.uniform(-4.0, 4.0, (n, 2))
    hi = lo + rng.uniform(0.0, 2.0, (n, 2))
    if quantum is not None:
        lo, hi = np.round(lo / quantum) * quantum, np.round(hi / quantum) * quantum
    return lo, hi


@pytest.mark.parametrize("quantum", [None, 0.5], ids=["continuous", "on_a_lattice"])
def test_rects_intersect_polygon_matches_oracle_on_random_shapes(rng, quantum):
    # On a lattice, corners land on hull vertices and edges run collinear
    # with hull edges far more often than with continuous coordinates.
    for _ in range(30):
        hull = gift_wrap_hull(rng.uniform(-3.0, 3.0, (12, 2)))
        star = _star_polygon(rng, 9, quantum)
        for polygon in (hull, star):
            lo, hi = _random_rects(rng, 40, quantum)
            _assert_matches_oracle(lo, hi, polygon)


@pytest.mark.parametrize("polygon, rect_min, rect_max, expected", [
    (SQUARE, [2.0, 2.0], [3.0, 3.0], True),          # corner on a hull vertex
    (SQUARE, [-1.0, -1.0], [0.0, 0.0], True),
    (SQUARE, [2.0, 0.5], [3.0, 1.5], True),          # edge collinear with a hull edge
    (SQUARE, [0.5, 2.0], [1.5, 2.5], True),          # ... on a level hull edge
    (SQUARE, [0.5, -1.0], [1.5, 0.0], True),
    (SQUARE, [2.5, 0.5], [3.0, 1.5], False),
    (SQUARE, [2.0, 2.5], [3.0, 3.0], False),         # on the hull edge's line only
    (SQUARE, [-1.0, -1.0], [3.0, 3.0], True),        # polygon inside the rectangle
    (SQUARE, [0.5, 0.5], [1.5, 1.5], True),          # rectangle inside the polygon
    (SQUARE, [-1.0, 0.5], [3.0, 1.5], True),         # a band through, no corner inside
    (NOTCH, [1.5, 1.5], [2.5, 2.5], False),          # in the notch
    (NOTCH, [1.5, 1.0], [2.5, 2.5], True),           # touching the notch floor
    (NOTCH, [1.0, 1.5], [3.0, 2.5], True),           # spanning the notch wall to wall
    (NOTCH, [-1.0, 3.0], [0.0, 4.0], True),          # corner on a vertex from outside
    (NOTCH, [1.2, 1.0 + 1e-9], [2.8, 2.0], True),    # within the on-edge band
    (NOTCH, [1.2, 1.0 + 1e-5], [2.8, 2.0], False),   # just clear of a level edge
], ids=["corner_on_vertex", "corner_on_origin_vertex", "collinear_side",
        "collinear_top", "collinear_bottom", "clear_of_side", "collinear_beyond_end",
        "polygon_inside", "rect_inside", "band_through", "in_notch", "notch_floor",
        "notch_wall_to_wall", "notch_outer_vertex", "notch_band", "notch_clear"])
def test_rects_intersect_polygon_degenerate_cases(polygon, rect_min, rect_max, expected):
    assert _assert_matches_oracle(rect_min, rect_max, polygon) == [expected]


def test_rects_intersect_polygon_at_the_on_edge_tolerance(rng):
    # A corner outside a slanted edge, at distances around the 1e-6 band
    # (cross^2 <= 1e-12 * |edge|^2) that counts a point on the edge as inside.
    polygon = np.array([[0.0, 0.0], [3.0, 1.0], [0.0, 2.0]])
    direction = np.array([3.0, 1.0]) / np.sqrt(10.0)
    outward = np.array([direction[1], -direction[0]])
    lo, hi = [], []
    for t in rng.uniform(0.1, 0.9, 20):
        for dist in (0.5e-6, 0.999e-6, 1.0e-6, 1.001e-6, 2e-6):
            corner = t * np.array([3.0, 1.0]) + dist * outward
            # The rectangle reaches away from the triangle, below and right.
            lo.append(corner - [0.0, 1.0])
            hi.append(corner + [1.0, 0.0])
    assert len(set(_assert_matches_oracle(lo, hi, polygon))) == 2


@pytest.mark.parametrize("dx, dy, y, expected", [
    (0.9148388311624815, 2.047914627901198, 2.451757876507483e-06, True),
    (2.8108952061447923, 0.6889294129783914, 1.029597177273261e-06, True),
    (1.2983136419731212, 1.0225596639017305, 1.2729191928071098e-06, False),
])
def test_rects_intersect_polygon_squares_edges_as_pow_does(dx, dy, y, expected):
    # A corner above the vertex (0, 0), within one rounding of the on-edge
    # band of the edge to (dx, dy). On these edges C pow gives
    # dx**2 + dy**2 one ulp away from dx*dx + dy*dy, and the answer
    # depends on which is used.
    polygon = np.array([[0.0, -1.0], [0.0, 0.0], [dx, dy]])
    assert _assert_matches_oracle([-1.0, y], [0.0, y + 1.0], polygon) == [expected]


def test_rects_intersect_polygon_takes_an_empty_row():
    empty = np.zeros((0, 2))
    assert rects_intersect_polygon(empty, empty, SQUARE).shape == (0,)


@pytest.mark.parametrize("quantum", [None, 0.5], ids=["continuous", "on_a_lattice"])
def test_polygon_is_simple_matches_oracle(rng, quantum):
    verdicts = set()
    for n in range(3, 10):
        for _ in range(20):
            free = rng.uniform(-2.0, 2.0, (n, 2))
            if quantum is not None:
                free = np.round(free / quantum) * quantum
            for polygon in (free, _star_polygon(rng, n, quantum)):
                got = polygon_is_simple(polygon)
                assert got == simple_oracle(polygon)
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("polygon, expected", [
    (SQUARE, True),
    (NOTCH, True),
    (SQUARE[[0, 2, 1, 3]], False),                                   # bow tie
    (np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), False),  # doubles back
    (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), True),          # only adjacent edges
    (SQUARE[:2], False),
])
def test_polygon_is_simple_cases(polygon, expected):
    assert polygon_is_simple(polygon) == simple_oracle(polygon) == expected
