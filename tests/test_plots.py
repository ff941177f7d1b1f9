import numpy as np
import pytest

from scanplan import plots
from scanplan.geometry import PointCloud
from scanplan.plots import render_svg

from oracles import render_svg_per_point

# Exact binary halves at the second decimal (0.125, 0.375, 10.125, ...) and
# decimal halves that binary cannot hold (2.675, 1.005), where rounding
# to two places is decided by the stored bits.
HALVES = [0.125, 0.375, 0.625, 0.875, 1.005, 2.675, 5.015, 10.125, 10.375]


def _halves_cloud(rng):
    # x spans [0.5, 10.5] and y spans [0.5, 10.5], so with size=11 the
    # padding is 0.5, the scale is exactly 1 and a pixel x equals the point x:
    # the halves reach the formatter unchanged. The scatter is one dot longer
    # than a block, so its last block holds one dot.
    n = plots._BLOCK_DOTS + 1 - 2 - len(HALVES[3:])
    xs = np.array([0.5, 10.5] + HALVES[3:] + list(rng.uniform(0.5, 10.5, n)))
    ys = np.array([0.5, 10.5] + [11.0 - v for v in HALVES[3:]]
                  + list(rng.uniform(0.5, 10.5, n)))
    return PointCloud(np.stack([xs, ys, rng.uniform(-1.0, 1.0, len(xs))], axis=1))


@pytest.mark.parametrize("view", ["top", "elevation"])
def test_render_svg_matches_the_per_point_text(tmp_path, rng, monkeypatch, view):
    cloud = _halves_cloud(rng)
    polygon = np.array([[1.125, 1.375, 0.0], [9.875, 1.375, 0.5], [5.005, 9.625, -0.5]])
    polyline = np.array([[0.625, 10.375, 0.25], [2.675, 2.675, 0.125]])
    for size in (11, 800):
        path = tmp_path / f"{view}_{size}.svg"
        monkeypatch.setattr(plots, "_SIZE", size)
        render_svg(path, cloud=cloud, polygons=[polygon], polylines=[polyline], view=view)
        want = render_svg_per_point(cloud, [polygon], [polyline], view, size)
        assert path.read_text(encoding="ascii") == want
    assert want.count("<circle") == plots._BLOCK_DOTS + 1
    if view == "top":
        # 10.125 sits in the text exactly as the half it is.
        assert '<circle cx="10.12" cy="10.12"' in (tmp_path / "top_11.svg").read_text()


@pytest.mark.parametrize("n, dots", [(19_999, 19_999), (20_000, 20_000), (20_001, 10_001),
                                     (39_999, 20_000), (40_000, 20_000), (40_001, 13_334)])
def test_render_svg_plots_at_most_its_budget_of_dots(tmp_path, n, dots):
    # The stride is the ceiling of n / budget: a floor plotted 39,999 dots
    # for a budget of 20,000.
    cloud = PointCloud(np.stack([np.arange(n) * 1e-3, np.zeros(n), np.zeros(n)], axis=1))
    render_svg(tmp_path / "scatter.svg", cloud=cloud)
    assert (tmp_path / "scatter.svg").read_text(encoding="ascii").count("<circle") == dots


def test_render_svg_without_geometry(tmp_path):
    render_svg(tmp_path / "empty.svg")
    assert (tmp_path / "empty.svg").read_text(encoding="ascii") == render_svg_per_point()


@pytest.mark.parametrize("value", [-0.004999, -0.005, -0.0, 0.0, 0.005, 0.125, 0.375,
                                   2.675, 1.005, 1e-17, -1e-17, 799.995, 123456.785])
def test_two_decimal_text_of_a_python_float_equals_that_of_a_numpy_float(value):
    # render_svg formats Python floats from .tolist(); the text equals that
    # of the numpy scalar, including a negative zero.
    assert "%.2f" % float(np.float64(value)) == f"{np.float64(value):.2f}"
