"""format_table against per-value oracles, value by value and file by file.

Every float is printed as ``"%.6f"`` prints it, so every test compares the
characters with those of :func:`oracles.fixed6`, which formats one value at
a time, and values on the 1 um grid must read back bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanplan import artifacts
from scanplan.geometry import (
    GRID_LIMIT,
    PointCloud,
    format_table,
    rotation_about_z,
    to_grid,
)
from scanplan.ingest import ScanLog, Stream, write_scan_log
from scanplan.scenes import generate_scene, preset_scene
from scanplan.simulate import DeviceParams, simulate_yaw_scan

from oracles import (
    concat_clouds,
    fixed6,
    format_rows,
    to_grid_per_value,
    write_cloud_per_value,
    write_scan_log_per_value,
)

INT64 = np.iinfo(np.int64)


def printed(values) -> list[str]:
    """format_table's text of each value, on a line of its own."""
    values = np.asarray(values, dtype=float).ravel()
    got = format_table(values.reshape(-1, 1)).split("\n")
    assert got.pop() == ""
    assert len(got) == len(values)
    return got


def assert_prints_like(values):
    values = np.asarray(values, dtype=float).ravel()
    want = [fixed6(v) for v in values.tolist()]
    bad = [(w, g) for g, w in zip(printed(values), want) if g != w]
    assert not bad, f"{len(bad)} of {len(want)} differ, e.g. (want, got) {bad[:5]}"


def assert_on_grid_prints_as_percent_f(values):
    """``values`` put on the grid print as "%.6f" prints them and read back."""
    values = to_grid(np.array(values, dtype=float).ravel())
    assert_prints_like(values)
    back = np.array([float(t) for t in printed(values)])
    assert back.tobytes() == values.tobytes()


def neighbours(values, steps=2):
    """The values and their ``steps`` nearest floats on each side, both signs."""
    values = np.asarray(values, dtype=float)
    out = [values]
    up = down = values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_any_finite_float(values):
    assert_prints_like(values)


def test_random_bit_patterns(rng):
    # Any of the 2**64 patterns (most are not finite, or far past the grid),
    # then patterns with a magnitude in about [1e-8, 1e13].
    assert_prints_like(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(float))
    exponent = rng.integers(1023 - 27, 1023 + 44, 100_000, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, 100_000, dtype=np.uint64)
    sign = rng.integers(0, 2, 100_000, dtype=np.uint64) << np.uint64(63)
    assert_prints_like((sign | exponent | mantissa).view(float))


def test_on_grid_values_print_as_percent_f(rng):
    assert_on_grid_prints_as_percent_f([0.0, -0.0, 1e-6, -1e-6, GRID_LIMIT, -GRID_LIMIT])
    magnitudes = 10.0 ** rng.uniform(-7, math.log10(GRID_LIMIT), 200_000)
    assert_on_grid_prints_as_percent_f(magnitudes * rng.choice([-1.0, 1.0], 200_000))
    # Every step of the grid's top 2**51 - 100,000 to 2**51.
    assert_on_grid_prints_as_percent_f(np.arange(2**51 - 100_000, 2**51 + 1) / 1e6)
    # Past the grid whole metres still print exactly.
    assert printed([9.0e9, -9.0e9]) == ["9000000000.000000", "-9000000000.000000"]


def test_putting_on_the_grid_twice_changes_nothing(rng):
    values = 10.0 ** rng.uniform(-8, math.log10(GRID_LIMIT), 200_000)
    values *= rng.choice([-1.0, 1.0], 200_000)
    once = to_grid(values.copy())
    assert once.tolist() == [to_grid_per_value(v) for v in values.tolist()]
    assert to_grid(once.copy()).tobytes() == once.tobytes()
    assert not np.signbit(to_grid(np.array([-0.0, -4e-7]))).any()


def test_noisy_coordinates(rng):
    for scale in (1e-6, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0, 1e3, 1e6, 1e9):
        noisy = rng.normal(0.0, scale, 5_000)
        assert_prints_like(noisy)
        assert_on_grid_prints_as_percent_f(np.clip(noisy, -GRID_LIMIT, GRID_LIMIT))


def test_signed_zero_and_non_finite():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan]
    assert printed(values) == ["0.000000", "-0.000000", "inf", "-inf", "nan"]


def test_powers_of_two_and_ten_and_their_neighbours():
    assert_prints_like(neighbours(2.0 ** np.arange(-1074, 1024)))
    assert_prints_like(neighbours([float(f"1e{k}") for k in range(-323, 309)]))
    assert_on_grid_prints_as_percent_f(
        neighbours([float(f"1e{k}") for k in range(-6, 10)] + list(2.0 ** np.arange(-20, 31))))


def test_values_past_the_grid_print_six_decimals():
    # Past the grid's reach, and at any magnitude, "%.6f" rounds the exact
    # value of the float: 999999999999.9999 is stored as ...99987792...
    edges = neighbours([1e12, 999999999999.9999, GRID_LIMIT, 2.0**51 / 1e6], steps=8)
    assert_prints_like(edges)
    assert printed([1e12, -1e12]) == ["1000000000000.000000", "-1000000000000.000000"]
    assert printed([999999999999.9999]) == ["999999999999.999878"]


def test_roundings_that_carry_into_the_next_power_of_ten():
    # Half a micrometre under a power of ten rounds by the float's exact
    # value: 1 - 5e-7 and 100 - 5e-7 are stored just above the half and
    # carry into the next decade, 10 - 5e-7 just below it and does not.
    below = [float(f"1e{k}") - 5e-7 for k in range(0, 10)]
    assert printed(below[:3]) == ["1.000000", "9.999999", "100.000000"]
    nines = [float("9" * p + f"e{e}") for p in range(1, 18) for e in range(-12, 12 - p)]
    assert_prints_like(neighbours(nines))
    assert_prints_like(neighbours(below))


def test_exact_halves(rng):
    # An odd multiple of 2**-7 is an odd number of half micrometres, stored
    # exactly: the value ties, and "%.6f" goes to the even.
    odd = 2 * rng.integers(0, 2**40, 20_000) + 1
    halves = odd * 2.0**-7
    assert_prints_like(halves)
    assert printed([0.0078125, 0.0234375, -0.0078125]) == ["0.007812", "0.023438", "-0.007812"]


def test_int64_tags(rng):
    edges = [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]
    edges += [10**k + d for k in range(1, 19) for d in (-1, 0, 1)]
    tags = np.concatenate([edges, rng.integers(INT64.min, INT64.max, 10_000, endpoint=True),
                           rng.integers(0, 10 ** rng.integers(1, 19, 10_000))])
    values = rng.normal(size=(len(tags), 3))
    rows = [(*v, t) for v, t in zip(values.tolist(), tags.tolist())]
    assert format_table(values, tags) == format_rows(rows)


@pytest.mark.parametrize("cols", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("sep", [" ", ","])
def test_rows_and_separators(rng, cols, sep):
    values = rng.normal(size=(5, cols)) * 10.0 ** rng.integers(-6, 14, (5, cols))
    assert format_table(values, sep=sep) == format_rows(values.tolist(), sep)
    assert format_table(values[:0]) == ""


def _clouds():
    deck = generate_scene(preset_scene("deck", 5.0, 0.01), seed=1)
    crossed = generate_scene(preset_scene("crossed_planes", 15.0, 0.01), seed=1)
    return {"deck": deck, "crossed_planes": crossed,
            "tagged_merge": concat_clouds([deck, crossed], retag=True)}


CLOUDS = _clouds()


@pytest.mark.parametrize("name", sorted(CLOUDS))
@pytest.mark.parametrize("block", ["4 rows", "one block", "one block + 1"])
def test_cloud_file_bytes(tmp_path, monkeypatch, name, block):
    cloud = CLOUDS[name]
    rows = {"4 rows": 4, "one block": len(cloud), "one block + 1": len(cloud) - 1}[block]
    monkeypatch.setattr(artifacts, "_WRITE_BLOCK_ROWS", rows)
    artifacts.write_cloud(tmp_path / "new.xyz", cloud)
    write_cloud_per_value(tmp_path / "old.xyz", cloud.points, cloud.sources)
    assert (tmp_path / "new.xyz").read_bytes() == (tmp_path / "old.xyz").read_bytes()


ROOM_LOG = simulate_yaw_scan(
    preset_scene("room"), station=(0.0, 0.0, 1.5), n_scans=12,
    device=DeviceParams(), range_noise=0.005, seed=2,
)


# A log whose V, H and I records have three widths, with values off the
# grid and past the digits, and a stamp that all three streams share.
_EDGE = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3, 2.0**53]
LOGS = {
    "room": ROOM_LOG,
    "three_widths": ScanLog(
        Stream([0.0, 0.5], [_EDGE[:5], _EDGE[2:]]),
        Stream([0.0, 0.25], [_EDGE[:2], _EDGE[5:]]),
        Stream([0.0, 0.5], [np.eye(3), rotation_about_z(1 / 3)]),
        -0.0, 1e-5, 30.0,
    ),
}


@pytest.mark.parametrize("name", sorted(LOGS))
def test_room_log_bytes(tmp_path, name):
    write_scan_log(tmp_path / "new.log", LOGS[name])
    write_scan_log_per_value(tmp_path / "old.log", LOGS[name])
    assert (tmp_path / "new.log").read_bytes() == (tmp_path / "old.log").read_bytes()


def traced_peak(write) -> int:
    """The most memory, in bytes, that ``write()`` holds at once."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_hold_one_record_or_block_at_a_time(tmp_path, rng):
    # The writers hold one block of a cloud's rows, or one record of a log,
    # as Python values and text at a time, never the whole file.
    log = simulate_yaw_scan(preset_scene("room"), station=(0.0, 0.0, 1.5), n_scans=24,
                            device=DeviceParams(), range_noise=0.005, seed=2)
    peak = traced_peak(lambda: write_scan_log(tmp_path / "room.log", log))
    assert peak < 0.25e6, f"write_scan_log peaked at {peak / 1e6:.2f} MB"

    cloud = PointCloud(rng.uniform(-50.0, 50.0, (100_000, 3)),
                       rng.integers(0, 1000, 100_000))
    path = tmp_path / "cloud.xyz"
    peak = traced_peak(lambda: artifacts.write_cloud(path, cloud))
    size = path.stat().st_size
    assert peak < 0.4 * size, f"write_cloud peaked at {peak / size:.2f} x its {size} bytes"
