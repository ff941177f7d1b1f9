"""format_table against repr, value by value and file by file.

The number format is repr's (str's for a tag), so every test compares the
characters with those of a per-value ``%r`` join.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanplan import artifacts
from scanplan.geometry import format_table, rotation_about_z
from scanplan.ingest import ImuSample, LaserScan, ScanLog, write_scan_log
from scanplan.scenes import generate_scene, preset_scene
from scanplan.simulate import DeviceParams, simulate_yaw_scan

from oracles import (
    concat_clouds,
    format_rows,
    write_cloud_per_value,
    write_scan_log_per_value,
)

INT64 = np.iinfo(np.int64)


def assert_prints_like_repr(values):
    """Each value on a line of its own, as repr prints it."""
    values = np.asarray(values, dtype=float).ravel()
    got = format_table(values.reshape(-1, 1)).split("\n")
    assert got.pop() == ""
    want = list(map(repr, values.tolist()))
    bad = [(w, g) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(want)} differ, e.g. (repr, got) {bad[:5]}"
    assert len(got) == len(want)


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
    assert_prints_like_repr(values)


def test_random_bit_patterns(rng):
    # Any of the 2**64 patterns, then patterns with a magnitude in about
    # [1e-5, 1e17]: most of the first are printed by repr, most of the
    # second are not.
    assert_prints_like_repr(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(float))
    exponent = rng.integers(1023 - 17, 1023 + 57, 100_000, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, 100_000, dtype=np.uint64)
    sign = rng.integers(0, 2, 100_000, dtype=np.uint64) << np.uint64(63)
    assert_prints_like_repr((sign | exponent | mantissa).view(float))


def test_noisy_coordinates(rng):
    for scale in (1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0, 1e3, 1e6, 1e12, 1e15):
        assert_prints_like_repr(rng.normal(0.0, scale, 5_000))


def test_signed_zero_and_non_finite():
    assert_prints_like_repr([0.0, -0.0, math.inf, -math.inf, math.nan])


def test_powers_of_two_and_ten_and_their_neighbours():
    assert_prints_like_repr(neighbours(2.0 ** np.arange(-1074, 1024)))
    assert_prints_like_repr(neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_shortest_forms_of_every_length(rng):
    # A decimal of p digits reads as a float whose shortest form has at most
    # p digits (and usually exactly p for p <= 15).
    for p in range(1, 18):
        digits = rng.integers(10 ** (p - 1), 10**p, 400, dtype=np.int64)
        exponents = rng.integers(-8 - p, 20 - p, 400)
        values = [float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())]
        assert_prints_like_repr(neighbours(values, steps=1))


def test_both_sides_of_the_positional_range():
    # repr goes positional at 1e-4 and back to an exponent at 1e16.
    edges = [1e-4, 1e16, 9.999999999999999e-05, 9999999999999998.0, 2.0**53]
    assert_prints_like_repr(neighbours(edges, steps=8))
    assert_prints_like_repr(neighbours(np.arange(2**53 - 64, 2**53 + 64, dtype=float)))
    assert_prints_like_repr(neighbours(np.arange(1e16 - 64, 1e16 + 64, 2.0)))


def test_roundings_that_carry_into_the_next_power_of_ten():
    below = [float(f"1e{k}") for k in range(-5, 18)]
    for _ in range(6):
        below = np.nextafter(below, 0.0)
        assert_prints_like_repr(below)
    nines = [float("9" * p + f"e{e}") for p in range(1, 18) for e in range(-20, 16 - p)]
    assert_prints_like_repr(neighbours(nines))


def test_exact_halves(rng):
    # Odd multiples of a power of two have a finite decimal expansion whose
    # last digit is 5: V lies halfway between two shorter candidates.
    odd = 2 * rng.integers(0, 2**20, 20_000) + 1
    values = odd * 2.0 ** rng.integers(-40, 30, 20_000).astype(float)
    assert_prints_like_repr(values)
    assert_prints_like_repr([0.5, 1.5, 2.5, 0.125, 8.0000152587890625,
                             1e15 + 0.5, 2.0**52 + 0.5, 0.0001220703125])


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
    values = rng.normal(size=(5, cols)) * 10.0 ** rng.integers(-6, 18, (5, cols))
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


# A log whose V, H and I records have three widths, with repr's edge
# spellings and a stamp that all three streams share.
_EDGE = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3, 2.0**53]
LOGS = {
    "room": ROOM_LOG,
    "three_widths": ScanLog(
        [LaserScan(0.0, _EDGE[:5]), LaserScan(0.5, _EDGE[2:])],
        [LaserScan(0.0, _EDGE[:2]), LaserScan(0.25, _EDGE[5:])],
        [ImuSample(0.0, np.eye(3)), ImuSample(0.5, rotation_about_z(1 / 3))],
        -0.0, 1e-5, 30.0,
    ),
}


@pytest.mark.parametrize("name", sorted(LOGS))
def test_room_log_bytes(tmp_path, name):
    write_scan_log(tmp_path / "new.log", LOGS[name])
    write_scan_log_per_value(tmp_path / "old.log", LOGS[name])
    assert (tmp_path / "new.log").read_bytes() == (tmp_path / "old.log").read_bytes()
