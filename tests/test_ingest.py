import contextlib
import dataclasses
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanplan import ingest
from scanplan.errors import (
    EmptyLog,
    MalformedRecord,
    ScanPlanError,
    UnsortedTimestamps,
)
from scanplan.geometry import PointCloud, Pose, polar_to_local_arrays
from scanplan.ingest import (
    ScanLog,
    Stream,
    _nearest_sample,
    build_cloud,
    estimate_pose_track,
    local_points,
    parse_scan_log,
    write_scan_log,
)
from scanplan.registration import IcpConfig
from scanplan.scenes import RectanglePrimitive, SceneSpec, preset_scene
from scanplan.simulate import (
    DeviceParams,
    scan_truth,
    simulate_yaw_scan,
    true_pose_track,
)

from oracles import argmin_nearest_sample, write_scan_log_per_value

HEADER = "# angle_min -2.356194490192345\n# angle_inc 0.004363323129985824\n# range_max 30.0\n"
IDENTITY = "1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0"


def open_walls():
    """Two perpendicular walls that stay inside the arc through the sweep."""
    return SceneSpec((
        RectanglePrimitive((-4.0, 0.0, 1.0), (1, 0, 0), 6.0, 2.0),
        RectanglePrimitive((0.0, -4.0, 1.0), (0, 1, 0), 6.0, 2.0),
    ))


def fine_device():
    return DeviceParams(angle_inc=math.radians(0.25), rays_per_scan=1081)


def test_parse_well_formed_file(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER
        + f"I 0.0 {IDENTITY}\n"
        + "V 0.0 1.0 2.0 3.0\n"
        + "H 0.0 1.5 2.5 3.5\n",
        encoding="ascii",
    )
    log = parse_scan_log(path)
    assert len(log.vertical) == 1
    assert len(log.horizontal) == 1
    assert len(log.imu) == 1
    assert log.range_max == 30.0
    assert np.allclose(log.vertical.records[0], [1.0, 2.0, 3.0])


def test_parsed_stamps_are_the_stamps_written(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nI 0.25 {IDENTITY}\nV 0.125 1.0\n"
                    + "H 0.125 2.0\nV 0.5 1.0\nH 0.75 2.0\n", encoding="ascii")
    log = parse_scan_log(path)
    for stream, stamps in ((log.vertical, [0.125, 0.5]), (log.horizontal, [0.125, 0.75]),
                           (log.imu, [0.0, 0.25])):
        assert stream.stamps.dtype == np.float64 and stream.stamps.shape == (2,)
        assert stream.stamps.tolist() == stamps
        assert len(stream) == len(stream.records) == 2


def test_a_stream_needs_one_stamp_per_record():
    with pytest.raises(ValueError, match=r"^\(2,\) stamps for 1 records$"):
        Stream([0.0, 1.0], [np.ones(3)])
    with pytest.raises(ValueError, match=r"^\(1, 1\) stamps for 1 records$"):
        Stream([[0.0]], [np.ones(3)])


def test_parse_bearing_out_of_arc(tmp_path):
    path = tmp_path / "scan.log"
    # 1100 ranges at 0.25 deg from -135 deg crosses +135 deg.
    ranges = " ".join(["1.0"] * 1100)
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nV 0.0 {ranges}\n", encoding="ascii")
    with pytest.raises(MalformedRecord):
        parse_scan_log(path)


def test_parse_negative_range(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nV 0.0 1.0 -2.0\n", encoding="ascii")
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert err.value.line == 5


def test_parse_unknown_record(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + "X 0.0 1.0\n", encoding="ascii")
    with pytest.raises(MalformedRecord):
        parse_scan_log(path)


def test_parse_bad_rotation(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER + "I 0.0 2.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0\nV 0.1 1.0\n",
        encoding="ascii",
    )
    with pytest.raises(MalformedRecord):
        parse_scan_log(path)


def test_parse_unsorted_timestamps(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER + f"I 0.0 {IDENTITY}\nV 1.0 1.0\nV 0.5 1.0\n", encoding="ascii"
    )
    with pytest.raises(UnsortedTimestamps):
        parse_scan_log(path)


@pytest.mark.parametrize("stamps, message", [
    (("0.7", "0.5"), "2 at 0.5 s does not follow 0.7 s"),
    (("0.7", "0.7"), "2 at 0.7 s does not follow 0.7 s"),
    (("1e400", "inf"), "2 at inf s does not follow inf s"),
], ids=["earlier", "equal", "both_infinite"])
@pytest.mark.parametrize("tag, name", [
    ("V", "vertical scan"), ("H", "horizontal scan"), ("I", "IMU sample")])
def test_parse_unsorted_timestamps_names_the_record(tmp_path, tag, name, stamps, message):
    # The stream's stamps are 0.0 and then ``stamps``; the other streams are
    # sorted.
    values = IDENTITY if tag == "I" else "1.0"
    lines = [f"{tag} {t} {values}" for t in ("0.0", *stamps)]
    lines += ["V 0.0 1.0"] if tag == "I" else [f"I 0.0 {IDENTITY}"]
    path = tmp_path / "scan.log"
    path.write_text(HEADER + "\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(UnsortedTimestamps, match=f"^{name} {message}$"):
        parse_scan_log(path)


def test_parse_empty_log(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\n", encoding="ascii")
    with pytest.raises(EmptyLog):
        parse_scan_log(path)


def test_parse_requires_imu_before_first_scan(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"V 0.0 1.0\nI 1.0 {IDENTITY}\n", encoding="ascii")
    with pytest.raises(MalformedRecord):
        parse_scan_log(path)


def test_parse_invalid_ranges_masked(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER + f"I 0.0 {IDENTITY}\nV 0.0 0.0 5.0 31.0\n", encoding="ascii"
    )
    log = parse_scan_log(path)
    # The readings stay as written; only the 5.0 m return at ray 1 is valid.
    assert list(log.vertical.records[0]) == [0.0, 5.0, 31.0]
    expected = polar_to_local_arrays([5.0], [log.angle_min + log.angle_inc])
    assert np.array_equal(
        local_points(log, log.vertical.records[0], polar_to_local_arrays), expected
    )


def test_parse_header_after_first_record(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(
        HEADER + f"I 0.0 {IDENTITY}\nV 0.0 1.0 2.0\n# angle_inc 0.01\nV 0.1 1.0\n",
        encoding="ascii",
    )
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert err.value.line == 6


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["angle_min", "angle_inc", "range_max", "scan_period"])
def test_device_values_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        DeviceParams(**{name: value})


@pytest.mark.parametrize("key, value", [
    ("angle_inc", "inf"), ("range_max", "inf"), ("range_max", "Infinity"),
    ("range_max", "1e400"), ("angle_min", "-inf"),
])
def test_parse_infinite_header_value_names_the_line(tmp_path, key, value):
    header = {"angle_min": "-0.5", "angle_inc": "0.1", "range_max": "30.0", key: value}
    path = tmp_path / "scan.log"
    path.write_text("".join(f"# {k} {v}\n" for k, v in header.items())
                    + f"I 0.0 {IDENTITY}\nV 0.0 1.0\n", encoding="ascii")
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert (err.value.line, err.value.reason) == (
        list(header).index(key) + 1, f"{key} must be finite")


# Spellings that float() reads (and the parser must too) next to ones it
# rejects; every range record is parsed in one call, or token by token only
# to name the bad token.
GOOD_RANGES = ["1_0", "+1e-3", ".5", "5.", "-0", "1E+2", "inf", "Infinity",
               "1e400", "1e-400", "0"]


def test_parse_range_spellings_read_as_float_reads_them(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nV 0.0 {' '.join(GOOD_RANGES)}\n",
                    encoding="ascii")
    ranges = parse_scan_log(path).vertical.records[0]
    assert ranges.tobytes() == np.array([float(t) for t in GOOD_RANGES]).tobytes()


@pytest.mark.parametrize("tokens, message", [
    ("1.0 x 2.0 nan", "bad range 'x'"),
    ("1.0 nan 2.0 x", "range is NaN"),
    ("1.0 0x10 2.0", "bad range '0x10'"),
    ("1.0 -nan", "range is NaN"),
    ("1.0 -2.0 x", "bad range 'x'"),
    ("1.0 -2.0 3.0", "negative range reading"),
])
def test_parse_bad_range_names_the_line_and_first_bad_token(tmp_path, tokens, message):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nV 0.0 1.0\nH 0.1 {tokens}\n",
                    encoding="ascii")
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert (err.value.line, err.value.reason) == (6, message)


@pytest.mark.parametrize("record", ["V nan 1.0", "H NaN 1.0 2.0", f"I -nan {IDENTITY}"])
def test_parse_nan_timestamp_names_the_line(tmp_path, record):
    # The parser is the one guard: no later stage checks a stamp again.
    path = tmp_path / "scan.log"
    path.write_text(HEADER + f"I 0.0 {IDENTITY}\nV 0.0 1.0\n{record}\n", encoding="ascii")
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert (err.value.line, err.value.reason) == (6, "timestamp is NaN")


def test_parse_bad_rotation_entry_names_the_token(tmp_path):
    path = tmp_path / "scan.log"
    path.write_text(HEADER + "I 0.0 1.0 0.0 0.0 0.0 one 0.0 0.0 0.0 1.0\n", encoding="ascii")
    with pytest.raises(MalformedRecord) as err:
        parse_scan_log(path)
    assert (err.value.line, err.value.reason) == (4, "bad rotation entry 'one'")


# The block pass (ingest._parse_block) against the line parser alone. Either
# way a file must give the same log, bit for bit, or the same error.

def _stream(stream):
    return (stream.stamps.dtype.str, stream.stamps.tobytes(),
            [(r.dtype.str, r.shape, r.tobytes()) for r in stream.records])


def parse_outcome(path, block_pass=True):
    """What parse_scan_log makes of a file: every value of the log, or the
    error's type, message and line."""
    with contextlib.ExitStack() as stack:
        if not block_pass:
            stack.enter_context(mock.patch.object(ingest, "_parse_block", lambda *a: None))
        try:
            log = parse_scan_log(path)
        except (ScanPlanError, ValueError) as err:
            return type(err), str(err), getattr(err, "line", None)
    return (
        _stream(log.vertical),
        _stream(log.horizontal),
        _stream(log.imu),
        np.array([log.angle_min, log.angle_inc, log.range_max]).tobytes(),
    )


def assert_block_pass_agrees(path, block_lines):
    """The outcome of both parsers at ``block_lines`` lines per block, and
    how many blocks the block pass took."""
    taken = []

    def spy(*args):
        parsed = block_pass(*args)
        taken.append(parsed is not None)
        return parsed

    block_pass = ingest._parse_block
    with warnings.catch_warnings(), mock.patch.object(ingest, "_READ_BLOCK_LINES", block_lines):
        warnings.simplefilter("error")
        with mock.patch.object(ingest, "_parse_block", spy):
            fast = parse_outcome(path)
        assert fast == parse_outcome(path, block_pass=False)
    return fast, sum(taken)


SMALL_HEADER = "# angle_min -0.5\n# angle_inc 0.1\n# range_max 30.0\n"
# Lines 4 to 11 after SMALL_HEADER; in blocks of 4 lines, 4-7 and 8-11.
SMALL_RECORDS = [
    f"I 0.0 {IDENTITY}", "V 0.0 1.0 2.0 3.0", "H 0.0 1.5 2.5 3.5", f"I 0.5 {IDENTITY}",
    "V 0.5 1.0 2.0 3.0", "H 0.5 1.5 2.5 3.5", f"I 1.0 {IDENTITY}", "V 1.0 4.0 5.0 6.0",
]
BAD_ROTATION = "I 0.5 2.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0"


@pytest.mark.parametrize("edits, error", [
    ({4: "V 0.5 1.0 -2.0 3.0"}, (8, "negative range reading")),
    ({3: BAD_ROTATION}, (7, "rotation not orthonormal: max |R^T R - I| = 3.000e+00")),
    ({1: "V 0.0 -1.0", 3: BAD_ROTATION}, (5, "negative range reading")),
    ({1: "V 0.0 1.0", 4: "V 0.5 1.0 2.0 3.0 4.0 5.0", 5: "H 0.5 1.0 2.0"}, None),
    ({5: "# a note\nH 0.5 1.5 2.5 3.5"}, None),
    ({5: "# angle_inc 0.2\nH 0.5 1.5 2.5 3.5"},
     (9, "header line '# angle_inc ...' after the first record")),
], ids=["first_of_block", "last_of_block", "scan_before_imu", "width_change",
        "comment_mid_file", "header_mid_file"])
def test_block_boundaries_give_the_line_parser_outcome(tmp_path, edits, error):
    records = [edits.get(k, line) for k, line in enumerate(SMALL_RECORDS)]
    path = tmp_path / "scan.log"
    path.write_text(SMALL_HEADER + "\n".join(records) + "\n", encoding="ascii")
    outcome, taken = assert_block_pass_agrees(path, 4)
    if error is None:
        assert isinstance(outcome, tuple) and len(outcome) == 4
        assert taken >= 1
    else:
        assert outcome[0] is MalformedRecord and outcome[2] == error[0]
        assert outcome[1] == f"line {error[0]}: {error[1]}"


def test_bad_record_before_a_non_ascii_byte_is_named(tmp_path):
    # Both lie in one block, 16 KB apart: the record is read first.
    ranges = " ".join(["1.0"] * 1000)
    lines = [f"I 0.0 {IDENTITY}", f"V 0.0 {ranges}", "V 0.1 -1.0"]
    lines += [f"V {0.2 + k / 10} {ranges}" for k in range(4)] + ["V 1.0 \xe9"]
    path = tmp_path / "scan.log"
    path.write_bytes((HEADER + "\n".join(lines) + "\n").encode("latin-1"))
    outcome, _ = assert_block_pass_agrees(path, ingest._READ_BLOCK_LINES)
    assert outcome == (MalformedRecord, "line 6: negative range reading", 6)


@pytest.mark.parametrize("gap", [0, 100, 20_000])
def test_a_non_ascii_byte_soon_after_a_bad_record_leaves_the_record_named(tmp_path, gap):
    # A text file is decoded some kilobytes at a time: a non-ASCII byte in
    # the same stretch as an earlier bad record must not hide the record.
    lines = [f"I 0.0 {IDENTITY}", "V 0.0 1.0 1.0", "V 0.1 1.0 1.0", "V 0.15 1.0 -2.0"]
    if gap:
        lines.append("#" + "x" * (gap - 2))
    lines.append("V 0.2 1.0 \xe9 1.0")
    path = tmp_path / "scan.log"
    path.write_bytes((HEADER + "\n".join(lines) + "\n").encode("latin-1"))
    outcome, _ = assert_block_pass_agrees(path, ingest._READ_BLOCK_LINES)
    assert outcome == (MalformedRecord, "line 7: negative range reading", 7)


@pytest.mark.parametrize("line", [1, 6])
def test_a_non_ascii_byte_is_named_by_its_line(tmp_path, line):
    lines = HEADER.splitlines() + [f"I 0.0 {IDENTITY}", "V 0.0 1.0 1.0", "V 0.1 1.0 1.0"]
    lines[line - 1] += " \xe9"
    path = tmp_path / "scan.log"
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    outcome, _ = assert_block_pass_agrees(path, ingest._READ_BLOCK_LINES)
    assert outcome == (MalformedRecord, f"line {line}: non-ASCII byte", line)


def test_a_room_log_is_held_in_a_few_arrays(tmp_path):
    log = simulate_yaw_scan(
        open_walls(), n_scans=360, yaw_span=math.radians(60.0),
        device=DeviceParams(angle_inc=math.radians(1.0), rays_per_scan=181),
        range_noise=0.005, seed=1,
    )
    path = tmp_path / "sweep.log"
    write_scan_log(path, log)
    back = parse_scan_log(path)
    scans = back.vertical.records + back.horizontal.records
    bases = {id(ranges.base) for ranges in scans if ranges.base is not None}
    assert all(ranges.base is not None for ranges in scans)
    assert len(bases) <= math.ceil(3 * 360 / ingest._READ_BLOCK_LINES) + 1
    for a, b in zip(log.vertical.records + log.horizontal.records, scans):
        assert a.tobytes() == b.tobytes()


def _rotation_tokens(angle):
    c, s = math.cos(angle), math.sin(angle)
    return [repr(v) for v in (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)]


# Tokens: canonical numbers most of the time, then spellings float reads
# but the block pass does not take, then ones that make an error.
range_tokens = st.one_of(
    st.floats(0.0, 40.0).map(repr),
    st.sampled_from(["0", "-0", "-0.0", "1e400", "1e-400", ".5", "5.", "+2", "1E+1",
                     "1_0", "inf", "nan", "-1.5", "x", "1e", "--1", "1.5.2", "0x1"]),
    st.text("0123456789.-+eE", min_size=1, max_size=5),
)
stamp_tokens = st.one_of(
    st.floats(0.0, 100.0).map(repr),
    st.sampled_from(["-1.0", "-0", "nan", "1e400", "t"]),
)


@st.composite
def log_lines(draw):
    kind = draw(st.sampled_from("VHIVHIVHI#X "))
    if kind == "#":
        return draw(st.sampled_from(["# note", "# angle_inc 0.1", "#"]))
    if kind == " ":
        return draw(st.sampled_from(["", "   ", "V", "H ", "I  "]))
    stamp = draw(stamp_tokens)
    if kind == "I":
        tokens = _rotation_tokens(draw(st.floats(-3.0, 3.0)))
        if draw(st.integers(0, 9)) == 0:
            tokens[draw(st.integers(0, 8))] = draw(range_tokens)
        tokens = tokens[:draw(st.sampled_from([9, 9, 9, 8]))]
    else:
        width = draw(st.sampled_from([1, 2, 3, 5, 30, 0]))
        tokens = draw(st.lists(st.floats(0.0, 40.0).map(repr), min_size=width,
                               max_size=width))
        if tokens and draw(st.integers(0, 4)) == 0:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(range_tokens)
    sep = draw(st.sampled_from([" ", " ", " ", "  ", "\t"]))
    return sep.join([kind, stamp, *tokens]) + draw(st.sampled_from(["", "", " "]))


@st.composite
def log_files(draw):
    header = SMALL_HEADER.splitlines()
    if draw(st.integers(0, 9)) == 0:
        del header[draw(st.integers(0, 2))]
    body = draw(st.lists(log_lines(), max_size=24))
    ends = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return ends.join(header + [f"I 0.0 {IDENTITY}"] + body) + ends


@settings(max_examples=300, deadline=None)
@given(text=log_files(), block_lines=st.sampled_from([1, 2, 3, 5, 128]))
def test_block_pass_matches_the_line_parser(text, block_lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.log"
        path.write_bytes(text.encode("ascii"))
        assert_block_pass_agrees(path, block_lines)


def test_block_pass_matches_the_line_parser_on_canonical_bytes(tmp_path):
    # Lines of random bytes from the block pass's alphabet, among records
    # that mostly convert, so that most blocks pass and some fail late.
    rng = np.random.default_rng(7)
    alphabet = np.array(list("0123456789.-+eE VHI"))
    path = tmp_path / "scan.log"
    taken = 0
    for _ in range(300):
        lines = [f"I 0.0 {IDENTITY}"]
        for k in range(int(rng.integers(1, 16))):
            if rng.random() < 0.1:
                lines.append("".join(rng.choice(alphabet, int(rng.integers(1, 30)))))
                continue
            tag = str(rng.choice(list("VHI")))
            values = (_rotation_tokens(0.1 * k) if tag == "I" else
                      [repr(float(v)) for v in rng.uniform(0, 9, int(rng.integers(0, 6)))])
            for j in np.nonzero(rng.random(len(values)) < 0.05)[0]:
                values[j] = "".join(rng.choice(alphabet[:15], int(rng.integers(1, 5))))
            lines.append(" ".join([tag, repr(0.5 * k), *values]))
        path.write_text(SMALL_HEADER + "\n".join(lines) + "\n", encoding="ascii")
        taken += assert_block_pass_agrees(path, int(rng.choice([1, 2, 4, 128])))[1]
    assert taken > 300


def test_write_scan_log_bytes_equal_the_per_value_writer(tmp_path):
    log = simulate_yaw_scan(
        open_walls(), station=(0.1, -0.2, 0.0), n_scans=6,
        yaw_span=math.radians(30.0), drift_per_scan=(0.01, 0.0, 0.0),
        device=DeviceParams(angle_inc=math.radians(1.0), rays_per_scan=271),
        range_noise=0.005, seed=3,
    )
    edge = np.array([-0.0, 0.0, 1e-300, 1e300, 5e-324, 2.0**53, 0.1])
    log = dataclasses.replace(log, vertical=Stream(
        log.vertical.stamps, (edge,) + log.vertical.records[1:]))
    write_scan_log(tmp_path / "new.log", log)
    write_scan_log_per_value(tmp_path / "old.log", log)
    assert (tmp_path / "new.log").read_bytes() == (tmp_path / "old.log").read_bytes()


@pytest.mark.parametrize("stream", ["vertical", "horizontal"])
def test_write_scan_log_refuses_a_scan_with_no_ranges(tmp_path, stream):
    # The parser rejects a scan record without ranges, so the writer must
    # not make one.
    log = simulate_yaw_scan(open_walls(), station=(0.0, 0.0, 0.0), n_scans=4,
                            yaw_span=math.radians(10.0), seed=0)
    scans = getattr(log, stream)
    stamps = scans.stamps.copy()
    stamps[1] = 0.125
    records = (scans.records[0], np.zeros(0)) + scans.records[2:]
    log = dataclasses.replace(log, **{stream: Stream(stamps, records)})
    path = tmp_path / "empty.log"
    with pytest.raises(ValueError, match=rf"^{stream} scan at 0\.125 s has no ranges$"):
        write_scan_log(path, log)
    assert not path.exists()


def test_write_read_round_trip(tmp_path):
    log = simulate_yaw_scan(
        open_walls(), station=(0.1, -0.2, 0.0), n_scans=6,
        yaw_span=math.radians(30.0), drift_per_scan=(0.01, 0.0, 0.0),
        device=DeviceParams(angle_inc=math.radians(1.0), rays_per_scan=271),
        range_noise=0.005, seed=3,
    )
    path = tmp_path / "sim.log"
    write_scan_log(path, log)
    back = parse_scan_log(path)
    assert len(back.vertical) == len(log.vertical)
    assert len(back.horizontal) == len(log.horizontal)
    assert len(back.imu) == len(log.imu)
    assert np.array_equal(log.vertical.stamps, back.vertical.stamps)
    for a, b in zip(log.vertical.records, back.vertical.records):
        assert np.array_equal(a, b)  # repr round-trip is exact
    for a, b in zip(log.imu.records, back.imu.records):
        assert np.array_equal(a, b)


def test_in_memory_log_matches_its_file_round_trip(tmp_path):
    # Noisy returns just inside range_max land past it. Whether the log comes
    # from the simulator or from its file, those readings are invalid.
    device = DeviceParams(range_max=4.5, angle_inc=math.radians(0.5), rays_per_scan=541)
    log = simulate_yaw_scan(open_walls(), station=(0.0, 0.0, 1.0), device=device,
                            n_scans=12, yaw_span=math.radians(30.0),
                            range_noise=0.01, seed=0)
    assert any((ranges > device.range_max).any() for ranges in log.horizontal.records)
    path = tmp_path / "sim.log"
    write_scan_log(path, log)
    back = parse_scan_log(path)

    track = estimate_pose_track(log, IcpConfig())
    track_back = estimate_pose_track(back, IcpConfig())
    assert len(track) == len(track_back) == len(log.vertical)
    for pose, pose_back in zip(track, track_back):
        assert pose.translation.tobytes() == pose_back.translation.tobytes()
        assert pose.rotation.tobytes() == pose_back.rotation.tobytes()
    cloud = build_cloud(log, track)
    cloud_back = build_cloud(back, track_back)
    assert cloud.points.tobytes() == cloud_back.points.tobytes()
    assert cloud.sources.tobytes() == cloud_back.sources.tobytes()


def test_pose_track_stationary_zero_translation():
    log = simulate_yaw_scan(open_walls(), n_scans=10, yaw_span=0.0,
                            device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    for pose in track:
        assert np.linalg.norm(pose.translation) <= 1e-6
    assert np.allclose(track[0].rotation, np.eye(3))


def test_pose_track_pure_yaw_zero_translation():
    log = simulate_yaw_scan(open_walls(), n_scans=24,
                            yaw_span=math.radians(60.0), device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    for pose in track:
        assert np.linalg.norm(pose.translation) <= 1e-3


def test_pose_track_recovers_drift():
    drift = (0.05, 0.0, 0.0)
    n = 24
    log = simulate_yaw_scan(open_walls(), n_scans=n, yaw_span=math.radians(60.0),
                            drift_per_scan=drift, device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    truth = scan_truth((0.0, 0.0, 0.0), n, yaw_span=math.radians(60.0),
                       drift_per_scan=drift)
    recovered = track[-1].translation
    expected = np.asarray(truth[-1]["position"])
    assert np.linalg.norm(recovered - expected) <= 0.1 * np.linalg.norm(expected)


def test_pose_track_rotations_passthrough():
    log = simulate_yaw_scan(open_walls(), n_scans=8, yaw_span=math.radians(40.0),
                            device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    imu_by_t = dict(zip(log.imu.stamps.tolist(), log.imu.records))
    assert len(track) == len(log.vertical)
    for t, pose in zip(log.vertical.stamps.tolist(), track):
        assert np.array_equal(pose.rotation, imu_by_t[t])


def test_pose_track_needs_two_horizontal_scans():
    log = simulate_yaw_scan(open_walls(), n_scans=1, yaw_span=0.0,
                            device=fine_device())
    with pytest.raises(ValueError):
        estimate_pose_track(log, IcpConfig())


def test_pose_track_needs_imu_samples():
    none = Stream([], [])
    log = ScanLog(none, Stream([0.0, 0.1], [[1.0], [1.0]]), none, 0.0, 0.1, 30.0)
    with pytest.raises(ValueError, match="pose-track estimation needs IMU samples") as err:
        estimate_pose_track(log, IcpConfig())
    assert err.type is ValueError


def test_build_cloud_single_scan_identity_pose():
    none = Stream([], [])
    log = ScanLog(Stream([0.0], [[1.0, 2.0]]), none, none, -0.1, 0.2, 30.0)
    cloud = build_cloud(log, [Pose.identity()])
    assert len(cloud) == 2
    expected = [[-1.0 * math.cos(-0.1), 0.0, -1.0 * math.sin(-0.1)],
                [-2.0 * math.cos(0.1), 0.0, -2.0 * math.sin(0.1)]]
    assert np.allclose(cloud.points, expected)
    assert np.array_equal(cloud.sources, [0, 0])


def test_build_cloud_empty_vertical_scans():
    none = Stream([], [])
    log = ScanLog(none, none, none, 0.0, 0.1, 30.0)
    cloud = build_cloud(log, [])
    assert len(cloud) == 0


def test_build_cloud_missing_pose():
    # Scans and poses pair by index, so a track one pose short or one long
    # is refused rather than paired out of step.
    none = Stream([], [])
    log = ScanLog(Stream([0.0, 5.0], [[1.0], [1.0]]), none, none, 0.0, 0.1, 30.0)
    for n_poses in (1, 3):
        with pytest.raises(ValueError):
            build_cloud(log, [Pose.identity()] * n_poses)


def test_build_cloud_size_equals_valid_points():
    log = simulate_yaw_scan(open_walls(), n_scans=6, yaw_span=math.radians(30.0),
                            device=fine_device())
    track = estimate_pose_track(log, IcpConfig())
    cloud = build_cloud(log, track)
    expected = sum(
        int(np.count_nonzero((ranges > 0) & (ranges <= log.range_max)))
        for ranges in log.vertical.records
    )
    assert len(cloud) == expected

    # A middle scan with no valid return adds no point, and the scans on
    # either side keep their points and tags, in scan order.
    scans = list(log.vertical.records)
    scans[3] = np.zeros_like(scans[3])
    log = dataclasses.replace(log, vertical=Stream(log.vertical.stamps, scans))
    cloud = build_cloud(log, track)
    parts = [pose.apply(local_points(log, ranges, polar_to_local_arrays))
             for ranges, pose in zip(log.vertical.records, track)]
    assert len(parts[3]) == 0
    reference = PointCloud(np.vstack(parts),
                           np.repeat(np.arange(len(parts)), [len(p) for p in parts]))
    assert cloud.points.tobytes() == reference.points.tobytes()
    assert cloud.sources.tobytes() == reference.sources.tobytes()


def test_build_cloud_holds_little_more_than_its_output():
    # The points are one array allocated once, not per-scan parts stacked
    # at the end, so the peak stays near the output's own size.
    log = simulate_yaw_scan(preset_scene("room"), station=(0, 0, 1.5), n_scans=72)
    track = estimate_pose_track(log, IcpConfig())
    tracemalloc.start()
    try:
        cloud = build_cloud(log, track)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = cloud.points.nbytes + cloud.sources.nbytes
    assert peak <= 1.5 * size, f"build_cloud peaked at {peak / size:.2f} x its output"


def test_full_yaw_room_reconstruction_with_truth_track():
    # 360 deg sweep inside a square room; score against the analytic walls.
    room = preset_scene("room")
    dev = DeviceParams(angle_inc=math.radians(0.75), rays_per_scan=361)
    noise = 0.01
    log = simulate_yaw_scan(room, station=(0.0, 0.0, 1.5), n_scans=72,
                            yaw_span=2.0 * math.pi, device=dev,
                            range_noise=noise, seed=5)
    truth = scan_truth((0.0, 0.0, 1.5), 72, yaw_span=2.0 * math.pi)
    cloud = build_cloud(log, true_pose_track(truth))
    assert len(cloud) > 3000
    p = cloud.points
    wall_dist = np.minimum.reduce([
        np.abs(p[:, 0] - 4.0), np.abs(p[:, 0] + 4.0),
        np.abs(p[:, 1] - 4.0), np.abs(p[:, 1] + 4.0),
    ])
    rms = float(np.sqrt(np.mean(wall_dist**2)))
    assert rms <= 2.0 * noise


# Stamps within 1e300 of zero keep every difference finite.
stamp_floats = st.floats(-1e300, 1e300)
stamp_lists = st.lists(stamp_floats, min_size=1, max_size=40, unique=True).map(sorted)


def probe_times(stamps):
    """Each stamp, each midpoint between neighbours, and points past both ends."""
    mids = [a / 2 + b / 2 for a, b in zip(stamps, stamps[1:])]
    return stamps + mids + [stamps[0] - 1.0, stamps[-1] + 1.0, 0.0, -0.0]


@settings(max_examples=200, deadline=None)
@given(stamps=stamp_lists, extra=stamp_floats)
def test_nearest_sample_matches_argmin(stamps, extra):
    ts = np.array(stamps)
    for t in probe_times(stamps) + [extra]:
        assert _nearest_sample(ts, t) == argmin_nearest_sample(ts, t)


def test_nearest_sample_ties_go_to_the_earlier_sample():
    ts = np.array([0.0, 1.0, 2.0, 4.0])
    assert _nearest_sample(ts, 0.5) == 0
    assert _nearest_sample(ts, 3.0) == 2
    assert _nearest_sample(ts, 9.0) == 3
    assert _nearest_sample(ts, -9.0) == 0
    # Far from t, two distinct stamps round to the same difference; the
    # earlier one wins, as in an argmin over all differences.
    ts = np.array([1.0, np.nextafter(1.0, 2.0), 3e20])
    assert _nearest_sample(ts, 1e20) == argmin_nearest_sample(ts, 1e20) == 0
