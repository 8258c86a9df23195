import math
import struct
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from robomem.errors import InvalidRecord
from robomem.model import (
    ActivityEvent,
    Detection,
    FrameMeta,
    LocationEstimate,
    Pose,
    mat2_eigvals,
    mat2_is_spd,
    record_to_json,
    ts_format,
    ts_from_micros,
    ts_parse,
    ts_to_micros,
    validate_record,
)
from robomem.ingest import parse_feed_line
from robomem.segment import decode_payload, encode_record, scan_segment
import json

T0 = ts_parse("2019-06-01T00:00:00Z")


def test_valid_frame_record():
    validate_record(FrameMeta(frame_id=0, ts=T0, pose=Pose(0, 0, 0, 0, 0, 0)))


def test_confidence_bound_violation():
    with pytest.raises(InvalidRecord) as ei:
        validate_record(Detection(frame_id=1, label="remote", kind="object", confidence=1.2))
    assert ei.value.field == "confidence"
    assert "out of [0,1]" in ei.value.reason


def test_referential_integrity_at_ingest():
    det = Detection(frame_id=99, label="remote", kind="object", confidence=0.5)
    with pytest.raises(InvalidRecord) as ei:
        validate_record(det, frame_exists=lambda f: f in {1, 2})
    assert ei.value.field == "frame_id"
    assert ei.value.reason == "unknown frame"


def test_angle_normalization():
    p = Pose(0, 0, 0, roll=270.0, pitch=-181.0, yaw=180.0).normalized()
    assert p.roll == -90.0
    assert p.pitch == 179.0
    assert p.yaw == -180.0


def test_activity_inverted_interval_rejected():
    ev = ActivityEvent(subject="dad", name="sleep",
                       start=ts_parse("2019-06-02T00:00:00Z"), end=T0)
    with pytest.raises(InvalidRecord):
        validate_record(ev)


def test_timestamp_micros_roundtrip():
    ts = ts_parse("2019-06-01T12:34:56.789012Z")
    assert ts_from_micros(ts_to_micros(ts)) == ts
    assert ts_parse(ts_format(ts)) == ts


offsets = st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                                            max_value=timedelta(hours=23, minutes=59)))
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@given(dt=st.datetimes(min_value=datetime(1900, 1, 2), max_value=datetime(2040, 12, 31),
                       timezones=offsets))
def test_ts_to_micros_matches_the_float_formula(dt):
    """Within 2^51 us of the epoch, where a double's rounding cannot move
    the count by half a microsecond, the integer count equals the float
    formula it replaced, whatever the offset."""
    assert ts_to_micros(dt) == round((dt.astimezone(timezone.utc) - EPOCH).total_seconds() * 1e6)


@given(dt=st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31),
                       timezones=offsets))
def test_ts_to_micros_is_exact(dt):
    """Every aware datetime maps to its exact microsecond count: the count
    maps back to the same instant, and the next microsecond counts one more."""
    us = ts_to_micros(dt)
    assert ts_from_micros(us) == dt
    assert ts_to_micros(dt + timedelta(microseconds=1)) == us + 1


finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
angles = st.floats(min_value=-180.0, max_value=179.5, width=32)
coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(
    frame_id=st.integers(min_value=0, max_value=2**31 - 1),
    ts_us=st.integers(min_value=0, max_value=4 * 10**15),
    x=coords, y=coords, z=finite, roll=angles, pitch=angles, yaw=angles,
)
def test_frame_json_and_binary_roundtrip(frame_id, ts_us, x, y, z, roll, pitch, yaw):
    # parse normalizes angles once; round-tripping the normalized form is lossless
    pose = Pose(x=x, y=y, z=z, roll=roll, pitch=pitch, yaw=yaw).normalized()
    fm = FrameMeta(frame_id=frame_id, ts=ts_from_micros(ts_us), pose=pose.normalized())
    back = parse_feed_line(json.dumps(record_to_json(fm)))
    assert back == fm
    # binary keeps x/y exact; z and angles go through f32
    records, good = scan_segment(encode_record(fm))
    assert len(records) == 1
    dec = records[0]
    assert dec.frame_id == fm.frame_id and dec.ts == fm.ts
    assert dec.pose.x == fm.pose.x and dec.pose.y == fm.pose.y
    for name in ("z", "roll", "pitch", "yaw"):
        want = struct.unpack("<f", struct.pack("<f", getattr(fm.pose, name)))[0]
        assert getattr(dec.pose, name) == want


@given(
    frame_id=st.integers(min_value=0, max_value=2**31 - 1),
    label=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=24),
    kind=st.sampled_from(["object", "person"]),
    conf=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_detection_roundtrip(frame_id, label, kind, conf):
    det = Detection(frame_id=frame_id, label=label, kind=kind, confidence=conf)
    assert parse_feed_line(json.dumps(record_to_json(det))) == det
    records, _ = scan_segment(encode_record(det))
    assert records == [det]


@given(
    subject=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12),
    name=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=16),
    start_us=st.integers(min_value=0, max_value=10**15),
    dur_us=st.integers(min_value=0, max_value=10**12),
    prob=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    with_loc=st.booleans(),
    reproc=st.booleans(),
)
def test_activity_roundtrip(subject, name, start_us, dur_us, prob, with_loc, reproc):
    loc = LocationEstimate(mean=(1.5, -2.25), cov=((4.0, 0.5), (0.5, 2.0))) if with_loc else None
    ev = ActivityEvent(subject=subject, name=name,
                       start=ts_from_micros(start_us), end=ts_from_micros(start_us + dur_us),
                       loc=loc, prob=prob,
                       provenance="reprocessed" if reproc else "ingested")
    assert parse_feed_line(json.dumps(record_to_json(ev))) == ev
    records, _ = scan_segment(encode_record(ev))
    assert records == [ev]


def test_frame_record_fits_compact_budget():
    fm = FrameMeta(frame_id=13319, ts=T0,
                   pose=Pose(x=-3.25, y=9.5, z=0.4, roll=1.0, pitch=-2.0, yaw=179.0))
    assert len(encode_record(fm)) <= 64


def test_spd_check():
    assert mat2_is_spd(((4.0, 0.0), (0.0, 4.0)))
    assert not mat2_is_spd(((4.0, 0.0), (0.0, -1.0)))
    assert not mat2_is_spd(((1.0, 2.0), (2.0, 1.0)))  # negative det
    assert not mat2_is_spd(((1.0, 0.5), (0.4, 1.0)))  # asymmetric
    lo, hi = mat2_eigvals(((2.0, 1.0), (1.0, 2.0)))
    assert math.isclose(lo, 1.0) and math.isclose(hi, 3.0)
