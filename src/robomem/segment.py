"""Binary record codec and segment file I/O.

Segment files are append-only sequences of framed records:

    u8 tag | u16 payload_len | payload | u32 crc32(tag + len + payload)

Little-endian throughout. A torn tail (partial or checksum-failing record at
the end of the *last* segment) is tolerated on open and truncated away; the
same condition in any earlier segment means real corruption.

The six-field frame record encodes in 51 bytes. Pose x/y keep full double
precision (they feed location fusion); z/roll/pitch/yaw are stored as f32,
which is ample for meters and degrees.

A store keeps its frames in a FrameColumns table, one typed array per field,
and scans frame bodies straight into it; a FrameMeta is built only when a
caller asks for one frame.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from bisect import bisect_left
from typing import Optional

from .errors import CorruptSegment
from .model import (
    ActivityEvent,
    Detection,
    FeedRecord,
    FrameMeta,
    LocationEstimate,
    Pose,
    ts_from_micros,
    ts_to_micros,
)

TAG_FRAME = 1
TAG_DETECTION = 2
TAG_ACTIVITY = 3

_HEADER = struct.Struct("<BH")
_CRC = struct.Struct("<I")
_FRAME_BODY = struct.Struct("<Iq2d4f")
_DET_BODY = struct.Struct("<IBd")
_ACT_HEAD = struct.Struct("<qqdBBH")
_LOC_BODY = struct.Struct("<5d")  # mean x, mean y, cov a, b, d (symmetric)


def _frame(tag: int, payload: bytes) -> bytes:
    head = _HEADER.pack(tag, len(payload))
    body = head + payload
    return body + _CRC.pack(zlib.crc32(body))


def encode_record(record: FeedRecord) -> bytes:
    if isinstance(record, FrameMeta):
        p = record.pose
        payload = _FRAME_BODY.pack(
            record.frame_id, ts_to_micros(record.ts),
            p.x, p.y, p.z, p.roll, p.pitch, p.yaw,
        )
        return _frame(TAG_FRAME, payload)
    if isinstance(record, Detection):
        kind = 0 if record.kind == "object" else 1
        payload = _DET_BODY.pack(record.frame_id, kind, record.confidence)
        payload += record.label.encode("utf-8")
        return _frame(TAG_DETECTION, payload)
    if isinstance(record, ActivityEvent):
        subject = record.subject.encode("utf-8")
        name = record.name.encode("utf-8")
        prov = 1 if record.provenance == "reprocessed" else 0
        has_loc = 1 if record.loc is not None else 0
        payload = _ACT_HEAD.pack(
            ts_to_micros(record.start), ts_to_micros(record.end),
            record.prob, prov, has_loc, len(subject),
        )
        if record.loc is not None:
            m, c = record.loc.mean, record.loc.cov
            payload += _LOC_BODY.pack(m[0], m[1], c[0][0], c[0][1], c[1][1])
        payload += subject + name
        return _frame(TAG_ACTIVITY, payload)
    raise TypeError(f"cannot encode {type(record).__name__}")


def decode_payload(tag: int, payload: bytes) -> FeedRecord:
    if tag == TAG_FRAME:
        f, ts_us, x, y, z, roll, pitch, yaw = _FRAME_BODY.unpack(payload)
        return FrameMeta(frame_id=f, ts=ts_from_micros(ts_us),
                         pose=Pose(x=x, y=y, z=z, roll=roll, pitch=pitch, yaw=yaw))
    if tag == TAG_DETECTION:
        f, kind, conf = _DET_BODY.unpack(payload[:_DET_BODY.size])
        label = payload[_DET_BODY.size:].decode("utf-8")
        return Detection(frame_id=f, label=label,
                         kind="object" if kind == 0 else "person", confidence=conf)
    if tag == TAG_ACTIVITY:
        start_us, end_us, prob, prov, has_loc, subj_len = _ACT_HEAD.unpack(payload[:_ACT_HEAD.size])
        off = _ACT_HEAD.size
        loc: Optional[LocationEstimate] = None
        if has_loc:
            mx, my, ca, cb, cd = _LOC_BODY.unpack(payload[off:off + _LOC_BODY.size])
            loc = LocationEstimate(mean=(mx, my), cov=((ca, cb), (cb, cd)))
            off += _LOC_BODY.size
        subject = payload[off:off + subj_len].decode("utf-8")
        name = payload[off + subj_len:].decode("utf-8")
        return ActivityEvent(subject=subject, name=name,
                             start=ts_from_micros(start_us), end=ts_from_micros(end_us),
                             loc=loc, prob=prob,
                             provenance="reprocessed" if prov else "ingested")
    raise CorruptSegment(f"unknown record tag {tag}")


class FrameColumns:
    """Frame records as one typed array per field, in append order.

    Frame ids are strictly increasing and timestamps non-decreasing along
    the table, so a frame's position is found by bisecting `frame_id` and a
    time range by bisecting `ts_us`. The arrays hold exactly what a frame
    record encodes: x/y as f64, z and the angles as f32.
    """

    __slots__ = ("frame_id", "ts_us", "x", "y", "z", "roll", "pitch", "yaw")

    def __init__(self):
        self.frame_id = array("q")
        self.ts_us = array("q")
        self.x = array("d")
        self.y = array("d")
        self.z = array("f")
        self.roll = array("f")
        self.pitch = array("f")
        self.yaw = array("f")

    def __len__(self) -> int:
        return len(self.frame_id)

    def extend(self, rows) -> None:
        """Append frames given as unpacked frame bodies:
        (frame_id, ts_us, x, y, z, roll, pitch, yaw) rows."""
        if rows:
            columns = (self.frame_id, self.ts_us, self.x, self.y,
                       self.z, self.roll, self.pitch, self.yaw)
            for column, values in zip(columns, zip(*rows)):
                column.extend(values)

    def append_encoded(self, data: bytes) -> None:
        """Append one frame from its encoded record (encode_record's output)."""
        self.extend((_FRAME_BODY.unpack_from(data, _HEADER.size),))

    def position(self, frame_id: int) -> int:
        """Index of a frame id in the table, or -1 if it holds no such frame."""
        ids = self.frame_id
        n = len(ids)
        if not n:
            return -1
        # ids are usually dense, and ids[i] >= ids[0] + i always holds
        i = frame_id - ids[0]
        if 0 <= i < n and ids[i] == frame_id:
            return i
        i = bisect_left(ids, frame_id, 0, min(max(i, 0), n))
        return i if i < n and ids[i] == frame_id else -1

    def frame(self, i: int) -> FrameMeta:
        return FrameMeta(frame_id=self.frame_id[i], ts=ts_from_micros(self.ts_us[i]),
                         pose=Pose(x=self.x[i], y=self.y[i], z=self.z[i],
                                   roll=self.roll[i], pitch=self.pitch[i], yaw=self.yaw[i]))

    def encode(self, i: int) -> bytes:
        """The record of frame i, byte for byte as encode_record wrote it."""
        return _frame(TAG_FRAME, _FRAME_BODY.pack(
            self.frame_id[i], self.ts_us[i], self.x[i], self.y[i],
            self.z[i], self.roll[i], self.pitch[i], self.yaw[i]))


def scan_segment(data: bytes, frames: Optional[FrameColumns] = None,
                 ) -> tuple[list[FeedRecord], int]:
    """Decode records from raw segment bytes.

    Returns (records, good_bytes) where good_bytes is the offset of the first
    incomplete or checksum-failing record; everything before it decoded clean.
    Given `frames`, frame records are appended to those columns instead of
    being returned.
    """
    records: list[FeedRecord] = []
    rows: list[tuple] = []  # frame bodies bound for `frames`
    take_frames = frames is not None
    frame_size = _FRAME_BODY.size
    head, crc_at, frame_at = _HEADER.unpack_from, _CRC.unpack_from, _FRAME_BODY.unpack_from
    view = memoryview(data)
    off = 0
    n = len(data)
    while off + _HEADER.size + _CRC.size <= n:
        tag, plen = head(data, off)
        body_end = off + _HEADER.size + plen
        if body_end + _CRC.size > n:
            break
        if zlib.crc32(view[off:body_end]) != crc_at(data, body_end)[0]:
            break
        if take_frames and tag == TAG_FRAME and plen == frame_size:
            rows.append(frame_at(data, off + _HEADER.size))
        else:
            try:
                records.append(decode_payload(tag, data[off + _HEADER.size:body_end]))
            except (CorruptSegment, struct.error, UnicodeDecodeError):
                break
        off = body_end + _CRC.size
    if take_frames:
        frames.extend(rows)
    return records, off


def read_segment(path, tolerate_tail: bool, frames: FrameColumns,
                 ) -> tuple[list[FeedRecord], int]:
    """Read one segment file; raise CorruptSegment on a torn tail unless tolerated.

    Frame records go into `frames`; the other records are returned."""
    with open(path, "rb") as fh:
        data = fh.read()
    records, good = scan_segment(data, frames)
    if good != len(data) and not tolerate_tail:
        raise CorruptSegment(f"{path}: bad record at offset {good}")
    return records, good
