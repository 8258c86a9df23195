"""Binary record codec and segment file I/O.

Segment files are append-only sequences of framed records:

    u8 tag | u16 payload_len | payload | u32 crc32(tag + len + payload)

Little-endian throughout. A torn tail (partial or checksum-failing record at
the end of the *last* segment) is tolerated on open and truncated away; the
same condition in any earlier segment means real corruption.

The six-field frame record encodes in 51 bytes. Pose x/y keep full double
precision (they feed location fusion); z/roll/pitch/yaw are stored as f32,
which is ample for meters and degrees.

A store keeps its frames in a FrameColumns table and its detections in a
DetectionColumns table, one typed array per field, and scan_segment decodes
records straight into them; a FrameMeta or Detection is built only when a
caller asks for one. A migration writes every frame first, so its segments
hold long runs of back-to-back 51-byte frame records. The scan finds such a
run from its header bytes with strided slices, checks every record's CRC,
and cuts each column out of the run with strided copies, so a frame in a
run costs no Python call of its own. Short runs, detections and activities
are read one record at a time.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from bisect import bisect_left, insort
from typing import Optional

from .errors import CorruptSegment
from .model import (
    ActivityEvent,
    Detection,
    FeedRecord,
    FrameMeta,
    KINDS,
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
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}  # as a detection record codes it


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


class DetectionColumns:
    """Detection records as one typed array per field, in append order.

    A detection's seq is its index. It is held as its frame's position in
    `frames`, the FrameColumns of the same store, an interned label id, a
    kind code (0 object, 1 person) and its confidence. `labels` lists the
    label strings by id and `label_ids` maps a label's UTF-8 bytes to its
    id, both filled in first-seen order. The postings of (label id, kind) sit at
    `postings[2 * label_id + kind]`: an array of seqs sorted by (frame
    position, seq), searched with bisect keyed by `position`.
    """

    __slots__ = ("frames", "position", "label_id", "kind", "confidence", "labels", "label_ids",
                 "postings")

    def __init__(self, frames: FrameColumns):
        self.frames = frames
        self.position = array("q")
        self.label_id = array("i")
        self.kind = array("b")
        self.confidence = array("d")
        self.labels: list[str] = []
        self.label_ids: dict[bytes, int] = {}
        self.postings: list[array] = []

    def __len__(self) -> int:
        return len(self.position)

    def intern(self, raw: bytes) -> int:
        """The id of a label given as UTF-8 bytes; raises UnicodeDecodeError
        if it is not valid UTF-8."""
        lid = self.label_ids.get(raw)
        if lid is None:
            label = raw.decode("utf-8")
            lid = self.label_ids[raw] = len(self.labels)
            self.labels.append(label)
            self.postings += (array("q"), array("q"))
        return lid

    def extend(self, positions, label_ids, kinds, confidences) -> None:
        """Append detections given as parallel sequences and post them."""
        seq = len(self.position)
        at = self.position
        at.extend(positions)
        self.label_id.extend(label_ids)
        self.kind.extend(kinds)
        self.confidence.extend(confidences)
        postings = self.postings
        for pos, lid, kind in zip(positions, label_ids, kinds):
            p = postings[2 * lid + kind]
            if p and at[p[-1]] > pos:  # a sighting of an older frame
                insort(p, seq, key=at.__getitem__)
            else:
                p.append(seq)
            seq += 1

    def append(self, position: int, det: Detection) -> None:
        self.extend((position,), (self.intern(det.label.encode("utf-8")),),
                    (_KIND_CODE[det.kind],), (det.confidence,))

    def postings_of(self, label: str, kind: str):
        """The (label, kind) seqs sorted by (frame position, seq); empty if none."""
        lid = self.label_ids.get(label.encode("utf-8", "surrogatepass"))
        return () if lid is None else self.postings[2 * lid + _KIND_CODE[kind]]

    def detection(self, seq: int) -> Detection:
        return Detection(frame_id=self.frames.frame_id[self.position[seq]],
                         label=self.labels[self.label_id[seq]],
                         kind=KINDS[self.kind[seq]], confidence=self.confidence[seq])

    def encode(self, seq: int) -> bytes:
        """The record of detection seq, byte for byte as encode_record writes it."""
        return _frame(TAG_DETECTION, _DET_BODY.pack(
            self.frames.frame_id[self.position[seq]], self.kind[seq], self.confidence[seq],
        ) + self.labels[self.label_id[seq]].encode("utf-8"))

    def select(self, seqs: list[int]) -> "DetectionColumns":
        """A new table of the given detections in the given order, with the
        labels interned afresh."""
        out = DetectionColumns(self.frames)
        lids = [self.label_id[s] for s in seqs]
        remap: dict[int, int] = {}
        for lid in lids:
            if lid not in remap:
                remap[lid] = out.intern(self.labels[lid].encode("utf-8"))
        out.extend([self.position[s] for s in seqs], [remap[lid] for lid in lids],
                   [self.kind[s] for s in seqs], [self.confidence[s] for s in seqs])
        return out


# Back-to-back frame records are cut into the columns in bulk once at least
# _MIN_RUN of them follow each other.
_FRAME_RECORD = _HEADER.size + _FRAME_BODY.size + _CRC.size
_FRAME_HEAD = _HEADER.pack(TAG_FRAME, _FRAME_BODY.size)
_MIN_RUN = 16
# the frame body's fields in order: (column, width in the record, typecode)
_FRAME_FIELDS = (("frame_id", 4, "q"), ("ts_us", 8, "q"), ("x", 8, "d"), ("y", 8, "d"),
                 ("z", 4, "f"), ("roll", 4, "f"), ("pitch", 4, "f"), ("yaw", 4, "f"))
_NATIVE_LE = sys.byteorder == "little"


def _frame_run(data: bytes, off: int) -> int:
    """How many whole records from `off` on carry a frame record's header.

    Reads the header bytes with strided slices over a window that starts
    at _MIN_RUN records and grows fourfold while every record in it is a
    frame, so a short run costs a short probe."""
    whole = (len(data) - off) // _FRAME_RECORD
    most = min(_MIN_RUN, whole)
    while True:
        end = off + most * _FRAME_RECORD
        run = most
        for j in range(_HEADER.size):
            column = data[off + j:end:_FRAME_RECORD]
            run = min(run, most - len(column.lstrip(_FRAME_HEAD[j:j + 1])))
        if run < most or most == whole:
            return run
        most = min(most * 4, whole)


def _gather(data: bytes, start: int, count: int, width: int, typecode: str) -> array:
    """The `width` bytes at `start` of `count` records _FRAME_RECORD apart,
    as an array of little-endian `typecode` items, zero-extended if wider."""
    size = array(typecode).itemsize
    buf = bytearray(count * size)
    end = start + count * _FRAME_RECORD
    for j in range(width):
        buf[j::size] = data[start + j:end:_FRAME_RECORD]
    out = array(typecode, buf)
    if not _NATIVE_LE:
        out.byteswap()
    return out


def _take_frame_run(data: bytes, off: int, count: int, frames: FrameColumns) -> int:
    """Append `count` back-to-back frame records from `off` to the columns.

    Every record's CRC is checked; the run is cut before the first record
    whose CRC fails. Returns how many records were taken."""
    body = _HEADER.size + _FRAME_BODY.size
    crc32 = zlib.crc32
    found = array("I", [crc32(data[rec:rec + body])
                        for rec in range(off, off + count * _FRAME_RECORD, _FRAME_RECORD)])
    stored = _gather(data, off + body, count, _CRC.size, "I")
    if found != stored:
        count = next(i for i, (a, b) in enumerate(zip(found, stored)) if a != b)
    at = off + _HEADER.size
    for name, width, typecode in _FRAME_FIELDS:
        getattr(frames, name).extend(_gather(data, at, count, width, typecode))
        at += width
    return count


def scan_segment(data: bytes, frames: Optional[FrameColumns] = None,
                 detections: Optional[DetectionColumns] = None,
                 ) -> tuple[list[FeedRecord], int]:
    """Decode records from raw segment bytes.

    Returns (records, good_bytes) where good_bytes is the offset of the first
    incomplete or checksum-failing record; everything before it decoded clean.
    Given `frames`, frame records are appended to those columns instead of
    being returned. Given `detections` as well (whose frame table is
    `frames`), so are detection records; their frames must be in `frames`
    by the end of the segment. A run of at least _MIN_RUN back-to-back
    frame records is checked and cut into the columns in bulk, and it stops
    at the offset the record-by-record walk would.
    """
    records: list[FeedRecord] = []
    rows: list[tuple] = []  # frame bodies bound for `frames`
    sighted: list[int] = []  # frame ids of the detections bound for `detections`
    label_ids, kinds, confidences = array("i"), array("b"), array("d")
    take_frames = frames is not None
    take_detections = take_frames and detections is not None
    frame_size, det_size = _FRAME_BODY.size, _DET_BODY.size
    head, crc_at = _HEADER.unpack_from, _CRC.unpack_from
    frame_at, det_at = _FRAME_BODY.unpack_from, _DET_BODY.unpack_from
    known = detections.label_ids if take_detections else {}
    run_probe = (_MIN_RUN - 1) * _FRAME_RECORD
    view = memoryview(data)
    off = 0
    n = len(data)
    while off + _HEADER.size + _CRC.size <= n:
        tag, plen = head(data, off)
        if (take_frames and tag == TAG_FRAME and plen == frame_size
                and data.startswith(_FRAME_HEAD, off + run_probe)):
            run = _frame_run(data, off)
            if run >= _MIN_RUN:
                frames.extend(rows)
                rows = []
                took = _take_frame_run(data, off, run, frames)
                off += took * _FRAME_RECORD
                if took < run:
                    break
                continue
        body_end = off + _HEADER.size + plen
        if body_end + _CRC.size > n:
            break
        if zlib.crc32(view[off:body_end]) != crc_at(data, body_end)[0]:
            break
        if take_frames and tag == TAG_FRAME and plen == frame_size:
            rows.append(frame_at(data, off + _HEADER.size))
        elif take_detections and tag == TAG_DETECTION and plen >= det_size:
            frame_id, kind, confidence = det_at(data, off + _HEADER.size)
            raw = data[off + _HEADER.size + det_size:body_end]
            lid = known.get(raw)
            if lid is None:
                try:
                    lid = detections.intern(raw)
                except UnicodeDecodeError:
                    break
            sighted.append(frame_id)
            label_ids.append(lid)
            kinds.append(1 if kind else 0)
            confidences.append(confidence)
        else:
            try:
                records.append(decode_payload(tag, data[off + _HEADER.size:body_end]))
            except (CorruptSegment, struct.error, UnicodeDecodeError):
                break
        off = body_end + _CRC.size
    if take_frames:
        frames.extend(rows)
    if sighted:
        positions = array("q", map(frames.position, sighted))
        if min(positions) < 0:
            raise CorruptSegment(f"detection of unknown frame {sighted[positions.index(-1)]}")
        detections.extend(positions, label_ids, kinds, confidences)
    return records, off


def read_segment(path, tolerate_tail: bool, frames: FrameColumns,
                 detections: DetectionColumns, size: int = -1) -> tuple[list[FeedRecord], int]:
    """Read one segment file, or its first `size` bytes; raise CorruptSegment
    on a torn tail unless tolerated.

    Frame and detection records go into `frames` and `detections`; the
    other records are returned."""
    with open(path, "rb") as fh:
        data = fh.read(size)
    records, good = scan_segment(data, frames, detections)
    if good != len(data) and not tolerate_tail:
        raise CorruptSegment(f"{path}: bad record at offset {good}")
    return records, good
