"""Binary record codec and segment file I/O.

A segment file is a record log or a sealed block. A log is an append-only
sequence of framed records:

    u8 tag | u16 payload_len | payload | u32 crc32(tag + len + payload)

Little-endian throughout. A torn tail (partial or checksum-failing record at
the end of the log) is tolerated on open and truncated away; the same
condition in any other segment means real corruption. The store's
refine-state log uses the same framing (frame_record, framed_records).

Besides the frame, detection and activity records of the feed, a log holds
two record tags of the store's own, which are what make its appends
durable without a manifest rewrite:

    TAG_COVER   a coverage row (Cover): subject (or none), activity and the
                analyzed time in us
    TAG_COMMIT  a fixed-size commit record (Commit): the refine cursor, the
                next track id, the tracks and track rows the refine-state
                log holds, and that log's committed length

Read with the offset the manifest has absorbed (scan_segment's `base`),
a log counts every clean record before it, skipping the cover and commit
records there, and past it only the records up to the end of the last
clean commit record.

The six-field frame record encodes in 51 bytes. Pose x/y keep full double
precision (they feed location fusion); z/roll/pitch/yaw are stored as f32,
which is ample for meters and degrees.

A store keeps its frames in a FrameColumns table and its detections in a
DetectionColumns table, one typed array per field, and scan_segment decodes
records straight into them; a FrameMeta or Detection is built only when a
caller asks for one. A log is walked one record at a time. A full segment
is sealed into two blocks, written from slices of the tables: a frame block
(encode_frame_block) holds the segment's frames as zlib'd little-endian
columns, and a detection block (encode_detection_block) holds its
detections as columns, their label table and its activities as framed
records. A column is byte-shuffled before zlib sees it: byte 0 of every
item, then byte 1 of every item, and so on, so the near-constant high bytes
of ids, timestamps and coordinates lie side by side (as Blosc does). Every
frame column is shuffled, and so are a detection block's frame ids and
label indexes; its confidences are not, since zlib matches their few
distinct values as whole repeated doubles. Each block carries one CRC over
the file. Reading a block checks the CRC, decompresses each column, undoes
the shuffle with one slice assignment per byte plane and appends the column
to its table whole, so a frame or detection in a block costs no Python step
of its own beyond the detection's posting; a detection block's frame ids
are placed in the frame table in one pass (FrameColumns.positions). A block
checks or fails as one unit: it is never cut back, since a flush writes it
whole before the manifest names it.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right, insort
from itertools import repeat
from operator import sub
from typing import Callable, Iterator, NamedTuple, Optional, Union

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
TAG_COVER = 5  # tag 4 is a refine-state track row (store.TAG_TRACK)
TAG_COMMIT = 6

_HEADER = struct.Struct("<BH")
_CRC = struct.Struct("<I")
_FRAME_BODY = struct.Struct("<Iq2d4f")
_DET_BODY = struct.Struct("<IBd")
_ACT_HEAD = struct.Struct("<qqdBBH")
_LOC_BODY = struct.Struct("<5d")  # mean x, mean y, cov a, b, d (symmetric)
_COVER_HEAD = struct.Struct("<qqBH")  # from_us, to_us, has a subject, subject length
_COMMIT_BODY = struct.Struct("<QIIQQ")
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}  # as a detection record codes it


class Cover(NamedTuple):
    """A coverage row: time a subject's activity was analyzed over."""
    subject: Optional[str]  # None: any subject
    activity: str
    from_us: int
    to_us: int


class Commit(NamedTuple):
    """What a commit record publishes besides the log's length: the refine
    cursor, the next track id, the tracks and track rows the refine-state
    log holds, and that log's committed length."""
    cursor: int
    next_track_id: int
    tracks: int
    rows: int
    tracks_bytes: int


def frame_record(tag: int, payload: bytes) -> bytes:
    """The framed record of a payload: tag, length, payload, CRC."""
    head = _HEADER.pack(tag, len(payload))
    body = head + payload
    return body + _CRC.pack(zlib.crc32(body))


def framed_records(data: bytes) -> Iterator[tuple[int, bytes]]:
    """The (tag, payload) of each framed record of data, which must be
    whole CRC-clean records; raises CorruptSegment at the first that is not."""
    off, n = 0, len(data)
    while off < n:
        if off + _HEADER.size + _CRC.size > n:
            raise CorruptSegment(f"torn record at offset {off}")
        tag, plen = _HEADER.unpack_from(data, off)
        body_end = off + _HEADER.size + plen
        if (body_end + _CRC.size > n
                or zlib.crc32(data[off:body_end]) != _CRC.unpack_from(data, body_end)[0]):
            raise CorruptSegment(f"bad record at offset {off}")
        yield tag, data[off + _HEADER.size:body_end]
        off = body_end + _CRC.size


def encode_record(record: FeedRecord) -> bytes:
    if isinstance(record, FrameMeta):
        p = record.pose
        payload = _FRAME_BODY.pack(
            record.frame_id, ts_to_micros(record.ts),
            p.x, p.y, p.z, p.roll, p.pitch, p.yaw,
        )
        return frame_record(TAG_FRAME, payload)
    if isinstance(record, Detection):
        payload = _DET_BODY.pack(record.frame_id, _KIND_CODE[record.kind], record.confidence)
        payload += record.label.encode("utf-8")
        return frame_record(TAG_DETECTION, payload)
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
        return frame_record(TAG_ACTIVITY, payload)
    raise TypeError(f"cannot encode {type(record).__name__}")


def encode_cover(row: tuple) -> bytes:
    """The cover record of a coverage row (subject, activity, from_us, to_us)."""
    subject, activity, from_us, to_us = row
    raw = b"" if subject is None else subject.encode("utf-8")
    return frame_record(TAG_COVER, _COVER_HEAD.pack(from_us, to_us, subject is not None, len(raw))
                        + raw + activity.encode("utf-8"))


def encode_commit(commit: Commit) -> bytes:
    return frame_record(TAG_COMMIT, _COMMIT_BODY.pack(*commit))


def decode_payload(tag: int, payload: bytes) -> Union[FeedRecord, Cover, Commit]:
    if tag == TAG_FRAME:
        f, ts_us, x, y, z, roll, pitch, yaw = _FRAME_BODY.unpack(payload)
        return FrameMeta(frame_id=f, ts=ts_from_micros(ts_us),
                         pose=Pose(x=x, y=y, z=z, roll=roll, pitch=pitch, yaw=yaw))
    if tag == TAG_DETECTION:
        f, kind, conf = _DET_BODY.unpack(payload[:_DET_BODY.size])
        if kind >= len(KINDS):
            raise CorruptSegment(f"unknown detection kind {kind}")
        label = payload[_DET_BODY.size:].decode("utf-8")
        return Detection(frame_id=f, label=label, kind=KINDS[kind], confidence=conf)
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
    if tag == TAG_COVER:
        from_us, to_us, has_subject, subj_len = _COVER_HEAD.unpack_from(payload)
        off = _COVER_HEAD.size + subj_len
        subject = payload[_COVER_HEAD.size:off].decode("utf-8") if has_subject else None
        return Cover(subject, payload[off:].decode("utf-8"), from_us, to_us)
    if tag == TAG_COMMIT:
        return Commit(*_COMMIT_BODY.unpack(payload))
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

    def positions(self, frame_ids: array) -> array:
        """The position of each frame id, -1 where the table holds no such
        frame. Ids confined to a dense run of the table (every id between
        their least and greatest is held) map with one subtraction each."""
        if not frame_ids:
            return array("q")
        least, greatest = min(frame_ids), max(frame_ids)
        first = self.position(least)
        if first >= 0 and self.position(greatest) - first == greatest - least:
            return array("q", map(sub, frame_ids, repeat(least - first)))
        return array("q", map(self.position, frame_ids))

    def window(self, lo_us: int, hi_us: int) -> tuple[int, int]:
        """Half-open positions of the frames with lo_us <= ts <= hi_us."""
        ts_us = self.ts_us
        return bisect_left(ts_us, lo_us), bisect_right(ts_us, hi_us)

    def frame(self, i: int) -> FrameMeta:
        return FrameMeta(frame_id=self.frame_id[i], ts=ts_from_micros(self.ts_us[i]),
                         pose=Pose(x=self.x[i], y=self.y[i], z=self.z[i],
                                   roll=self.roll[i], pitch=self.pitch[i], yaw=self.yaw[i]))


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

    def forget_labels(self, n: int) -> None:
        """Drop the labels interned after the first n, which no detection has."""
        for label in self.labels[n:]:
            del self.label_ids[label.encode("utf-8")]
        del self.labels[n:], self.postings[2 * n:]

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


# A sealed block: _BLOCK_HEAD, then one section per column or table of its
# kind, each a u32 length and that many bytes of zlib'd data, then the u32
# crc32 of everything before it. A column section holds the column's items
# as little-endian bytes, byte-shuffled where its table says so: byte 0 of
# every item, then byte 1 of every item, and so on. The first byte of either
# magic is no record tag, so no log starts with it.
_FRAME_MAGIC = b"\xb1RMF"  # a frame block: the frame columns
_DETECTION_MAGIC = b"\xb1RMD"  # a detection block: the detection columns, label table, activities
_BLOCK_HEAD = struct.Struct("<4sI")  # magic, frames or detections held
_SECTION = struct.Struct("<I")
_ZLIB_LEVEL = 1  # on shuffled columns, level 6 takes about 40% longer for 2.5% smaller blocks
# (name, typecode, shuffled) of each frame column
_FRAME_COLUMNS = (("frame_id", "q", True), ("ts_us", "q", True), ("x", "d", True),
                  ("y", "d", True), ("z", "f", True), ("roll", "f", True),
                  ("pitch", "f", True), ("yaw", "f", True))
# (typecode, shuffled) of each detection column: frame id, index into the
# block's label table, kind code (one byte: nothing to shuffle) and
# confidence, whose few distinct values zlib matches best as whole doubles
_DET_COLUMNS = (("q", True), ("i", True), ("b", False), ("d", False))
_NATIVE_LE = sys.byteorder == "little"
# A log walk moves frame bodies to the columns this many at a time, so it
# holds few of them at once.
_ROWS_HELD = 256

# Maps an array of frame ids to their positions in a frame table, -1 where it
# holds none (FrameColumns.positions, or the store's, which first makes the
# frame blocks of older ids resident).
Placer = Callable[[array], array]


def _le_bytes(column: array, shuffled: bool) -> bytes:
    """A column section's bytes: the items little-endian, byte-shuffled if asked."""
    if not _NATIVE_LE:
        column = array(column.typecode, column)
        column.byteswap()
    raw = column.tobytes()
    if not shuffled:
        return raw
    size = column.itemsize
    return b"".join(raw[i::size] for i in range(size))


def _column(raw: bytes, typecode: str, count: int, shuffled: bool) -> array:
    """A column section's items; raises CorruptSegment unless there are `count`."""
    size = array(typecode).itemsize
    if len(raw) % size:
        raise CorruptSegment("block column is not whole items")
    if len(raw) != count * size:
        raise CorruptSegment(f"block column holds {len(raw) // size} items, not {count}")
    if shuffled:
        planes = memoryview(raw)
        raw = bytearray(len(raw))
        for i in range(size):
            raw[i::size] = planes[i * count:(i + 1) * count]
    out = array(typecode, raw)
    if not _NATIVE_LE:
        out.byteswap()
    return out


def _encode_sections(magic: bytes, count: int, sections: list[bytes]) -> bytes:
    body = [_BLOCK_HEAD.pack(magic, count)]
    for raw in sections:
        packed = zlib.compress(raw, _ZLIB_LEVEL)
        body += (_SECTION.pack(len(packed)), packed)
    data = b"".join(body)
    return data + _CRC.pack(zlib.crc32(data))


def _decode_sections(data: bytes, n_sections: int) -> Optional[tuple[int, list[bytes]]]:
    """A block's item count and decompressed sections, or None if its CRC fails."""
    end = len(data) - _CRC.size
    if end < _BLOCK_HEAD.size or zlib.crc32(memoryview(data)[:end]) != _CRC.unpack_from(data, end)[0]:
        return None
    _magic, count = _BLOCK_HEAD.unpack_from(data)
    sections = []
    off = _BLOCK_HEAD.size
    try:
        for _ in range(n_sections):
            (size,) = _SECTION.unpack_from(data, off)
            off += _SECTION.size + size
            sections.append(zlib.decompress(data[off - size:off]))
    except (struct.error, zlib.error) as e:
        raise CorruptSegment(f"malformed block: {e}") from None
    if off != end:
        raise CorruptSegment("malformed block: sections do not fill it")
    return count, sections


def encode_frame_block(frames: FrameColumns, start: int, end: int) -> bytes:
    """The sealed frame block of frames start:end."""
    return _encode_sections(_FRAME_MAGIC, end - start, [
        _le_bytes(getattr(frames, name)[start:end], shuffled)
        for name, _typecode, shuffled in _FRAME_COLUMNS])


def encode_detection_block(detections: DetectionColumns, activities: list[ActivityEvent],
                           start: tuple[int, int], end: tuple[int, int]) -> bytes:
    """The sealed detection block of detections start[0]:end[0] and
    activities start[1]:end[1]. A detection is written with its frame's id.

    The labels of the block's detections are listed in first-seen order, so
    a read interns them in the order a walk of their records would."""
    (d0, a0), (d1, a1) = start, end
    label_ids = detections.label_id[d0:d1]
    table = {lid: i for i, lid in enumerate(dict.fromkeys(label_ids))}
    columns = [array("q", map(detections.frames.frame_id.__getitem__, detections.position[d0:d1])),
               array("i", map(table.__getitem__, label_ids)),
               detections.kind[d0:d1], detections.confidence[d0:d1]]
    sections = [_le_bytes(column, shuffled)
                for column, (_typecode, shuffled) in zip(columns, _DET_COLUMNS)]
    sections.append(json.dumps([detections.labels[lid] for lid in table]).encode("utf-8"))
    sections.append(b"".join(encode_record(ev) for ev in activities[a0:a1]))
    return _encode_sections(_DETECTION_MAGIC, d1 - d0, sections)


def _scan_frame_block(data: bytes, frames: Optional[FrameColumns]) -> tuple[list[FeedRecord], int]:
    """scan_segment of a frame block: all of it, or nothing if its CRC fails."""
    decoded = _decode_sections(data, len(_FRAME_COLUMNS))
    if decoded is None:
        return [], 0
    count, sections = decoded
    columns = [_column(raw, typecode, count, shuffled)
               for raw, (_name, typecode, shuffled) in zip(sections, _FRAME_COLUMNS)]
    table = frames if frames is not None else FrameColumns()
    for (name, _typecode, _shuffled), column in zip(_FRAME_COLUMNS, columns):
        getattr(table, name).extend(column)
    return ([] if frames is not None else list(map(table.frame, range(count)))), len(data)


def _scan_detection_block(data: bytes, detections: Optional[DetectionColumns],
                          place: Optional[Placer]) -> tuple[list[FeedRecord], int]:
    """scan_segment of a detection block: all of it, or nothing if its CRC fails."""
    decoded = _decode_sections(data, len(_DET_COLUMNS) + 2)
    if decoded is None:
        return [], 0
    n_dets, sections = decoded
    fids, lids, kinds, confidences = (
        _column(raw, typecode, n_dets, shuffled)
        for raw, (typecode, shuffled) in zip(sections, _DET_COLUMNS))
    try:
        table = [label.encode("utf-8") for label in json.loads(sections[-2])]
    except (ValueError, TypeError, AttributeError) as e:
        raise CorruptSegment(f"malformed block label table: {e}") from None
    if n_dets and not (0 <= min(lids) <= max(lids) < len(table)
                       and 0 <= min(kinds) <= max(kinds) < len(KINDS)):
        raise CorruptSegment("malformed block: label index or kind out of range")
    records, good = _scan_log(sections[-1], None, None)
    if good != len(sections[-1]) or not all(isinstance(r, ActivityEvent) for r in records):
        raise CorruptSegment("malformed block: bad activity records")

    if detections is None:
        labels = [raw.decode("utf-8") for raw in table]
        return [Detection(frame_id=f, label=labels[lid], kind=KINDS[kind], confidence=c)
                for f, lid, kind, c in zip(fids, lids, kinds, confidences)] + records, len(data)
    if n_dets:
        ids = array("i", map(detections.intern, table))
        detections.extend(_placed(fids, place), array("i", map(ids.__getitem__, lids)),
                          kinds, confidences)
    return records, len(data)


def _placed(frame_ids: array, place: Placer) -> array:
    """The positions `place` gives the frame ids; raises CorruptSegment if
    an id has none."""
    positions = place(frame_ids)
    if min(positions) < 0:
        raise CorruptSegment(f"detection of unknown frame {frame_ids[positions.index(-1)]}")
    return positions


def scan_segment(data: bytes, frames: Optional[FrameColumns] = None,
                 detections: Optional[DetectionColumns] = None,
                 place: Optional[Placer] = None,
                 base: Optional[int] = None) -> tuple[list, int]:
    """Decode records from a segment file's bytes: a record log, a frame
    block or a detection block.

    Returns (records, good_bytes) where good_bytes is the offset of the first
    incomplete or checksum-failing record; everything before it decoded clean.
    A block decodes whole, or not at all (good_bytes 0) if its CRC fails.
    Given `frames`, frame records are appended to those columns instead of
    being returned. Given `detections` as well (whose frame table is
    `frames`), so are detection records, placed in the frame table by
    `place` (default frames.positions); their frames must be there by the
    end of the segment. A detection block returns its detections, then its
    activities.

    Given `base`, the offset of a log that a manifest has absorbed, the
    cover and commit records before it are skipped, and past it records
    count only up to the end of the last commit record: good_bytes is that
    end (or base), the records after it are neither returned nor put in
    the tables, and the covers and commits before it are returned in order.
    """
    if frames is not None and place is None:
        place = frames.positions
    if data.startswith(_FRAME_MAGIC):
        return _scan_frame_block(data, frames)
    if data.startswith(_DETECTION_MAGIC):
        return _scan_detection_block(data, detections if frames is not None else None, place)
    if base is None:
        return _scan_log(data, frames, detections, place)
    records, good = _scan_log(data, frames, detections, place, end=base)
    records = [r for r in records if not isinstance(r, (Cover, Commit))]  # the manifest holds them
    if good == base:
        committed, good = _scan_log(data, frames, detections, place, start=base, commits=True)
        records += committed
    return records, good


def _scan_log(data: bytes, frames: Optional[FrameColumns],
              detections: Optional[DetectionColumns], place: Optional[Placer] = None,
              start: int = 0, end: Optional[int] = None,
              commits: bool = False) -> tuple[list, int]:
    """scan_segment of a record log from offset `start` to `end`, walked one
    record at a time. With `commits`, what follows the last commit record
    is dropped, and the offset returned is that record's end (or start)."""
    records: list = []
    rows: list[tuple] = []  # frame bodies bound for `frames`
    sighted = array("q")  # frame ids of the detections bound for `detections`
    label_ids, kinds, confidences = array("i"), array("b"), array("d")
    take_frames = frames is not None
    take_detections = take_frames and detections is not None
    frame_size, det_size = _FRAME_BODY.size, _DET_BODY.size
    head, crc_at = _HEADER.unpack_from, _CRC.unpack_from
    frame_at, det_at = _FRAME_BODY.unpack_from, _DET_BODY.unpack_from
    known = detections.label_ids if take_detections else {}
    # with commits, frames move to the table only at a commit record
    rows_held = -1 if commits else _ROWS_HELD
    # at the end of the last commit record: its offset, and the records,
    # frame rows, detections and labels walked
    counted = (start, 0, 0, 0, len(detections.labels) if take_detections else 0)
    view = memoryview(data)
    off = start
    n = len(data) if end is None else min(end, len(data))
    while off + _HEADER.size + _CRC.size <= n:
        tag, plen = head(data, off)
        body_end = off + _HEADER.size + plen
        if body_end + _CRC.size > n:
            break
        if zlib.crc32(view[off:body_end]) != crc_at(data, body_end)[0]:
            break
        if take_frames and tag == TAG_FRAME and plen == frame_size:
            rows.append(frame_at(data, off + _HEADER.size))
            if len(rows) == rows_held:
                frames.extend(rows)
                rows.clear()
        elif take_detections and tag == TAG_DETECTION and plen >= det_size:
            frame_id, kind, confidence = det_at(data, off + _HEADER.size)
            if kind >= len(KINDS):  # as decode_payload rejects it
                break
            raw = data[off + _HEADER.size + det_size:body_end]
            lid = known.get(raw)
            if lid is None:
                try:
                    lid = detections.intern(raw)
                except UnicodeDecodeError:
                    break
            sighted.append(frame_id)
            label_ids.append(lid)
            kinds.append(kind)
            confidences.append(confidence)
        else:
            try:
                records.append(decode_payload(tag, data[off + _HEADER.size:body_end]))
            except (CorruptSegment, struct.error, UnicodeDecodeError):
                break
            if commits and tag == TAG_COMMIT:
                if len(rows) >= _ROWS_HELD:
                    frames.extend(rows)
                    rows.clear()
                counted = (body_end + _CRC.size, len(records), len(rows), len(sighted),
                           len(detections.labels) if take_detections else 0)
        off = body_end + _CRC.size
    if commits:  # drop what follows the last commit record
        off, n_records, n_rows, n_detections, n_labels = counted
        del records[n_records:], rows[n_rows:]
        for column in (sighted, label_ids, kinds, confidences):
            del column[n_detections:]
        if take_detections:
            detections.forget_labels(n_labels)
    if take_frames:
        frames.extend(rows)
    if sighted:
        detections.extend(_placed(sighted, place), label_ids, kinds, confidences)
    return records, off


def read_segment(path, tolerate_tail: bool, frames: FrameColumns,
                 detections: Optional[DetectionColumns] = None,
                 place: Optional[Placer] = None,
                 base: Optional[int] = None) -> tuple[list, int]:
    """Read one segment file, a log or a block; raise CorruptSegment on a
    torn tail unless tolerated (only a log's tail is ever tolerated, and a
    block fails whole).

    Frame and detection records go into `frames` and `detections` (see
    scan_segment, which also says what `base` does); the other records
    are returned."""
    with open(path, "rb") as fh:
        data = fh.read()
    records, good = scan_segment(data, frames, detections, place, base)
    if good != len(data) and not tolerate_tail:
        raise CorruptSegment(f"{path}: bad record at offset {good}")
    return records, good
