"""Durable, indexed, tiered storage of frames, detections, tracks and activities.

On-disk layout under the store root:

    manifest.json         the store's one commit record, written atomically
                          (tmp + rename): the frame block directory, the
                          hot cutoff of the last migration (hot_from_us,
                          null before the first), the names of the live
                          detection blocks and log, the committed length of
                          the log, the name of the refine-state log (null
                          before the first refinement) and its committed
                          length, the warm (hourly) and cold (daily) tier
                          summaries as flat rows, and the analyzed time as
                          (subject, activity, from_us, to_us) coverage rows.
                          One rename publishes all of them. A summary row
                          is immutable, and there is one per (what, tier,
                          bucket), what being a label and kind or a subject
                          and activity: a migration merges into a bucket's
                          row rather than add a second.
    segments/NNNN.frames  a frame block (segment.encode_frame_block): the
                          frames of one sealed segment as zlib'd columns
                          under one CRC. The directory lists each as [name,
                          first and last frame id, first and last ts_us,
                          frame count], in frame order. Once the manifest
                          names a frame block it is never rewritten or
                          deleted, so a read-only store can read one long
                          after its open.
    segments/NNNN.blk     a detection block (segment.encode_detection_block):
                          detections, by frame id, and activities as zlib'd
                          columns and framed records under one CRC. A flush
                          that fills the log to segment_max_records seals
                          it: it writes the log's frames as a frame block
                          and its detections and activities as a detection
                          block, both under the log's number, straight from
                          the in-memory tables, and the manifest names them
                          in the log's place. A migration seals the log's
                          frames into a frame block too, writes the
                          detections and activities it keeps as fresh
                          detection blocks, and rewrites no frame block.
    segments/NNNN.seg     the log: the last segment, if it is not sealed,
                          as append-only framed records. Bytes past its
                          committed length are appends no commit published:
                          open does not read them, and a read-write open
                          cuts them off.
    segments/NNNN.tracks  the refine-state log: framed records as in the
                          log (segment.frame_record), each a track row or a
                          state record. A track row is one track packed as
                          binary: track id, kind, mean x and y, the four
                          covariance entries, observation count, miss
                          probability, first and last sighting (us and
                          frame id, its presence span) and the label. A
                          state record holds the cursor, the next track id,
                          and how many tracks and rows the log holds up to
                          it. The last row of a track id wins, and the
                          tracks are in the order their ids first appear.
                          A flush after a refinement that changed k tracks
                          appends their k rows and a state record, and the
                          manifest records the committed length, which ends
                          in a state record; bytes past it are treated as
                          the log's are. A migration, a state saved without
                          a change set, or a log that would hold more than
                          twice as many rows as tracks is instead written
                          whole (compacted) to a fresh file under a new
                          number from the segments' counter, before the
                          manifest that names it.
    lock                  writer lock, held with flock by the writing process

A file in segments/ that the manifest does not name is garbage: a commit
deletes it right after the manifest rename, and so does a read-write open.
A crash at any point thus leaves the store as one manifest describes it,
and a file is never renamed into place except the manifest.

The segments and the manifest are authoritative. The frame blocks, then the
log, hold the frame table in order; the detection blocks, then the log, hold
the detections and the activities. Everything else lives only in memory and
is rebuilt at open, so no index file is written:

    frames            the resident frames: one segment.FrameColumns table
                      (typed arrays of frame id, timestamp in us and pose,
                      in frame-id order) of the frame blocks from the first
                      that meets the hot window (every block before the
                      first migration) and the log. A held detection of an
                      older frame makes that frame's block, and every block
                      after it, resident too, at open or when a reprocess
                      appends one, so the resident frames are always one
                      suffix of the frame table and every held detection's
                      frame is among them. The older frame blocks are cold:
                      frame_by_id, frames_in_range, time_bounds (from the
                      directory) and LabelHit.frame read them on demand,
                      each block whole through a cache of COLD_BLOCKS_HELD
                      blocks. A damaged cold block raises CorruptSegment
                      when it is first read. A FrameMeta is built only when
                      a caller asks for a frame; the table doubles as the
                      time index.
    detections        one segment.DetectionColumns table in append order
                      (seq = index): typed arrays of frame position (an
                      index into the resident frames), interned label id,
                      kind and confidence. Open scans detection records
                      straight into it; a Detection is built only at the
                      API boundary (detections_from, LabelHit.detection),
                      and migration fuses and re-encodes straight from the
                      columns. When the resident frames grow downward every
                      position moves up by the frames added, in one pass
                      over the column.
    postings          per (label, kind), an array of seqs sorted by (frame
                      position, seq), held in the detection table
    activities        ActivityEvent objects in append order
    tracks            Track objects. Open reads the manifest's .tracks log
                      up to its committed length, so a snapshot matches its
                      segments, but replays its rows on first use.
    track index       refine.index_tracks of the tracks, per (label, kind)
                      sorted by last sighting, built on first use. A
                      refinement pass updates a copy of it and saves it with
                      the tracks; track_for bisects it.

Appends buffer in memory and become durable at flush(); a crash before flush
loses only unflushed records. Readers load a consistent snapshot at open and
are never blocked by a writer.
"""

from __future__ import annotations

import fcntl
import heapq
import json
import os
import struct
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from itertools import islice, repeat
from operator import add, attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from . import segment as segcodec
from .errors import (
    CorruptSegment,
    InvalidRecord,
    MigrationConflict,
    ReadOnlyStore,
    StoreLocked,
    StoreVersionError,
)
from .model import (
    ActivityEvent,
    Detection,
    FeedRecord,
    FrameMeta,
    KINDS,
    LocationEstimate,
    TimeRange,
    Track,
    ts_from_micros,
    ts_to_micros,
    validate_record,
)
from .refine import TrackIndex, fuse, index_tracks, observation_at, track_containing

FORMAT_VERSION = 9
DEFAULT_SEGMENT_RECORDS = 8192
# Cold frame blocks held decoded after a read, least recently used dropped
# first: enough that reads spread over a few days of history do not reread
# their blocks.
COLD_BLOCKS_HELD = 4

HOUR_US = 3_600_000_000
DAY_US = 24 * HOUR_US


@dataclass(frozen=True)
class TierPolicy:
    hot_window: timedelta = timedelta(days=7)
    warm_window: timedelta = timedelta(days=90)


class _TierRow:
    """What the two kinds of tier summary row share. A row is immutable, and
    the store holds one row per key: what it counts, its tier and its
    bucket. A migration merges rows of one key into a new row."""

    @property
    def width_us(self) -> int:
        """The width of the row's bucket: an hour (hourly) or a day (daily)."""
        return HOUR_US if self.tier == "hourly" else DAY_US


@dataclass(frozen=True)
class LabelSummary(_TierRow):
    """Rolled-up sightings of one label within one hour (warm) or day (cold)."""
    label: str
    kind: str
    tier: str  # "hourly" | "daily"
    bucket_us: int
    count: int
    first_frame: int
    last_frame: int
    first_ts_us: int
    last_ts_us: int
    loc: LocationEstimate
    detect_prob: float

    @property
    def key(self) -> tuple[str, str, str, int]:
        return self.label, self.kind, self.tier, self.bucket_us


@dataclass(frozen=True)
class ActivitySummary(_TierRow):
    """Seconds of one subject's activity within one hour (warm) or day (cold)."""
    subject: str
    name: str
    tier: str
    bucket_us: int
    seconds: float
    prob: float
    loc: Optional[LocationEstimate] = None

    @property
    def key(self) -> tuple[str, str, str, int]:
        return self.subject, self.name, self.tier, self.bucket_us


class FrameBlock(NamedTuple):
    """A frame block as the manifest's block directory lists it."""
    name: str
    first_id: int
    last_id: int
    first_ts_us: int
    last_ts_us: int
    count: int


_FIRST_ID = attrgetter("first_id")
_LAST_TS = attrgetter("last_ts_us")


@dataclass(frozen=True)
class LabelHit:
    """One result of find_by_label: a raw sighting, or a summary stand-in.

    A raw hit carries its detection's seq and its frame's timestamp, and
    reads the rest off the store's columns: `confidence` and `frame_id`
    directly, while `detection` and `frame` build a Detection or FrameMeta
    when asked for. A summary stand-in (seq -1) is coarse; its count,
    location, confidence and frames are the summary's, and its detection is
    anchored at the summary's last frame, which may be read off a cold
    frame block."""
    seq: int
    ts_us: int
    store: "Store" = field(repr=False, compare=False)
    summary: Optional[LabelSummary] = None

    @property
    def coarse(self) -> bool:
        return self.summary is not None

    @property
    def detection(self) -> Detection:
        s = self.summary
        if s is None:
            return self.store._detections.detection(self.seq)
        return Detection(frame_id=s.last_frame, label=s.label, kind=s.kind,
                         confidence=s.detect_prob)

    @property
    def confidence(self) -> float:
        if self.summary is None:
            return self.store._detections.confidence[self.seq]
        return self.summary.detect_prob

    @property
    def count(self) -> int:
        return 1 if self.summary is None else self.summary.count

    @property
    def loc(self) -> Optional[LocationEstimate]:
        return None if self.summary is None else self.summary.loc

    @property
    def frame_ids(self) -> tuple[int, ...]:
        """The sighting's frame, or the summary's first and last frame."""
        if self.summary is None:
            return (self.frame_id,)
        return (self.summary.first_frame, self.summary.last_frame)

    @property
    def frame_id(self) -> int:
        if self.summary is None:
            dets = self.store._detections
            return dets.frames.frame_id[dets.position[self.seq]]
        return self.summary.last_frame

    @property
    def frame(self) -> FrameMeta:
        if self.summary is None:
            dets = self.store._detections
            return dets.frames.frame(dets.position[self.seq])
        return self.store.frame_by_id(self.summary.last_frame)

    @property
    def ts(self) -> datetime:
        return ts_from_micros(self.ts_us)


@dataclass
class MigrationReport:
    detections_migrated: int = 0
    activities_migrated: int = 0
    hourly_created: int = 0
    daily_created: int = 0
    hourly_rolled: int = 0
    bytes_before: int = 0
    bytes_after: int = 0


@dataclass
class StoreStats:
    bytes_on_disk: int
    frames: int
    detections: int
    tracks: int
    bytes_per_frame: float
    refine_state_bytes: int  # the committed length of the .tracks log
    refine_log_rows: int     # track rows in it, which compaction brings down to `tracks`
    frame_blocks: int        # in the block directory
    resident_frame_blocks: int  # of those, held in memory: the resident ones and the cold ones cached


def _write_durable(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _append_durable(path: str, size: int, data: bytes) -> None:
    """Cut the file at path (made if missing) to its first `size` bytes,
    which drops what a failed flush appended past them, and append data."""
    with open(path, "ab") as fh:
        fh.truncate(size)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _cut(path: str, size: int) -> None:
    """Cut a log to its committed length: drop a torn tail, or appends no
    commit published."""
    if os.path.getsize(path) != size:
        with open(path, "r+b") as fh:
            fh.truncate(size)


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Store:
    """Embedded perception-event store. One writer at a time (advisory lock);
    read-only opens take a snapshot and never block."""

    def __init__(self, root: str, mode: str):
        self.root = root
        self.mode = mode
        self._segments: list[str] = []          # live detection blocks, then the log if any
        self._log_bytes = 0                     # the log's durable length
        # (frames, detections, activities) held before the log's first record,
        # and held in the segment files
        self._log_start = (0, 0, 0)
        self._durable = (0, 0, 0)
        self._next_segment_no = 0
        self._segment_max = DEFAULT_SEGMENT_RECORDS
        self._pending: list[bytes] = []         # encoded but unflushed records

        self._blocks: list[FrameBlock] = []     # the frame block directory
        self._hot_from_us: Optional[int] = None  # the last migration's hot cutoff
        self._resident_from = 0                 # blocks before this one are cold
        self._cold_frames = 0                   # the frames they hold
        self._cold: OrderedDict[str, segcodec.FrameColumns] = OrderedDict()  # cold blocks read
        self._frames = segcodec.FrameColumns()  # the resident frames: blocks from _resident_from, the log
        self._detections = segcodec.DetectionColumns(self._frames)  # seq = index, with postings
        self._activities: list[ActivityEvent] = []

        self._label_summaries: list[LabelSummary] = []
        self._activity_summaries: list[ActivitySummary] = []
        # analyzed time: (subject, activity, from_us, to_us) per span
        self._coverage: list[tuple[Optional[str], str, int, int]] = []
        self._refine_cursor = 0                 # detections refined so far
        self._next_track_id = 0
        self._tracks: list[Track] = []
        self._track_log: Optional[bytes] = None  # the committed .tracks log until first replayed
        self._tracks_file: Optional[str] = None  # the committed .tracks log's name
        self._tracks_bytes = 0                   # its committed length
        self._tracks_rows = 0                    # the track rows in it
        # positions of the tracks changed since the last commit; None when
        # the next commit must write the state whole
        self._refine_changed: Optional[set[int]] = set()
        self._track_index: Optional[TrackIndex] = None  # built on first use (_index)

        self._lock_fd: Optional[int] = None
        self._active_role: Optional[str] = None
        self._closed = False

    # ------------------------------------------------------------------ open

    @classmethod
    def create(cls, root: str) -> "Store":
        """Make an empty store at root and return it opened read-write.

        A directory that already holds a store is refused. The check runs
        under the writer lock, so create never overwrites another writer's
        manifest, whose commit would then delete that writer's files."""
        os.makedirs(os.path.join(root, "segments"), exist_ok=True)
        store = cls(root, mode="rw")
        store._acquire_lock()
        try:
            if os.path.exists(os.path.join(root, "manifest.json")):
                raise FileExistsError(f"a store already exists: {root}")
            store._commit()
        except BaseException:
            store._release_lock()
            raise
        return store

    @classmethod
    def open(cls, root: str, mode: str = "rw") -> "Store":
        """Open the store at root.

        A read-write open takes the writer lock before it reads the
        manifest, so no other writer commits after that read, and then
        deletes the files the manifest does not name. A read-only open that
        finds a named file gone reads the manifest again, since a writer
        committed and deleted the file meanwhile; it raises only if the
        manifest did not change."""
        if mode not in ("rw", "ro"):
            raise ValueError("mode must be 'rw' or 'ro'")
        manifest_path = os.path.join(root, "manifest.json")
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(f"not a store: {root}")
        store = cls(root, mode)
        if mode == "rw":
            store._acquire_lock()
        try:
            data = _read_bytes(manifest_path)
            while True:
                try:
                    store._load(json.loads(data))
                    break
                except FileNotFoundError:
                    seen, data = data, _read_bytes(manifest_path)
                    if mode == "rw" or data == seen:
                        raise
                    store = cls(root, mode)
            if mode == "rw":
                store._sweep()
        except BaseException:
            store._release_lock()
            raise
        return store

    def _acquire_lock(self) -> None:
        """Take the writer lock. The kernel drops a flock when its holder's
        descriptor closes, so a killed writer leaves the store unlocked. The
        file is never unlinked: a waiter that opened it must lock the same
        file as the next writer."""
        path = os.path.join(self.root, "lock")
        fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise StoreLocked(f"writer lock held: {path}") from None
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        self._lock_fd = fd

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            os.ftruncate(self._lock_fd, 0)
            os.close(self._lock_fd)
            self._lock_fd = None

    def _load(self, manifest: dict) -> None:
        if manifest["version"] != FORMAT_VERSION:
            raise StoreVersionError(
                f"store version {manifest['version']} is not the supported version {FORMAT_VERSION}")
        self._segment_max = manifest["segment_max_records"]
        self._next_segment_no = manifest["next_segment_no"]
        self._blocks = [FrameBlock(*row) for row in manifest["frames"]]
        self._hot_from_us = manifest["hot_from_us"]
        # the frame blocks that meet the hot window are resident; a held
        # detection of an older frame makes its block resident (_place)
        k = 0 if self._hot_from_us is None else bisect_left(self._blocks, self._hot_from_us,
                                                             key=_LAST_TS)
        self._resident_from = k
        self._cold_frames = sum(b.count for b in self._blocks[:k])
        for block in self._blocks[k:]:
            self._read_frame_block(block, self._frames)
        self._segments = list(manifest["segments"])
        for name in self._segments:
            path = os.path.join(self.root, "segments", name)
            is_log = name.endswith(".seg")
            if is_log:
                self._log_start = self._held()  # the log starts after the blocks
            # the log is read only as far as the manifest committed it
            records, good = segcodec.read_segment(
                path, tolerate_tail=is_log, frames=self._frames, detections=self._detections,
                size=manifest["log_bytes"] if is_log else -1, place=self._place)
            if is_log:
                if self.mode == "rw":
                    _cut(path, good)
                self._log_bytes = good
            self._activities.extend(records)  # the records left are activities
        self._durable = self._held()
        if not self._has_log():
            self._log_start = self._durable
        self._label_summaries = [_label_summary_from_row(r) for r in manifest["labels"]]
        self._activity_summaries = [_activity_summary_from_row(r) for r in manifest["activities"]]
        self._coverage = [tuple(c) for c in manifest["coverage"]]
        self._tracks_file = manifest["tracks"]
        if self._tracks_file is not None:
            path = os.path.join(self.root, "segments", self._tracks_file)
            self._tracks_bytes = manifest["tracks_bytes"]
            with open(path, "rb") as fh:
                log = fh.read(self._tracks_bytes)
            self._refine_cursor, self._next_track_id, _n, self._tracks_rows = _refine_state(log)
            if self.mode == "rw":
                _cut(path, self._tracks_bytes)
            self._track_log = log

    # ----------------------------------------------------------------- writes

    def append(self, record: FeedRecord) -> None:
        if self.mode != "rw":
            raise ReadOnlyStore("store opened read-only")
        frame_exists = lambda f: self._frames.position(f) >= 0 or self._cold_frame(f) is not None
        validate_record(record, frame_exists=frame_exists)
        if isinstance(record, FrameMeta):
            last = self._last_frame()
            if last is not None and record.frame_id <= last[0]:
                raise InvalidRecord("frame_id", "frame ids must be strictly increasing")
            if last is not None and ts_to_micros(record.ts) < last[1]:
                raise InvalidRecord("ts", "timestamps must be non-decreasing")
        data = segcodec.encode_record(record)
        self._pending.append(data)
        # index the decoded form so in-memory state always equals what a
        # reopened store would see (pose z/angles quantize through f32)
        if isinstance(record, FrameMeta):
            self._frames.append_encoded(data)
            return
        rec = segcodec.decode_payload(data[0], data[3:-4])
        if isinstance(rec, Detection):
            pos = self._frames.position(rec.frame_id)
            if pos < 0:  # a sighting of a frame in a cold block
                pos = self._place(array("q", (rec.frame_id,)))[0]
            self._detections.append(pos, rec)
            return
        self._activities.append(rec)
        if rec.provenance == "ingested":  # an ingested event is itself analyzed time
            self._coverage.append((rec.subject, rec.name, ts_to_micros(rec.start),
                                   ts_to_micros(rec.end)))

    def flush(self) -> None:
        """Make all pending appends durable and commit them (see _commit).

        Pending records go to the log until it holds segment_max_records;
        a record that fills it seals the log instead, and the next record
        starts a new one. A flush that fails part way keeps what it made
        durable, and the next flush carries on from there."""
        if self.mode != "rw":
            raise ReadOnlyStore("store opened read-only")
        pending = self._pending
        while pending:
            held = sum(self._durable) - sum(self._log_start)  # records in the log
            chunk = pending[:max(self._segment_max - held, 0)]
            tags = bytes(rec[0] for rec in chunk)
            f, d, a = self._durable
            end = (f + tags.count(segcodec.TAG_FRAME), d + tags.count(segcodec.TAG_DETECTION),
                   a + tags.count(segcodec.TAG_ACTIVITY))
            if held + len(chunk) >= self._segment_max:
                self._seal(end)
            else:
                self._append_log(b"".join(chunk))
            self._durable = end
            del pending[:len(chunk)]
        self._commit()

    def _held(self) -> tuple[int, int, int]:
        return self.frame_count(), len(self._detections), len(self._activities)

    def _has_log(self) -> bool:
        return bool(self._segments) and self._segments[-1].endswith(".seg")

    def _seal(self, end: tuple[int, int, int]) -> None:
        """Write the log's records, and the pending ones up to `end`, as a
        frame block, which joins the block directory, and a detection block,
        which takes the log's place in the segment list. Both take the log's
        number; a block that would be empty is not written."""
        has_log = self._has_log()
        stem = self._segments[-1][:-len(".seg")] if has_log else self._new_name("")
        (f0, d0, a0), (f1, d1, a1) = self._log_start, end
        block = self._write_frame_block(stem + ".frames", f0, f1) if f1 > f0 else None
        sealed = [stem + ".blk"] if d1 > d0 or a1 > a0 else []
        for name in sealed:
            _write_durable(os.path.join(self.root, "segments", name), segcodec.encode_detection_block(
                self._detections, self._activities, (d0, a0), (d1, a1)))
        if block is not None:
            self._blocks.append(block)
        if has_log:
            self._segments.pop()
        self._segments += sealed
        self._log_start = end
        self._log_bytes = 0

    def _write_frame_block(self, name: str, start: int, end: int) -> FrameBlock:
        """Write frames start:end (counted over the whole table, and
        resident) as a frame block; return its directory entry."""
        frames = self._frames
        lo, hi = start - self._cold_frames, end - self._cold_frames
        _write_durable(os.path.join(self.root, "segments", name),
                       segcodec.encode_frame_block(frames, lo, hi))
        return FrameBlock(name, frames.frame_id[lo], frames.frame_id[hi - 1],
                          frames.ts_us[lo], frames.ts_us[hi - 1], hi - lo)

    def _append_log(self, data: bytes) -> None:
        """Append records to the log, starting one if there is none. Bytes
        a failed flush left past the log's durable length are cut first."""
        new = not self._has_log()
        name = self._new_name(".seg") if new else self._segments[-1]
        _append_durable(os.path.join(self.root, "segments", name), self._log_bytes, data)
        if new:
            self._segments.append(name)
        self._log_bytes += len(data)

    def _commit(self, compact: bool = False, **new) -> None:
        """Publish the segments, the refine state, the tier summaries and the
        coverage with one manifest rename, then delete every file in
        segments/ that the manifest does not name.

        A changed refine state first goes to the .tracks log: the rows of
        the tracks changed since the last commit and a state record are
        appended past its committed length, which the manifest then moves.
        The state is instead written whole to a fresh .tracks file when
        `compact` is set (a migration), when it was saved without a change
        set, when there is no log yet, or when the log would hold more than
        twice as many rows as tracks. Neither needs a tmp file or rename: no
        reader reads past the committed length or opens a file before the
        manifest names it, and if the commit fails the next one cuts the
        appended rows off, or the fresh file is garbage.

        `new` maps store attributes to the values to publish in place of
        their own (a migration's segments, summaries, cursor and tables);
        they are set only once the manifest is renamed, so a commit that
        fails leaves the store as it was."""
        def state(name):
            return new[name] if name in new else getattr(self, name)
        cursor = state("_refine_cursor")
        tracks_file, tracks_bytes, rows = self._tracks_file, self._tracks_bytes, self._tracks_rows
        changed = self._refine_changed
        if (changed is None or changed or cursor != self._refine_cursor
                or compact and tracks_file is not None):
            tracks = self.tracks()
            if (changed is None or compact or tracks_file is None
                    or rows + len(changed) > 2 * len(tracks)):
                rows, changed = len(tracks), range(len(tracks))
                tracks_file, tracks_bytes = self._new_name(".tracks"), 0
            else:
                rows += len(changed)
            data = b"".join(_track_record(tracks[p]) for p in sorted(changed)) + _state_record(
                cursor, self._next_track_id, len(tracks), rows)
            _append_durable(os.path.join(self.root, "segments", tracks_file), tracks_bytes, data)
            tracks_bytes += len(data)
        path = os.path.join(self.root, "manifest.json")
        _write_durable(path + ".tmp", _json_bytes({
            "version": FORMAT_VERSION,
            "segment_max_records": self._segment_max,
            "frames": [list(b) for b in state("_blocks")],
            "hot_from_us": state("_hot_from_us"),
            "segments": state("_segments"),
            "log_bytes": state("_log_bytes"),
            "next_segment_no": self._next_segment_no,
            "tracks": tracks_file,
            "tracks_bytes": tracks_bytes,
            "labels": [_label_summary_row(s) for s in state("_label_summaries")],
            "activities": [_activity_summary_row(s) for s in state("_activity_summaries")],
            "coverage": self._coverage,
        }))
        os.replace(path + ".tmp", path)
        for name, value in new.items():
            setattr(self, name, value)
        self._tracks_file, self._tracks_bytes, self._tracks_rows = tracks_file, tracks_bytes, rows
        self._refine_changed = set()
        self._sweep()

    def _new_name(self, suffix: str) -> str:
        """A fresh file name in segments/, from the counter the manifest keeps."""
        name = f"{self._next_segment_no:04d}{suffix}"
        self._next_segment_no += 1
        return name

    def _named_files(self) -> list[str]:
        """The files in segments/ that the manifest names."""
        return ([b.name for b in self._blocks] + self._segments
                + ([self._tracks_file] if self._tracks_file else []))

    def _sweep(self) -> None:
        """Delete every file in segments/ that the manifest does not name:
        what a failed commit or a replaced generation left behind."""
        named = set(self._named_files())
        seg_dir = os.path.join(self.root, "segments")
        for name in os.listdir(seg_dir):
            if name not in named:
                os.unlink(os.path.join(seg_dir, name))

    def close(self, flush: bool = True) -> None:
        if self._closed:
            return
        if flush and self.mode == "rw":
            self.flush()
        self._release_lock()
        self._closed = True

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        # on error, drop unflushed records rather than persisting a bad batch
        self.close(flush=exc[0] is None and self.mode == "rw")

    # ------------------------------------------------------------------ roles

    @contextmanager
    def writer_role(self, role: str):
        """Single writer OR migrator at a time within this process."""
        if self.mode != "rw":
            raise ReadOnlyStore("store opened read-only")
        if self._active_role is not None:
            if role == "migrate" or self._active_role == "migrate":
                raise MigrationConflict(
                    f"{role} requested while {self._active_role} active")
            raise StoreLocked(f"writer role {self._active_role} already active")
        self._active_role = role
        try:
            yield self
        finally:
            self._active_role = None

    # ------------------------------------------------------------------ reads

    def frame_by_id(self, frame_id: int) -> FrameMeta:
        pos = self._frames.position(frame_id)
        if pos >= 0:
            return self._frames.frame(pos)
        cold = self._cold_frame(frame_id)
        if cold is None:
            raise KeyError(frame_id)
        return cold[0].frame(cold[1])

    def _last_frame(self) -> Optional[tuple[int, int]]:
        """The (frame id, ts_us) of the newest frame, if any."""
        frames = self._frames
        if frames:
            return frames.frame_id[-1], frames.ts_us[-1]
        return (self._blocks[-1].last_id, self._blocks[-1].last_ts_us) if self._blocks else None

    @property
    def max_frame_id(self) -> int:
        last = self._last_frame()
        return -1 if last is None else last[0]

    def frame_count(self) -> int:
        return self._cold_frames + len(self._frames)

    def labels(self) -> list[str]:
        out = set(self._detections.labels)  # every interned label has a detection
        out.update(s.label for s in self._label_summaries)
        return sorted(out)

    def time_bounds(self) -> Optional[TimeRange]:
        """The first and last frame's timestamps, read off the block
        directory where they are cold."""
        last = self._last_frame()
        if last is None:
            return None
        first_us = self._blocks[0].first_ts_us if self._blocks else self._frames.ts_us[0]
        return TimeRange(ts_from_micros(first_us), ts_from_micros(last[1]))

    def frames_in_range(self, rng: TimeRange) -> list[int]:
        """Frame ids with ts in the closed range, ascending. Cold frame
        blocks that meet the range are read through the cache."""
        lo_us, hi_us = ts_to_micros(rng.start), ts_to_micros(rng.end)
        out: list[int] = []
        for i in range(bisect_left(self._blocks, lo_us, 0, self._resident_from, key=_LAST_TS),
                       self._resident_from):
            if self._blocks[i].first_ts_us > hi_us:
                break
            block = self._cold_block(i)
            lo, hi = block.window(lo_us, hi_us)
            out += block.frame_id[lo:hi].tolist()
        lo, hi = self._frames.window(lo_us, hi_us)
        resident = self._frames.frame_id[lo:hi].tolist()
        return out + resident if out else resident

    def _frame_window(self, rng: Optional[TimeRange]) -> tuple[int, int]:
        """Half-open window of resident frame positions with ts in the
        closed range (or every resident frame): the frames that detections
        can be held for. It is read off frames_in_range, so that a ranged
        label probe is one more frames_in_range call in a trace of the store
        (perfbench's traced runs time that call in every workload); the
        range is first cut to the resident frames, so no cold block is
        read."""
        frames = self._frames
        if rng is None:
            return 0, len(frames)
        if not frames:
            return 0, 0
        first_us = frames.ts_us[0]
        if ts_to_micros(rng.start) < first_us:
            if ts_to_micros(rng.end) < first_us:
                return 0, 0
            rng = TimeRange(ts_from_micros(first_us), rng.end)
        ids = self.frames_in_range(rng)
        cold = bisect_left(ids, frames.frame_id[0])  # cold frames that share the first ts
        lo = frames.position(ids[cold]) if cold < len(ids) else 0
        return lo, lo + len(ids) - cold

    # ---------------------------------------------------------- frame blocks

    def _read_frame_block(self, block: FrameBlock, frames: segcodec.FrameColumns) -> None:
        """Append a frame block's frames to `frames`; raises CorruptSegment
        if the block fails its CRC or does not hold what the directory says."""
        n = len(frames)
        segcodec.read_segment(os.path.join(self.root, "segments", block.name),
                              tolerate_tail=False, frames=frames)
        ids = frames.frame_id
        if len(ids) - n != block.count or block.count and (ids[n], ids[-1]) != (
                block.first_id, block.last_id):
            raise CorruptSegment(f"{block.name}: frames do not match the block directory")

    def _cold_block(self, i: int) -> segcodec.FrameColumns:
        """The frames of cold block i, through a cache of COLD_BLOCKS_HELD blocks."""
        name = self._blocks[i].name
        frames = self._cold.pop(name, None)
        if frames is None:
            frames = segcodec.FrameColumns()
            self._read_frame_block(self._blocks[i], frames)
            if len(self._cold) >= COLD_BLOCKS_HELD:
                self._cold.popitem(last=False)
        self._cold[name] = frames
        return frames

    def _cold_index(self, frame_id: int) -> int:
        """The index of the cold block whose id range holds a frame id, or -1."""
        i = bisect_right(self._blocks, frame_id, 0, self._resident_from, key=_FIRST_ID) - 1
        return i if i >= 0 and frame_id <= self._blocks[i].last_id else -1

    def _cold_frame(self, frame_id: int) -> Optional[tuple[segcodec.FrameColumns, int]]:
        """The cold block's frames that hold a frame id and its position
        there, or None if no cold block holds it."""
        i = self._cold_index(frame_id)
        if i < 0:
            return None
        frames = self._cold_block(i)
        pos = frames.position(frame_id)
        return (frames, pos) if pos >= 0 else None

    def _place(self, frame_ids: array) -> array:
        """The resident positions of frame ids (-1 for an id no frame block
        holds). A cold id first makes its block, and every block after it,
        resident (_reside_from)."""
        positions = self._frames.positions(frame_ids)
        if self._resident_from and frame_ids and min(positions) < 0:
            i = self._cold_index(min(frame_ids))
            if i >= 0:
                self._reside_from(i)
                positions = self._frames.positions(frame_ids)
        return positions

    def _reside_from(self, i: int) -> None:
        """Make frame blocks i.. resident: put the frames of the cold ones
        among them before the resident frames. Every held detection's
        position moves up by the frames put before it."""
        older = segcodec.FrameColumns()
        for block in self._blocks[i:self._resident_from]:
            self._read_frame_block(block, older)
            self._cold.pop(block.name, None)
        for name in older.__slots__:
            getattr(self._frames, name)[0:0] = getattr(older, name)
        at = self._detections.position
        at[:] = array("q", map(add, at, repeat(len(older))))
        self._resident_from = i
        self._cold_frames -= len(older)

    def find_by_label(self, label: str, rng: Optional[TimeRange] = None,
                      order: str = "asc", limit: Optional[int] = None,
                      kind: Optional[str] = None) -> list[LabelHit]:
        """Sightings of a label ordered by frame timestamp.

        Raw detections supply exact hits; sightings that were migrated to
        warm/cold summaries come back as one coarse hit per summary bucket,
        anchored at the bucket's last sighting frame.

        "asc" orders hits by (frame ts, frame id). Among hits tied on both,
        summaries come first, in creation order, then raw detections in
        append order. "desc" is the exact reverse of "asc", so at a tie the
        newest raw detection leads and an exact sighting beats a coarse
        summary.

        `kind` keeps only hits of that kind ("object" or "person"); `limit`
        then keeps the first `limit` hits. Raw hits are read straight off the
        postings of (label, kind), which are sorted by (frame position, seq)
        and so by frame ts too; without a kind the two kinds' windows are
        merged on that key. They are then merged with the label's matching
        summaries, and a hit is built only once it is taken. Without a limit
        every posting in the range is read. With one the walk stops once
        enough hits are out, so a latest-sighting probe (order="desc",
        limit=1) reads one posting plus the summaries.
        """
        desc = order == "desc"
        lo, hi = self._frame_window(rng)
        dets = self._detections
        frames = self._frames
        ids, ts_us, at = frames.frame_id, frames.ts_us, dets.position.__getitem__

        def raw_keys(postings):
            # sort keys: (ts_us, frame_id, 0 = summary | 1 = raw, index)
            window = range(bisect_left(postings, lo, key=at), bisect_left(postings, hi, key=at))
            for seq in map(postings.__getitem__, reversed(window) if desc else window):
                pos = at(seq)
                yield ts_us[pos], ids[pos], 1, seq
        lo_us = ts_to_micros(rng.start) if rng else None
        hi_us = ts_to_micros(rng.end) if rng else None
        summary_keys = sorted(
            ((s.last_ts_us, s.last_frame, 0, n)
             for n, s in enumerate(self._label_summaries)
             if s.label == label and (kind is None or s.kind == kind)
             and (lo_us is None or not (s.last_ts_us < lo_us or s.first_ts_us > hi_us))),
            reverse=desc)
        keys = heapq.merge(summary_keys, *(raw_keys(dets.postings_of(label, k))
                                           for k in ((kind,) if kind is not None else KINDS)),
                           reverse=desc)
        summaries = self._label_summaries
        return [LabelHit(n, ts, self) if is_raw else LabelHit(-1, ts, self, summaries[n])
                for ts, _frame_id, is_raw, n in islice(keys, limit)]

    def has_sighting(self, frame_id: int, label: str, kind: str) -> bool:
        """True iff a raw detection of (label, kind) in this frame is held."""
        pos = self._frames.position(frame_id)
        at = self._detections.position
        postings = self._detections.postings_of(label, kind)
        i = bisect_left(postings, pos, key=at.__getitem__)
        return i < len(postings) and at[postings[i]] == pos

    def detections_from(self, seq: int) -> list[tuple[int, Detection]]:
        """Detections from seq on, each built from the columns."""
        dets = self._detections
        return [(s, dets.detection(s)) for s in range(seq, len(dets))]

    def detection_count(self) -> int:
        return len(self._detections)

    def activities(self, name: Optional[str] = None, subject: Optional[str] = None,
                   rng: Optional[TimeRange] = None) -> list[ActivityEvent]:
        out = []
        for ev in self._activities:
            if name is not None and ev.name != name:
                continue
            if subject is not None and ev.subject != subject:
                continue
            if rng is not None and (ev.end < rng.start or ev.start > rng.end):
                continue
            out.append(ev)
        out.sort(key=lambda e: (e.start, e.end, e.subject))
        return out

    def activity_summaries(self, name: Optional[str] = None,
                           subject: Optional[str] = None,
                           rng: Optional[TimeRange] = None) -> list[ActivitySummary]:
        out = []
        if rng is not None:
            lo_us, hi_us = ts_to_micros(rng.start), ts_to_micros(rng.end)
        for s in self._activity_summaries:
            if name is not None and s.name != name:
                continue
            if subject is not None and s.subject != subject:
                continue
            if rng is not None and (s.bucket_us + s.width_us <= lo_us or s.bucket_us >= hi_us):
                continue
            out.append(s)
        out.sort(key=lambda s: (s.bucket_us, s.subject, s.name))
        return out

    def label_summaries(self, label: Optional[str] = None) -> list[LabelSummary]:
        return [s for s in self._label_summaries if label is None or s.label == label]

    # --------------------------------------------------------------- coverage

    def mark_covered(self, subject: Optional[str], activity: str, rng: TimeRange) -> None:
        if self.mode != "rw":
            raise ReadOnlyStore("store opened read-only")
        self._coverage.append((subject, activity, ts_to_micros(rng.start), ts_to_micros(rng.end)))

    def is_covered(self, subject: Optional[str], activity: str, rng: TimeRange) -> bool:
        """True iff the union of matching coverage spans contains the range.

        A span recorded without a subject covers any subject; a query without
        a subject needs subject-agnostic (or all-subject) spans, so only
        subjectless spans count for it. An instant is covered only by a span
        that contains it.
        """
        spans = sorted((lo, hi) for s, a, lo, hi in self._coverage
                       if a == activity and s in (None, subject))
        need_lo, need_hi = ts_to_micros(rng.start), ts_to_micros(rng.end)
        reach = need_lo  # spans so far cover [need_lo, reach] once one meets need_lo
        for lo, hi in spans:
            if lo > reach:
                break
            if hi >= reach:
                if hi >= need_hi:
                    return True
                reach = hi
        return False

    # ------------------------------------------------------------ refinement

    def load_refine_state(self) -> dict:
        """The refinement state: the cursor, the next track id, and copies of
        the track list and of its index (refine.index_tracks)."""
        return {
            "cursor": self._refine_cursor,
            "next_track_id": self._next_track_id,
            "tracks": self.tracks(),
            "index": {key: list(entries) for key, entries in self._index().items()},
        }

    def save_refine_state(self, state: dict, changed: Optional[Iterable[int]] = None) -> None:
        """Replace the refinement state; it becomes durable at the next flush.

        `changed` holds the positions of the tracks that differ from the
        store's: updated in place, or appended with fresh track ids. The
        next flush appends just their rows to the .tracks log. Without it,
        the next flush writes the state whole, and its track ids must be
        unique.

        The state's index, which must be index_tracks of its tracks, is
        adopted as it is; a state without one gets one built when next
        needed."""
        if self.mode != "rw":
            raise ReadOnlyStore("store opened read-only")
        tracks = list(state["tracks"])
        if changed is None and len({t.track_id for t in tracks}) != len(tracks):
            raise ValueError("track ids must be unique")
        self._refine_cursor = state["cursor"]
        self._next_track_id = state["next_track_id"]
        self._tracks = tracks
        self._track_log = None
        self._track_index = state.get("index")
        if changed is None or self._refine_changed is None:
            self._refine_changed = None
        else:
            self._refine_changed.update(changed)

    def tracks(self) -> list[Track]:
        """A copy of the track list; the log read at open is replayed on first use."""
        if self._track_log is not None:
            self._tracks = _replay_tracks(self._track_log)
            self._track_log = None
        return list(self._tracks)

    def _index(self) -> TrackIndex:
        if self._track_index is None:
            self._track_index = index_tracks(self.tracks())
        return self._track_index

    def track_for(self, label: str, kind: str, frame_id: int) -> Optional[Track]:
        """The (label, kind) track whose presence span includes this sighting
        frame; the first such track in track order when spans of several
        overlap (refine.track_containing)."""
        return track_containing(self._index(), self._tracks, label, kind, frame_id)

    # ------------------------------------------------------------- migration

    def migrate_tiers(self, now: datetime, policy: TierPolicy = TierPolicy()) -> MigrationReport:
        """Roll raw detections/activities older than the hot window into hourly
        summaries, and hourly summaries older than the warm window into daily
        ones. Frame metadata survives in every tier so reprocessing can still
        target frames: no frame block is rewritten, the log's frames are
        sealed into a new one, and the detection blocks are written afresh.
        Raw records in migrated ranges are gone afterwards. The hot cutoff is
        recorded, and an open makes only the frame blocks that meet it
        resident.

        Both kinds of summary row take the same two steps: new hourly rows
        merge into the hourly row of their key, or are appended
        (_merge_into), and hourly rows older than the warm window merge per
        key and day into the daily row of that day (_roll_daily). The report
        counts label rows; hourly_created and daily_created count rows added.

        Tracks whose sightings were rolled up keep their spans and fused
        estimate. The refine cursor is renumbered with the detections it
        counts, so detections appended later are still refined.

        The new summaries, cursor and tables are built apart and installed
        by the commit that publishes them, so a migration that fails leaves
        the store as it was."""
        report = MigrationReport(bytes_before=self._bytes_on_disk())
        hot_us = ts_to_micros(now - policy.hot_window)
        warm_us = ts_to_micros(now - policy.warm_window)
        with self.writer_role("migrate"):
            if self._pending:
                self.flush()

            dets = self._detections
            frame_ts_us = self._frames.ts_us
            keep: list[int] = []  # seqs of the detections that stay raw
            groups: dict[tuple[str, str, int], list[int]] = {}
            for seq, pos in enumerate(dets.position):
                ts_us = frame_ts_us[pos]
                if ts_us < hot_us:
                    key = (dets.labels[dets.label_id[seq]], KINDS[dets.kind[seq]],
                           ts_us - ts_us % HOUR_US)
                    groups.setdefault(key, []).append(seq)
                else:
                    keep.append(seq)
            keep_activities: list[ActivityEvent] = []
            old_activities: list[ActivityEvent] = []
            for ev in self._activities:
                (old_activities if ts_to_micros(ev.end) < hot_us else keep_activities).append(ev)
            report.detections_migrated = len(dets) - len(keep)
            report.activities_migrated = len(old_activities)

            labels = list(self._label_summaries)
            report.hourly_created = _merge_into(labels, [
                self._summarize(label, kind, bucket_us, seqs)
                for (label, kind, bucket_us), seqs in sorted(groups.items())], _merge_labels)
            labels, report.hourly_rolled, report.daily_created = _roll_daily(
                labels, warm_us, _merge_labels)
            activities = list(self._activity_summaries)
            _merge_into(activities, [
                ActivitySummary(ev.subject, ev.name, "hourly", bucket_us, seconds, ev.prob, ev.loc)
                for ev in old_activities
                for bucket_us, seconds in bucket_seconds(
                    ts_to_micros(ev.start), ts_to_micros(ev.end), HOUR_US)], _merge_activities)
            activities = _roll_daily(activities, warm_us, _merge_activities)[0]
            summaries = dict(_label_summaries=labels, _activity_summaries=activities,
                             _hot_from_us=hot_us)

            if report.detections_migrated or report.activities_migrated:
                self._rewrite_detections(keep, keep_activities, _refine_cursor=bisect_left(
                    keep, self._refine_cursor), **summaries)
            else:
                self._commit(**summaries)
        report.bytes_after = self._bytes_on_disk()
        return report

    def _summarize(self, label: str, kind: str, bucket_us: int, seqs: list[int]) -> LabelSummary:
        """Fuse the given detections into one hourly summary, reading their
        frames' time and position straight off the columns."""
        frames, dets = self._frames, self._detections
        positions = [dets.position[seq] for seq in seqs]
        first_ts, first_frame = min((frames.ts_us[p], frames.frame_id[p]) for p in positions)
        last_ts, last_frame = max((frames.ts_us[p], frames.frame_id[p]) for p in positions)
        loc = None
        miss = 1.0
        for seq, p in zip(seqs, positions):
            obs = observation_at(frames.x[p], frames.y[p])
            loc = obs if loc is None else fuse(loc, obs)
            miss *= (1.0 - dets.confidence[seq])
        return LabelSummary(
            label=label, kind=kind, tier="hourly", bucket_us=bucket_us, count=len(seqs),
            first_frame=first_frame, last_frame=last_frame,
            first_ts_us=first_ts, last_ts_us=last_ts,
            loc=loc, detect_prob=1.0 - miss,
        )

    def _rewrite_detections(self, keep: list[int], activities: list[ActivityEvent],
                            **new) -> None:
        """Seal the log's frames into a frame block, write the kept
        detections (by seq), then `activities`, as detection blocks of
        segment_max_records each, and commit them with `new` (see _commit).
        No frame block is rewritten, so the kept detections keep their frame
        positions; coverage is historical fact and stays as it is."""
        f0, f1 = self._log_start[0], self._durable[0]
        blocks = self._blocks + ([self._write_frame_block(self._new_name(".frames"), f0, f1)]
                                 if f1 > f0 else [])
        dets = self._detections.select(keep)
        counts = (len(dets), len(activities))
        names = []
        for lo in range(0, sum(counts), self._segment_max):
            name = self._new_name(".blk")
            _write_durable(os.path.join(self.root, "segments", name), segcodec.encode_detection_block(
                dets, activities, _split(counts, lo),
                _split(counts, min(lo + self._segment_max, sum(counts)))))
            names.append(name)
        held = (f1, *counts)
        # its sweep deletes the old detection blocks and the log
        self._commit(compact=True, _blocks=blocks, _segments=names, _log_bytes=0, _log_start=held,
                     _durable=held, _detections=dets, _activities=activities, **new)

    # ------------------------------------------------------------------ stats

    def _bytes_on_disk(self) -> int:
        """The manifest's size plus the sizes of the files it names."""
        return os.path.getsize(os.path.join(self.root, "manifest.json")) + sum(
            os.path.getsize(os.path.join(self.root, "segments", n)) for n in self._named_files())

    def stats(self) -> StoreStats:
        nbytes = self._bytes_on_disk()
        frames = self.frame_count()
        return StoreStats(
            bytes_on_disk=nbytes,
            frames=frames,
            detections=len(self._detections),
            tracks=len(self._tracks) if self._track_log is None else _refine_state(self._track_log)[2],
            bytes_per_frame=nbytes / max(frames, 1),
            refine_state_bytes=self._tracks_bytes,
            refine_log_rows=self._tracks_rows,
            frame_blocks=len(self._blocks),
            resident_frame_blocks=len(self._blocks) - self._resident_from + len(self._cold),
        )


def _split(counts: tuple[int, int], k: int) -> tuple[int, int]:
    """How many detections and activities the first k records hold, with
    `counts` of each written in that order."""
    detections = min(k, counts[0])
    return detections, k - detections


def bucket_seconds(start_us: int, end_us: int, width_us: int) -> Iterator[tuple[int, float]]:
    """The seconds of the interval [start_us, end_us] in each bucket of
    width_us that it meets, as (bucket start, seconds); an instant is one
    piece of 0 seconds."""
    bucket_us = start_us - start_us % width_us
    while bucket_us <= end_us:
        seconds = (min(end_us, bucket_us + width_us) - max(start_us, bucket_us)) / 1e6
        if seconds > 0 or start_us == end_us:
            yield bucket_us, seconds
        bucket_us += width_us


def _merge_labels(a: LabelSummary, b: LabelSummary) -> LabelSummary:
    """The sightings of both rows as one row of a's key: counts add,
    locations fuse, first and last widen, detect probabilities noisy-OR."""
    first_ts, first_frame = min((a.first_ts_us, a.first_frame), (b.first_ts_us, b.first_frame))
    last_ts, last_frame = max((a.last_ts_us, a.last_frame), (b.last_ts_us, b.last_frame))
    return replace(a, count=a.count + b.count, first_frame=first_frame, last_frame=last_frame,
                   first_ts_us=first_ts, last_ts_us=last_ts, loc=fuse(a.loc, b.loc),
                   detect_prob=1.0 - (1.0 - a.detect_prob) * (1.0 - b.detect_prob))


def _merge_activities(a: ActivitySummary, b: ActivitySummary) -> ActivitySummary:
    """Both rows as one row of a's key: seconds add, the larger probability,
    the first location that is not None."""
    return replace(a, seconds=a.seconds + b.seconds, prob=max(a.prob, b.prob),
                   loc=a.loc if a.loc is not None else b.loc)


def _merge_into(rows: list, new: Iterable, merge) -> int:
    """Merge each new row, in order, into the row of `rows` with its key, or
    append it; return how many rows were appended."""
    at: dict = {}
    for i, s in enumerate(rows):
        at.setdefault(s.key, i)
    held = len(rows)
    for s in new:
        i = at.get(s.key)
        if i is None:
            at[s.key] = len(rows)
            rows.append(s)
        else:
            rows[i] = merge(rows[i], s)
    return len(rows) - held


def _roll_daily(rows: list, warm_us: int, merge) -> tuple[list, int, int]:
    """Merge the hourly rows older than warm_us, per key and day, into the
    daily row of that day. Return the rows, how many hourly rows rolled and
    how many daily rows were added (in key order)."""
    kept, rolled = [], []
    for s in rows:
        if s.tier == "hourly" and s.bucket_us < warm_us:
            rolled.append(replace(s, tier="daily", bucket_us=s.bucket_us - s.bucket_us % DAY_US))
        else:
            kept.append(s)
    rolled.sort(key=attrgetter("key"))  # stable: a day's hours merge in row order
    return kept, len(rolled), _merge_into(kept, rolled, merge)


# ---------------------------------------------------------------------------
# (de)serialization: a track row and a state record per framed record of the
# .tracks log, and a flat row per tier summary in the manifest; a location is
# the six numbers of _loc_row

TAG_TRACK = 4
TAG_REFINE_STATE = 5
# track id, kind code, *_loc_row, observation count, miss probability,
# first and last sighting in us, first and last frame id; then the label
_TRACK_ROW = struct.Struct("<IB6dIdqqII")
_TRACK_ID = struct.Struct("<I")
_REFINE_STATE = struct.Struct("<qqII")  # cursor, next track id, tracks, track rows


def _loc_row(loc: LocationEstimate) -> list:
    (c00, c01), (c10, c11) = loc.cov
    return [loc.mean[0], loc.mean[1], c00, c01, c10, c11]


def _loc_from_row(mx, my, c00, c01, c10, c11) -> LocationEstimate:
    return LocationEstimate(mean=(mx, my), cov=((c00, c01), (c10, c11)))


def _track_record(t: Track) -> bytes:
    return segcodec.frame_record(TAG_TRACK, _TRACK_ROW.pack(
        t.track_id, KINDS.index(t.kind), *_loc_row(t.loc), t.observation_count, t.miss_prob,
        ts_to_micros(t.first_seen), ts_to_micros(t.last_seen), t.first_frame, t.last_frame,
    ) + t.label.encode("utf-8"))


def _track_from_payload(payload: bytes) -> Track:
    track_id, kind, mx, my, c00, c01, c10, c11, n, miss, first_us, last_us, f0, f1 = (
        _TRACK_ROW.unpack_from(payload))
    return Track(
        track_id=track_id, label=payload[_TRACK_ROW.size:].decode("utf-8"), kind=KINDS[kind],
        loc=_loc_from_row(mx, my, c00, c01, c10, c11), observation_count=n, miss_prob=miss,
        first_seen=ts_from_micros(first_us), last_seen=ts_from_micros(last_us),
        first_frame=f0, last_frame=f1,
    )


def _state_record(cursor: int, next_track_id: int, tracks: int, rows: int) -> bytes:
    return segcodec.frame_record(TAG_REFINE_STATE,
                                 _REFINE_STATE.pack(cursor, next_track_id, tracks, rows))


_STATE_RECORD_SIZE = len(_state_record(0, 0, 0, 0))


def _refine_state(log: bytes) -> tuple[int, int, int, int]:
    """(cursor, next track id, tracks, track rows) from the state record
    that ends a committed .tracks log."""
    if len(log) >= _STATE_RECORD_SIZE:
        for tag, payload in segcodec.framed_records(log[-_STATE_RECORD_SIZE:]):
            if tag == TAG_REFINE_STATE:
                return _REFINE_STATE.unpack(payload)
    raise CorruptSegment("the .tracks log does not end in a state record")


def _replay_tracks(log: bytes) -> list[Track]:
    """The tracks of a committed .tracks log: the last row of each track
    id, in the order the ids first appear."""
    _cursor, _next_id, tracks, rows = _refine_state(log)
    at: dict[int, int] = {}  # track id -> position
    last: list[bytes] = []   # the last row of each track, by position
    seen = 0
    for tag, payload in segcodec.framed_records(log):
        if tag == TAG_TRACK:
            seen += 1
            pos = at.setdefault(_TRACK_ID.unpack_from(payload)[0], len(last))
            if pos == len(last):
                last.append(payload)
            else:
                last[pos] = payload
        elif tag != TAG_REFINE_STATE:
            raise CorruptSegment(f"unknown .tracks record tag {tag}")
    if (len(last), seen) != (tracks, rows):
        raise CorruptSegment(f"the .tracks log holds {len(last)} tracks in {seen} rows, "
                             f"not {tracks} in {rows}")
    return [_track_from_payload(p) for p in last]


def _label_summary_row(s: LabelSummary) -> list:
    """[label, kind, tier, bucket_us, count, first_frame, last_frame,
    first_ts_us, last_ts_us, *loc, detect_prob]"""
    return [s.label, s.kind, s.tier, s.bucket_us, s.count, s.first_frame, s.last_frame,
            s.first_ts_us, s.last_ts_us, *_loc_row(s.loc), s.detect_prob]


def _label_summary_from_row(row: list) -> LabelSummary:
    return LabelSummary(*row[:9], _loc_from_row(*row[9:15]), row[15])


def _activity_summary_row(s: ActivitySummary) -> list:
    """[subject, name, tier, bucket_us, seconds, prob, *loc], the location
    left out when there is none"""
    return [s.subject, s.name, s.tier, s.bucket_us, s.seconds, s.prob,
            *(_loc_row(s.loc) if s.loc is not None else ())]


def _activity_summary_from_row(row: list) -> ActivitySummary:
    return ActivitySummary(*row[:6], _loc_from_row(*row[6:]) if len(row) > 6 else None)
