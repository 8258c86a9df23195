"""Durable, indexed, tiered storage of frames, detections, tracks and activities.

On-disk layout under the store root:

    manifest.json     versioned manifest; lists the live segment files and
                      tier boundaries. Written atomically (tmp + rename).
    segments/NNNN.seg append-only binary record log (source of truth)
    summaries.json    warm (hourly) and cold (daily) tier summaries
    tracks.json       refinement state (cursor + fused tracks)
    coverage.json     which (subject, activity, range) triples were analyzed
    lock              writer lock, held with flock by the writing process

Segments plus the json sidecars are authoritative. Everything else lives
only in memory and is rebuilt from the segments at open, so no index file is
written:

    frames            one segment.FrameColumns table: typed arrays of frame
                      id, timestamp (us) and pose, in frame-id order. Open
                      and append unpack frame bodies straight into it; a
                      FrameMeta is built only when a caller asks for a frame
                      (frame_by_id, LabelHit.frame). The table doubles as the
                      time index.
    detections        Detection objects in append order (seq = index)
    postings          (label, kind) -> [(frame position, seq)], sorted
    activities        ActivityEvent objects in append order

Appends buffer in memory and become durable at flush(); a crash before flush
loses only unflushed records. Readers load a consistent snapshot at open and
are never blocked by a writer.
"""

from __future__ import annotations

import fcntl
import heapq
import json
import os
from bisect import bisect_left, bisect_right, insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import accumulate, islice
from operator import itemgetter
from typing import Iterable, Optional

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
    Interval,
    KINDS,
    LocationEstimate,
    TimeRange,
    Track,
    loc_from_json,
    loc_to_json,
    ts_from_micros,
    ts_to_micros,
    validate_record,
)
from .refine import RefinePolicy, fuse, observation_from_detection

FORMAT_VERSION = 1
DEFAULT_SEGMENT_RECORDS = 8192

HOUR_US = 3_600_000_000
DAY_US = 24 * HOUR_US

_FIRST = itemgetter(0)


@dataclass(frozen=True)
class TierPolicy:
    hot_window: timedelta = timedelta(days=7)
    warm_window: timedelta = timedelta(days=90)
    obs_sigma_m: float = 2.0


@dataclass
class LabelSummary:
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

    def to_json(self) -> dict:
        return {
            "label": self.label, "kind": self.kind, "tier": self.tier,
            "bucket_us": self.bucket_us, "count": self.count,
            "first_frame": self.first_frame, "last_frame": self.last_frame,
            "first_ts_us": self.first_ts_us, "last_ts_us": self.last_ts_us,
            "loc": loc_to_json(self.loc), "detect_prob": self.detect_prob,
        }

    @staticmethod
    def from_json(d: dict) -> "LabelSummary":
        return LabelSummary(
            label=d["label"], kind=d["kind"], tier=d["tier"],
            bucket_us=d["bucket_us"], count=d["count"],
            first_frame=d["first_frame"], last_frame=d["last_frame"],
            first_ts_us=d["first_ts_us"], last_ts_us=d["last_ts_us"],
            loc=loc_from_json(d["loc"]), detect_prob=d["detect_prob"],
        )


@dataclass
class ActivitySummary:
    subject: str
    name: str
    tier: str
    bucket_us: int
    seconds: float
    count: int
    prob: float
    loc: Optional[LocationEstimate] = None

    def to_json(self) -> dict:
        out = {
            "subject": self.subject, "name": self.name, "tier": self.tier,
            "bucket_us": self.bucket_us, "seconds": self.seconds,
            "count": self.count, "prob": self.prob,
        }
        if self.loc is not None:
            out["loc"] = loc_to_json(self.loc)
        return out

    @staticmethod
    def from_json(d: dict) -> "ActivitySummary":
        return ActivitySummary(
            subject=d["subject"], name=d["name"], tier=d["tier"],
            bucket_us=d["bucket_us"], seconds=d["seconds"],
            count=d["count"], prob=d["prob"],
            loc=loc_from_json(d["loc"]) if "loc" in d else None,
        )


@dataclass(frozen=True)
class LabelHit:
    """One result of find_by_label: a raw sighting, or a summary stand-in.

    A hit carries its frame's timestamp, and its frame id is its detection's;
    `frame` builds the full FrameMeta from the store's frame table when
    asked for."""
    detection: Detection
    ts_us: int
    coarse: bool = False
    count: int = 1
    loc: Optional[LocationEstimate] = None
    summary: Optional[LabelSummary] = None
    frames: Optional[segcodec.FrameColumns] = field(default=None, repr=False, compare=False)

    @property
    def frame_id(self) -> int:
        return self.detection.frame_id

    @property
    def frame(self) -> FrameMeta:
        return self.frames.frame(self.frames.position(self.detection.frame_id))

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


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _atomic_write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, separators=(",", ":")).encode("utf-8"))


class Store:
    """Embedded perception-event store. One writer at a time (advisory lock);
    read-only opens take a snapshot and never block."""

    def __init__(self, root: str, mode: str):
        self.root = root
        self.mode = mode
        self._segments: list[str] = []          # live segment file names
        self._segment_counts: list[int] = []    # record count per live segment
        self._next_segment_no = 0
        self._segment_max = DEFAULT_SEGMENT_RECORDS
        self._pending: list[bytes] = []         # encoded but unflushed records

        self._frames = segcodec.FrameColumns()
        self._detections: list[Detection] = []  # global append order (seq = index)
        # (label, kind) -> [(frame position, seq)], sorted
        self._postings: dict[tuple[str, str], list[tuple[int, int]]] = {}
        self._activities: list[ActivityEvent] = []

        self._label_summaries: list[LabelSummary] = []
        self._activity_summaries: list[ActivitySummary] = []
        self._coverage: list[dict] = []
        self._refine_state: Optional[dict] = None
        self._track_cache: Optional[list[Track]] = None  # decoded _refine_state tracks
        # label -> interval spans of its tracks, built on demand (_track_spans_of)
        self._track_spans: dict[str, tuple[list[tuple[int, int, int]], list[int]]] = {}

        self._lock_fd: Optional[int] = None
        self._active_role: Optional[str] = None
        self._closed = False

    # ------------------------------------------------------------------ open

    @classmethod
    def create(cls, root: str) -> "Store":
        os.makedirs(os.path.join(root, "segments"), exist_ok=True)
        manifest = {
            "version": FORMAT_VERSION,
            "segment_max_records": DEFAULT_SEGMENT_RECORDS,
            "segments": [],
            "next_segment_no": 0,
        }
        _atomic_write_json(os.path.join(root, "manifest.json"), manifest)
        return cls.open(root, mode="rw")

    @classmethod
    def open(cls, root: str, mode: str = "rw") -> "Store":
        if mode not in ("rw", "ro"):
            raise ValueError("mode must be 'rw' or 'ro'")
        manifest_path = os.path.join(root, "manifest.json")
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(f"not a store: {root}")
        with open(manifest_path, "rb") as fh:
            manifest = json.load(fh)
        if manifest["version"] > FORMAT_VERSION:
            raise StoreVersionError(
                f"store version {manifest['version']} newer than supported {FORMAT_VERSION}")
        store = cls(root, mode)
        store._segment_max = manifest.get("segment_max_records", DEFAULT_SEGMENT_RECORDS)
        store._next_segment_no = manifest.get("next_segment_no", 0)
        if mode == "rw":
            store._acquire_lock()
        try:
            store._load(manifest)
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
        self._segments = list(manifest["segments"])
        for i, name in enumerate(self._segments):
            path = os.path.join(self.root, "segments", name)
            is_last = i == len(self._segments) - 1
            frames_before = len(self._frames)
            records, good = segcodec.read_segment(path, tolerate_tail=is_last,
                                                  frames=self._frames)
            if is_last and good != os.path.getsize(path) and self.mode == "rw":
                with open(path, "r+b") as fh:  # drop the torn tail once, up front
                    fh.truncate(good)
            self._segment_counts.append(len(records) + len(self._frames) - frames_before)
            for rec in records:
                self._index_record(rec)
        self._load_sidecars()

    def _load_sidecars(self) -> None:
        p = os.path.join(self.root, "summaries.json")
        if os.path.exists(p):
            with open(p, "rb") as fh:
                d = json.load(fh)
            self._label_summaries = [LabelSummary.from_json(x) for x in d.get("labels", [])]
            self._activity_summaries = [ActivitySummary.from_json(x) for x in d.get("activities", [])]
        p = os.path.join(self.root, "coverage.json")
        if os.path.exists(p):
            with open(p, "rb") as fh:
                self._coverage = json.load(fh)
        p = os.path.join(self.root, "tracks.json")
        if os.path.exists(p):
            with open(p, "rb") as fh:
                self._refine_state = json.load(fh)

    # --------------------------------------------------------------- indexing

    def _index_record(self, rec: FeedRecord) -> None:
        """Index a detection or an activity; frames go to the frame table."""
        if isinstance(rec, Detection):
            pos = self._frames.position(rec.frame_id)
            if pos < 0:
                raise CorruptSegment(f"detection of unknown frame {rec.frame_id}")
            seq = len(self._detections)
            self._detections.append(rec)
            insort(self._postings.setdefault((rec.label, rec.kind), []), (pos, seq))
        elif isinstance(rec, ActivityEvent):
            self._activities.append(rec)
            if rec.provenance == "ingested":
                # an ingested event is itself evidence of analyzed time
                self._coverage.append({
                    "subject": rec.subject, "activity": rec.name,
                    "from_us": ts_to_micros(rec.start), "to_us": ts_to_micros(rec.end),
                })

    # ----------------------------------------------------------------- writes

    def append(self, record: FeedRecord) -> None:
        if self.mode != "rw":
            raise ReadOnlyStore("store opened read-only")
        frame_exists = lambda f: self._frames.position(f) >= 0
        validate_record(record, frame_exists=frame_exists)
        if isinstance(record, FrameMeta):
            if record.frame_id <= self.max_frame_id:
                raise InvalidRecord("frame_id", "frame ids must be strictly increasing")
            if self._frames and ts_to_micros(record.ts) < self._frames.ts_us[-1]:
                raise InvalidRecord("ts", "timestamps must be non-decreasing")
        data = segcodec.encode_record(record)
        self._pending.append(data)
        # index the decoded form so in-memory state always equals what a
        # reopened store would see (pose z/angles quantize through f32)
        if isinstance(record, FrameMeta):
            self._frames.append_encoded(data)
        else:
            self._index_record(segcodec.decode_payload(data[0], data[3:-4]))

    def flush(self) -> None:
        """Make all pending appends durable and persist the sidecars."""
        if self.mode != "rw":
            raise ReadOnlyStore("store opened read-only")
        if self._pending:
            buf = iter(self._pending)
            remaining = len(self._pending)
            chunk: list[bytes] = []
            while remaining > 0:
                if not self._segments or self._segment_counts[-1] >= self._segment_max:
                    name = f"{self._next_segment_no:04d}.seg"
                    self._next_segment_no += 1
                    self._segments.append(name)
                    self._segment_counts.append(0)
                    open(os.path.join(self.root, "segments", name), "wb").close()
                room = self._segment_max - self._segment_counts[-1]
                take = min(room, remaining)
                chunk = [next(buf) for _ in range(take)]
                path = os.path.join(self.root, "segments", self._segments[-1])
                with open(path, "ab") as fh:
                    fh.write(b"".join(chunk))
                    fh.flush()
                    os.fsync(fh.fileno())
                self._segment_counts[-1] += take
                remaining -= take
            self._pending = []
        self._write_manifest()
        self._write_sidecars()

    def _write_manifest(self) -> None:
        _atomic_write_json(os.path.join(self.root, "manifest.json"), {
            "version": FORMAT_VERSION,
            "segment_max_records": self._segment_max,
            "segments": self._segments,
            "next_segment_no": self._next_segment_no,
        })

    def _write_sidecars(self) -> None:
        if self._label_summaries or self._activity_summaries:
            _atomic_write_json(os.path.join(self.root, "summaries.json"), {
                "labels": [s.to_json() for s in self._label_summaries],
                "activities": [s.to_json() for s in self._activity_summaries],
            })
        if self._coverage:
            _atomic_write_json(os.path.join(self.root, "coverage.json"), self._coverage)
        if self._refine_state is not None:
            _atomic_write_json(os.path.join(self.root, "tracks.json"), self._refine_state)

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
        if pos < 0:
            raise KeyError(frame_id)
        return self._frames.frame(pos)

    def _frame_ts_us(self, frame_id: int) -> int:
        return self._frames.ts_us[self._frames.position(frame_id)]

    @property
    def max_frame_id(self) -> int:
        return self._frames.frame_id[-1] if self._frames else -1

    def frame_count(self) -> int:
        return len(self._frames)

    def labels(self) -> list[str]:
        out = {label for label, _kind in self._postings}
        out.update(s.label for s in self._label_summaries)
        return sorted(out)

    def time_bounds(self) -> Optional[TimeRange]:
        if not self._frames:
            return None
        ts_us = self._frames.ts_us
        return TimeRange(ts_from_micros(ts_us[0]), ts_from_micros(ts_us[-1]))

    def frames_in_range(self, rng: TimeRange) -> list[int]:
        """Frame ids with ts in the closed range, ascending."""
        ts_us = self._frames.ts_us
        lo = bisect_left(ts_us, ts_to_micros(rng.start))
        hi = bisect_right(ts_us, ts_to_micros(rng.end))
        return self._frames.frame_id[lo:hi].tolist()

    def _frame_window(self, rng: Optional[TimeRange]) -> tuple[int, int]:
        """Half-open window of frame positions with ts in the closed range
        (or every frame). It is read off frames_in_range, so that a ranged
        label probe is one more frames_in_range call in a trace of the store
        (perfbench's traced runs time that call in every workload)."""
        if rng is None:
            return 0, len(self._frames)
        ids = self.frames_in_range(rng)
        lo = self._frames.position(ids[0]) if ids else 0
        return lo, lo + len(ids)

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
        windows = []
        for k in ((kind,) if kind is not None else KINDS):
            postings = self._postings.get((label, k), ())
            windows.append(postings[bisect_left(postings, (lo, -1)):
                                    bisect_left(postings, (hi, -1))])
        window = windows[0] if len(windows) == 1 else list(heapq.merge(*windows))
        ids = self._frames.frame_id
        ts_us = self._frames.ts_us
        # sort keys: (ts_us, frame_id, 0 = summary | 1 = raw, index)
        keys = ((ts_us[pos], ids[pos], 1, seq)
                for pos, seq in (reversed(window) if desc else window))
        lo_us = ts_to_micros(rng.start) if rng else None
        hi_us = ts_to_micros(rng.end) if rng else None
        summary_keys = sorted(
            ((s.last_ts_us, s.last_frame, 0, n)
             for n, s in enumerate(self._label_summaries)
             if s.label == label and (kind is None or s.kind == kind)
             and (lo_us is None or not (s.last_ts_us < lo_us or s.first_ts_us > hi_us))),
            reverse=desc)
        keys = heapq.merge(summary_keys, keys, reverse=desc)
        dets = self._detections
        frames = self._frames
        out = []
        for ts, _frame_id, is_raw, n in islice(keys, limit):
            if is_raw:
                out.append(LabelHit(dets[n], ts, frames=frames))
                continue
            s = self._label_summaries[n]
            det = Detection(frame_id=s.last_frame, label=s.label, kind=s.kind,
                            confidence=s.detect_prob)
            out.append(LabelHit(det, ts, coarse=True, count=s.count,
                                loc=s.loc, summary=s, frames=frames))
        return out

    def detections_from(self, seq: int) -> list[tuple[int, Detection]]:
        return list(enumerate(self._detections[seq:], start=seq))

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
        for s in self._activity_summaries:
            if name is not None and s.name != name:
                continue
            if subject is not None and s.subject != subject:
                continue
            if rng is not None:
                width = HOUR_US if s.tier == "hourly" else DAY_US
                if s.bucket_us + width <= ts_to_micros(rng.start) or s.bucket_us >= ts_to_micros(rng.end):
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
        self._coverage.append({
            "subject": subject, "activity": activity,
            "from_us": ts_to_micros(rng.start), "to_us": ts_to_micros(rng.end),
        })

    def is_covered(self, subject: Optional[str], activity: str, rng: TimeRange) -> bool:
        """True iff the union of matching coverage spans contains the range.

        A span recorded without a subject covers any subject; a query without
        a subject needs subject-agnostic (or all-subject) spans, so only
        subjectless spans count for it.
        """
        spans = []
        for c in self._coverage:
            if c["activity"] != activity:
                continue
            if c["subject"] is not None and subject is not None and c["subject"] != subject:
                continue
            if c["subject"] is not None and subject is None:
                continue
            spans.append((c["from_us"], c["to_us"]))
        if not spans:
            return False
        spans.sort()
        need_lo, need_hi = ts_to_micros(rng.start), ts_to_micros(rng.end)
        covered_to = need_lo
        for lo, hi in spans:
            if lo > covered_to:
                break
            covered_to = max(covered_to, hi)
            if covered_to >= need_hi:
                return True
        return covered_to >= need_hi

    # ------------------------------------------------------------ refinement

    def _decoded_tracks(self) -> list[Track]:
        if self._refine_state is None:
            return []
        if self._track_cache is None:
            self._track_cache = [_track_from_json(t) for t in self._refine_state["tracks"]]
        return self._track_cache

    def load_refine_state(self) -> dict:
        if self._refine_state is None:
            return {"cursor": 0, "next_track_id": 0, "tracks": []}
        return {
            "cursor": self._refine_state["cursor"],
            "next_track_id": self._refine_state["next_track_id"],
            "tracks": list(self._decoded_tracks()),
        }

    def save_refine_state(self, state: dict) -> None:
        """Replace the refinement state; it becomes durable at the next flush.

        A track that is the very object cached at its position is unchanged
        and keeps its encoded form; only the others are encoded again. The
        spans track_for has built move with the changed tracks when tracks
        only change in place or are appended, as a refinement pass does;
        any other change drops them.
        """
        if self.mode != "rw":
            raise ReadOnlyStore("store opened read-only")
        tracks = list(state["tracks"])
        cache = self._track_cache or []
        encoded = self._refine_state["tracks"] if cache else []
        spans = self._track_spans
        keep_spans = len(tracks) >= len(cache)
        moved = set()
        out = []
        for i, t in enumerate(tracks):
            old = cache[i] if i < len(cache) else None
            if old is t:
                out.append(encoded[i])
                continue
            out.append(_track_to_json(t))
            if old is not None and old.label != t.label:
                keep_spans = False
            elif keep_spans and t.label in spans:
                _move_spans(spans[t.label][0], old, t, i)
                moved.add(t.label)
        self._refine_state = {
            "cursor": state["cursor"],
            "next_track_id": state["next_track_id"],
            "tracks": out,
        }
        self._track_cache = tracks
        if keep_spans:
            for label in moved:
                spans[label] = (spans[label][0], _reach(spans[label][0]))
        else:
            self._track_spans = {}

    def tracks(self) -> list[Track]:
        return self.load_refine_state()["tracks"]

    def track_for(self, label: str, frame_id: int) -> Optional[Track]:
        """The track whose presence intervals include this sighting frame; the
        first such track in track order when intervals of several overlap.

        Bisects the label's spans for those starting at or before the frame
        and walks them back only while one of them can still reach it."""
        spans, reach = self._track_spans_of(label)
        best = -1
        i = bisect_right(spans, frame_id, key=_FIRST) - 1
        while i >= 0 and reach[i] >= frame_id:
            _first, last, pos = spans[i]
            if last >= frame_id and (best < 0 or pos < best):
                best = pos
            i -= 1
        return self._track_cache[best] if best >= 0 else None

    def _track_spans_of(self, label: str) -> tuple[list[tuple[int, int, int]], list[int]]:
        """The label's track intervals as (first frame, last frame, track
        position), sorted, and the running maximum of their last frames."""
        out = self._track_spans.get(label)
        if out is None:
            spans = sorted((iv.first_frame, iv.last_frame, pos)
                           for pos, t in enumerate(self._decoded_tracks()) if t.label == label
                           for iv in t.intervals)
            out = self._track_spans[label] = (spans, _reach(spans))
        return out

    # ------------------------------------------------------------- migration

    def migrate_tiers(self, now: datetime, policy: TierPolicy = TierPolicy()) -> MigrationReport:
        """Roll raw detections/activities older than the hot window into hourly
        summaries, and hourly summaries older than the warm window into daily
        ones. Frame metadata survives in every tier so reprocessing can still
        target frames. Rewrites segments; raw records in migrated ranges are
        gone afterwards.

        Tracks whose sightings were rolled up keep their intervals and fused
        estimate. The refine cursor is renumbered with the detections it
        counts, so detections appended later are still refined."""
        report = MigrationReport(bytes_before=self._bytes_on_disk())
        hot_us = ts_to_micros(now - policy.hot_window)
        warm_us = ts_to_micros(now - policy.warm_window)
        with self.writer_role("migrate"):
            if self._pending:
                self.flush()

            keep_detections: list[tuple[int, Detection]] = []
            groups: dict[tuple[str, str, int], list[Detection]] = {}
            for seq, det in enumerate(self._detections):
                ts_us = self._frame_ts_us(det.frame_id)
                if ts_us < hot_us:
                    key = (det.label, det.kind, ts_us - ts_us % HOUR_US)
                    groups.setdefault(key, []).append(det)
                else:
                    keep_detections.append((seq, det))
            for (label, kind, bucket_us), dets in sorted(groups.items()):
                self._label_summaries.append(self._summarize(label, kind, bucket_us, "hourly",
                                                             dets, policy))
                report.detections_migrated += len(dets)
                report.hourly_created += 1

            keep_activities: list[ActivityEvent] = []
            for ev in self._activities:
                if ts_to_micros(ev.end) < hot_us:
                    self._summarize_activity(ev)
                    report.activities_migrated += 1
                else:
                    keep_activities.append(ev)

            # roll old hourly summaries to daily
            fresh: list[LabelSummary] = []
            daily: dict[tuple[str, str, int], LabelSummary] = {}
            for s in self._label_summaries:
                if s.tier == "hourly" and s.bucket_us < warm_us:
                    day = s.bucket_us - s.bucket_us % DAY_US
                    cur = daily.get((s.label, s.kind, day))
                    daily[(s.label, s.kind, day)] = self._merge_summaries(cur, s, day)
                    report.hourly_rolled += 1
                else:
                    fresh.append(s)
            report.daily_created = len(daily)
            self._label_summaries = fresh + [daily[k] for k in sorted(daily)]

            fresh_act: list[ActivitySummary] = []
            daily_act: dict[tuple[str, str, int], ActivitySummary] = {}
            for s in self._activity_summaries:
                if s.tier == "hourly" and s.bucket_us < warm_us:
                    day = s.bucket_us - s.bucket_us % DAY_US
                    cur = daily_act.get((s.subject, s.name, day))
                    if cur is None:
                        daily_act[(s.subject, s.name, day)] = ActivitySummary(
                            subject=s.subject, name=s.name, tier="daily", bucket_us=day,
                            seconds=s.seconds, count=s.count, prob=s.prob, loc=s.loc)
                    else:
                        cur.seconds += s.seconds
                        cur.count += s.count
                        cur.prob = max(cur.prob, s.prob)
                else:
                    fresh_act.append(s)
            self._activity_summaries = fresh_act + [daily_act[k] for k in sorted(daily_act)]

            # check conservation before dropping raw records
            migrated = report.detections_migrated
            summarized = sum(len(d) for d in groups.values())
            if migrated != summarized:
                raise CorruptSegment("migration count mismatch")

            if migrated or report.activities_migrated:
                self._track_spans = {}
                if self._refine_state is not None:
                    cursor = self._refine_state["cursor"]
                    self._refine_state = dict(self._refine_state, cursor=sum(
                        1 for seq, _ in keep_detections if seq < cursor))
                self._rewrite_segments([d for _, d in keep_detections], keep_activities)
            else:
                self._write_sidecars()
        report.bytes_after = self._bytes_on_disk()
        return report

    def _summarize(self, label: str, kind: str, bucket_us: int, tier: str,
                   dets: list[Detection], policy: TierPolicy) -> LabelSummary:
        rp = RefinePolicy(obs_sigma_m=policy.obs_sigma_m)
        loc = None
        miss = 1.0
        first_ts, first_frame = min((self._frame_ts_us(d.frame_id), d.frame_id) for d in dets)
        last_ts, last_frame = max((self._frame_ts_us(d.frame_id), d.frame_id) for d in dets)
        for d in dets:
            obs = observation_from_detection(d, self.frame_by_id(d.frame_id), rp)
            loc = obs if loc is None else fuse(loc, obs)
            miss *= (1.0 - d.confidence)
        return LabelSummary(
            label=label, kind=kind, tier=tier, bucket_us=bucket_us, count=len(dets),
            first_frame=first_frame, last_frame=last_frame,
            first_ts_us=first_ts, last_ts_us=last_ts,
            loc=loc, detect_prob=1.0 - miss,
        )

    def _merge_summaries(self, cur: Optional[LabelSummary], s: LabelSummary,
                         day_us: int) -> LabelSummary:
        if cur is None:
            return LabelSummary(
                label=s.label, kind=s.kind, tier="daily", bucket_us=day_us,
                count=s.count, first_frame=s.first_frame, last_frame=s.last_frame,
                first_ts_us=s.first_ts_us, last_ts_us=s.last_ts_us,
                loc=s.loc, detect_prob=s.detect_prob)
        first_frame, first_ts = ((cur.first_frame, cur.first_ts_us)
                                 if cur.first_ts_us <= s.first_ts_us
                                 else (s.first_frame, s.first_ts_us))
        last_frame, last_ts = ((cur.last_frame, cur.last_ts_us)
                               if cur.last_ts_us >= s.last_ts_us
                               else (s.last_frame, s.last_ts_us))
        return LabelSummary(
            label=s.label, kind=s.kind, tier="daily", bucket_us=day_us,
            count=cur.count + s.count,
            first_frame=first_frame, last_frame=last_frame,
            first_ts_us=first_ts, last_ts_us=last_ts,
            loc=fuse(cur.loc, s.loc),
            detect_prob=1.0 - (1.0 - cur.detect_prob) * (1.0 - s.detect_prob),
        )

    def _summarize_activity(self, ev: ActivityEvent) -> None:
        """Split one event's seconds across hourly buckets."""
        start_us, end_us = ts_to_micros(ev.start), ts_to_micros(ev.end)
        bucket = start_us - start_us % HOUR_US
        while bucket <= end_us:
            lo = max(start_us, bucket)
            hi = min(end_us, bucket + HOUR_US)
            secs = max(hi - lo, 0) / 1e6
            if secs > 0 or start_us == end_us:
                existing = next(
                    (s for s in self._activity_summaries
                     if s.tier == "hourly" and s.subject == ev.subject
                     and s.name == ev.name and s.bucket_us == bucket), None)
                if existing is None:
                    self._activity_summaries.append(ActivitySummary(
                        subject=ev.subject, name=ev.name, tier="hourly",
                        bucket_us=bucket, seconds=secs, count=1, prob=ev.prob, loc=ev.loc))
                else:
                    existing.seconds += secs
                    existing.count += 1
                    existing.prob = max(existing.prob, ev.prob)
                    if existing.loc is None:
                        existing.loc = ev.loc
            bucket += HOUR_US

    def _rewrite_segments(self, detections: list[Detection],
                          activities: list[ActivityEvent]) -> None:
        """Write a fresh segment generation holding frames + surviving records.

        Frames are encoded straight from the frame table, which a migration
        leaves as it is."""
        frames = self._frames
        encoded = [frames.encode(i) for i in range(len(frames))]
        encoded.extend(segcodec.encode_record(r) for r in detections)
        encoded.extend(segcodec.encode_record(r) for r in activities)

        old = list(self._segments)
        new_names: list[str] = []
        new_counts: list[int] = []
        for i in range(0, max(len(encoded), 1), self._segment_max):
            chunk = encoded[i:i + self._segment_max]
            name = f"{self._next_segment_no:04d}.seg"
            self._next_segment_no += 1
            path = os.path.join(self.root, "segments", name)
            with open(path, "wb") as fh:
                fh.write(b"".join(chunk))
                fh.flush()
                os.fsync(fh.fileno())
            new_names.append(name)
            new_counts.append(len(chunk))
        self._segments = new_names
        self._segment_counts = new_counts

        # rebuild the detection and activity state from the surviving records
        self._detections.clear()
        self._postings.clear()
        self._activities.clear()
        saved_cov = self._coverage
        self._coverage = []
        for rec in detections:
            self._index_record(rec)
        for rec in activities:
            self._index_record(rec)
        self._coverage = saved_cov  # coverage is historical fact, not re-derived

        self._write_manifest()
        self._write_sidecars()
        for name in old:
            try:
                os.unlink(os.path.join(self.root, "segments", name))
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------ stats

    def _bytes_on_disk(self) -> int:
        total = 0
        for dirpath, _dirs, files in os.walk(self.root):
            for f in files:
                if f == "lock" or f.endswith(".tmp"):
                    continue
                total += os.path.getsize(os.path.join(dirpath, f))
        return total

    def stats(self) -> StoreStats:
        nbytes = self._bytes_on_disk()
        frames = len(self._frames)
        return StoreStats(
            bytes_on_disk=nbytes,
            frames=frames,
            detections=len(self._detections),
            tracks=len(self._decoded_tracks()),
            bytes_per_frame=nbytes / max(frames, 1),
        )


def _move_spans(spans: list[tuple[int, int, int]], old: Optional[Track], new: Track,
                pos: int) -> None:
    """Replace, in a label's sorted spans, those of the track at `pos` (None
    if it is new) by those of its new version."""
    if old is not None:
        for iv in old.intervals:
            del spans[bisect_left(spans, (iv.first_frame, iv.last_frame, pos))]
    for iv in new.intervals:
        insort(spans, (iv.first_frame, iv.last_frame, pos))


def _reach(spans: list[tuple[int, int, int]]) -> list[int]:
    """Running maximum of the spans' last frames."""
    return list(accumulate((last for _first, last, _pos in spans), max))


# ---------------------------------------------------------------------------
# track (de)serialization for tracks.json

def _track_to_json(t: Track) -> dict:
    return {
        "track_id": t.track_id, "label": t.label, "kind": t.kind,
        "loc": loc_to_json(t.loc),
        "intervals": [[ts_to_micros(iv.start), ts_to_micros(iv.end),
                       iv.first_frame, iv.last_frame] for iv in t.intervals],
        "observation_count": t.observation_count,
        "existence_prob": t.existence_prob,
        "miss_prob": t.miss_prob,
    }


def _track_from_json(d: dict) -> Track:
    return Track(
        track_id=d["track_id"], label=d["label"], kind=d["kind"],
        loc=loc_from_json(d["loc"]),
        intervals=tuple(Interval(start=ts_from_micros(a), end=ts_from_micros(b),
                                 first_frame=f0, last_frame=f1)
                        for a, b, f0, f1 in d["intervals"]),
        observation_count=d["observation_count"],
        existence_prob=d["existence_prob"],
        miss_prob=d["miss_prob"],
    )
