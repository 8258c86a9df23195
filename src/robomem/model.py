"""Domain types shared by every module.

All types here are immutable values (frozen dataclasses); no I/O happens in
this module. Timestamps are timezone-aware UTC datetimes with microsecond
resolution and serialize as ISO-8601.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Optional, Union

from .errors import InvalidRecord, NonSPDCovariance

OBJECT = "object"
PERSON = "person"
KINDS = (OBJECT, PERSON)

PROVENANCE_INGESTED = "ingested"
PROVENANCE_REPROCESSED = "reprocessed"
PROVENANCES = (PROVENANCE_INGESTED, PROVENANCE_REPROCESSED)


# ---------------------------------------------------------------------------
# time helpers

def ts_parse(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime."""
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def ts_format(dt: datetime) -> str:
    dt = dt.astimezone(timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.%fZ") if dt.microsecond else dt.strftime("%Y-%m-%dT%H:%M:%SZ")


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def ts_to_micros(dt: datetime) -> int:
    """Microseconds since the epoch of an aware datetime, exactly."""
    return (dt - _EPOCH) // _MICROSECOND


def ts_from_micros(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=us)


# ---------------------------------------------------------------------------
# tiny 2x2 linear algebra (covariances only; no dependency needed)

Mat2 = tuple[tuple[float, float], tuple[float, float]]
Vec2 = tuple[float, float]


def mat2_is_spd(m: Mat2, sym_tol: float = 1e-9) -> bool:
    (a, b), (c, d) = m
    if not all(math.isfinite(v) for v in (a, b, c, d)):
        return False
    if abs(b - c) > sym_tol:
        return False
    # Cholesky existence for 2x2: a > 0 and det > 0
    return a > 0.0 and a * d - b * c > 0.0


def mat2_inv(m: Mat2) -> Mat2:
    (a, b), (c, d) = m
    det = a * d - b * c
    if det <= 0.0:
        raise NonSPDCovariance(f"singular covariance, det={det}")
    return ((d / det, -b / det), (-c / det, a / det))


def mat2_add(m: Mat2, n: Mat2) -> Mat2:
    return (
        (m[0][0] + n[0][0], m[0][1] + n[0][1]),
        (m[1][0] + n[1][0], m[1][1] + n[1][1]),
    )


def mat2_vec(m: Mat2, v: Vec2) -> Vec2:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat2_eigvals(m: Mat2) -> tuple[float, float]:
    (a, b), (_, d) = m
    tr, det = a + d, a * d - b * m[1][0]
    disc = math.sqrt(max(tr * tr / 4.0 - det, 0.0))
    return (tr / 2.0 - disc, tr / 2.0 + disc)


# ---------------------------------------------------------------------------
# core records

def _normalize_angle(deg: float) -> float:
    """Wrap an angle in degrees into [-180, 180)."""
    a = math.fmod(deg + 180.0, 360.0)
    if a < 0:
        a += 360.0
    return a - 180.0


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    z: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def normalized(self) -> "Pose":
        return Pose(self.x, self.y, self.z, _normalize_angle(self.roll),
                    _normalize_angle(self.pitch), _normalize_angle(self.yaw))


@dataclass(frozen=True)
class FrameMeta:
    frame_id: int
    ts: datetime
    pose: Pose


@dataclass(frozen=True)
class Detection:
    frame_id: int
    label: str
    kind: str
    confidence: float = 1.0


@dataclass(frozen=True)
class LocationEstimate:
    mean: Vec2
    cov: Mat2

    def require_spd(self) -> None:
        if not mat2_is_spd(self.cov):
            raise NonSPDCovariance(f"covariance {self.cov} not SPD")


@dataclass(frozen=True)
class Track:
    """A fused entity with one presence span, from its first sighting
    (first_seen, first_frame) to its last (last_seen, last_frame)."""
    track_id: int
    label: str
    kind: str
    loc: LocationEstimate
    observation_count: int
    # running product of (1 - confidence_i); kept so existence can be
    # updated incrementally without replaying confidences
    miss_prob: float
    first_seen: datetime
    last_seen: datetime
    first_frame: int
    last_frame: int


@dataclass(frozen=True)
class ActivityEvent:
    subject: str
    name: str
    start: datetime
    end: datetime
    loc: Optional[LocationEstimate] = None
    prob: float = 1.0
    provenance: str = PROVENANCE_INGESTED


FeedRecord = Union[FrameMeta, Detection, ActivityEvent]


# ---------------------------------------------------------------------------
# query AST

@dataclass(frozen=True)
class TimeRange:
    start: datetime
    end: datetime

    def contains(self, ts: datetime) -> bool:
        return self.start <= ts <= self.end

    def overlap_seconds(self, start: datetime, end: datetime) -> float:
        lo = max(self.start, start)
        hi = min(self.end, end)
        return max((hi - lo).total_seconds(), 0.0)


@dataclass(frozen=True)
class LastSeen:
    kind: str
    label: str


@dataclass(frozen=True)
class Present:
    kind: str
    label: str
    range: TimeRange


@dataclass(frozen=True)
class Did:
    activity: str
    subject: Optional[str]
    range: TimeRange


@dataclass(frozen=True)
class Duration:
    activity: str
    subject: Optional[str]
    range: TimeRange
    bucket: Optional[str] = None  # "hour" | "day"


@dataclass(frozen=True)
class WhereMost:
    activity: str
    subject: Optional[str]
    range: TimeRange


QueryAST = Union[LastSeen, Present, Did, Duration, WhereMost]


# ---------------------------------------------------------------------------
# answers

@dataclass(frozen=True)
class ReprocessRequest:
    query: Optional[QueryAST]
    predicate_label: Optional[str]
    range: TimeRange
    frame_ids: tuple[int, ...]
    budget: int


@dataclass(frozen=True)
class LocationAnswer:
    loc: LocationEstimate
    ts: datetime
    frame_id: int
    confidence: float
    coarse: bool = False


@dataclass(frozen=True)
class BoolAnswer:
    value: bool
    prob: float
    supporting_frames: tuple[int, ...]
    coarse: bool = False


@dataclass(frozen=True)
class DurationAnswer:
    total_seconds: float
    per_bucket: tuple[tuple[datetime, float], ...] = ()
    coarse: bool = False


@dataclass(frozen=True)
class PlaceAnswer:
    cell: tuple[int, int]
    cell_center: Vec2
    seconds: float
    coarse: bool = False


@dataclass(frozen=True)
class NotFound:
    coarse: bool = False


@dataclass(frozen=True)
class NeedsReprocess:
    request: ReprocessRequest
    coarse: bool = False


Answer = Union[LocationAnswer, BoolAnswer, DurationAnswer, PlaceAnswer, NotFound, NeedsReprocess]


# ---------------------------------------------------------------------------
# validation

def validate_record(record: FeedRecord, frame_exists=None) -> None:
    """Check every type invariant; raise InvalidRecord naming the first failure.

    frame_exists, when given, is a predicate used to enforce referential
    integrity of Detection.frame_id at ingest time.
    """
    if isinstance(record, FrameMeta):
        if not isinstance(record.frame_id, int) or record.frame_id < 0:
            raise InvalidRecord("frame_id", "must be a non-negative integer")
        if record.ts.tzinfo is None:
            raise InvalidRecord("ts", "timestamp must be timezone-aware")
        p = record.pose
        for name in ("x", "y", "z", "roll", "pitch", "yaw"):
            if not math.isfinite(getattr(p, name)):
                raise InvalidRecord(name, "not finite")
        for name in ("roll", "pitch", "yaw"):
            v = getattr(p, name)
            if not -180.0 <= v < 180.0:
                raise InvalidRecord(name, "angle outside [-180, 180)")
    elif isinstance(record, Detection):
        if not isinstance(record.frame_id, int) or record.frame_id < 0:
            raise InvalidRecord("frame_id", "must be a non-negative integer")
        if not record.label:
            raise InvalidRecord("label", "must be non-empty")
        if record.label != record.label.lower():
            raise InvalidRecord("label", "must be lowercase at ingest")
        if record.kind not in KINDS:
            raise InvalidRecord("kind", f"must be one of {KINDS}")
        if not 0.0 <= record.confidence <= 1.0:
            raise InvalidRecord("confidence", "out of [0,1]")
        if frame_exists is not None and not frame_exists(record.frame_id):
            raise InvalidRecord("frame_id", "unknown frame")
    elif isinstance(record, ActivityEvent):
        if not record.subject:
            raise InvalidRecord("subject", "must be non-empty")
        if not record.name:
            raise InvalidRecord("name", "must be non-empty")
        if record.start > record.end:
            raise InvalidRecord("start", "start after end")
        if not 0.0 <= record.prob <= 1.0:
            raise InvalidRecord("prob", "out of [0,1]")
        if record.provenance not in PROVENANCES:
            raise InvalidRecord("provenance", f"must be one of {PROVENANCES}")
        if record.loc is not None and not mat2_is_spd(record.loc.cov):
            raise InvalidRecord("loc", "covariance not SPD")
    else:
        raise InvalidRecord("type", f"unknown record type {type(record).__name__}")


# ---------------------------------------------------------------------------
# JSON codecs (feed format and answer serialization)

def loc_to_json(loc: LocationEstimate) -> dict:
    return {"mean": list(loc.mean), "cov": [list(r) for r in loc.cov]}


def loc_from_json(d: dict) -> LocationEstimate:
    return LocationEstimate(
        mean=(float(d["mean"][0]), float(d["mean"][1])),
        cov=(
            (float(d["cov"][0][0]), float(d["cov"][0][1])),
            (float(d["cov"][1][0]), float(d["cov"][1][1])),
        ),
    )


def record_to_json(record: FeedRecord) -> dict:
    """Encode a record in the line-delimited feed schema."""
    if isinstance(record, FrameMeta):
        p = record.pose
        return {
            "type": "frame",
            "f": record.frame_id,
            "ts": ts_format(record.ts),
            "pose": {"x": p.x, "y": p.y, "z": p.z, "roll": p.roll, "pitch": p.pitch, "yaw": p.yaw},
        }
    if isinstance(record, Detection):
        return {
            "type": "detection",
            "f": record.frame_id,
            "label": record.label,
            "kind": record.kind,
            "conf": record.confidence,
        }
    if isinstance(record, ActivityEvent):
        out = {
            "type": "activity",
            "subject": record.subject,
            "name": record.name,
            "start": ts_format(record.start),
            "end": ts_format(record.end),
            "conf": record.prob,
        }
        if record.loc is not None:
            out["loc"] = loc_to_json(record.loc)
        if record.provenance != PROVENANCE_INGESTED:
            out["provenance"] = record.provenance
        return out
    raise InvalidRecord("type", f"unknown record type {type(record).__name__}")


def answer_to_json(ans: Answer) -> dict:
    if isinstance(ans, LocationAnswer):
        return {
            "answer": "location",
            "loc": loc_to_json(ans.loc),
            "ts": ts_format(ans.ts),
            "frame_id": ans.frame_id,
            "confidence": ans.confidence,
            "coarse": ans.coarse,
        }
    if isinstance(ans, BoolAnswer):
        return {
            "answer": "bool",
            "value": ans.value,
            "prob": ans.prob,
            "supporting_frames": list(ans.supporting_frames),
            "coarse": ans.coarse,
        }
    if isinstance(ans, DurationAnswer):
        return {
            "answer": "duration",
            "total_seconds": ans.total_seconds,
            "per_bucket": [[ts_format(b), s] for b, s in ans.per_bucket],
            "coarse": ans.coarse,
        }
    if isinstance(ans, PlaceAnswer):
        return {
            "answer": "place",
            "cell": list(ans.cell),
            "cell_center": list(ans.cell_center),
            "seconds": ans.seconds,
            "coarse": ans.coarse,
        }
    if isinstance(ans, NotFound):
        return {"answer": "not_found", "coarse": ans.coarse}
    if isinstance(ans, NeedsReprocess):
        req = ans.request
        return {
            "answer": "needs_reprocess",
            "predicate_label": req.predicate_label,
            "from": ts_format(req.range.start),
            "to": ts_format(req.range.end),
            "frame_ids": list(req.frame_ids),
            "budget": req.budget,
            "coarse": ans.coarse,
        }
    raise TypeError(f"not an answer: {ans!r}")
