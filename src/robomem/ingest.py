"""Feed parsing and real-time ingestion into the store.

The feed is line-delimited JSON with an explicit "type" tag per line:

    {"type":"frame","f":1,"ts":"...","pose":{"x":..,"y":..,"z":..,"roll":..,"pitch":..,"yaw":..}}
    {"type":"detection","f":1,"label":"remote","kind":"object","conf":0.9}
    {"type":"activity","subject":"dad","name":"sleep","start":"...","end":"...","conf":1.0}

Detections for frame f must follow f's frame line; frame ids must be
strictly increasing. Labels are case-folded at parse time so "Steve" and
"steve" are the same entity.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO, Union

from .errors import InvalidRecord, OutOfOrderFrame, ParseError
from .model import (
    ActivityEvent,
    Detection,
    FeedRecord,
    FrameMeta,
    Pose,
    loc_from_json,
    record_to_json,
    ts_parse,
)
from .store import Store

MAX_ERRORS = 100  # error messages an IngestReport keeps; `rejected` counts them all


def parse_feed_line(line: str, line_no: int = 0) -> FeedRecord:
    """Decode one feed line into a typed record. Raises ParseError on bad
    JSON/schema; invariant violations surface later at validation."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(line_no, f"bad JSON: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError(line_no, "feed line must be a JSON object")
    rtype = obj.get("type")
    try:
        if rtype == "frame":
            pose = obj["pose"]
            return FrameMeta(
                frame_id=int(obj["f"]),
                ts=ts_parse(obj["ts"]),
                pose=Pose(
                    x=float(pose["x"]), y=float(pose["y"]), z=float(pose["z"]),
                    roll=float(pose["roll"]), pitch=float(pose["pitch"]),
                    yaw=float(pose["yaw"]),
                ).normalized(),
            )
        if rtype == "detection":
            return Detection(
                frame_id=int(obj["f"]),
                label=str(obj["label"]).lower(),
                kind=str(obj["kind"]),
                confidence=float(obj.get("conf", 1.0)),
            )
        if rtype == "activity":
            return ActivityEvent(
                subject=str(obj["subject"]).lower(),
                name=str(obj["name"]).lower(),
                start=ts_parse(obj["start"]),
                end=ts_parse(obj["end"]),
                loc=loc_from_json(obj["loc"]) if "loc" in obj else None,
                prob=float(obj.get("conf", 1.0)),
                provenance=obj.get("provenance", "ingested"),
            )
    except (KeyError, TypeError) as e:
        raise ParseError(line_no, f"missing or malformed field: {e}") from None
    except ValueError as e:
        raise ParseError(line_no, str(e)) from None
    raise ParseError(line_no, f"unknown record type {rtype!r}")


def read_feed(fh: TextIO) -> Iterator[Union[FeedRecord, ParseError]]:
    """The feed's records in order. A line that does not decode is yielded as
    its ParseError, so that ingest_stream counts it and reads on."""
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = parse_feed_line(line, line_no)
        except ParseError as e:
            rec = e
        yield rec


def write_feed(fh: TextIO, records: Iterable[FeedRecord]) -> int:
    n = 0
    for rec in records:
        fh.write(json.dumps(record_to_json(rec), separators=(",", ":")) + "\n")
        n += 1
    return n


@dataclass
class IngestReport:
    frames: int = 0
    detections: int = 0
    activities: int = 0
    rejected: int = 0
    elapsed_seconds: float = 0.0
    rate_fps: float = 0.0
    errors: list[str] = field(default_factory=list)


def ingest_stream(source: Iterable[Union[FeedRecord, ParseError]], store: Store) -> IngestReport:
    """Append every valid record; a bad record, or a ParseError read_feed
    yields for a line, is counted and skipped without aborting the stream.

    Flushes each time the records appended since the last flush fill one
    segment (the store's segment_max_records), and once at the end, so a
    crash or a failing source loses at most one segment's records. A flush
    seals where the records fill a segment whenever it runs, so the blocks
    written are those of a single flush at the end."""
    report = IngestReport()
    t0 = time.perf_counter()
    with store.writer_role("ingest"):
        last_frame = store.max_frame_id
        current_frame = None  # last frame accepted in *this* stream
        unflushed, segment = 0, store.segment_max_records
        for rec in source:
            try:
                if isinstance(rec, ParseError):
                    raise rec
                if isinstance(rec, FrameMeta):
                    if rec.frame_id <= last_frame:
                        raise OutOfOrderFrame(rec.frame_id)
                    store.append(rec)
                    last_frame = rec.frame_id
                    current_frame = rec.frame_id
                    report.frames += 1
                elif isinstance(rec, Detection):
                    # streaming contract: detections directly follow their
                    # frame record, so a rejected frame drops its detections
                    if rec.frame_id != current_frame:
                        raise InvalidRecord("frame_id", "detection without preceding frame")
                    store.append(rec)
                    report.detections += 1
                else:
                    store.append(rec)
                    report.activities += 1
            except (ParseError, InvalidRecord, OutOfOrderFrame) as e:
                report.rejected += 1
                if len(report.errors) < MAX_ERRORS:
                    report.errors.append(str(e))
                continue
            unflushed += 1
            if unflushed == segment:
                store.flush()
                unflushed = 0
        store.flush()
    report.elapsed_seconds = time.perf_counter() - t0
    report.rate_fps = report.frames / report.elapsed_seconds if report.elapsed_seconds > 0 else 0.0
    return report
