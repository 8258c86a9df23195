"""Brute-force reference evaluator.

Independent reimplementation of the engine's documented query semantics as
plain linear scans over the raw feed record list, using numpy for the little
linear algebra involved. Used to property-test the engine: over hot-tier
data, engine answers must match these within 1e-9 on locations and exactly
on durations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from robomem.model import (
    ActivityEvent,
    Detection,
    FrameMeta,
    TimeRange,
    ts_to_micros,
)
from robomem.refine import RefinePolicy


@dataclass
class FeedState:
    frames: dict = field(default_factory=dict)      # frame_id -> FrameMeta
    detections: list = field(default_factory=list)  # append order
    activities: list = field(default_factory=list)


def canonicalize(records):
    """Push records through the store codec, matching what a store serves
    (pose z/angles quantize to f32; x/y and timestamps stay exact)."""
    from robomem.segment import decode_payload, encode_record
    out = []
    for r in records:
        data = encode_record(r)
        out.append(decode_payload(data[0], data[3:-4]))
    return out


def feed_state(records) -> FeedState:
    st = FeedState()
    for rec in records:
        if isinstance(rec, FrameMeta):
            st.frames[rec.frame_id] = rec
        elif isinstance(rec, Detection):
            st.detections.append(rec)
        elif isinstance(rec, ActivityEvent):
            st.activities.append(rec)
    return st


# ---------------------------------------------------------------------------
# independent track construction (loops + numpy)

@dataclass
class BruteTrack:
    track_id: int
    label: str
    kind: str
    mean: np.ndarray
    cov: np.ndarray
    span: list  # [first_ts, last_ts, first_frame, last_frame]
    miss: float


def brute_tracks(st: FeedState, policy: RefinePolicy) -> list[BruteTrack]:
    tracks: list[BruteTrack] = []
    s2 = policy.obs_sigma_m ** 2
    for det in st.detections:
        fm = st.frames[det.frame_id]
        obs_mean = np.array([fm.pose.x, fm.pose.y])
        obs_cov = np.eye(2) * s2
        best = None
        for t in tracks:
            if t.label != det.label or t.kind != det.kind:
                continue
            gap = (fm.ts - t.span[1]).total_seconds()
            if gap < 0 or gap > policy.assoc_max_gap_s:
                continue
            diff = obs_mean - t.mean
            s = t.cov + obs_cov
            d = math.sqrt(max(float(diff @ np.linalg.inv(s) @ diff), 0.0))
            if d > policy.assoc_max_mahalanobis:
                continue
            if best is None or (d, t.track_id) < (best[0], best[1]):
                best = (d, t.track_id, t)
        if best is None:
            tracks.append(BruteTrack(
                track_id=len(tracks), label=det.label, kind=det.kind,
                mean=obs_mean, cov=obs_cov,
                span=[fm.ts, fm.ts, fm.frame_id, fm.frame_id],
                miss=1.0 - det.confidence))
        else:
            t = best[2]
            pi = np.linalg.inv(t.cov)
            oi = np.linalg.inv(obs_cov)
            cov = np.linalg.inv(pi + oi)
            t.mean = cov @ (pi @ t.mean + oi @ obs_mean)
            t.cov = cov
            t.miss *= (1.0 - det.confidence)
            t.span[1] = fm.ts
            t.span[3] = fm.frame_id
    return tracks


def track_containing(tracks: list[BruteTrack], label: str, kind: str, frame_id: int):
    for t in tracks:
        if t.label == label and t.kind == kind and t.span[2] <= frame_id <= t.span[3]:
            return t
    return None


# ---------------------------------------------------------------------------
# per-query brute evaluation; returns plain dicts to compare against answers

def brute_last_seen(st: FeedState, kind: str, label: str, policy: RefinePolicy,
                    tracks: list[BruteTrack] | None = None):
    hits = [(st.frames[d.frame_id].ts, d.frame_id, d) for d in st.detections
            if d.label == label and d.kind == kind]
    if not hits:
        return {"answer": "not_found"}
    ts, frame_id, det = max(hits, key=lambda h: (ts_to_micros(h[0]), h[1]))
    if tracks is None:
        tracks = brute_tracks(st, policy)
    t = track_containing(tracks, label, kind, frame_id)
    assert t is not None
    return {
        "answer": "location",
        "mean": t.mean, "cov": t.cov,
        "ts": ts, "frame_id": frame_id,
        "confidence": min(max(1.0 - t.miss, 0.0), 1.0),
    }


def brute_present(st: FeedState, kind: str, label: str, rng: TimeRange):
    hits = [d for d in st.detections
            if d.label == label and d.kind == kind and rng.contains(st.frames[d.frame_id].ts)]
    if hits:
        miss = 1.0
        for d in hits:
            miss *= (1.0 - d.confidence)
        return {
            "answer": "bool", "value": True,
            "prob": min(max(1.0 - miss, 0.0), 1.0),
            "supporting_frames": tuple(sorted({d.frame_id for d in hits})),
        }
    if any(rng.contains(f.ts) for f in st.frames.values()):
        return {"answer": "bool", "value": False, "prob": 0.0, "supporting_frames": ()}
    return {"answer": "not_found"}


def _matching_events(st: FeedState, activity: str, subject, rng: TimeRange):
    evs = [e for e in st.activities
           if e.name == activity
           and (subject is None or e.subject == subject)
           and not (e.end < rng.start or e.start > rng.end)]
    evs.sort(key=lambda e: (e.start, e.end, e.subject))
    return evs


def _covered(st: FeedState, activity: str, subject, rng: TimeRange) -> bool:
    spans = []
    for e in st.activities:
        if e.name != activity:
            continue
        # ingested events carry their subject; a subjectless query is only
        # covered by subjectless spans, which ingestion never produces
        if subject is None or e.subject != subject:
            continue
        spans.append((ts_to_micros(e.start), ts_to_micros(e.end)))
    if not spans:
        return False
    spans.sort()
    lo, hi = ts_to_micros(rng.start), ts_to_micros(rng.end)
    if lo == hi:
        # an instant is covered only by a span that contains it
        return any(a <= lo <= b for a, b in spans)
    reach = lo
    for a, b in spans:
        if a > reach:
            break
        reach = max(reach, b)
    return reach >= hi


def brute_did(st: FeedState, activity: str, subject, rng: TimeRange):
    evs = _matching_events(st, activity, subject, rng)
    if evs:
        total = sum(rng.overlap_seconds(e.start, e.end) for e in evs)
        frames = set()
        for e in evs:
            lo = max(e.start, rng.start)
            hi = min(e.end, rng.end)
            if lo <= hi:
                frames.update(f.frame_id for f in st.frames.values() if lo <= f.ts <= hi)
        prob = max(e.prob for e in evs)
        return {"answer": "bool", "value": total > 0,
                "prob": prob if total > 0 else 0.0,
                "supporting_frames": tuple(sorted(frames))}
    if _covered(st, activity, subject, rng):
        return {"answer": "bool", "value": False, "prob": 0.0, "supporting_frames": ()}
    return {"answer": "needs_reprocess"}


def brute_duration(st: FeedState, activity: str, subject, rng: TimeRange, bucket):
    evs = _matching_events(st, activity, subject, rng)
    if not evs:
        if _covered(st, activity, subject, rng):
            return {"answer": "duration", "total_seconds": 0.0, "per_bucket": ()}
        return {"answer": "needs_reprocess"}
    total = 0.0
    buckets = {}
    width = 3_600_000_000 if bucket == "hour" else 86_400_000_000
    for e in evs:
        lo = max(e.start, rng.start)
        hi = min(e.end, rng.end)
        if hi <= lo:
            continue
        total += (hi - lo).total_seconds()
        if bucket:
            lo_us, hi_us = ts_to_micros(lo), ts_to_micros(hi)
            b = lo_us - lo_us % width
            while b < hi_us:
                seg = min(hi_us, b + width) - max(lo_us, b)
                buckets[b] = buckets.get(b, 0.0) + seg / 1e6
                b += width
    return {"answer": "duration", "total_seconds": total,
            "per_bucket": tuple((b, buckets[b]) for b in sorted(buckets))}


def brute_where_most(st: FeedState, activity: str, subject, rng: TimeRange):
    evs = _matching_events(st, activity, subject, rng)
    if not evs:
        if _covered(st, activity, subject, rng):
            return {"answer": "not_found"}
        return {"answer": "needs_reprocess"}
    cells = {}
    for e in evs:
        if e.loc is None:
            continue
        secs = rng.overlap_seconds(e.start, e.end)
        if secs <= 0:
            continue
        cell = (math.floor(e.loc.mean[0]), math.floor(e.loc.mean[1]))
        cells[cell] = cells.get(cell, 0.0) + secs
    if not cells:
        return {"answer": "not_found"}
    cell, secs = min(cells.items(), key=lambda kv: (-kv[1], kv[0]))
    return {"answer": "place", "cell": cell, "seconds": secs}


# ---------------------------------------------------------------------------
# random query generation

def random_query_text(rng: random.Random, labels_obj, labels_person,
                      activities, bounds: TimeRange) -> str:
    """One random valid DSL query over the given vocabulary."""
    def rand_range():
        span = (bounds.end - bounds.start).total_seconds()
        a = rng.uniform(-0.2, 1.0) * span
        b = rng.uniform(-0.2, 1.2) * span
        lo, hi = sorted((a, b))
        from datetime import timedelta
        start = bounds.start + timedelta(seconds=lo)
        end = bounds.start + timedelta(seconds=hi)
        from robomem.model import ts_format
        return f"FROM {ts_format(start)} TO {ts_format(end)}"

    def entity():
        if rng.random() < 0.5 and labels_obj:
            return f'object="{rng.choice(labels_obj)}"'
        if labels_person:
            return f'person="{rng.choice(labels_person)}"'
        return 'object="unicorn"'

    def act():
        name, subject = rng.choice(activities) if activities else ("walk", "ifrah")
        s = f' subject="{subject}"' if subject and rng.random() < 0.7 else ""
        return f'activity="{name}"{s}'

    form = rng.randrange(5)
    if form == 0:
        return f"LAST_SEEN {entity()}"
    if form == 1:
        return f"PRESENT {entity()} {rand_range()}"
    if form == 2:
        return f"DID {act()} {rand_range()}"
    if form == 3:
        by = rng.choice(["", " BY hour", " BY day"])
        return f"DURATION {act()} {rand_range()}{by}"
    return f"WHERE_MOST {act()} {rand_range()}"
