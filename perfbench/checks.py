"""Expected answers computed apart from the engine, and the checks against them.

Nothing here reads a store or a saved copy of earlier output: every expected
answer is evaluated on the generated records (and, for `escalate`, on the
scenario's ground truth). Raw-only ranges go through the brute-force
evaluators of `tests/oracle.py`. Ranges that reach migrated data use the
summary rule the engine documents, re-implemented here as plain scans:

- a detection older than the hot cutoff becomes part of one hourly summary
  per (label, kind, hour); an hourly summary whose bucket starts before the
  warm cutoff is rolled into one daily summary per (label, kind, day). A
  summary keeps the count, the first and last sighting, and the noisy-OR of
  the confidences. It answers PRESENT when its first..last span meets the
  range, with its first and last frame as supporting frames.
- an activity event that ended before the hot cutoff is split into hourly
  buckets of seconds (then rolled into days like the label summaries). A
  bucket that meets the range counts with its seconds scaled by the share of
  the bucket the range covers; `loc` is that of the first event in it.

Each check returns None when the answer is right, and otherwise a short
reason. Escalation checks also say whether a wrong answer is the known
reprocessing fault (see README.md), which the benchmark counts as a failed
operation rather than as a wrong result.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

import oracle
from robomem.model import (
    ActivityEvent,
    BoolAnswer,
    Detection,
    Did,
    Duration,
    DurationAnswer,
    FrameMeta,
    LastSeen,
    LocationAnswer,
    NeedsReprocess,
    NotFound,
    PlaceAnswer,
    Present,
    TimeRange,
    WhereMost,
    ts_to_micros,
)

HOUR_US = 3_600_000_000
DAY_US = 24 * HOUR_US
PROB_TOL = 1e-9
SECONDS_TOL = 1e-6


# ---------------------------------------------------------------------------
# reference state of the generated records

@dataclass
class LabelRollup:
    count: int
    first: tuple[int, int]  # (ts_us, frame_id)
    last: tuple[int, int]
    miss: float             # product of (1 - confidence)


@dataclass
class ActivityRollup:
    subject: str
    name: str
    bucket_us: int
    width_us: int
    seconds: float
    prob: float
    loc: object


@dataclass
class Reference:
    """The records a store was fed, indexed for the checks, with the summaries
    that a migration with hot cutoff `hot_us` leaves computed from them."""
    frames: dict[int, FrameMeta] = field(default_factory=dict)
    frame_ts_us: list[int] = field(default_factory=list)
    frame_ids: list[int] = field(default_factory=list)
    sightings: dict[tuple[str, str], list[tuple[int, int, float]]] = field(default_factory=dict)
    events: list[ActivityEvent] = field(default_factory=list)
    hot_us: int = 0
    label_rollups: dict[tuple[str, str], list[LabelRollup]] = field(default_factory=dict)
    activity_rollups: list[ActivityRollup] = field(default_factory=list)
    hot_state: Optional[oracle.FeedState] = None

    def frames_between(self, lo_us: int, hi_us: int) -> list[int]:
        return self.frame_ids[bisect_left(self.frame_ts_us, lo_us):bisect_right(self.frame_ts_us, hi_us)]

    def label_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (label, _kind), hits in self.sightings.items():
            out[label] = out.get(label, 0) + len(hits)
        return out


def build_reference(records, hot_us: int, warm_us: int) -> Reference:
    """Index the records fed to a store that was then migrated with these cutoffs."""
    ref = Reference(hot_us=hot_us)
    for rec in records:
        if isinstance(rec, FrameMeta):
            ref.frames[rec.frame_id] = rec
            ref.frame_ts_us.append(ts_to_micros(rec.ts))
            ref.frame_ids.append(rec.frame_id)
        elif isinstance(rec, Detection):
            ts_us = ts_to_micros(ref.frames[rec.frame_id].ts)
            ref.sightings.setdefault((rec.label, rec.kind), []).append(
                (ts_us, rec.frame_id, rec.confidence))
        elif isinstance(rec, ActivityEvent):
            ref.events.append(rec)

    for key, hits in ref.sightings.items():
        hourly: dict[int, LabelRollup] = {}
        for ts_us, fid, conf in hits:
            if ts_us >= hot_us:
                continue
            bucket = ts_us - ts_us % HOUR_US
            if bucket < warm_us:
                bucket -= bucket % DAY_US
            r = hourly.get(bucket)
            if r is None:
                hourly[bucket] = LabelRollup(1, (ts_us, fid), (ts_us, fid), 1.0 - conf)
            else:
                r.count += 1
                r.first = min(r.first, (ts_us, fid))
                r.last = max(r.last, (ts_us, fid))
                r.miss *= 1.0 - conf
        ref.label_rollups[key] = list(hourly.values())

    rollups: dict[tuple[str, str, int], ActivityRollup] = {}
    for ev in ref.events:
        start_us, end_us = ts_to_micros(ev.start), ts_to_micros(ev.end)
        if end_us >= hot_us:
            continue
        bucket = start_us - start_us % HOUR_US
        while bucket <= end_us:
            secs = max(min(end_us, bucket + HOUR_US) - max(start_us, bucket), 0) / 1e6
            if secs > 0 or start_us == end_us:
                width, key_bucket = HOUR_US, bucket
                if bucket < warm_us:
                    width, key_bucket = DAY_US, bucket - bucket % DAY_US
                r = rollups.get((ev.subject, ev.name, key_bucket))
                if r is None:
                    rollups[(ev.subject, ev.name, key_bucket)] = ActivityRollup(
                        ev.subject, ev.name, key_bucket, width, secs, ev.prob, ev.loc)
                else:
                    r.seconds += secs
                    r.prob = max(r.prob, ev.prob)
                    if r.loc is None:
                        r.loc = ev.loc
            bucket += HOUR_US
    ref.activity_rollups = list(rollups.values())

    hot = []
    for rec in records:
        if isinstance(rec, FrameMeta):
            keep = ts_to_micros(rec.ts) >= hot_us
        elif isinstance(rec, Detection):
            keep = ts_to_micros(ref.frames[rec.frame_id].ts) >= hot_us
        else:
            keep = ts_to_micros(rec.end) >= hot_us
        if keep:
            hot.append(rec)
    ref.hot_state = oracle.feed_state(hot)
    return ref


# ---------------------------------------------------------------------------
# expected answers

def expected_last_seen(ref: Reference, kind: str, label: str) -> dict:
    """The newest sighting of (label, kind); coarse when it is older than the hot cutoff."""
    hits = ref.sightings.get((label, kind))
    if not hits:
        return {"answer": "not_found"}
    ts_us, fid, _conf = max(hits, key=lambda h: (h[0], h[1]))
    coarse = ts_us < ref.hot_us
    return {"answer": "location", "ts_us": ts_us, "frame_id": fid, "coarse": coarse}


def expected_raw(state: oracle.FeedState, ast) -> dict:
    """oracle.py's evaluators, for ranges that hold raw records only."""
    if isinstance(ast, Present):
        want = oracle.brute_present(state, ast.kind, ast.label, ast.range)
    elif isinstance(ast, Did):
        want = oracle.brute_did(state, ast.activity, ast.subject, ast.range)
    elif isinstance(ast, Duration):
        want = oracle.brute_duration(state, ast.activity, ast.subject, ast.range, ast.bucket)
    elif isinstance(ast, WhereMost):
        want = oracle.brute_where_most(state, ast.activity, ast.subject, ast.range)
    else:
        raise TypeError(ast)
    return dict(want, coarse=False)


def _present_tiered(ref: Reference, ast: Present) -> dict:
    lo, hi = ts_to_micros(ast.range.start), ts_to_micros(ast.range.end)
    miss = 1.0
    frames: set[int] = set()
    found = coarse = False
    for ts_us, fid, conf in ref.sightings.get((ast.label, ast.kind), ()):
        if ts_us >= ref.hot_us and lo <= ts_us <= hi:
            found = True
            miss *= 1.0 - conf
            frames.add(fid)
    for r in ref.label_rollups.get((ast.label, ast.kind), ()):
        if not (r.last[0] < lo or r.first[0] > hi):
            found = coarse = True
            miss *= r.miss  # the summary's noisy-OR, folded in as one hit
            frames.update((r.first[1], r.last[1]))
    if found:
        return {"answer": "bool", "value": True, "prob": min(max(1.0 - miss, 0.0), 1.0),
                "supporting_frames": tuple(sorted(frames)), "coarse": coarse}
    if ref.frames_between(lo, hi):
        return {"answer": "bool", "value": False, "prob": 0.0, "supporting_frames": (), "coarse": False}
    return {"answer": "not_found", "coarse": False}


def _covered(ref: Reference, activity: str, subject, lo: int, hi: int) -> bool:
    spans = sorted((ts_to_micros(e.start), ts_to_micros(e.end)) for e in ref.events
                   if e.name == activity and subject is not None and e.subject == subject)
    reach = lo
    for a, b in spans:
        if a > reach:
            break
        reach = max(reach, b)
    return bool(spans) and reach >= hi


def _activity_tiered(ref: Reference, ast) -> dict:
    lo, hi = ts_to_micros(ast.range.start), ts_to_micros(ast.range.end)
    events = [e for e in ref.events
              if ts_to_micros(e.end) >= ref.hot_us and e.name == ast.activity
              and (ast.subject is None or e.subject == ast.subject)
              and not (e.end < ast.range.start or e.start > ast.range.end)]
    rollups = [r for r in ref.activity_rollups
               if r.name == ast.activity and (ast.subject is None or r.subject == ast.subject)
               and not (r.bucket_us + r.width_us <= lo or r.bucket_us >= hi)]
    coarse = bool(rollups)
    if not events and not rollups:
        if not _covered(ref, ast.activity, ast.subject, lo, hi):
            return {"answer": "needs_reprocess", "coarse": False}
        if isinstance(ast, Did):
            return {"answer": "bool", "value": False, "prob": 0.0, "supporting_frames": (), "coarse": False}
        if isinstance(ast, Duration):
            return {"answer": "duration", "total_seconds": 0.0, "per_bucket": (), "coarse": False}
        return {"answer": "not_found", "coarse": False}

    def clipped(r: ActivityRollup) -> float:
        a, b = max(r.bucket_us, lo), min(r.bucket_us + r.width_us, hi)
        return r.seconds * (b - a) / r.width_us if b > a else 0.0

    parts = []  # (seconds inside the range, raw event or rollup)
    for e in events:
        parts.append((ast.range.overlap_seconds(e.start, e.end), e))
    for r in rollups:
        parts.append((clipped(r), r))
    total = sum(secs for secs, _ in parts)

    if isinstance(ast, Did):
        frames: set[int] = set()
        for e in events:
            a, b = max(ts_to_micros(e.start), lo), min(ts_to_micros(e.end), hi)
            if a <= b:
                frames.update(ref.frames_between(a, b))
        prob = max([e.prob for e in events] + [r.prob for r in rollups])
        return {"answer": "bool", "value": total > 0, "prob": prob if total > 0 else 0.0,
                "supporting_frames": tuple(sorted(frames)), "coarse": coarse}

    if isinstance(ast, Duration):
        buckets: dict[int, float] = {}
        if ast.bucket:
            width = HOUR_US if ast.bucket == "hour" else DAY_US
            for e in events:
                a, b = max(ts_to_micros(e.start), lo), min(ts_to_micros(e.end), hi)
                cut = a - a % width
                while cut < b:
                    seg = min(b, cut + width) - max(a, cut)
                    buckets[cut] = buckets.get(cut, 0.0) + seg / 1e6
                    cut += width
            for r in rollups:
                secs = clipped(r)
                if secs > 0:
                    cut = r.bucket_us - r.bucket_us % width
                    buckets[cut] = buckets.get(cut, 0.0) + secs
        return {"answer": "duration", "total_seconds": total,
                "per_bucket": tuple((b, buckets[b]) for b in sorted(buckets)), "coarse": coarse}

    cells: dict[tuple[int, int], float] = {}
    for secs, item in parts:
        if item.loc is None or secs <= 0:
            continue
        cell = (math.floor(item.loc.mean[0]), math.floor(item.loc.mean[1]))
        cells[cell] = cells.get(cell, 0.0) + secs
    if not cells:
        return {"answer": "not_found", "coarse": coarse}
    cell, secs = min(cells.items(), key=lambda kv: (-kv[1], kv[0]))
    return {"answer": "place", "cell": cell, "seconds": secs, "coarse": coarse}


def expected_answer(ref: Reference, ast) -> dict:
    """What the engine must answer for `ast` on a store fed `ref`'s records,
    migrated at `ref.hot_us`."""
    if isinstance(ast, LastSeen):
        return expected_last_seen(ref, ast.kind, ast.label)
    if ts_to_micros(ast.range.start) >= ref.hot_us + HOUR_US:
        # summaries end within an hour of the cutoff, so this range is raw-only
        return expected_raw(ref.hot_state, ast)
    if isinstance(ast, Present):
        return _present_tiered(ref, ast)
    return _activity_tiered(ref, ast)


# ---------------------------------------------------------------------------
# comparing an answer with its expected form

def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_answer(ans, want: dict) -> Optional[str]:
    kind = want["answer"]
    coarse = want.get("coarse", False)
    if kind == "not_found":
        ok = isinstance(ans, NotFound) and ans.coarse == coarse
    elif kind == "needs_reprocess":
        ok = isinstance(ans, NeedsReprocess)
    elif kind == "location":
        ok = (isinstance(ans, LocationAnswer) and ans.frame_id == want["frame_id"]
              and ts_to_micros(ans.ts) == want["ts_us"] and ans.coarse == coarse)
    elif kind == "bool":
        ok = (isinstance(ans, BoolAnswer) and ans.value == want["value"]
              and _close(ans.prob, want["prob"], PROB_TOL)
              and ans.supporting_frames == want["supporting_frames"] and ans.coarse == coarse)
    elif kind == "duration":
        ok = (isinstance(ans, DurationAnswer)
              and _close(ans.total_seconds, want["total_seconds"], SECONDS_TOL)
              and ans.coarse == coarse
              and len(ans.per_bucket) == len(want["per_bucket"])
              and all(ts_to_micros(b) == wb and _close(s, ws, SECONDS_TOL)
                      for (b, s), (wb, ws) in zip(ans.per_bucket, want["per_bucket"])))
    elif kind == "place":
        ok = (isinstance(ans, PlaceAnswer) and ans.cell == want["cell"]
              and _close(ans.seconds, want["seconds"], SECONDS_TOL) and ans.coarse == coarse)
    else:
        raise ValueError(kind)
    if ok:
        return None
    shown = {k: v for k, v in want.items() if k != "supporting_frames"}
    return f"expected {shown}, got {_short(ans)}"


def _short(ans) -> str:
    text = repr(ans)
    return text if len(text) <= 240 else text[:240] + "..."


def check_label_counts(store, ref: Reference) -> Optional[str]:
    """Migration keeps each label's total count of sightings."""
    for label, count in sorted(ref.label_counts().items()):
        got = sum(h.count for h in store.find_by_label(label))
        if got != count:
            return f"label {label!r}: {got} sightings after migration, {count} fed"
    return None


def check_chunk(store, frames: int, detections: int) -> Optional[str]:
    """After a live chunk: the counts equal what was fed, and refinement caught up."""
    got = (store.frame_count(), store.detection_count(), store.load_refine_state()["cursor"])
    if got == (frames, detections, detections):
        return None
    return (f"(frames, detections, refine cursor) = {got}, "
            f"expected {(frames, detections, detections)}")


# ---------------------------------------------------------------------------
# escalation: answers after reprocessing, against the ground truth

def _holds(gt, name: str, subject: Optional[str], ts) -> bool:
    return any(ev.name == name and (subject is None or ev.subject == subject)
               and ev.start <= ts <= ev.end for ev in gt.activities)


def _truth_seconds(gt, name: str, subject: Optional[str], rng: TimeRange) -> dict:
    """Seconds of the activity inside rng, per location cell."""
    cells: dict[tuple[int, int], float] = {}
    for ev in gt.activities:
        if ev.name != name or (subject is not None and ev.subject != subject):
            continue
        secs = rng.overlap_seconds(ev.start, ev.end)
        if secs > 0:
            cell = (math.floor(ev.loc.mean[0]), math.floor(ev.loc.mean[1]))
            cells[cell] = cells.get(cell, 0.0) + secs
    return cells


def check_escalation(ast, first, second, gt) -> tuple[Optional[str], bool]:
    """Check one escalation: the first answer, and the answer after reprocessing.

    Returns (reason, is_known_fault). The known fault is a negative answer (a
    "no", a zero duration, no place) while the activity held in the range,
    resting on no analyzed frame or on a single frame where it held, which
    reprocessing turns into a zero-length event.
    """
    if not isinstance(first, NeedsReprocess):
        return f"a never-analyzed range did not escalate: {_short(first)}", False
    if isinstance(second, NeedsReprocess):
        return "the query escalated again after reprocessing", False
    frames = first.request.frame_ids
    ts = gt.frame_ts
    asserted = [f for f in frames if _holds(gt, ast.activity, ast.subject, ts[f])]
    thin = not frames or len(asserted) == 1
    gaps = [(ts[b] - ts[a]).total_seconds() for a, b in zip(frames, frames[1:])]
    tol = 2 * max(gaps) if gaps else math.inf
    cells = _truth_seconds(gt, ast.activity, ast.subject, ast.range)
    truth = sum(cells.values())

    if isinstance(ast, Did):
        if not isinstance(second, BoolAnswer):
            return f"DID answered {_short(second)}", False
        in_range = ts[bisect_left(ts, ast.range.start):bisect_right(ts, ast.range.end)]
        held = any(_holds(gt, ast.activity, ast.subject, t) for t in in_range)
        if second.value:
            return (None if held else "a 'yes' that the ground truth does not hold"), False
        if not asserted:
            return (None, False) if frames else ("a 'no' that rests on no analyzed frame", True)
        if thin:
            return "a 'no' although the activity holds at the one analyzed frame", True
        return "a 'no' although the activity holds at analyzed frames", False

    if isinstance(ast, Duration):
        if not isinstance(second, DurationAnswer):
            return f"DURATION answered {_short(second)}", False
        if abs(second.total_seconds - truth) <= tol:
            return None, False
        if second.total_seconds == 0 and thin:
            return "a zero duration that rests on too few analyzed frames", True
        return f"duration {second.total_seconds:.3f} s, truth {truth:.3f} s (tolerance {tol:.3f} s)", False

    if isinstance(ast, WhereMost):
        if isinstance(second, PlaceAnswer):
            best = min(cells.items(), key=lambda kv: (-kv[1], kv[0]))[0] if cells else None
            if second.cell == best:
                return None, False
            return f"WHERE_MOST answered cell {second.cell}, truth {best}", False
        if not isinstance(second, NotFound):
            return f"WHERE_MOST answered {_short(second)}", False
        if truth <= tol:
            return None, False
        if thin:
            return "no place although the activity held, on too few analyzed frames", True
        return f"no place, truth {truth:.3f} s in the range", False
    raise TypeError(ast)
