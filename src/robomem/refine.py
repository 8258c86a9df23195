"""Background refinement: turns raw detections into fused tracks.

A refinement pass walks detections the store has not yet attributed,
associates each with an open track (same label, recent enough, close enough
in Mahalanobis terms) or starts a new one, fuses the observation into the
track's location estimate, and maintains presence intervals and an
existence probability per track.

A pass costs what its detections touch, not what the store holds: each
detection is offered only the same-label tracks last seen within the
association gap before it, found by bisecting a per-label list sorted by
last sighting, and only tracks that changed are rebuilt and re-encoded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Optional

from .errors import InvalidRecord, NonSPDCovariance
from .model import (
    Detection,
    FrameMeta,
    Interval,
    LocationEstimate,
    Track,
    mat2_add,
    mat2_inv,
    mat2_is_spd,
    mat2_vec,
)


@dataclass(frozen=True)
class RefinePolicy:
    obs_sigma_m: float = 2.0
    assoc_max_gap_s: float = 5.0
    assoc_max_mahalanobis: float = 3.0
    interval_merge_gap_s: float = 60.0
    existence_decay_per_day: float = 0.0

    def validate(self) -> None:
        for name in ("obs_sigma_m", "assoc_max_gap_s", "assoc_max_mahalanobis", "interval_merge_gap_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.existence_decay_per_day <= 1.0:
            raise ValueError("existence_decay_per_day must be in [0,1]")


@dataclass
class RefinementReport:
    tracks_created: int = 0
    tracks_updated: int = 0
    observations_fused: int = 0
    intervals_merged: int = 0


def observation_from_detection(d: Detection, fm: FrameMeta,
                               policy: RefinePolicy = RefinePolicy()) -> LocationEstimate:
    """Observation model: the sighting is anchored at the robot's planar position
    with an isotropic sigma of policy.obs_sigma_m per axis."""
    if d.frame_id != fm.frame_id:
        raise InvalidRecord("frame_id", f"detection frame {d.frame_id} != meta frame {fm.frame_id}")
    s2 = policy.obs_sigma_m ** 2
    return LocationEstimate(mean=(fm.pose.x, fm.pose.y), cov=((s2, 0.0), (0.0, s2)))


def fuse(prior: LocationEstimate, obs: LocationEstimate) -> LocationEstimate:
    """Product-of-Gaussians update of a 2D location estimate."""
    if not mat2_is_spd(prior.cov) or not mat2_is_spd(obs.cov):
        raise NonSPDCovariance("fuse requires SPD covariances")
    p_inv = mat2_inv(prior.cov)
    o_inv = mat2_inv(obs.cov)
    cov = mat2_inv(mat2_add(p_inv, o_inv))
    v = (
        mat2_vec(p_inv, prior.mean)[0] + mat2_vec(o_inv, obs.mean)[0],
        mat2_vec(p_inv, prior.mean)[1] + mat2_vec(o_inv, obs.mean)[1],
    )
    mean = mat2_vec(cov, v)
    # symmetrize away last-ulp asymmetry from the two inversions
    b = 0.5 * (cov[0][1] + cov[1][0])
    return LocationEstimate(mean=mean, cov=((cov[0][0], b), (b, cov[1][1])))


def mahalanobis(track_loc: LocationEstimate, obs: LocationEstimate) -> float:
    """Gating distance between a track and an observation, under the innovation
    covariance (track cov + observation cov) so mature, tight tracks still gate
    physically-near observations in."""
    s_inv = mat2_inv(mat2_add(track_loc.cov, obs.cov))
    dx = obs.mean[0] - track_loc.mean[0]
    dy = obs.mean[1] - track_loc.mean[1]
    w = mat2_vec(s_inv, (dx, dy))
    return math.sqrt(max(dx * w[0] + dy * w[1], 0.0))


@dataclass
class _OpenTrack:
    """Mutable working state for one track during a pass."""
    track_id: int
    label: str
    kind: str
    loc: LocationEstimate
    intervals: list[Interval]
    observation_count: int
    miss_prob: float
    last_ts: datetime

    def to_track(self) -> Track:
        return Track(
            track_id=self.track_id,
            label=self.label,
            kind=self.kind,
            loc=self.loc,
            intervals=tuple(self.intervals),
            observation_count=self.observation_count,
            existence_prob=min(max(1.0 - self.miss_prob, 0.0), 1.0),
            miss_prob=self.miss_prob,
        )

    @staticmethod
    def from_track(t: Track) -> "_OpenTrack":
        return _OpenTrack(
            track_id=t.track_id, label=t.label, kind=t.kind, loc=t.loc,
            intervals=list(t.intervals), observation_count=t.observation_count,
            miss_prob=t.miss_prob, last_ts=t.intervals[-1].end,
        )


def associate(d: Detection, fm: FrameMeta, open_tracks: list[_OpenTrack],
              policy: RefinePolicy, next_track_id: int) -> tuple[int, Optional[_OpenTrack], float]:
    """Pick the track a detection belongs to.

    Returns (track_id, matched_track_or_None, distance). Candidates must share
    the label, have been seen within assoc_max_gap_s, and gate in by
    Mahalanobis distance; ties break on (distance, track_id).
    """
    obs = observation_from_detection(d, fm, policy)
    best: Optional[tuple[float, int, _OpenTrack]] = None
    for t in open_tracks:
        if t.label != d.label:
            continue
        gap = (fm.ts - t.last_ts).total_seconds()
        if gap < 0 or gap > policy.assoc_max_gap_s:
            continue
        dist = mahalanobis(t.loc, obs)
        if dist > policy.assoc_max_mahalanobis:
            continue
        if best is None or (dist, t.track_id) < (best[0], best[1]):
            best = (dist, t.track_id, t)
    if best is None:
        return next_track_id, None, math.inf
    return best[1], best[2], best[0]


def _absorb(t: _OpenTrack, d: Detection, fm: FrameMeta, policy: RefinePolicy,
            report: RefinementReport) -> None:
    obs = observation_from_detection(d, fm, policy)
    t.loc = fuse(t.loc, obs)
    t.observation_count += 1
    t.miss_prob *= (1.0 - d.confidence)
    last = t.intervals[-1]
    gap = (fm.ts - last.end).total_seconds()
    if gap <= policy.interval_merge_gap_s:
        t.intervals[-1] = Interval(start=last.start, end=fm.ts,
                                   first_frame=last.first_frame, last_frame=fm.frame_id)
        report.intervals_merged += 1
    else:
        t.intervals.append(Interval(start=fm.ts, end=fm.ts,
                                    first_frame=fm.frame_id, last_frame=fm.frame_id))
    t.last_ts = fm.ts
    report.observations_fused += 1


def run_refinement_pass(store, policy: RefinePolicy = RefinePolicy()) -> RefinementReport:
    """Attribute every not-yet-processed detection to a track and persist.

    Idempotent: an immediate second pass reports all zeros. Determinism: the
    store's detection append order plus the policy fully decide assignments.

    Each detection is handed only the same-label tracks whose last sighting
    lies in [ts - assoc_max_gap_s, ts], widened by 1 us on each side so the
    window is a superset of what associate's gate admits. The window is a
    query, not a retirement rule: a reprocessed detection for an old frame
    still finds the tracks that were live at that time.
    """
    policy.validate()
    report = RefinementReport()
    state = store.load_refine_state()
    cursor = state["cursor"]
    next_id = state["next_track_id"]
    tracks: list[Optional[Track]] = state["tracks"]  # by position; new ones filled in last
    pending = store.detections_from(cursor)
    if not pending:
        return report

    # label -> [(last_ts, track_id, position)] sorted by last sighting
    windows: dict[str, list[tuple[datetime, int, int]]] = {}
    for pos, t in enumerate(tracks):
        windows.setdefault(t.label, []).append((t.last_seen, t.track_id, pos))
    for entries in windows.values():
        entries.sort()
    opened: dict[int, _OpenTrack] = {}  # position -> working state, built on demand
    touched: set[int] = set()
    first_new = len(tracks)
    tick = timedelta(microseconds=1)
    gap = timedelta(seconds=policy.assoc_max_gap_s) + tick

    def candidate(pos: int) -> _OpenTrack:
        if pos not in opened:
            opened[pos] = _OpenTrack.from_track(tracks[pos])
        return opened[pos]

    with store.writer_role("refine"):
        for seq, det in pending:
            fm = store.frame_by_id(det.frame_id)
            entries = windows.setdefault(det.label, [])
            lo = bisect_left(entries, (fm.ts - gap,))
            hi = bisect_left(entries, (fm.ts + tick,))
            window = [candidate(pos) for _ts, _tid, pos in entries[lo:hi]]
            tid, match, _dist = associate(det, fm, window, policy, next_id)
            if match is None:
                pos = len(tracks)
                tracks.append(None)
                opened[pos] = _OpenTrack(
                    track_id=tid, label=det.label, kind=det.kind,
                    loc=observation_from_detection(det, fm, policy),
                    intervals=[Interval(start=fm.ts, end=fm.ts,
                                        first_frame=fm.frame_id, last_frame=fm.frame_id)],
                    observation_count=1,
                    miss_prob=1.0 - det.confidence,
                    last_ts=fm.ts,
                )
                insort(entries, (fm.ts, tid, pos))
                next_id += 1
                report.tracks_created += 1
            else:
                i = bisect_left(entries, (match.last_ts, match.track_id))
                pos = entries.pop(i)[2]
                _absorb(match, det, fm, policy, report)
                insort(entries, (match.last_ts, match.track_id, pos))
                if pos not in touched:
                    report.tracks_updated += 1
                    touched.add(pos)
            cursor = seq + 1

        for pos in touched.union(range(first_new, len(tracks))):
            tracks[pos] = opened[pos].to_track()
        store.save_refine_state({
            "cursor": cursor,
            "next_track_id": next_id,
            "tracks": tracks,
        })
    return report


def existence_probability(track: Track, now: datetime,
                          policy: RefinePolicy = RefinePolicy()) -> float:
    """Noisy-OR over observation confidences, decayed per day since last seen."""
    p = 1.0 - track.miss_prob
    if policy.existence_decay_per_day > 0.0:
        days = max((now - track.last_seen) / timedelta(days=1), 0.0)
        p *= (1.0 - policy.existence_decay_per_day) ** days
    return min(max(p, 0.0), 1.0)
