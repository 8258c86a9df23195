"""Budgeted frame re-analysis.

When stored symbolic data cannot answer a query, the engine selects a small,
index-guided set of archived frames and hands them to a pluggable
reprocessor (a real CV worker in production; a ground-truth oracle in tests).
Returned records are validated, appended with provenance "reprocessed", the
queried activity range is marked as covered, and a refinement pass folds the
new records into tracks. A misbehaving reprocessor leaves the store untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Union

from .errors import ReprocessorFailure
from .model import (
    ActivityEvent,
    Detection,
    PROVENANCE_REPROCESSED,
    ReprocessRequest,
    TimeRange,
    validate_record,
)
from .refine import RefinePolicy, run_refinement_pass

DEFAULT_BUDGET = 256

Reprocessor = Callable[[tuple[int, ...]], Iterable[Union[Detection, ActivityEvent]]]


@dataclass
class ReprocessReport:
    records_added: int = 0
    coverage_marked: bool = False


def select_frames(store, predicate_label: Optional[str], rng: TimeRange,
                  budget: int = DEFAULT_BUDGET, query=None) -> ReprocessRequest:
    """Pick at most `budget` frames worth re-analyzing for a query.

    With a predicate label, candidates are the frames where that label was
    sighted (raw postings, plus first/last frames of any summary bucket);
    without one, every frame in the range. Over budget, candidates are
    thinned by uniform temporal downsampling that always keeps the first and
    last candidate. A budget of 1 keeps the latest candidate, since recency
    wins for "last placed" style questions.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if predicate_label is not None:
        ordered = sorted({f for hit in store.find_by_label(predicate_label, rng=rng)
                          for f in hit.frame_ids})
    else:
        ordered = store.frames_in_range(rng)

    if len(ordered) > budget:
        if budget == 1:
            ordered = [ordered[-1]]
        else:
            n = len(ordered)
            picks = sorted({round(i * (n - 1) / (budget - 1)) for i in range(budget)})
            ordered = [ordered[i] for i in picks]
    return ReprocessRequest(query=query, predicate_label=predicate_label,
                            range=rng, frame_ids=tuple(ordered), budget=budget)


def _validate_returned(records, request: ReprocessRequest, store) -> list:
    requested = set(request.frame_ids)
    if requested:
        # frame timestamps never decrease as frame ids grow
        lo = store.frame_by_id(min(requested)).ts
        hi = store.frame_by_id(max(requested)).ts
    out = []
    for rec in records:
        if isinstance(rec, Detection):
            if rec.frame_id not in requested:
                raise ReprocessorFailure(
                    f"detection references unrequested frame {rec.frame_id}")
        elif isinstance(rec, ActivityEvent):
            rec = replace(rec, provenance=PROVENANCE_REPROCESSED)
            if not requested or rec.start < lo or rec.end > hi:
                raise ReprocessorFailure(
                    f"activity {rec.name!r} spans outside the requested frames")
        else:
            raise ReprocessorFailure(f"unexpected record type {type(rec).__name__}")
        validate_record(rec, frame_exists=lambda f: f in requested)
        out.append(rec)
    return out


def run_reprocess(store, request: ReprocessRequest, reprocessor: Reprocessor,
                  policy: RefinePolicy = RefinePolicy()) -> ReprocessReport:
    """Run the reprocessor over the request and merge results atomically.

    Every returned record is validated before anything is appended, so a
    failure leaves query answers bit-identical to before. A detection whose
    (frame, label, kind) the store already holds, from before or earlier in
    the batch, is skipped: it is the same sighting, not new evidence. So is
    an activity event whose (subject, name, start, end) is already held.
    """
    report = ReprocessReport()
    try:
        returned = list(reprocessor(request.frame_ids))
    except ReprocessorFailure:
        raise
    except Exception as e:
        raise ReprocessorFailure(f"reprocessor raised {type(e).__name__}: {e}") from e
    staged = _validate_returned(returned, request, store)

    # a held duplicate of a returned event lies within the returned events' span
    returned_events = [rec for rec in staged if isinstance(rec, ActivityEvent)]
    events = set()
    if returned_events:
        span = TimeRange(min(e.start for e in returned_events), max(e.end for e in returned_events))
        events = {(e.subject, e.name, e.start, e.end) for e in store.activities(rng=span)}
    with store.writer_role("reprocess"):
        for rec in staged:
            if isinstance(rec, Detection):
                if store.has_sighting(rec.frame_id, rec.label, rec.kind):
                    continue
            else:
                key = (rec.subject, rec.name, rec.start, rec.end)
                if key in events:
                    continue
                events.add(key)
            store.append(rec)
            report.records_added += 1
        q = request.query
        if q is not None and hasattr(q, "activity"):
            # absence of results is still evidence: mark the range analyzed
            store.mark_covered(q.subject, q.activity, request.range)
            report.coverage_marked = True
        store.flush()
    if report.records_added:
        run_refinement_pass(store, policy)
    return report


class OracleReprocessor:
    """Ground-truth-backed reprocessor used in tests and the CLI oracle loop.

    With zero noise it reports exactly the true visibility and activity
    content of the requested frames. Activity durations are estimated
    left-Riemann style: a frame where the activity holds contributes the gap
    to the next selected frame, so the error is bounded by the sampling gap.
    """

    def __init__(self, truth, recall: float = 1.0, label_noise: float = 0.0, seed: int = 0):
        self.truth = truth
        self.recall = recall
        self.label_noise = label_noise
        self.seed = seed

    def __call__(self, frame_ids: tuple[int, ...]):
        rng = random.Random(self.seed)
        ids = sorted(frame_ids)
        out: list[Union[Detection, ActivityEvent]] = []
        for f in ids:
            for kind, label in self.truth.visibility[f]:
                if rng.random() >= self.recall:
                    continue
                if self.label_noise > 0 and rng.random() < self.label_noise:
                    continue  # treat noise as a miss here; labels stay truthful
                out.append(Detection(frame_id=f, label=label, kind=kind, confidence=1.0))
        ts = self.truth.frame_ts
        for ev in self.truth.activities:
            run_start = None
            last_asserted = None
            for idx, f in enumerate(ids):
                asserted = ev.start <= ts[f] <= ev.end
                if asserted and run_start is None:
                    run_start = ts[f]
                if asserted:
                    last_asserted = idx
                if not asserted and run_start is not None:
                    out.append(ActivityEvent(
                        subject=ev.subject, name=ev.name,
                        start=run_start, end=ts[f], loc=ev.loc, prob=1.0,
                        provenance=PROVENANCE_REPROCESSED))
                    run_start = None
            if run_start is not None:
                out.append(ActivityEvent(
                    subject=ev.subject, name=ev.name,
                    start=run_start, end=ts[ids[last_asserted]], loc=ev.loc, prob=1.0,
                    provenance=PROVENANCE_REPROCESSED))
        return out
