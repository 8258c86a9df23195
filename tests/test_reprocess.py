import json
from datetime import timedelta

import pytest

from robomem.errors import ReprocessorFailure
from robomem.ingest import ingest_stream
from robomem.model import (
    ActivityEvent,
    BoolAnswer,
    Detection,
    DurationAnswer,
    FrameMeta,
    NeedsReprocess,
    Pose,
    TimeRange,
    answer_to_json,
    ts_parse,
)
from robomem.query import run_query
from robomem.reprocess import OracleReprocessor, run_reprocess, select_frames
from robomem.scenario import generate_scenario
from robomem.store import Store

from conftest import small_scenario

T0 = ts_parse("2019-06-01T00:00:00Z")


def _frames_only(store, n, dt_s=1.0, label=None):
    for f in range(n):
        store.append(FrameMeta(f, T0 + f * timedelta(seconds=dt_s), Pose(0.0, 0.0)))
        if label is not None:
            store.append(Detection(f, label, "person", 1.0))
    store.flush()


def full_range(store):
    b = store.time_bounds()
    return TimeRange(b.start, b.end)


# ---------------------------------------------------------------------------
# frame selection

def test_under_budget_takes_everything(store):
    _frames_only(store, 40)
    req = select_frames(store, None, full_range(store), budget=100)
    assert req.frame_ids == tuple(range(40))


def test_over_budget_uniform_with_endpoints(store):
    _frames_only(store, 1000)
    req = select_frames(store, None, full_range(store), budget=10)
    assert len(req.frame_ids) == 10
    assert req.frame_ids[0] == 0 and req.frame_ids[-1] == 999
    gaps = [b - a for a, b in zip(req.frame_ids, req.frame_ids[1:])]
    assert max(gaps) - min(gaps) <= 1  # uniform to within rounding


def test_budget_one_keeps_latest(store):
    _frames_only(store, 50)
    req = select_frames(store, None, full_range(store), budget=1)
    assert req.frame_ids == (49,)


def test_predicate_label_restricts_candidates(store):
    _frames_only(store, 20, label="ifrah")
    # sightings only exist for ifrah; querying on a stranger yields nothing
    req = select_frames(store, "stranger", full_range(store), budget=10)
    assert req.frame_ids == ()
    req = select_frames(store, "ifrah", full_range(store), budget=100)
    assert req.frame_ids == tuple(range(20))


def test_range_restricts_candidates(store):
    _frames_only(store, 20)
    window = TimeRange(T0 + timedelta(seconds=5), T0 + timedelta(seconds=9))
    req = select_frames(store, None, window, budget=100)
    assert req.frame_ids == (5, 6, 7, 8, 9)


def test_budget_must_be_positive(store):
    _frames_only(store, 5)
    with pytest.raises(ValueError):
        select_frames(store, None, full_range(store), budget=0)


# ---------------------------------------------------------------------------
# end-to-end escalation loop

def scenario_without_activity_records(tmp_path, seed=21):
    """Activities happen in truth but were never ingested as records."""
    cfg = small_scenario(seed=seed)
    cfg = type(cfg)(**{**cfg.__dict__, "include_activity_records": False})
    gt, records = generate_scenario(cfg)
    s = Store.create(str(tmp_path / "store"))
    ingest_stream(iter(records), s)
    return s, gt


def _window(gt):
    b = gt.range()
    return (f"FROM {b.start:%Y-%m-%dT%H:%M:%SZ} "
            f"TO {b.end:%Y-%m-%dT%H:%M:%SZ}")


def test_oracle_loop_answers_did(tmp_path):
    store, gt = scenario_without_activity_records(tmp_path)
    q = f'DID activity="walk" subject="ifrah" {_window(gt)}'
    first = run_query(q, store)
    assert isinstance(first, NeedsReprocess)
    report = run_reprocess(store, first.request, OracleReprocessor(gt))
    assert report.coverage_marked
    second = run_query(q, store)
    assert isinstance(second, BoolAnswer)
    assert second.value is True
    store.close()


def test_oracle_loop_duration_close_to_truth(tmp_path):
    store, gt = scenario_without_activity_records(tmp_path)
    q = f'DURATION activity="sleep" subject="steve" {_window(gt)}'
    first = run_query(q, store)
    assert isinstance(first, NeedsReprocess)
    run_reprocess(store, first.request, OracleReprocessor(gt))
    second = run_query(q, store, budget=len(first.request.frame_ids))
    assert isinstance(second, DurationAnswer)
    truth_secs = sum(gt.range().overlap_seconds(e.start, e.end)
                     for e in gt.activities
                     if e.name == "sleep" and e.subject == "steve")
    # sampled endpoints bound the error by one inter-sample gap per edge
    ts = gt.frame_ts
    ids = first.request.frame_ids
    max_gap = max((ts[b] - ts[a]).total_seconds() for a, b in zip(ids, ids[1:]))
    assert abs(second.total_seconds - truth_secs) <= 2 * max_gap
    store.close()


def test_absence_is_learned_not_assumed(tmp_path):
    store, gt = scenario_without_activity_records(tmp_path)
    q = f'DID activity="juggle" subject="ifrah" {_window(gt)}'
    first = run_query(q, store)
    assert isinstance(first, NeedsReprocess)
    report = run_reprocess(store, first.request, OracleReprocessor(gt))
    assert report.coverage_marked
    assert store.activities(name="juggle") == []
    # now a definitive no, not another escalation
    assert run_query(q, store) == BoolAnswer(value=False, prob=0.0, supporting_frames=())
    store.close()


def test_empty_request_still_marks_coverage(populated):
    store, gt, _records = populated
    q = f'DID activity="dance" subject="nobody" {_window(gt)}'
    first = run_query(q, store)
    assert isinstance(first, NeedsReprocess)
    assert first.request.frame_ids == ()
    report = run_reprocess(store, first.request, lambda ids: [])
    assert report.records_added == 0 and report.coverage_marked
    assert isinstance(run_query(q, store), BoolAnswer)


# ---------------------------------------------------------------------------
# misbehaving reprocessors

def _snapshot_answers(store, gt):
    out = []
    for label in store.labels():
        out.append(answer_to_json(run_query(f'LAST_SEEN person="{label}"', store)))
        out.append(answer_to_json(run_query(f'LAST_SEEN object="{label}"', store)))
    return json.dumps(out, sort_keys=True)


def test_unrequested_frame_rejected_atomically(tmp_path):
    store, gt = scenario_without_activity_records(tmp_path)
    q = f'DID activity="walk" subject="ifrah" {_window(gt)}'
    request = run_query(q, store).request
    before = _snapshot_answers(store, gt)
    outside = max(request.frame_ids) + 1 if request.frame_ids else 0

    def rogue(ids):
        good = list(OracleReprocessor(gt)(ids))
        good.append(Detection(outside, "ifrah", "person", 1.0))
        return good

    with pytest.raises(ReprocessorFailure):
        run_reprocess(store, request, rogue)
    assert _snapshot_answers(store, gt) == before
    assert isinstance(run_query(q, store), NeedsReprocess)  # still unanswered
    store.close()


def test_activity_outside_requested_span_rejected(tmp_path):
    store, gt = scenario_without_activity_records(tmp_path)
    q = f'DID activity="walk" subject="ifrah" {_window(gt)}'
    request = run_query(q, store).request

    def rogue(ids):
        return [ActivityEvent("ifrah", "walk",
                              T0 - timedelta(days=1), T0 - timedelta(hours=23))]

    with pytest.raises(ReprocessorFailure):
        run_reprocess(store, request, rogue)
    store.close()


def test_crashing_reprocessor_wrapped(tmp_path):
    store, gt = scenario_without_activity_records(tmp_path)
    request = run_query(f'DID activity="walk" subject="ifrah" {_window(gt)}',
                        store).request

    def boom(ids):
        raise RuntimeError("camera exploded")

    with pytest.raises(ReprocessorFailure) as ei:
        run_reprocess(store, request, boom)
    assert "camera exploded" in str(ei.value)
    store.close()


def test_provenance_forced_to_reprocessed(tmp_path):
    store, gt = scenario_without_activity_records(tmp_path)
    q = f'DID activity="walk" subject="ifrah" {_window(gt)}'
    request = run_query(q, store).request
    run_reprocess(store, request, OracleReprocessor(gt))
    evs = store.activities(name="walk", subject="ifrah")
    assert evs and all(e.provenance == "reprocessed" for e in evs)
    store.close()


def test_reprocess_skips_sightings_already_held(tmp_path):
    store, gt = scenario_without_activity_records(tmp_path)
    window = _window(gt)
    request = run_query(f'DID activity="walk" subject="ifrah" {window}', store).request
    held = {(d.frame_id, d.label, d.kind) for _seq, d in store.detections_from(0)}
    assert {f for f, _label, _kind in held} & set(request.frame_ids)  # revisits sightings

    def answers():
        return [answer_to_json(run_query(q, store)) for q in (
            f'DID activity="walk" subject="ifrah" {window}',
            f'PRESENT person="ifrah" {window}',
            'LAST_SEEN person="ifrah"')]

    returned = list(OracleReprocessor(gt)(request.frame_ids))
    dets = [r for r in returned if isinstance(r, Detection)]
    first = run_reprocess(store, request, OracleReprocessor(gt))
    fresh = {(d.frame_id, d.label, d.kind) for d in dets} - held
    assert first.records_added == len(fresh) + len(returned) - len(dets)
    count, before = store.detection_count(), answers()

    events = len(store.activities())
    second = run_reprocess(store, request, OracleReprocessor(gt))
    assert second.records_added == 0  # no detection and no activity event
    assert store.detection_count() == count
    assert len(store.activities()) == events
    assert answers() == before
    frames = [h.frame_id for h in store.find_by_label("ifrah", kind="person")]
    assert len(frames) == len(set(frames))
    store.close()


def test_reprocess_skips_activity_events_already_held(tmp_path):
    # the worker returns every activity in the selected frames, whatever was
    # asked: a second escalation over the same range returns the walk again
    store, gt = scenario_without_activity_records(tmp_path)
    window = _window(gt)
    for activity in ("walk", "juggle"):
        answer = run_query(f'DID activity="{activity}" subject="ifrah" {window}', store)
        run_reprocess(store, answer.request, OracleReprocessor(gt))
    assert len(store.activities(name="walk")) == 1
    duration = run_query(f'DURATION activity="walk" subject="ifrah" {window}', store)
    assert duration.total_seconds == pytest.approx(55.33, abs=0.01)
    store.close()
