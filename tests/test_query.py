import math
import random
from datetime import timedelta

import pytest

from robomem.errors import QuerySemanticError, QuerySyntaxError
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
    Pose,
    Present,
    TimeRange,
    WhereMost,
    ts_format,
    ts_parse,
)
from robomem.query import format_query, parse_query, plan_query, run_query
from robomem.refine import run_refinement_pass

from oracle import brute_did, brute_duration, feed_state, random_query_text

T0 = ts_parse("2019-06-01T00:00:00Z")
R = TimeRange(T0, T0 + timedelta(hours=1))
RTXT = "FROM 2019-06-01T00:00:00Z TO 2019-06-01T01:00:00Z"


# ---------------------------------------------------------------------------
# parser

def test_parse_last_seen():
    assert parse_query('LAST_SEEN object="remote"') == LastSeen(kind="object", label="remote")
    assert parse_query('LAST_SEEN person="Steve"') == LastSeen(kind="person", label="steve")


def test_parse_present():
    ast = parse_query(f'PRESENT person="dad" {RTXT}')
    assert ast == Present(kind="person", label="dad", range=R)


def test_parse_did_with_and_without_subject():
    assert parse_query(f'DID activity="sleep" subject="dad" {RTXT}') == \
        Did(activity="sleep", subject="dad", range=R)
    assert parse_query(f'DID activity="sleep" {RTXT}') == \
        Did(activity="sleep", subject=None, range=R)


def test_parse_duration_buckets():
    assert parse_query(f'DURATION activity="sleep" {RTXT}').bucket is None
    assert parse_query(f'DURATION activity="sleep" {RTXT} BY hour').bucket == "hour"
    assert parse_query(f'DURATION activity="sleep" {RTXT} BY day').bucket == "day"


def test_parse_where_most():
    ast = parse_query(f'WHERE_MOST activity="walk" subject="ifrah" {RTXT}')
    assert ast == WhereMost(activity="walk", subject="ifrah", range=R)


@pytest.mark.parametrize("text,pos_of", [
    ('LAST_SEEN object=remote', "remote"),          # unquoted value
    ('LAST_SEEN gadget="remote"', "gadget"),        # bad field
    ('FETCH object="remote"', "FETCH"),             # unknown verb
    (f'PRESENT object="cup" {RTXT} extra', "extra"),  # trailing garbage
    ('DID activity="sleep" FROM nonsense TO nonsense', "nonsense"),
])
def test_syntax_errors_carry_position(text, pos_of):
    with pytest.raises(QuerySyntaxError) as ei:
        parse_query(text)
    assert ei.value.position == text.index(pos_of)


def test_missing_range_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_query('PRESENT object="cup"')


def test_inverted_range_is_semantic_error():
    with pytest.raises(QuerySemanticError):
        parse_query('PRESENT object="cup" FROM 2019-06-02T00:00:00Z TO 2019-06-01T00:00:00Z')


def test_empty_label_rejected():
    with pytest.raises(QuerySemanticError):
        parse_query('LAST_SEEN object=""')


def test_format_parse_round_trip_500():
    rng = random.Random(17)
    bounds = TimeRange(T0, T0 + timedelta(days=3))
    for _ in range(500):
        text = random_query_text(rng, ["remote", "cup"], ["dad", "ifrah"],
                                 [("sleep", "dad"), ("walk", None)], bounds)
        ast = parse_query(text)
        assert parse_query(format_query(ast)) == ast


# ---------------------------------------------------------------------------
# planner

def test_plan_rejects_non_ast():
    with pytest.raises(TypeError):
        plan_query('LAST_SEEN object="remote"')


def _spy(store, names):
    calls = []
    for name in names:
        orig = getattr(store, name)

        def wrap(*a, __orig=orig, __name=name, **kw):
            calls.append(__name)
            return __orig(*a, **kw)

        setattr(store, name, wrap)
    return calls


SPIED = ["find_by_label", "track_for", "activities", "activity_summaries", "is_covered"]


def test_plan_soundness_last_seen_touches_only_label_paths(populated):
    store, _gt, _records = populated
    run_refinement_pass(store)
    label = store.labels()[0]
    calls = _spy(store, SPIED)
    run_query(f'LAST_SEEN object="{label}"', store)
    assert "find_by_label" in calls
    assert "activities" not in calls and "activity_summaries" not in calls


def test_plan_soundness_did_never_scans_labels(populated):
    store, _gt, _records = populated
    calls = _spy(store, SPIED)
    run_query(f'DID activity="sleep" subject="steve" {RTXT}', store)
    assert "activities" in calls
    assert "find_by_label" not in calls


# ---------------------------------------------------------------------------
# executor

def test_last_seen_unknown_label_not_found(populated):
    store, _gt, _records = populated
    assert run_query('LAST_SEEN object="unicorn"', store) == NotFound()


def test_last_seen_honours_kind(store):
    # "max" is both a dog (object) and a person; "cup" is only ever an object
    for f in range(10):
        store.append(FrameMeta(f, T0 + f * timedelta(seconds=1), Pose(1.0, 1.0)))
    for f, label, kind, conf in [(1, "max", "person", 0.6), (2, "max", "object", 0.7),
                                 (5, "max", "person", 0.8), (7, "max", "object", 0.9),
                                 (8, "cup", "object", 0.5)]:
        store.append(Detection(f, label, kind, conf))
    store.flush()

    person = run_query('LAST_SEEN person="max"', store)
    assert (person.frame_id, person.confidence) == (5, 0.8)
    obj = run_query('LAST_SEEN object="max"', store)
    assert (obj.frame_id, obj.confidence) == (7, 0.9)
    assert run_query('LAST_SEEN person="cup"', store) == NotFound()
    assert run_query('LAST_SEEN object="cup"', store).frame_id == 8


def test_last_seen_static_object_near_truth(populated):
    store, gt, _records = populated
    run_refinement_pass(store)
    for label, true_pos in gt.object_positions.items():
        ans = run_query(f'LAST_SEEN object="{label}"', store)
        if isinstance(ans, NotFound):
            continue  # never wandered within visibility range
        assert isinstance(ans, LocationAnswer)
        assert math.dist(ans.loc.mean, true_pos) < 2.0
        assert 0.0 <= ans.confidence <= 1.0


def test_present_true_false_and_unknown(populated):
    store, gt, _records = populated
    label = store.labels()[0]
    bounds = gt.range()
    yes = run_query(f'PRESENT object="{label}" FROM {bounds.start:%Y-%m-%dT%H:%M:%SZ} '
                    f'TO {bounds.end:%Y-%m-%dT%H:%M:%SZ}', store)
    assert isinstance(yes, BoolAnswer) and yes.value is True
    assert yes.prob > 0 and yes.supporting_frames

    no = run_query(f'PRESENT object="unicorn" FROM {bounds.start:%Y-%m-%dT%H:%M:%SZ} '
                   f'TO {bounds.end:%Y-%m-%dT%H:%M:%SZ}', store)
    assert no == BoolAnswer(value=False, prob=0.0, supporting_frames=())

    # range with no frames at all: the store cannot rule presence out
    unknown = run_query(f'PRESENT object="{label}" FROM 2030-01-01T00:00:00Z '
                        f'TO 2030-01-02T00:00:00Z', store)
    assert unknown == NotFound()


def test_duration_eight_hour_sleep_exact(store):
    start = ts_parse("2019-06-01T22:00:00Z")
    end = ts_parse("2019-06-02T06:00:00Z")
    store.append(FrameMeta(0, start, Pose(0.0, 0.0)))
    store.append(ActivityEvent("dad", "sleep", start, end))
    store.flush()
    ans = run_query('DURATION activity="sleep" subject="dad" '
                    'FROM 2019-06-01T00:00:00Z TO 2019-06-03T00:00:00Z BY day', store)
    assert isinstance(ans, DurationAnswer)
    assert ans.total_seconds == 28800.0
    assert [(d.day, s) for d, s in ans.per_bucket] == [(1, 7200.0), (2, 21600.0)]


def test_duration_clips_to_range(store):
    start = ts_parse("2019-06-01T22:00:00Z")
    end = ts_parse("2019-06-02T06:00:00Z")
    store.append(FrameMeta(0, start, Pose(0.0, 0.0)))
    store.append(ActivityEvent("dad", "sleep", start, end))
    store.flush()
    ans = run_query('DURATION activity="sleep" '
                    'FROM 2019-06-02T00:00:00Z TO 2019-06-02T03:00:00Z', store)
    assert ans.total_seconds == 10800.0


def test_where_most_seventy_thirty(store):
    from robomem.model import LocationEstimate
    cov = ((0.1, 0.0), (0.0, 0.1))
    store.append(FrameMeta(0, T0, Pose(0.0, 0.0)))
    store.append(ActivityEvent("dad", "watch_tv", T0, T0 + timedelta(seconds=70),
                               loc=LocationEstimate((2.4, 3.6), cov)))
    store.append(ActivityEvent("dad", "watch_tv", T0 + timedelta(seconds=100),
                               T0 + timedelta(seconds=130),
                               loc=LocationEstimate((7.1, 1.2), cov)))
    store.flush()
    ans = run_query(f'WHERE_MOST activity="watch_tv" subject="dad" {RTXT}', store)
    assert isinstance(ans, PlaceAnswer)
    assert ans.cell == (2, 3)
    assert ans.seconds == 70.0
    assert ans.cell_center == (2.5, 3.5)


def test_activity_query_escalates_when_unanalyzed(populated):
    store, _gt, _records = populated
    ans = run_query(f'DID activity="dance" subject="ifrah" {RTXT}', store)
    assert isinstance(ans, NeedsReprocess)
    assert ans.request.query is not None


def test_coverage_turns_escalation_into_no(populated):
    store, gt, _records = populated
    q = f'DID activity="dance" subject="ifrah" {RTXT}'
    assert isinstance(run_query(q, store), NeedsReprocess)
    store.mark_covered("ifrah", "dance", R)
    ans = run_query(q, store)
    assert ans == BoolAnswer(value=False, prob=0.0, supporting_frames=())
    # coverage is monotone: any subrange is covered too
    sub = ('DID activity="dance" subject="ifrah" '
           'FROM 2019-06-01T00:10:00Z TO 2019-06-01T00:20:00Z')
    assert run_query(sub, store) == BoolAnswer(value=False, prob=0.0, supporting_frames=())


def test_duration_did_agree_on_scheduled_activities(populated):
    store, gt, _records = populated
    bounds = gt.range()
    window = (f"FROM {bounds.start:%Y-%m-%dT%H:%M:%SZ} "
              f"TO {bounds.end:%Y-%m-%dT%H:%M:%SZ}")
    for ev in gt.activities:
        did = run_query(f'DID activity="{ev.name}" subject="{ev.subject}" {window}', store)
        dur = run_query(f'DURATION activity="{ev.name}" subject="{ev.subject}" {window}', store)
        assert isinstance(did, BoolAnswer) and did.value is True
        assert isinstance(dur, DurationAnswer)
        assert did.supporting_frames
        want = sum(TimeRange(bounds.start, bounds.end).overlap_seconds(e.start, e.end)
                   for e in gt.activities
                   if e.name == ev.name and e.subject == ev.subject)
        assert dur.total_seconds == want


def test_instant_range_covered_only_inside_a_span(store):
    """An instant outside every analyzed span escalates, in store and oracle
    alike, instead of reading as a silent "no"; inside a span it is analyzed."""
    records = [FrameMeta(f, T0 + f * timedelta(seconds=1), Pose(0.0, 0.0)) for f in range(60)]
    records.append(ActivityEvent("steve", "sleep", T0, T0 + timedelta(seconds=10)))
    for rec in records:
        store.append(rec)
    store.flush()
    st = feed_state(records)

    def at(s):
        t = T0 + timedelta(seconds=s)
        return TimeRange(t, t), f"FROM {ts_format(t)} TO {ts_format(t)}"

    rng, text = at(50)
    assert not store.is_covered("steve", "sleep", rng)
    assert isinstance(run_query(f'DID activity="sleep" subject="steve" {text}', store),
                      NeedsReprocess)
    assert isinstance(run_query(f'DURATION activity="sleep" subject="steve" {text}', store),
                      NeedsReprocess)
    assert brute_did(st, "sleep", "steve", rng) == {"answer": "needs_reprocess"}
    assert brute_duration(st, "sleep", "steve", rng, None) == {"answer": "needs_reprocess"}

    # the closed span [0 s, 10 s] holds its end instant; a longer range is
    # covered only up to where the spans reach
    assert store.is_covered("steve", "sleep", at(10)[0])
    assert store.is_covered("steve", "sleep", TimeRange(T0, T0 + timedelta(seconds=10)))
    assert not store.is_covered("steve", "sleep", TimeRange(T0, T0 + timedelta(seconds=11)))
