import io
import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

import robomem
from robomem.errors import ParseError
from robomem.ingest import MAX_ERRORS, ingest_stream, parse_feed_line, read_feed, write_feed
from robomem.model import ActivityEvent, Detection, FrameMeta, Pose, ts_parse
from robomem.scenario import ScenarioConfig, generate_scenario
from robomem.segment import TAG_COMMIT, TAG_COVER, framed_records
from robomem.store import Store

from conftest import set_segment_max, small_scenario


def test_parse_frame_line():
    line = ('{"type":"frame","f":1,"ts":"2019-06-01T00:00:00Z",'
            '"pose":{"x":0,"y":0,"z":0,"roll":0,"pitch":0,"yaw":0}}')
    rec = parse_feed_line(line)
    assert isinstance(rec, FrameMeta)
    assert rec.frame_id == 1
    assert rec.ts == ts_parse("2019-06-01T00:00:00Z")
    assert rec.pose == Pose(0, 0, 0, 0, 0, 0)


def test_parse_detection_case_folds_label():
    rec = parse_feed_line('{"type":"detection","f":1,"label":"Remote","kind":"object","conf":0.9}')
    assert isinstance(rec, Detection)
    assert rec.label == "remote"
    assert rec.confidence == 0.9


def test_parse_detection_defaults_confidence():
    rec = parse_feed_line('{"type":"detection","f":1,"label":"remote","kind":"object"}')
    assert rec.confidence == 1.0


def test_missing_field_is_parse_error():
    with pytest.raises(ParseError):
        parse_feed_line('{"type":"frame","f":1}', line_no=7)


def test_unknown_type_rejected():
    with pytest.raises(ParseError):
        parse_feed_line('{"type":"telemetry","f":1}')


def test_bad_json_reports_line_number():
    with pytest.raises(ParseError) as ei:
        parse_feed_line("{not json", line_no=12)
    assert ei.value.line_no == 12


def test_empty_source_no_mutation(store):
    report = ingest_stream(iter([]), store)
    assert report.frames == report.detections == report.activities == 0
    assert store.frame_count() == 0


def test_duplicate_frame_skipped_rest_ingested(store):
    t = ts_parse("2019-06-01T00:00:00Z")
    recs = [
        FrameMeta(0, t, Pose(0, 0)),
        FrameMeta(0, t, Pose(1, 1)),  # duplicate id
        Detection(0, "remote", "object", 0.9),
        FrameMeta(1, ts_parse("2019-06-01T00:00:01Z"), Pose(2, 2)),
    ]
    report = ingest_stream(iter(recs), store)
    assert report.frames == 2
    assert report.rejected == 1
    assert report.detections == 1
    assert store.frame_by_id(0).pose.x == 0


def test_detection_before_frame_rejected(store):
    recs = [Detection(5, "remote", "object", 0.9)]
    report = ingest_stream(iter(recs), store)
    assert report.rejected == 1
    assert report.detections == 0


def test_error_messages_are_capped(store):
    recs = [Detection(f, "remote", "object", 0.9) for f in range(250)]
    report = ingest_stream(iter(recs), store)
    assert report.rejected == 250
    assert len(report.errors) == MAX_ERRORS == 100


def test_scenario_determinism(tmp_path):
    cfg = small_scenario(seed=7)
    out1, out2 = io.StringIO(), io.StringIO()
    for out in (out1, out2):
        _gt, records = generate_scenario(cfg)
        write_feed(out, records)
    assert out1.getvalue() == out2.getvalue()


def test_zero_recall_emits_no_detections():
    cfg = small_scenario(detection_recall=0.0, with_activities=False)
    _gt, records = generate_scenario(cfg)
    assert not any(isinstance(r, Detection) for r in records)


def test_frame_count_arithmetic():
    cfg = ScenarioConfig(seed=1, duration_minutes=37.0, fps=6.0)
    assert cfg.frame_count == 13320
    cfg = ScenarioConfig(seed=1, duration_minutes=0.1, fps=6.0)
    assert cfg.frame_count == 36


def test_detections_subset_of_visibility():
    cfg = small_scenario(seed=11, with_activities=False)
    gt, records = generate_scenario(cfg)
    for rec in records:
        if isinstance(rec, Detection):
            assert (rec.kind, rec.label) in gt.visibility[rec.frame_id]


def test_feed_roundtrip_through_file(tmp_path, store):
    cfg = small_scenario(seed=3)
    _gt, records = generate_scenario(cfg)
    path = tmp_path / "feed.jsonl"
    with open(path, "w") as fh:
        write_feed(fh, records)
    with open(path) as fh:
        parsed = list(read_feed(fh))
    assert parsed == records


def test_bad_line_is_rejected_and_the_rest_ingested(tmp_path, store):
    _gt, records = generate_scenario(small_scenario(seed=3))
    buf = io.StringIO()
    write_feed(buf, records)
    lines = buf.getvalue().splitlines(keepends=True)
    mid = len(lines) // 2
    lines.insert(mid, "{not json\n")
    fed = list(read_feed(io.StringIO("".join(lines))))
    bad = [r for r in fed if isinstance(r, ParseError)]
    assert len(bad) == 1 and bad[0].line_no == mid + 1 and fed[mid] is bad[0]
    report = ingest_stream(iter(fed), store)
    assert report.rejected == 1
    assert len(report.errors) == 1 and report.errors[0].startswith(f"line {mid + 1}: bad JSON")
    assert report.frames == sum(isinstance(r, FrameMeta) for r in records)
    assert report.detections == sum(isinstance(r, Detection) for r in records)
    root = store.root
    store.close(flush=False)  # what ingest_stream did not flush is lost
    with Store.open(root, mode="ro") as s:
        assert s.frame_count() == report.frames
        assert s.detection_count() == report.detections


def test_conservation(populated):
    store, _gt, records = populated
    frame_records = sum(isinstance(r, FrameMeta) for r in records)
    assert store.frame_count() == frame_records  # nothing rejected here
    det_records = sum(isinstance(r, Detection) for r in records)
    assert store.detection_count() == det_records


def test_reingest_same_feed_stores_no_duplicates(populated, tmp_path):
    store, _gt, records = populated
    before = store.frame_count()
    report = ingest_stream(iter(records), store)
    assert report.frames == 0
    assert report.rejected > 0
    assert store.frame_count() == before


def _held(store):
    return store.frame_count(), store.detection_count(), len(store.activities())


def _counts(records):
    return tuple(sum(isinstance(r, t) for r in records) for t in (FrameMeta, Detection, ActivityEvent))


def _segmented_store(root, per_segment):
    Store.create(root).close()
    set_segment_max(root, per_segment)
    return root


def test_a_failing_source_keeps_the_segments_flushed_before_it(tmp_path):
    """Ingest flushes each time its records fill a segment, so a source that
    raises after two and a half segments leaves a store that reopens
    holding the first two."""
    _gt, records = generate_scenario(small_scenario(seed=3, minutes=1.0))
    root = _segmented_store(str(tmp_path / "s"), 200)

    def source():
        yield from records[:500]
        raise RuntimeError("the feed broke")

    with pytest.raises(RuntimeError):
        with Store.open(root) as s:
            ingest_stream(source(), s)
    with Store.open(root, mode="ro") as s:
        assert _held(s) == _counts(records[:400])


def test_ingest_writes_the_files_of_one_flush(tmp_path):
    """The flushes ingest makes along the way seal where one flush at the
    end seals, also after a log left by an earlier ingest, so both leave the
    same blocks, byte for byte, the same file names and block directory,
    and the same feed records in the log; only the log's commit records
    fall where each one's flushes fell."""
    _gt, records = generate_scenario(small_scenario(seed=3, minutes=1.0))
    ingested, appended = (_segmented_store(str(tmp_path / name), 200) for name in ("i", "a"))
    with Store.open(ingested) as s:
        for part in (records[:100], records[100:]):
            ingest_stream(iter(part), s)
    with Store.open(appended) as s:
        for part in (records[:100], records[100:]):
            for r in part:
                s.append(r)
            s.flush()

    def files(root):
        out = {}
        for name in os.listdir(os.path.join(root, "segments")):
            with open(os.path.join(root, "segments", name), "rb") as fh:
                out[name] = fh.read()
            if name.endswith(".seg"):
                out[name] = [(tag, payload) for tag, payload in framed_records(out[name])
                             if tag not in (TAG_COVER, TAG_COMMIT)]
        with open(os.path.join(root, "manifest.json")) as fh:
            manifest = json.load(fh)
        out["manifest.json"] = manifest["frames"], manifest["segments"]
        return out
    assert files(ingested) == files(appended)
    assert len(files(ingested)["manifest.json"][0]) == 2
    with Store.open(ingested, mode="ro") as s, Store.open(appended, mode="ro") as t:
        assert _held(s) == _held(t) == _counts(records)


def test_a_killed_ingest_keeps_the_segments_flushed_before_it(tmp_path):
    """A child ingests a feed of more than k segments and kills itself with
    SIGKILL once its source has yielded k segments' records and one more. Its
    store reopens holding at least those k segments, as a prefix of the feed,
    and ingesting the rest of the feed then holds the whole of it."""
    k, per_segment = 2, 150
    _gt, records = generate_scenario(small_scenario(seed=3, minutes=1.0))
    assert len(records) > (k + 1) * per_segment
    feed = str(tmp_path / "feed.jsonl")
    with open(feed, "w") as fh:
        write_feed(fh, records)
    root = _segmented_store(str(tmp_path / "s"), per_segment)
    code = textwrap.dedent(f"""
        import os, signal
        from robomem.ingest import ingest_stream, read_feed
        from robomem.store import Store

        def source(fh):
            for n, rec in enumerate(read_feed(fh), 1):
                yield rec
                if n == {k * per_segment + 1}:
                    os.kill(os.getpid(), signal.SIGKILL)

        with open({feed!r}) as fh:
            ingest_stream(source(fh), Store.open({root!r}))
        """)
    src = os.path.dirname(os.path.dirname(robomem.__file__))
    child = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                           timeout=60, capture_output=True)
    assert child.returncode == -signal.SIGKILL, child.stderr
    with Store.open(root) as s:
        n = sum(_held(s))
        assert n >= k * per_segment and _held(s) == _counts(records[:n])
        report = ingest_stream(iter(records[n:]), s)
        assert report.rejected == 0 and _held(s) == _counts(records)
    with Store.open(root, mode="ro") as s:
        assert _held(s) == _counts(records)
