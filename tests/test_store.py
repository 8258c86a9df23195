import json
import os
import random
import shutil
import signal
import subprocess
import sys
from datetime import timedelta

import pytest

import robomem

from robomem.errors import MigrationConflict, ReadOnlyStore, StoreLocked, StoreVersionError
from robomem.ingest import ingest_stream
from robomem.model import (
    Detection,
    FrameMeta,
    Pose,
    TimeRange,
    ts_parse,
    ts_to_micros,
)
from robomem.query import run_query
from robomem.refine import run_refinement_pass
from robomem.scenario import generate_scenario
from robomem.segment import decode_payload, encode_record
from robomem.store import Store, TierPolicy

from conftest import small_scenario
from oracle import canonicalize

T0 = ts_parse("2019-06-01T00:00:00Z")


def brute_find(records, label, rng=None, kind=None):
    """Linear scan of the raw feed for (frame, detection) sightings."""
    records = canonicalize(records)
    frames = {r.frame_id: r for r in records if isinstance(r, FrameMeta)}
    out = []
    for r in records:
        if isinstance(r, Detection) and r.label == label and kind in (None, r.kind):
            fm = frames[r.frame_id]
            if rng is None or rng.contains(fm.ts):
                out.append((fm, r))
    out.sort(key=lambda p: (ts_to_micros(p[0].ts), p[0].frame_id))
    return out


def test_append_flush_read_back(store):
    store.append(FrameMeta(0, T0, Pose(1.0, 2.0)))
    store.append(Detection(0, "remote", "object", 0.9))
    store.flush()
    reopened = Store.open(store.root, mode="ro")
    assert reopened.frame_count() == 1
    hits = reopened.find_by_label("remote")
    assert len(hits) == 1
    assert hits[0].frame.pose.x == 1.0
    reopened.close()


def test_crash_before_flush_loses_only_unflushed(store):
    store.append(FrameMeta(0, T0, Pose(0, 0)))
    store.flush()
    store.append(FrameMeta(1, ts_parse("2019-06-01T00:00:01Z"), Pose(1, 1)))
    store.close(flush=False)
    reopened = Store.open(store.root)
    assert reopened.frame_count() == 1
    reopened.close()


def test_read_only_append_rejected(store):
    store.append(FrameMeta(0, T0, Pose(0, 0)))
    store.close()
    ro = Store.open(store.root, mode="ro")
    with pytest.raises(ReadOnlyStore):
        ro.append(FrameMeta(1, ts_parse("2019-06-01T00:00:01Z"), Pose(0, 0)))
    ro.close()


def test_writer_lock_exclusive(store):
    with pytest.raises(StoreLocked):
        Store.open(store.root, mode="rw")
    # read-only open is fine alongside the writer
    Store.open(store.root, mode="ro").close()


@pytest.mark.parametrize("death", ["os._exit(0)", "os.kill(os.getpid(), signal.SIGKILL)"])
def test_killed_writer_releases_lock(tmp_path, death):
    root = str(tmp_path / "store")
    Store.create(root).close()
    src = os.path.dirname(os.path.dirname(robomem.__file__))
    code = (f"import os, signal\nfrom robomem.store import Store\n"
            f"s = Store.open({root!r}, mode='rw')\n{death}\n")
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                           capture_output=True)
    assert child.returncode in (0, -signal.SIGKILL), child.stderr
    assert os.path.exists(os.path.join(root, "lock"))
    s = Store.open(root, mode="rw")
    with pytest.raises(StoreLocked):
        Store.open(root, mode="rw")
    s.close()


def test_newer_version_refused(tmp_path, store):
    store.close()
    import json
    p = os.path.join(store.root, "manifest.json")
    with open(p) as fh:
        m = json.load(fh)
    m["version"] = 99
    with open(p, "w") as fh:
        json.dump(m, fh)
    with pytest.raises(StoreVersionError):
        Store.open(store.root)


def test_find_by_label_matches_linear_scan(populated):
    store, _gt, records = populated
    # a second sighting in the frame of a label's latest one, as a reprocess
    # appends it: tied hits keep append order in asc and reverse it in desc
    tied_label = store.labels()[0]
    latest = brute_find(records, tied_label)[-1][1]
    extra = Detection(latest.frame_id, tied_label, latest.kind, 0.5)
    store.append(extra)
    records = records + [extra]
    # a label sighted as both kinds: person sightings in some frames of its
    # object ones, one of them tied with an object sighting of the same frame
    kinds = {}
    for r in records:
        if isinstance(r, Detection):
            kinds.setdefault(r.label, set()).add(r.kind)
    mixed = min(label for label, ks in kinds.items()
                if ks == {"object"} and label != tied_label)
    object_frames = [fm.frame_id for fm, _d in brute_find(records, mixed)]
    for frame_id in object_frames[::7] + object_frames[-1:]:
        det = Detection(frame_id, mixed, "person", 0.6)
        store.append(det)
        records.append(det)
    person_only = min(label for label, ks in kinds.items() if ks == {"person"})

    def check(label, window, order, limit, kind=None):
        want = brute_find(records, label, window, kind)
        if order == "desc":
            want = want[::-1]
        if limit is not None:
            want = want[:limit]
        got = store.find_by_label(label, rng=window, order=order, limit=limit, kind=kind)
        assert [(h.frame, h.detection) for h in got] == want
        assert all(h.ts == h.frame.ts and h.frame_id == h.frame.frame_id for h in got)

    for order in ("asc", "desc"):
        for limit in (None, 1, 2):
            check(tied_label, None, order, limit)
            for kind in (None, "object", "person"):
                check(mixed, None, order, limit, kind)
            check(person_only, None, order, limit, "object")  # a kind it never has
    assert store.find_by_label(tied_label, order="desc", limit=1)[0].detection == extra
    assert {h.detection.kind for h in store.find_by_label(mixed)} == {"object", "person"}
    assert store.find_by_label(person_only, kind="object") == []

    rng = random.Random(0)
    bounds = store.time_bounds()
    span = (bounds.end - bounds.start).total_seconds()
    labels = store.labels() + ["unicorn"]
    for _ in range(100):
        label = rng.choice(labels)
        a, b = sorted(rng.uniform(0, span) for _ in range(2))
        window = TimeRange(bounds.start + timedelta(seconds=a),
                           bounds.start + timedelta(seconds=b))
        check(label, window, rng.choice(["asc", "desc"]), rng.choice([None, 1, 5, 50]))
    for _ in range(50):
        a, b = sorted(rng.uniform(0, span) for _ in range(2))
        window = TimeRange(bounds.start + timedelta(seconds=a),
                           bounds.start + timedelta(seconds=b))
        check(mixed, window, rng.choice(["asc", "desc"]), rng.choice([None, 1, 5]),
              rng.choice([None, "object", "person"]))


def test_find_by_label_last_sighting(populated):
    store, _gt, records = populated
    label = max(store.labels(), key=lambda l: len(brute_find(records, l)))
    got = store.find_by_label(label, order="desc", limit=1)
    want = brute_find(records, label)[-1]
    assert (got[0].frame, got[0].detection) == want


def test_find_by_label_empty_store(store):
    assert store.find_by_label("ifrah") == []


def test_frames_in_range_matches_scan(populated):
    store, _gt, records = populated
    frames = [r for r in records if isinstance(r, FrameMeta)]
    bounds = store.time_bounds()
    assert store.frames_in_range(bounds) == [f.frame_id for f in frames]
    # point range with no frame at that instant
    instant = frames[0].ts + timedelta(microseconds=1)
    assert store.frames_in_range(TimeRange(instant, instant)) == []
    rng = random.Random(1)
    span = (bounds.end - bounds.start).total_seconds()
    for _ in range(50):
        a, b = sorted(rng.uniform(0, span) for _ in range(2))
        window = TimeRange(bounds.start + timedelta(seconds=a),
                           bounds.start + timedelta(seconds=b))
        want = [f.frame_id for f in frames if window.contains(f.ts)]
        assert store.frames_in_range(window) == want


def test_index_rebuild_reproduces_answers(populated):
    """Postings and the time index are rebuilt from the segments at open, so
    a store needs no index files, and a stale index/ directory is ignored."""
    store, _gt, _records = populated
    store.flush()
    assert not os.path.exists(os.path.join(store.root, "index"))
    bounds = store.time_bounds()
    rng = random.Random(2)
    span = (bounds.end - bounds.start).total_seconds()
    windows = [bounds]
    for _ in range(20):
        a, b = sorted(rng.uniform(0, span) for _ in range(2))
        windows.append(TimeRange(bounds.start + timedelta(seconds=a),
                                 bounds.start + timedelta(seconds=b)))

    def answers(s):
        hits = {(label, order): [(h.frame, h.detection)
                                 for h in s.find_by_label(label, order=order)]
                for label in s.labels() for order in ("asc", "desc")}
        return hits, [s.frames_in_range(w) for w in windows]

    before = answers(store)
    store.close()
    reopened = Store.open(store.root)
    assert answers(reopened) == before
    reopened.close()

    os.makedirs(os.path.join(store.root, "index"))
    with open(os.path.join(store.root, "index", "labels.idx"), "w") as fh:
        fh.write("{}")
    reopened = Store.open(store.root, mode="ro")
    assert answers(reopened) == before
    reopened.close()


def test_crash_safety_random_truncation(tmp_path):
    cfg = small_scenario(seed=5, minutes=1.0)
    _gt, records = generate_scenario(cfg)
    src = str(tmp_path / "src")
    with Store.create(src) as s:
        ingest_stream(iter(records), s)
        full_frames = s.frame_count()
    rng = random.Random(7)
    for trial in range(10):
        dst = str(tmp_path / f"t{trial}")
        shutil.copytree(src, dst)
        segs = sorted(os.listdir(os.path.join(dst, "segments")))
        seg_path = os.path.join(dst, "segments", segs[-1])
        size = os.path.getsize(seg_path)
        cut = rng.randrange(size)
        with open(seg_path, "r+b") as fh:
            fh.truncate(cut)
        st = Store.open(dst)
        assert st.frame_count() <= full_frames
        # every surviving detection still resolves to a surviving frame
        for label in st.labels():
            for hit in st.find_by_label(label):
                assert hit.frame.frame_id == hit.detection.frame_id
        st.close()


# ---------------------------------------------------------------------------
# the frame table

def served_frames(records):
    """Each frame as the codec gives it back: its encoded record, decoded."""
    out = []
    for r in records:
        if isinstance(r, FrameMeta):
            data = encode_record(r)
            out.append(decode_payload(data[0], data[3:-4]))
    return out


def segment_bytes(root):
    with open(os.path.join(root, "manifest.json")) as fh:
        names = json.load(fh)["segments"]
    data = b""
    for name in names:
        with open(os.path.join(root, "segments", name), "rb") as fh:
            data += fh.read()
    return data


def assert_frame_table(store, frames):
    assert store.frame_count() == len(frames)
    for fm in frames:
        assert store.frame_by_id(fm.frame_id) == fm
    with pytest.raises(KeyError):
        store.frame_by_id(frames[-1].frame_id + 1)
    assert store.time_bounds() == TimeRange(frames[0].ts, frames[-1].ts)
    assert store.max_frame_id == frames[-1].frame_id
    rng = random.Random(len(frames))
    span = (frames[-1].ts - frames[0].ts).total_seconds()
    windows = [TimeRange(frames[0].ts, frames[-1].ts),
               TimeRange(frames[0].ts - timedelta(seconds=9), frames[0].ts),
               TimeRange(frames[-1].ts, frames[-1].ts + timedelta(seconds=9))]
    for _ in range(30):
        a, b = sorted(rng.uniform(-1, span + 1) for _ in range(2))
        windows.append(TimeRange(frames[0].ts + timedelta(seconds=a),
                                 frames[0].ts + timedelta(seconds=b)))
    for w in windows:
        assert store.frames_in_range(w) == [f.frame_id for f in frames if w.contains(f.ts)]


def test_frame_table_matches_records(tmp_path):
    """The frame table serves every frame as its record decodes: before a
    flush, after a reopen, after a migration and after a torn tail."""
    _gt, records = generate_scenario(small_scenario(seed=6, minutes=1.5))
    frames = served_frames(records)
    root = str(tmp_path / "s")
    s = Store.create(root)
    for r in records:
        s.append(r)
    assert_frame_table(s, frames)  # rw, nothing flushed yet
    s.flush()
    assert segment_bytes(root) == b"".join(encode_record(r) for r in records)
    s.close()
    torn = str(tmp_path / "torn")
    shutil.copytree(root, torn)

    s = Store.open(root, mode="ro")
    assert_frame_table(s, frames)
    s.close()

    s = Store.open(root)
    now = frames[len(frames) // 2].ts + timedelta(days=7)
    assert s.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7))).detections_migrated
    assert_frame_table(s, frames)
    assert segment_bytes(root).startswith(b"".join(encode_record(f) for f in frames))
    s.close()
    s = Store.open(root, mode="ro")
    assert_frame_table(s, frames)
    s.close()

    # cut the log inside the record of a frame: that frame and all after go
    ends = []
    off = 0
    for r in records:
        off += len(encode_record(r))
        ends.append(off)
    frame_at = [i for i, r in enumerate(records) if isinstance(r, FrameMeta)]
    k = frame_at[len(frame_at) * 2 // 3]
    (seg,) = os.listdir(os.path.join(torn, "segments"))
    with open(os.path.join(torn, "segments", seg), "r+b") as fh:
        fh.truncate(ends[k] - 5)
    s = Store.open(torn)
    assert_frame_table(s, served_frames(records[:k]))
    s.close()
    s = Store.open(torn, mode="ro")
    assert_frame_table(s, served_frames(records[:k]))
    s.close()


def test_open_builds_no_frame_objects(populated, monkeypatch):
    store, _gt, _records = populated
    store.flush()
    built = []

    def counting(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            built.append(cls)
            init(self, *args, **kwargs)
        return __init__

    for cls in (FrameMeta, Pose):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    reopened = Store.open(store.root, mode="ro")
    assert built == []
    n = reopened.frame_count()
    assert n > reopened.detection_count()
    per_frame = [name for name, v in vars(reopened).items()
                 if isinstance(v, (dict, list)) and len(v) >= n]
    assert per_frame == []
    assert reopened.frame_by_id(0).frame_id == 0  # built on demand, and counted
    assert built == [Pose, FrameMeta]
    reopened.close()


# ---------------------------------------------------------------------------
# tier migration

def migration_fixture(tmp_path):
    cfg = small_scenario(seed=9, minutes=3.0)
    gt, records = generate_scenario(cfg)
    s = Store.create(str(tmp_path / "mig"))
    ingest_stream(iter(records), s)
    return s, gt, records


def test_migration_noop_when_all_hot(tmp_path):
    s, _gt, _records = migration_fixture(tmp_path)
    now = s.time_bounds().end
    report = s.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7)))
    assert report.detections_migrated == 0
    assert report.hourly_created == 0
    s.close()


def test_migration_conserves_counts_and_timestamps(tmp_path):
    s, _gt, records = migration_fixture(tmp_path)
    pre = {}
    for label in s.labels():
        hits = s.find_by_label(label)
        pre[label] = (len(hits),
                      ts_to_micros(hits[0].ts), ts_to_micros(hits[-1].ts))
    raw_total = s.detection_count()
    now = s.time_bounds().end + timedelta(days=8)
    report = s.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7)))
    assert report.detections_migrated == raw_total
    assert s.detection_count() == 0
    for label, (count, first_us, last_us) in pre.items():
        summaries = s.label_summaries(label)
        assert sum(x.count for x in summaries) == count
        assert min(x.first_ts_us for x in summaries) == first_us
        assert max(x.last_ts_us for x in summaries) == last_us
    s.close()


def test_migration_shrinks_disk(tmp_path):
    s, _gt, _records = migration_fixture(tmp_path)
    s.flush()
    before = s.stats().bytes_on_disk
    now = s.time_bounds().end + timedelta(days=8)
    s.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7)))
    after = s.stats().bytes_on_disk
    assert after < before
    s.close()


def test_migration_keeps_refinement_going(tmp_path):
    """A migration that rolls up refined detections renumbers the refine
    cursor with them, so detections appended later are all refined."""
    _gt, records = generate_scenario(small_scenario(seed=2, minutes=3.0))
    frames = [r for r in records if isinstance(r, FrameMeta)]
    cut = records.index(frames[len(frames) // 2])
    first, rest = records[:cut], records[cut:]
    s = Store.create(str(tmp_path / "mig"))
    ingest_stream(iter(first), s)
    run_refinement_pass(s)
    policy = TierPolicy(hot_window=timedelta(days=7))
    report = s.migrate_tiers(frames[0].ts + timedelta(seconds=30) + policy.hot_window, policy)
    assert 0 < report.detections_migrated < s.detection_count() + report.detections_migrated
    assert s.load_refine_state()["cursor"] == s.detection_count()

    new = sum(isinstance(r, Detection) for r in rest)
    ingest_stream(iter(rest), s)
    second = run_refinement_pass(s)
    assert s.load_refine_state()["cursor"] == s.detection_count()
    assert second.tracks_created + second.observations_fused == new
    s.close()


def test_migration_retains_frames_for_reprocessing(tmp_path):
    s, _gt, _records = migration_fixture(tmp_path)
    frames_before = s.frame_count()
    now = s.time_bounds().end + timedelta(days=8)
    s.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7)))
    assert s.frame_count() == frames_before
    s.close()


def test_one_label_one_old_hour_one_summary(store):
    ts = T0
    for f in range(100):
        store.append(FrameMeta(f, ts + f * timedelta(seconds=2), Pose(1.0, 1.0)))
        store.append(Detection(f, "cup", "object", 0.8))
    store.flush()
    now = ts + timedelta(days=30)
    store.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7)))
    summaries = store.label_summaries("cup")
    assert len(summaries) == 1
    assert summaries[0].count == 100
    assert summaries[0].first_frame == 0
    assert summaries[0].last_frame == 99


def test_daily_rollup(store):
    ts = T0
    f = 0
    for hour in (0, 1, 30):  # two hours in one day, one in the next
        for i in range(5):
            t = ts + timedelta(hours=hour, seconds=i * 10)
            store.append(FrameMeta(f, t, Pose(0.5, 0.5)))
            store.append(Detection(f, "book", "object", 1.0))
            f += 1
    store.flush()
    now = ts + timedelta(days=200)
    store.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7),
                                        warm_window=timedelta(days=90)))
    summaries = store.label_summaries("book")
    assert all(s.tier == "daily" for s in summaries)
    assert len(summaries) == 2
    assert sum(s.count for s in summaries) == 15


def test_latest_sighting_after_partial_migration(store):
    sightings = {  # (label, kind) -> frames; frames 0..39 migrate below
        ("cup", "object"): [*range(0, 10), *range(50, 60)],  # summary + raw
        ("ifrah", "person"): list(range(0, 10)),              # summary only
        ("steve", "person"): list(range(0, 10)),
        ("max", "object"): list(range(0, 5)),                 # both kinds
        ("max", "person"): [*range(5, 10), *range(55, 58)],
    }
    for f in range(60):
        store.append(FrameMeta(f, T0 + f * timedelta(seconds=1), Pose(1.0, 1.0)))
        for (label, kind), frames in sightings.items():
            if f in frames:
                store.append(Detection(f, label, kind, 0.8))
    store.flush()
    now = T0 + timedelta(seconds=40) + timedelta(days=7)
    store.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7)))
    assert store.detection_count() == 13

    # reprocessed sightings of old frames: high seq, low frame id
    store.append(Detection(3, "cup", "object", 1.0))
    store.append(Detection(2, "max", "object", 1.0))   # older than its summary
    store.append(Detection(9, "steve", "person", 1.0))  # ties its summary

    window = TimeRange(T0 + timedelta(seconds=2), T0 + timedelta(seconds=57))
    for label in store.labels():
        for rng in (None, window):
            every = store.find_by_label(label, rng=rng, order="desc")
            assert every == store.find_by_label(label, rng=rng)[::-1]
            for kind in (None, "object", "person"):
                want = [h for h in every if kind is None or h.detection.kind == kind]
                for limit in (1, 3):
                    got = store.find_by_label(label, rng=rng, order="desc",
                                              limit=limit, kind=kind)
                    assert got == want[:limit]

    def latest(query):
        ans = run_query(query, store)
        return ans.frame_id, ans.coarse

    assert latest('LAST_SEEN object="cup"') == (59, False)
    assert latest('LAST_SEEN person="ifrah"') == (9, True)
    assert latest('LAST_SEEN object="max"') == (4, True)
    assert latest('LAST_SEEN person="max"') == (57, False)
    assert latest('LAST_SEEN person="steve"') == (9, False)  # exact beats coarse


def test_migration_blocked_while_writer_active(populated):
    store, _gt, _records = populated
    now = store.time_bounds().end
    with store.writer_role("ingest"):
        with pytest.raises(MigrationConflict):
            store.migrate_tiers(now, TierPolicy())


def test_stats_empty_store(store):
    store.flush()
    stats = store.stats()
    manifest_size = os.path.getsize(os.path.join(store.root, "manifest.json"))
    assert stats.bytes_on_disk == manifest_size
    assert stats.frames == 0


def test_stats_bytes_per_frame(populated):
    store, _gt, _records = populated
    stats = store.stats()
    assert stats.frames > 0
    assert stats.bytes_per_frame == stats.bytes_on_disk / stats.frames
    assert stats.bytes_per_frame <= 275
