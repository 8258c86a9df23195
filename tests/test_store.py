import dataclasses
import functools
import json
import os
import random
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import zlib
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import robomem
import robomem.segment as segment_module
import robomem.store as store_module

from robomem.errors import (
    CorruptSegment,
    MigrationConflict,
    ReadOnlyStore,
    StoreLocked,
    StoreVersionError,
)
from robomem.ingest import ingest_stream
from robomem.model import (
    ActivityEvent,
    Detection,
    FrameMeta,
    LocationEstimate,
    Pose,
    TimeRange,
    ts_from_micros,
    ts_parse,
    ts_to_micros,
)
from robomem.query import run_query
from robomem.refine import fuse, observation_at, run_refinement_pass
from robomem.reprocess import OracleReprocessor, run_reprocess
from robomem.scenario import generate_scenario
from robomem.segment import (
    DetectionColumns,
    FrameColumns,
    decode_payload,
    encode_detection_block,
    encode_frame_block,
    encode_record,
    framed_records,
    scan_segment,
)
from robomem.store import FORMAT_VERSION, TAG_TRACK, Store, TierPolicy

from conftest import set_segment_max, small_scenario
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


def _manifest(root):
    with open(os.path.join(root, "manifest.json")) as fh:
        return json.load(fh)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _frame_blocks(root):
    return [row[0] for row in _manifest(root)["frames"]]


def _frame_block_bytes(root):
    return {n: _read(os.path.join(root, "segments", n)) for n in _frame_blocks(root)}


def _named_files(root):
    m = _manifest(root)
    return set(m["segments"]) | set(_frame_blocks(root)) | ({m["tracks"]} if m["tracks"] else set())


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
    # a newer store is refused, and so is an older one: versions 1 and 2
    # with an old tracks.json, version 3 with its tier summaries and
    # coverage in summaries.json and coverage.json, version 4 with its
    # refine state in tracks.json, version 5 with every segment a record
    # log, version 6 with a count in each activity summary row, version 7
    # with its refine state as one JSON document, version 8 with a
    # segment's frames and detections sealed into one block, version 9
    # with a fused location in each label summary row, version 10 with
    # block columns as plain little-endian items, version 11 with the
    # refine cursor and counts in a state record ending the .tracks log,
    # and version 12 with a manifest rewritten at every commit and no
    # commit records in its log; nothing converts them
    store.close()
    p = os.path.join(store.root, "manifest.json")
    with open(p) as fh:
        m = json.load(fh)
    for version in (99, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
        m["version"] = version
        with open(p, "w") as fh:
            json.dump(m, fh)
        with pytest.raises(StoreVersionError) as ei:
            Store.open(store.root)
        assert str(version) in str(ei.value) and str(FORMAT_VERSION) in str(ei.value)


def test_create_refuses_an_existing_store(tmp_path):
    """create on a directory that holds a store raises and leaves the store
    as it was, also while another writer holds it open."""
    root = str(tmp_path / "s")
    with Store.create(root) as s:
        for f in range(360):
            s.append(FrameMeta(f, T0 + f * timedelta(seconds=1), Pose(0.0, 0.0)))

    def frames():
        ro = Store.open(root, mode="ro")
        n = ro.frame_count()
        ro.close()
        return n

    with pytest.raises(FileExistsError):
        Store.create(root)
    assert frames() == 360
    with Store.open(root) as writer:
        with pytest.raises((FileExistsError, StoreLocked)):
            Store.create(root)
        assert frames() == 360
        with pytest.raises(StoreLocked):  # the writer still holds the lock
            Store.open(root)
        writer.append(FrameMeta(360, T0 + timedelta(seconds=360), Pose(0.0, 0.0)))
    assert frames() == 361


def test_writer_reads_the_manifest_under_the_lock(tmp_path, monkeypatch):
    """A writer that commits into a new segment and closes while another
    read-write open is taking the lock: that open reads the manifest only
    once it holds the lock, so it serves every frame, and so does a reopen
    after its own commit."""
    root = str(tmp_path / "s")
    Store.create(root).close()
    set_segment_max(root, 16)
    frames = [FrameMeta(f, T0 + f * timedelta(seconds=1), Pose(0.0, 0.0)) for f in range(31)]
    with Store.open(root) as s:
        for fm in frames[:16]:
            s.append(fm)
    real_acquire = Store._acquire_lock

    def commit_first(self):
        monkeypatch.setattr(Store, "_acquire_lock", real_acquire)
        with Store.open(root) as other:
            for fm in frames[16:30]:
                other.append(fm)
        # the first segment is sealed (a frame block: it holds no detection)
        assert len(_frame_blocks(root)) == len(_manifest(root)["segments"]) == 1
        real_acquire(self)

    monkeypatch.setattr(Store, "_acquire_lock", commit_first)
    s = Store.open(root)
    assert s.frame_count() == 30
    s.append(frames[30])
    s.close()
    reopened = Store.open(root, mode="ro")
    assert [reopened.frame_by_id(f.frame_id).ts for f in frames] == [f.ts for f in frames]
    reopened.close()


def test_read_only_open_follows_a_commit_during_its_load(tmp_path, monkeypatch):
    """A writer that ingests, refines and commits while a read-only open
    loads, compacting the refine state, deletes the .tracks file that
    open's manifest named. The open reads the manifest again and serves the
    newer snapshot."""
    _gt, records = generate_scenario(small_scenario(seed=9, minutes=2.0))
    frames = [r for r in records if isinstance(r, FrameMeta)]
    cut = records.index(frames[len(frames) // 2])
    writer = Store.create(str(tmp_path / "s"))
    ingest_stream(iter(records[:cut]), writer)
    run_refinement_pass(writer)
    writer.flush()
    stale = _manifest(writer.root)["tracks"]
    real_load = Store._load

    def commit_first(self, manifest):
        monkeypatch.setattr(Store, "_load", real_load)
        ingest_stream(iter(records[cut:]), writer)
        run_refinement_pass(writer)
        writer.save_refine_state(writer.load_refine_state())  # no change set: compact
        writer.flush()
        assert manifest["tracks"] == stale != _manifest(writer.root)["tracks"]
        real_load(self, manifest)

    monkeypatch.setattr(Store, "_load", commit_first)
    reader = Store.open(writer.root, mode="ro")
    assert reader.frame_count() == writer.frame_count() == len(frames)
    assert reader.detection_count() == writer.detection_count()
    assert reader.load_refine_state() == writer.load_refine_state()
    reader.close()
    writer.close()


def test_read_only_open_during_an_append_serves_the_newer_commit(tmp_path, monkeypatch):
    """A writer that ingests, refines and commits while a read-only open
    loads appends to the log and to the .tracks log that open's manifest
    named, and leaves the manifest as it was. The open reads the log to
    its last commit record, and the .tracks log to the length that record
    commits, so it serves the newer snapshot whole."""
    _gt, records = generate_scenario(small_scenario(seed=9, minutes=2.0))
    frames = [r for r in records if isinstance(r, FrameMeta)]
    cut = records.index(frames[len(frames) // 2])
    writer = Store.create(str(tmp_path / "s"))
    ingest_stream(iter(records[:cut]), writer)
    run_refinement_pass(writer)
    writer.flush()
    older = writer.frame_count()
    real_load = Store._load

    def commit_first(self, manifest):
        monkeypatch.setattr(Store, "_load", real_load)
        ingest_stream(iter(records[cut:]), writer)
        run_refinement_pass(writer)
        writer.flush()
        assert _manifest(writer.root) == manifest  # one append to each log, no checkpoint
        real_load(self, manifest)

    monkeypatch.setattr(Store, "_load", commit_first)
    reader = Store.open(writer.root, mode="ro")
    assert _snapshot(reader) == _snapshot(writer)
    assert older < reader.frame_count() == len(frames)
    reader.close()
    writer.close()


def test_read_only_open_follows_a_checkpoint_that_keeps_the_log(tmp_path, monkeypatch):
    """A writer that, while a read-only open loads, rewrites the manifest
    but keeps the log (a migration that rolls hourly rows into daily ones
    and migrates no raw record), then appends and commits to that log:
    the open takes commit records its manifest did not lead to, so it reads
    the manifest again and serves the newer snapshot, summaries and all."""
    _gt, records = generate_scenario(small_scenario(seed=9, minutes=3.0))
    frames = [r for r in records if isinstance(r, FrameMeta)]
    cuts = [records.index(frames[len(frames) * k // 3]) for k in (1, 2)]
    mid = frames[len(frames) // 3].ts
    writer = Store.create(str(tmp_path / "s"))
    ingest_stream(iter(records[:cuts[0]]), writer)
    writer.migrate_tiers(mid + timedelta(days=7), TierPolicy(hot_window=timedelta(days=7)))
    ingest_stream(iter(records[cuts[0]:cuts[1]]), writer)  # a new log, which the manifest absorbs
    assert {s.tier for s in writer.label_summaries()} == {"hourly"}
    real_load = Store._load

    def commit_first(self, manifest):
        monkeypatch.setattr(Store, "_load", real_load)
        log = manifest["segments"][-1]
        roll = TierPolicy(hot_window=timedelta(days=7), warm_window=timedelta(hours=1))
        report = writer.migrate_tiers(mid + timedelta(days=7, seconds=-1), roll)
        assert report.detections_migrated == report.activities_migrated == 0 < report.hourly_rolled
        ingest_stream(iter(records[cuts[1]:]), writer)
        assert _manifest(writer.root)["segments"][-1] == log != manifest  # appended to its log
        real_load(self, manifest)

    monkeypatch.setattr(Store, "_load", commit_first)
    reader = Store.open(writer.root, mode="ro")
    assert {s.tier for s in reader.label_summaries()} == {"daily"}
    assert (reader.label_summaries(), reader.activity_summaries(), reader.frame_count(),
            reader.detection_count(), reader.activities()) == (
        writer.label_summaries(), writer.activity_summaries(), len(frames),
        writer.detection_count(), writer.activities())
    reader.close()
    writer.close()


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


@pytest.mark.parametrize("migrated", [False, True], ids=["ingested", "migrated"])
def test_damaged_tail_opens_as_record_walk(tmp_path, migrated):
    """With its log cut or bit-flipped at many offsets, a store opens to
    what its blocks and a record-by-record walk of the log give: the same
    frames and detections, and the log cut back to the same offset. The
    blocks before the log were sealed by flushes, or, in a migrated store,
    written by the migration before the rest of the feed came in. Damage in
    a detection block is corruption."""
    _gt, records = generate_scenario(small_scenario(seed=8, minutes=1.5))
    frames = [r for r in records if isinstance(r, FrameMeta)]
    cut = records.index(frames[len(frames) * 2 // 3]) if migrated else len(records)
    root = str(tmp_path / "s")
    Store.create(root).close()
    set_segment_max(root, 400)
    with Store.open(root) as s:
        ingest_stream(iter(records[:cut]), s)
        if migrated:
            now = frames[len(frames) // 2].ts + timedelta(days=7)
            assert s.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7))).detections_migrated
            ingest_stream(iter(records[cut:]), s)
    names = _manifest(root)["segments"]
    assert len(names) >= 2
    assert all(n.endswith(".blk") for n in names[:-1]) and names[-1].endswith(".seg")
    paths = [os.path.join(root, "segments", n) for n in names]
    blobs = [_read(path) for path in paths]
    earlier = [r for n in _frame_blocks(root)
               for r in scan_segment(_read(os.path.join(root, "segments", n)))[0]]
    earlier += [r for blob in blobs[:-1] for r in scan_segment(blob)[0]]
    last = blobs[-1]
    tail = scan_segment(last)[0]
    assert any(isinstance(r, Detection) for r in tail)

    rng = random.Random(11)
    for trial in range(160):
        data = bytearray(last)
        if trial % 2:
            del data[rng.randrange(len(data)):]
        else:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        with open(paths[-1], "wb") as fh:
            fh.write(data)
        walked, good = scan_segment(bytes(data))
        want = earlier + walked
        frames = [r for r in want if isinstance(r, FrameMeta)]
        st = Store.open(root)
        assert os.path.getsize(paths[-1]) == good
        assert st.frame_count() == len(frames)
        assert [st.frame_by_id(f.frame_id) for f in frames] == frames
        assert [d for _seq, d in st.detections_from(0)] == [
            r for r in want if isinstance(r, Detection)]
        st.close(flush=False)

    with open(paths[-1], "wb") as fh:
        fh.write(last)
    for at in (0, len(blobs[0]) // 2, len(blobs[0]) - 1):
        data = bytearray(blobs[0])
        data[at] ^= 0x10
        with open(paths[0], "wb") as fh:
            fh.write(data)
        for mode in ("ro", "rw"):
            with pytest.raises(CorruptSegment):
                Store.open(root, mode=mode)


def test_damaged_block_is_corruption(tmp_path):
    """A block bit-flipped or cut anywhere is corruption, read-only and
    read-write, and is left as it is, also when it is the last file the
    manifest names: a block is never cut back like a log's tail. A
    detection block or a resident frame block fails the open; a cold frame
    block fails the first read of its frames."""
    _gt, records = generate_scenario(small_scenario(seed=9, minutes=3.0))
    oldest = next(r for r in records if isinstance(r, FrameMeta))
    root = str(tmp_path / "s")
    Store.create(root).close()
    set_segment_max(root, 200)
    policy = TierPolicy(hot_window=timedelta(days=7))
    with Store.open(root) as s:  # flushes seal frame blocks; the migration writes detection blocks
        ingest_stream(iter(records), s)
        s.migrate_tiers(oldest.ts + timedelta(seconds=90) + policy.hot_window, policy)
        assert s.detection_count() > 0
    names = _manifest(root)["segments"]
    assert len(names) >= 2 and all(n.endswith(".blk") for n in names)
    blocks = _frame_blocks(root)
    with Store.open(root, mode="ro") as s:
        stats = s.stats()
    assert 0 < stats.resident_frame_blocks < stats.frame_blocks == len(blocks)
    rng = random.Random(12)
    for name, cold in ((names[0], False), (names[-1], False), (blocks[0], True), (blocks[-1], False)):
        path = os.path.join(root, "segments", name)
        block = _read(path)
        for trial in range(40):
            data = bytearray(block)
            if trial % 4 == 3:
                del data[rng.randrange(len(data)):]
            else:
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            with open(path, "wb") as fh:
                fh.write(data)
            for mode in ("ro", "rw"):
                if cold:
                    with Store.open(root, mode=mode) as s:
                        with pytest.raises(CorruptSegment):
                            s.frame_by_id(oldest.frame_id)
                else:
                    with pytest.raises(CorruptSegment):
                        Store.open(root, mode=mode)
                assert _read(path) == data
        with open(path, "wb") as fh:
            fh.write(block)
    with Store.open(root, mode="ro") as s:
        assert s.frame_by_id(oldest.frame_id) == served_frames([oldest])[0]


def test_damaged_tracks_log_is_corruption(tmp_path):
    """A .tracks log with a bit flipped in a track row or cut short of its
    committed length, or a manifest whose track or row count differs from
    what the log holds, is corruption: the first tracks() raises
    CorruptSegment, read-only and read-write, and every file is left as it
    was (a read-write open does not pad a short log out)."""
    _gt, records = generate_scenario(small_scenario(seed=9, minutes=2.0))
    root = str(tmp_path / "s")
    with Store.create(root) as s:
        ingest_stream(iter(records), s)
        run_refinement_pass(s)
    m = _manifest(root)
    manifest_path = os.path.join(root, "manifest.json")
    seg_dir = os.path.join(root, "segments")
    path = os.path.join(seg_dir, m["tracks"])
    log = _read(path)
    assert [tag for tag, _ in framed_records(log)] == [TAG_TRACK] * m["refine"][3]
    assert m["refine"][3] >= 2

    def files():
        return {n: _read(os.path.join(seg_dir, n)) for n in os.listdir(seg_dir)} | {
            "manifest.json": _read(manifest_path)}

    rng = random.Random(13)
    cases = []
    for _ in range(8):  # a bit flipped anywhere: every byte of the log is in a track row
        data = bytearray(log)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        cases.append((bytes(data), m))
    for _ in range(4):
        cases.append((log[:rng.randrange(len(log))], m))
    for i in (2, 3):  # the manifest's track count, then its row count
        for delta in (-1, 1):
            refine = list(m["refine"])
            refine[i] += delta
            cases.append((log, dict(m, refine=refine)))
    for data, manifest in cases:
        with open(path, "wb") as fh:
            fh.write(data)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, separators=(",", ":"))
        before = files()
        for mode in ("ro", "rw"):
            with Store.open(root, mode=mode) as s:
                with pytest.raises(CorruptSegment):
                    s.tracks()
            assert files() == before


def test_log_walk_ends_at_an_unknown_detection_kind():
    """A detection record whose kind byte is neither object (0) nor person
    (1) ends the walk of a log like any record that does not decode, even
    with a valid CRC, and with or without columns to take the detections."""
    frame = encode_record(FrameMeta(0, T0, Pose(1.0, 1.0)))
    sighting = encode_record(Detection(0, "cup", "person", 0.5))
    body = bytearray(sighting[:-4])
    body[3 + 4] = 2  # the kind byte: after the tag and length (3) and the frame id (4)
    bad = bytes(body) + zlib.crc32(body).to_bytes(4, "little")
    log = frame + sighting + bad + sighting
    with pytest.raises(CorruptSegment):
        decode_payload(bad[0], bad[3:-4])
    records, good = scan_segment(log)
    assert good == len(frame + sighting)
    assert records[1:] == [Detection(0, "cup", "person", 0.5)]
    frames = FrameColumns()
    dets = DetectionColumns(frames)
    records, good = scan_segment(log, frames, dets)
    assert (records, good) == ([], len(frame + sighting))
    assert [dets.detection(seq) for seq in range(len(dets))] == [Detection(0, "cup", "person", 0.5)]


def _records_by_type(records):
    return [[r for r in records if isinstance(r, t)] for t in (FrameMeta, Detection, ActivityEvent)]


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 10**7)), min_size=1, max_size=40),
    poses=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
    labels=st.lists(st.sampled_from(["cup", "mug", "café", "日本", "a b"]), min_size=1, max_size=40),
    confidences=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    split=st.floats(0.0, 1.0),
    big_endian=st.booleans(),
)
def test_block_round_trip(steps, poses, labels, confidences, split, big_endian):
    """Frames, detections (also of frames in an earlier block) and
    activities come back from blocks equal to what their log gives, as
    records and into the tables, and a block holds what its log held. With
    big_endian, blocks are written and read as on a big-endian host: a
    column is byteswapped before it is shuffled, and unshuffled before it
    is swapped back."""
    with mock.patch.object(segment_module, "_NATIVE_LE", not big_endian):
        _check_block_round_trip(steps, poses, labels, confidences, split)


def _check_block_round_trip(steps, poses, labels, confidences, split):
    records = []
    ids, ts_us = [], 10**15
    for i, (what, step) in enumerate(steps):
        if what <= 1 or not ids:
            ids.append(ids[-1] + step % 7 + 1 if ids else step)
            ts_us += step * what
            records.append(FrameMeta(ids[-1], ts_from_micros(ts_us), Pose(*(
                p * (i + 1) for p in poses))))
        elif what == 2:
            records.append(Detection(ids[-1 - step % len(ids)], labels[i % len(labels)],
                                     ("object", "person")[step % 2], confidences[i % len(confidences)]))
        else:
            loc = LocationEstimate(mean=(poses[0], poses[1]), cov=((2.0, 0.5), (0.5, 1.0)))
            records.append(ActivityEvent(labels[i % len(labels)], "walk", ts_from_micros(ts_us),
                                         ts_from_micros(ts_us + step), loc if step % 2 else None,
                                         confidences[i % len(confidences)],
                                         ("ingested", "reprocessed")[step % 3 == 0]))
    log = b"".join(encode_record(r) for r in records)
    walked, good = scan_segment(log)
    assert good == len(log)
    frames = FrameColumns()
    dets = DetectionColumns(frames)
    activities, _good = scan_segment(log, frames, dets)
    counts = (len(frames), len(dets), len(activities))

    def seal(start, end):
        """A segment's frame block and detection block, as a seal writes them."""
        return [encode_frame_block(frames, start[0], end[0]),
                encode_detection_block(dets, activities, start[1:], end[1:])]
    whole = seal((0, 0, 0), counts)
    got = [scan_segment(block) for block in whole]
    assert [good for _records, good in got] == list(map(len, whole))
    assert _records_by_type(got[0][0] + got[1][0]) == _records_by_type(walked)

    # two segments, split after a prefix of the records, as a seal splits the
    # log; each frame block is read before its detection block
    middle = tuple(len(t) for t in _records_by_type(records[:round(len(records) * split)]))
    blocks = seal((0, 0, 0), middle) + seal(middle, counts)
    frames2 = FrameColumns()
    dets2 = DetectionColumns(frames2)
    activities2 = []
    for block in blocks:
        rest, good = scan_segment(block, frames2, dets2)
        assert good == len(block)
        activities2 += rest
    assert activities2 == activities
    for name in FrameColumns.__slots__:
        assert getattr(frames2, name) == getattr(frames, name)
    assert [dets2.detection(i) for i in range(len(dets2))] == [dets.detection(i) for i in range(len(dets))]
    assert dets2.labels == dets.labels and dets2.postings == dets.postings


def _block_sections(block):
    """The decompressed sections of a block, read by its layout: an 8-byte
    head, then u32-length-prefixed zlib sections, then a u32 CRC."""
    sections, off = [], 8
    while off < len(block) - 4:
        (size,) = struct.unpack_from("<I", block, off)
        sections.append(zlib.decompress(block[off + 4:off + 4 + size]))
        off += 4 + size
    assert off == len(block) - 4
    return sections


def test_block_columns_are_byte_shuffled():
    """A frame block's x section holds byte 0 of every x, then byte 1 of
    every x, and so on, of the little-endian doubles; a detection block's
    confidence section holds the confidences as plain little-endian doubles."""
    xs = [0.1 * i + 1234.5678 for i in range(50)]
    confidences = [0.5 + i / 1000 for i in range(50)]
    frames = FrameColumns()
    dets = DetectionColumns(frames)
    for i, (x, c) in enumerate(zip(xs, confidences)):
        frames.append_encoded(encode_record(FrameMeta(i, T0 + timedelta(seconds=i), Pose(x, -x))))
        dets.append(i, Detection(i, "cup", "object", c))
    items = [struct.pack("<d", x) for x in xs]
    planes = bytes(item[b] for b in range(8) for item in items)
    assert _block_sections(encode_frame_block(frames, 0, len(xs)))[2] == planes
    sections = _block_sections(encode_detection_block(dets, [], (0, 0), (len(dets), 0)))
    assert sections[3] == b"".join(struct.pack("<d", c) for c in confidences)


def test_reprocessed_sightings_read_the_same_after_reopen(store):
    """Sightings of old frames appended late, as reprocessing does, come
    after newer frames' sightings in seq order. Label reads order them by
    frame, and every read gives the same after a reopen."""
    records = []
    for f in range(40):
        records.append(FrameMeta(f, T0 + f * timedelta(seconds=1), Pose(float(f), 0.5)))
        if f % 3 == 0:
            records.append(Detection(f, "cup", "object", 0.7))
    records += [Detection(4, "cup", "object", 0.9), Detection(0, "cup", "object", 0.8),
                Detection(4, "cup", "person", 0.6), Detection(21, "mug", "object", 0.5),
                Detection(3, "cup", "object", 0.95), Detection(39, "cup", "object", 0.4),
                Detection(2, "mug", "object", 0.3)]
    for r in records[:-7]:
        store.append(r)
    store.flush()
    for r in records[-7:]:
        store.append(r)
    window = TimeRange(T0 + timedelta(seconds=2), T0 + timedelta(seconds=30))

    def reads(s):
        hits = {}
        for label in ("cup", "mug", "plate"):
            for kind in (None, "object", "person"):
                for rng in (None, window):
                    want = brute_find(records, label, rng, kind)
                    for order in ("asc", "desc"):
                        got = [(h.frame, h.detection) for h in
                               s.find_by_label(label, rng=rng, order=order, kind=kind)]
                        assert got == (want if order == "asc" else want[::-1])
                        hits[label, kind, rng, order] = got
                        hits[label, kind, rng, order, 1] = s.find_by_label(
                            label, rng=rng, order=order, limit=1, kind=kind)[0].detection \
                            if want else None
        sighted = [s.has_sighting(f, label, kind) for f in range(41)
                   for label in ("cup", "mug") for kind in ("object", "person")]
        return hits, sighted, [s.detections_from(k) for k in (0, 10, 16, 20, 22)]

    before = reads(store)
    assert [d for _seq, d in store.detections_from(0)] == [
        r for r in records if isinstance(r, Detection)]
    store.flush()
    reopened = Store.open(store.root, mode="ro")
    assert reads(reopened) == before
    reopened.close()


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
    return b"".join(_read(os.path.join(root, "segments", n)) for n in _manifest(root)["segments"])


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
    # the migration sealed the log's frames into a frame block
    migrated = [r for n in _frame_blocks(root)
                for r in scan_segment(_read(os.path.join(root, "segments", n)))[0]]
    assert migrated == frames
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

    for cls in (FrameMeta, Pose, Detection):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    reopened = Store.open(store.root, mode="ro")
    assert built == []
    n = reopened.detection_count()
    assert reopened.frame_count() > n > 0
    per_record = [name for name, v in vars(reopened).items()
                  if isinstance(v, (dict, list)) and len(v) >= n]
    assert per_record == []
    # label reads answer from the columns too
    label = reopened.labels()[0]
    kind = "object" if reopened.find_by_label(label, kind="object") else "person"
    hits = reopened.find_by_label(label, kind=kind)
    assert hits and all(0.0 < h.confidence <= 1.0 and h.frame_id >= 0 for h in hits)
    assert reopened.has_sighting(hits[-1].frame_id, label, kind)
    assert built == []
    assert reopened.frame_by_id(0).frame_id == 0  # built on demand, and counted
    assert hits[0].detection.label == label
    assert built == [Pose, FrameMeta, Detection]
    reopened.close()


def test_tracks_held_once(populated):
    store, _gt, _records = populated
    run_refinement_pass(store)
    store.flush()
    reopened = Store.open(store.root, mode="ro")
    n = len(reopened.tracks())
    assert n > 0

    def per_track(v):
        return isinstance(v, (list, tuple)) and len(v) == n
    holders = [name for name, v in vars(reopened).items()
               if per_track(v) or isinstance(v, dict) and any(map(per_track, v.values()))]
    assert holders == ["_tracks"]  # the decoded tracks, and no rows of the .tracks file
    reopened.close()


def test_refine_state_survives_reopen_exactly(populated):
    store, _gt, _records = populated
    run_refinement_pass(store)
    state = store.load_refine_state()
    t = state["tracks"][0]
    (c00, c01), (_c10, c11) = t.loc.cov
    # fusion keeps the covariance symmetric; a saved one need only be so
    # within the SPD tolerance, and both off-diagonal entries survive
    skewed = dataclasses.replace(t, track_id=state["next_track_id"], loc=LocationEstimate(
        mean=t.loc.mean, cov=((c00, c01), (c01 + 1e-10, c11))))
    skewed.loc.require_spd()
    state = {"cursor": state["cursor"], "next_track_id": state["next_track_id"] + 1,
             "tracks": state["tracks"] + [skewed]}
    store.save_refine_state(state)
    store.flush()
    reopened = Store.open(store.root, mode="ro")
    persisted = ("cursor", "next_track_id", "tracks")
    assert {k: reopened.load_refine_state()[k] for k in persisted} == state
    assert reopened.tracks()[-1].loc.cov[1][0] == c01 + 1e-10 != c01
    reopened.close()


def test_saved_refine_state_replaces_undecoded_rows(populated):
    """A state saved before the tracks read at open were decoded replaces
    them: the rows are not decoded over it later."""
    store, _gt, _records = populated
    run_refinement_pass(store)
    store.close()
    reopened = Store.open(store.root)
    reopened.save_refine_state({"cursor": 0, "next_track_id": 0, "tracks": []})
    assert reopened.tracks() == [] and reopened.stats().tracks == 0
    assert reopened.track_for(reopened.labels()[0], "object", 0) is None
    reopened.close()


def test_refine_state_saved_with_no_changed_track_survives_reopen(populated):
    """A state saved with an empty change set, whose cursor and next track
    id differ from the last committed ones, is committed at the next flush,
    in a commit record alone: the .tracks log does not grow, and the
    manifest keeps its bytes."""
    store, _gt, _records = populated
    run_refinement_pass(store)
    store.flush()
    state = store.load_refine_state()
    assert state["cursor"] > 0
    committed = _committed_lengths(store.root)[1]
    manifest = _read(os.path.join(store.root, "manifest.json"))
    saved = {"cursor": 0, "next_track_id": state["next_track_id"] + 5}
    store.save_refine_state(dict(state, **saved), changed=[])
    store.flush()
    assert len(_log_records(store.root)) == len(state["tracks"])
    assert _committed_lengths(store.root)[1] == committed
    assert _read(os.path.join(store.root, "manifest.json")) == manifest
    with Store.open(store.root, mode="ro") as reopened:
        got = reopened.load_refine_state()
        assert {k: got[k] for k in saved} == saved
        assert got["tracks"] == state["tracks"]
    store.close()


def _committed_lengths(root):
    """The committed lengths of the log and of the .tracks log, as a
    read-only open reads them: the manifest's, or its last commit record's."""
    with Store.open(root, mode="ro") as s:
        stats = s.stats()
    return stats.log_bytes, stats.refine_state_bytes


def _log_records(root, start=0):
    """The (tag, payload) records of the committed .tracks log from byte
    `start` on; the file holds nothing past its committed length."""
    data = _read(os.path.join(root, "segments", _manifest(root)["tracks"]))
    assert len(data) == _committed_lengths(root)[1]
    return list(framed_records(data[start:]))


def test_flush_writes_refine_state_only_when_changed(populated):
    """A flush that leaves the refine state as committed appends nothing to
    the .tracks log. A pass that changes k tracks grows the same file by
    their k rows, in track order, and nothing else. A state saved
    without a change set is compacted into a fresh file, and the old one is
    deleted."""
    store, _gt, _records = populated
    store.flush()
    assert _manifest(store.root)["tracks"] is None  # nothing refined, nothing to write
    run_refinement_pass(store)
    store.flush()
    n = len(store.tracks())
    assert [tag for tag, _ in _log_records(store.root)] == [TAG_TRACK] * n
    name = _manifest(store.root)["tracks"]
    path = os.path.join(store.root, "segments", name)
    size = os.path.getsize(path)
    store.flush()
    assert run_refinement_pass(store).observations_fused == 0
    store.flush()
    assert _manifest(store.root)["tracks"] == name and os.path.getsize(path) == size
    store.close()
    reopened = Store.open(store.root, mode="rw")
    reopened.flush()
    assert _manifest(store.root)["tracks"] == name and os.path.getsize(path) == size

    before = reopened.tracks()
    last = reopened.frame_by_id(reopened.max_frame_id)
    sighted = {(h.detection.label, h.detection.kind) for label in reopened.labels()
               for h in reopened.find_by_label(label) if h.frame_id == last.frame_id}
    reopened.append(FrameMeta(last.frame_id + 1, last.ts + timedelta(seconds=1), last.pose))
    for label, kind in sorted(sighted) + [("mug", "object")]:
        reopened.append(Detection(last.frame_id + 1, label, kind, 0.9))
    report = run_refinement_pass(reopened)
    after = reopened.tracks()
    changed = [t for i, t in enumerate(after) if i >= len(before) or t != before[i]]
    k = report.tracks_created + report.tracks_updated
    assert len(changed) == k >= 2 and report.tracks_created >= 1
    reopened.flush()
    assert _manifest(store.root)["tracks"] == name
    grown = _log_records(store.root, size)
    assert [tag for tag, _ in grown] == [TAG_TRACK] * k
    assert [int.from_bytes(p[:4], "little") for _, p in grown] == [t.track_id for t in changed]

    snapshot = Store.open(store.root, mode="ro")
    stats = snapshot.stats()  # before the log is replayed: tracks, not rows
    assert (stats.tracks, stats.refine_log_rows) == (len(after), n + k)
    assert stats.refine_state_bytes == os.path.getsize(path)
    assert snapshot.tracks() == after
    snapshot.close()

    reopened.save_refine_state(reopened.load_refine_state())
    reopened.flush()
    compacted = _manifest(store.root)["tracks"]
    assert compacted != name and not os.path.exists(path)
    assert [tag for tag, _ in _log_records(store.root)] == [TAG_TRACK] * len(after)
    assert reopened.stats().refine_log_rows == len(after)
    reopened.close()
    snapshot = Store.open(store.root, mode="ro")
    assert snapshot.tracks() == after
    snapshot.close()


def test_refine_log_compacts_past_twice_the_tracks(store):
    """A flush that would leave the .tracks log holding more than twice as
    many rows as there are tracks writes the state whole to a fresh file."""
    for f, label in enumerate(("cup", "book", "plant")):
        store.append(FrameMeta(f, T0 + timedelta(seconds=f), Pose(0.0, 0.0)))
        store.append(Detection(f, label, "object", 0.9))
    run_refinement_pass(store)
    store.flush()
    first = _manifest(store.root)["tracks"]
    names, rows = [], []
    for f in range(3, 7):  # each sighting updates the cup's track
        store.append(FrameMeta(f, T0 + timedelta(seconds=f), Pose(0.0, 0.0)))
        store.append(Detection(f, "cup", "object", 0.9))
        assert run_refinement_pass(store).tracks_updated == 1
        store.flush()
        names.append(_manifest(store.root)["tracks"])
        rows.append(store.stats().refine_log_rows)
    assert rows == [4, 5, 6, 3]
    assert names[:3] == [first] * 3 and names[3] != first
    assert not os.path.exists(os.path.join(store.root, "segments", first))
    tracks = store.tracks()
    reopened = Store.open(store.root, mode="ro")
    assert reopened.tracks() == tracks and reopened.stats().tracks == 3
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
    cursor with them, so detections appended later are all refined. It
    changes no track, so it leaves the .tracks log as it was, byte for
    byte; a reopen reads the same tracks and, off the manifest, the
    renumbered cursor."""
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
    snapshot = Store.open(s.root, mode="ro")  # the rebased cursor was written
    assert snapshot.load_refine_state()["cursor"] == s.detection_count()
    snapshot.close()
    name = _manifest(s.root)["tracks"]

    new = sum(isinstance(r, Detection) for r in rest)
    ingest_stream(iter(rest), s)
    second = run_refinement_pass(s)
    assert s.load_refine_state()["cursor"] == s.detection_count()
    assert second.tracks_created + second.observations_fused == new
    s.flush()
    assert _manifest(s.root)["tracks"] == name  # the second pass's rows were appended
    before, tracks = s.stats(), s.tracks()
    path = os.path.join(s.root, "segments", name)
    log, refined = _read(path), s.load_refine_state()["cursor"]
    report = s.migrate_tiers(frames[0].ts + timedelta(seconds=90) + policy.hot_window, policy)
    assert report.detections_migrated > 0
    after = s.stats()
    assert _manifest(s.root)["tracks"] == name and _read(path) == log
    assert (after.tracks, after.refine_log_rows, after.refine_state_bytes) == (
        before.tracks, before.refine_log_rows, before.refine_state_bytes)
    cursor = s.load_refine_state()["cursor"]
    assert cursor == s.detection_count() < refined
    s.close()
    reopened = Store.open(s.root, mode="ro")
    assert reopened.tracks() == tracks and reopened.load_refine_state()["cursor"] == cursor
    reopened.close()


def test_migration_retains_frames_for_reprocessing(tmp_path):
    s, _gt, _records = migration_fixture(tmp_path)
    frames_before = s.frame_count()
    now = s.time_bounds().end + timedelta(days=8)
    s.migrate_tiers(now, TierPolicy(hot_window=timedelta(days=7)))
    assert s.frame_count() == frames_before
    s.close()


def daily_sessions(days, minutes=1.0):
    """A sparse feed: one short session a day, as one list of records per
    day, frame ids running on from day to day."""
    out = []
    for day in range(days):
        cfg = small_scenario(seed=30 + day, minutes=minutes, start_time=T0 + timedelta(days=day))
        _gt, session = generate_scenario(cfg)
        out.append([r if isinstance(r, ActivityEvent)
                    else dataclasses.replace(r, frame_id=r.frame_id + day * cfg.frame_count)
                    for r in session])
    return out


def test_open_holds_the_hot_window(tmp_path):
    """Days of sessions, each ingested, refined and migrated at the day's
    end with a 2-day hot window. After each migration a read-only open holds
    at most the hot window's frames plus one frame block, and counts every
    frame; reads of the first day's frames, from cold blocks, give what the
    feed holds in the writer and after the reopen. A sighting appended for
    a cold frame, as a reprocess appends it, makes its block resident and
    reads the same after a reopen."""
    sessions = daily_sessions(6)
    root = str(tmp_path / "s")
    Store.create(root).close()
    set_segment_max(root, 200)  # several frame blocks a day
    policy = TierPolicy(hot_window=timedelta(days=2))
    day0 = served_frames(sessions[0])
    first_day = TimeRange(day0[0].ts, day0[-1].ts)
    want = ([f.frame_id for f in day0], day0)
    seen = []
    with Store.open(root) as s:
        for day, session in enumerate(sessions):
            ingest_stream(iter(session), s)
            run_refinement_pass(s)
            seen += served_frames(session)
            now = T0 + timedelta(days=day + 1)
            s.migrate_tiers(now, policy)
            reader = Store.open(root, mode="ro")
            stats = reader.stats()
            assert stats.frames == len(seen) and reader.time_bounds() == s.time_bounds()
            counts = [row[5] for row in _manifest(root)["frames"]]
            resident = stats.frames - sum(counts[:stats.frame_blocks - stats.resident_frame_blocks])
            hot = sum(f.ts >= now - policy.hot_window for f in seen)
            assert resident <= hot + max(counts)
            cold = stats.frame_blocks - stats.resident_frame_blocks
            assert (cold > 0) == (day >= 2)
            reads = [(st.frames_in_range(first_day), [st.frame_by_id(f.frame_id) for f in day0])
                     for st in (s, reader)]
            assert reads == [want, want]
            # the cold blocks of day 0 are held once read, up to the cache's capacity
            assert reader.stats().resident_frame_blocks - stats.resident_frame_blocks == min(
                cold, sum(row[1] <= day0[-1].frame_id for row in _manifest(root)["frames"]),
                store_module.COLD_BLOCKS_HELD)
            reader.close()

    # a sighting of a day-0 frame, appended late as reprocessing does
    late = Detection(day0[5].frame_id, "cup", "object", 0.9)
    with Store.open(root) as s:
        cold = s.stats()
        held = (s.detections_from(0), s.frames_in_range(first_day))
        s.append(late)
        assert s.stats().resident_frame_blocks == cold.frame_blocks > cold.resident_frame_blocks
        assert s.has_sighting(late.frame_id, "cup", "object")
        held = (s.frame_count(), held[0] + [(len(held[0]), late)], held[1])
        assert (s.frame_count(), s.detections_from(0), s.frames_in_range(first_day)) == held
    for mode in ("ro", "rw"):
        with Store.open(root, mode=mode) as reader:
            hits = reader.find_by_label("cup", rng=first_day)
            assert [(h.frame, h.detection) for h in hits if not h.coarse] == [(day0[5], late)]
            assert (reader.frame_count(), reader.detections_from(0),
                    reader.frames_in_range(first_day)) == held


def _sightings(store):
    """Each label's raw hits plus the counts of its tier summaries."""
    return {label: sum(h.count for h in store.find_by_label(label)) for label in store.labels()}


def _prepare_flush(s, _gt, rest):
    run_refinement_pass(s)
    for r in rest:
        s.append(r)
    return s.flush


def _prepare_migrate(s, _gt, _rest):
    run_refinement_pass(s)  # so the migration rebases the refine cursor too
    s.flush()
    policy = TierPolicy(hot_window=timedelta(days=7))
    now = s.time_bounds().start + timedelta(seconds=90) + policy.hot_window
    return lambda: s.migrate_tiers(now, policy)


def _prepare_migrate_cold(s, _gt, rest):
    """A second migration, by a writer whose open left the frame blocks
    before the first migration's hot cutoff cold."""
    run_refinement_pass(s)
    policy = TierPolicy(hot_window=timedelta(days=7))
    start = s.time_bounds().start
    s.migrate_tiers(start + timedelta(seconds=60) + policy.hot_window, policy)
    for r in rest:
        s.append(r)
    s.close()
    writer = Store.open(s.root)
    stats = writer.stats()
    assert stats.resident_frame_blocks < stats.frame_blocks

    def migrate():
        try:
            writer.migrate_tiers(start + timedelta(seconds=120) + policy.hot_window, policy)
        finally:
            writer.close(flush=False)
    return migrate


def _prepare_reprocess(s, gt, _rest):
    run_refinement_pass(s)
    s.flush()
    full = s.time_bounds()
    request = run_query(f'DID activity="dance" subject="ifrah" FROM {full.start:%Y-%m-%dT%H:%M:%SZ} '
                        f'TO {full.end:%Y-%m-%dT%H:%M:%SZ}', s).request
    return lambda: run_reprocess(s, request, OracleReprocessor(gt))


def _prepare_refine_append(s, _gt, rest):
    run_refinement_pass(s)
    s.flush()  # a committed .tracks log, which the flush below appends to
    for r in rest:
        s.append(r)
    run_refinement_pass(s)
    return s.flush


def _prepare_compact(s, gt, rest):
    flush = _prepare_refine_append(s, gt, rest)
    s.save_refine_state(s.load_refine_state())  # no change set: the flush compacts the log
    return flush


def _prepare_ingest(s, _gt, rest):
    """A chunked ingest: it flushes once its appends fill a segment, which
    seals the log, and once at the end."""
    assert 400 < len(rest) < 800
    return lambda: ingest_stream(iter(rest), s)


@pytest.mark.parametrize("prepare", [_prepare_flush, _prepare_migrate, _prepare_migrate_cold,
                                     _prepare_reprocess, _prepare_refine_append, _prepare_compact,
                                     _prepare_ingest],
                         ids=["flush", "migrate", "migrate-cold", "reprocess", "refine-append",
                              "compact", "ingest"])
def test_crash_at_any_durable_step_keeps_the_store(tmp_path, monkeypatch, prepare):
    """For every k, the k-th os.replace, apart the k-th os.fsync, apart the
    k-th append to a log, and apart the k-th write of a whole file (a block
    or manifest.json.tmp; both torn: half its bytes written, then an error),
    of an operation fails: a flush after a refinement pass, a migration, a
    second migration by a writer that holds the oldest frame blocks cold, a
    reprocess, a flush that appends a pass's rows to a committed .tracks
    log, one that compacts that log, or a chunked ingest that crosses a
    segment boundary. A read-write reopen then holds what the store held
    before the operation or after it, or for the ingest after its interval
    flush: every label's raw hits
    plus summary counts, the raw detection count, the activities, the
    analyzed time, the tracks and the refine cursor. The next pass refines
    the detections past the cursor. segments/ holds just the files the
    manifest names, and they and the manifest are the bytes on disk; every
    frame block named before the operation is still named, with the same
    bytes."""
    gt, records = generate_scenario(small_scenario(seed=9, minutes=3.0))
    frames = [r for r in records if isinstance(r, FrameMeta)]
    cut = records.index(frames[len(frames) * 2 // 3])
    base = str(tmp_path / "base")
    Store.create(base).close()
    set_segment_max(base, 400)  # so a flush fills one segment and starts the next
    with Store.open(base) as s:
        ingest_stream(iter(records[:cut]), s)
    full = TimeRange(frames[0].ts, frames[-1].ts)

    def contents(st):
        return (_sightings(st), st.detection_count(), st.activities(),
                [st.is_covered(subject, "dance", full) for subject in (None, "ifrah")],
                st.tracks(), st.load_refine_state()["cursor"])

    def attempt(name, fail=None, k=0):
        """Run the operation on a copy of base; return the copy's root, the
        calls made, whether the operation failed, and the store's contents
        and .tracks file name as committed before the operation."""
        root = str(tmp_path / name)
        shutil.copytree(base, root)
        st = Store.open(root)
        operation = prepare(st, gt, records[cut:])
        snapshot = Store.open(root, mode="ro")
        committed = contents(snapshot), _manifest(root)["tracks"], _frame_block_bytes(root)
        snapshot.close()
        real = {"replace": os.replace, "fsync": os.fsync, "write": store_module._append_durable,
                "write-whole": store_module._write_durable}
        calls = dict.fromkeys(real, 0)

        def counting(name):
            def call(*args):
                calls[name] += 1
                if name == fail and calls[name] == k:
                    if name == "write":
                        path, size, data = args
                        with open(path, "ab") as fh:
                            fh.truncate(size)
                            fh.write(data[:len(data) // 2])
                    elif name == "write-whole":
                        path, data = args
                        with open(path, "wb") as fh:
                            fh.write(data[:len(data) // 2])
                    raise OSError(f"injected failure at {name} #{k}")
                return real[name](*args)
            return call

        failed = False
        with monkeypatch.context() as m:
            for name in ("replace", "fsync"):
                m.setattr(os, name, counting(name))
            m.setattr(store_module, "_append_durable", counting("write"))
            m.setattr(store_module, "_write_durable", counting("write-whole"))
            try:
                operation()
            except OSError:
                failed = True
        st.close(flush=False)
        return root, calls, failed, committed

    def check(root, allowed, blocks):
        st = Store.open(root)  # read-write: deletes what the manifest does not name
        assert contents(st) in allowed
        now = _frame_block_bytes(root)
        assert {name: now[name] for name in blocks} == blocks
        named = _named_files(root)
        seg_dir = os.path.join(root, "segments")
        assert set(os.listdir(seg_dir)) == named
        m = _manifest(root)  # and cuts the .tracks log to its committed length
        assert m["tracks"] is None or os.path.getsize(os.path.join(seg_dir, m["tracks"])) == m["tracks_bytes"]
        assert st.stats().bytes_on_disk == os.path.getsize(os.path.join(root, "manifest.json")) + sum(
            os.path.getsize(os.path.join(seg_dir, n)) for n in named)
        n = st.detection_count()
        assert st.load_refine_state()["cursor"] <= n
        run_refinement_pass(st)
        assert st.load_refine_state()["cursor"] == n
        st.close(flush=False)

    root, calls, failed, (before, tracks_file, blocks) = attempt("clean")
    snapshot = Store.open(root, mode="ro")
    after = contents(snapshot)
    snapshot.close()
    assert not failed and after != before
    check(root, [after], blocks)
    allowed = [before, after]
    if prepare is _prepare_ingest:  # and the store as its interval flush commits it
        middle = str(tmp_path / "middle")
        shutil.copytree(base, middle)
        with Store.open(middle) as st:
            ingest_stream(iter(records[cut:cut + 400]), st)
        with Store.open(middle, mode="ro") as st:
            allowed.insert(1, contents(st))
        assert before != allowed[1] != after
    # A reprocess's flush appends its records, a cover record and a commit
    # record to the log in one write, and renames no manifest. Every other
    # operation seals the log or migrates, so it writes blocks and renames
    # one manifest; the chunked ingest's flush at the end is one more append
    # to the log its interval flush started.
    if prepare is _prepare_reprocess:
        assert calls == {"replace": 0, "fsync": 1, "write": 1, "write-whole": 0}
    else:
        assert calls["replace"] == 1 and calls["write-whole"] >= 3
    if prepare is _prepare_ingest:
        assert calls["write"] == 2
    # every operation but the reprocess seals the log: a flush into a frame
    # block and a detection block, a migration its frames into a frame block
    # while it writes the kept detections as detection blocks; so every
    # write of a block is failed in turn below
    written = {n for n in _manifest(root)["segments"] if n.endswith(".blk")} - set(
        _manifest(base)["segments"])
    sealed = set(_frame_blocks(root)) - set(blocks)
    assert bool(written) == (len(sealed) == 1) == (prepare is not _prepare_reprocess)
    if prepare not in (_prepare_flush, _prepare_reprocess, _prepare_ingest):
        # appended to the committed log, or compacted into a fresh one; a
        # migration changes no track, so it appends to no log at all
        assert (_manifest(root)["tracks"] == tracks_file) == (prepare is not _prepare_compact)
        if prepare in (_prepare_migrate, _prepare_migrate_cold):
            assert calls["write"] == 0
        else:
            assert calls["write"] >= 1 + (prepare is _prepare_refine_append)
    for fail in calls:
        for k in range(1, calls[fail] + 1):
            root, _calls, failed, (_before, _tracks_file, blocks) = attempt(f"{fail}{k}", fail, k)
            assert failed
            check(root, allowed, blocks)


@pytest.mark.parametrize("operation", ["append", "seal", "migrate", "refine-append"])
def test_writer_carries_on_after_a_failed_fsync(tmp_path, monkeypatch, operation):
    """For every k, the k-th os.fsync of a flush that appends to the log,
    of one that seals it, of a migration, or of a flush that appends a
    pass's rows to the .tracks log, fails, and the writer carries on with a
    flush. A failed migration leaves the writer's memory as it was: the
    sightings (raw hits plus summary counts), the tier summaries, the
    activities, the tracks and the refine cursor. A failed flush keeps its
    records and changed tracks pending, and the next flush writes each of
    them once: the .tracks log ends as a flush that did not fail leaves it.
    A reopen reads what the writer holds."""
    _gt, records = generate_scenario(small_scenario(seed=9, minutes=3.0))
    frames = [r for r in records if isinstance(r, FrameMeta)]
    cut = records.index(frames[len(frames) * 2 // 3])
    t0 = frames[0].ts
    policy = TierPolicy(hot_window=timedelta(days=7))
    base = str(tmp_path / "base")
    Store.create(base).close()
    set_segment_max(base, 400)
    with Store.open(base) as s:
        if operation == "migrate":
            ingest_stream(iter(records), s)
            # two events of one hour: the migration below adds the second to
            # the hourly summary this one makes of the first
            for a, b in ((5, 10), (100, 110)):
                s.append(ActivityEvent("ifrah", "dance", t0 + timedelta(seconds=a),
                                       t0 + timedelta(seconds=b)))
            run_refinement_pass(s)
            s.migrate_tiers(t0 + timedelta(seconds=60) + policy.hot_window, policy)
        else:
            ingest_stream(iter(records[:cut]), s)
            run_refinement_pass(s)

    def state(st):
        return (_sightings(st), st.detection_count(), st.label_summaries(),
                st.activity_summaries(), st.activities(), st.tracks(),
                st.load_refine_state()["cursor"])

    def tracks_log(root):
        m = _manifest(root)
        return m["tracks"], _read(os.path.join(root, "segments", m["tracks"]))

    def attempt(name, fail_at=0):
        root = str(tmp_path / name)
        shutil.copytree(base, root)
        st = Store.open(root)
        fsyncs = 0
        real = os.fsync

        def fsync(fd):
            nonlocal fsyncs
            fsyncs += 1
            if fsyncs == fail_at:
                raise OSError(f"injected failure at os.fsync #{fsyncs}")
            real(fd)
        with monkeypatch.context() as m:
            m.setattr(os, "fsync", fsync)
            try:
                if operation == "migrate":
                    st.migrate_tiers(t0 + timedelta(seconds=150) + policy.hot_window, policy)
                else:
                    for r in records[cut:] if operation == "seal" else records[cut:cut + 20]:
                        st.append(r)
                    if operation == "refine-append":
                        changed = run_refinement_pass(st)
                        assert changed.tracks_created + changed.tracks_updated >= 1
                    st.flush()
            except OSError:
                assert fsyncs == fail_at
        return st, fsyncs

    st = Store.open(base, mode="ro")
    before = state(st)
    st.close()
    st, fsyncs = attempt("clean")
    after = state(st)
    # an append that seals nothing and changes no track is one fsync, of the log
    assert after != before and fsyncs >= 1 and (fsyncs == 1) == (operation == "append")
    assert any(n.endswith(".blk") and n not in _manifest(base)["segments"]
               for n in _manifest(st.root)["segments"]) == (operation in ("seal", "migrate"))
    st.close()
    clean_log = tracks_log(st.root)
    if operation in ("refine-append", "migrate"):  # appended to the base's log, not compacted
        base_name, base_log = tracks_log(base)
        assert clean_log[0] == base_name and clean_log[1].startswith(base_log)
        assert (clean_log[1] == base_log) == (operation == "migrate")  # a migration appends nothing
    want = before if operation == "migrate" else after
    for k in range(1, fsyncs + 1):
        st, _ = attempt(f"fail{k}", k)
        assert state(st) == want
        st.flush()
        st.close()
        # the logs hold nothing past their committed length, where an append would go
        m = _manifest(st.root)
        log_bytes, tracks_bytes = _committed_lengths(st.root)
        if m["segments"][-1].endswith(".seg"):
            assert os.path.getsize(os.path.join(st.root, "segments", m["segments"][-1])) == log_bytes
        assert os.path.getsize(os.path.join(st.root, "segments", m["tracks"])) == tracks_bytes
        if operation == "refine-append":
            assert tracks_log(st.root) == clean_log
        reopened = Store.open(st.root, mode="ro")
        assert state(reopened) == want
        reopened.close()


def _commit_fixture(tmp_path):
    """A refined store whose log a first flush started (a new log: the
    manifest absorbs it), and the rest of its feed cut into three parts."""
    _gt, records = generate_scenario(small_scenario(seed=9, minutes=2.0))
    frames = [r for r in records if isinstance(r, FrameMeta)]
    cuts = [records.index(frames[len(frames) * k // 4]) for k in range(1, 4)]
    s = Store.create(str(tmp_path / "s"))
    ingest_stream(iter(records[:cuts[0]]), s)
    run_refinement_pass(s)
    s.flush()
    return s, [records[a:b] for a, b in zip(cuts, cuts[1:] + [len(records)])]


def _snapshot(st):
    """What a commit publishes: records, coverage and refine state."""
    stats = st.stats()
    return (st.frame_count(), [d for _seq, d in st.detections_from(0)], st.labels(), st.activities(),
            stats.coverage_spans, stats.log_bytes, stats.refine_state_bytes, st.tracks(),
            st.load_refine_state()["cursor"], st.load_refine_state()["next_track_id"])


def test_a_flush_that_appends_is_one_fsync(tmp_path, monkeypatch):
    """A flush that appends to the log, seals nothing and changes no track
    makes one os.fsync, no os.replace and no _write_durable, and leaves
    manifest.json's bytes as they were. So does a flush that carries only a
    coverage row. After a refinement pass that changed tracks a flush makes
    two fsyncs, the .tracks log's and the log's; a flush with nothing to
    commit makes none. A reopen holds what the writer holds."""
    s, parts = _commit_fixture(tmp_path)
    manifest_path = os.path.join(s.root, "manifest.json")
    manifest = _read(manifest_path)
    real = {"fsync": os.fsync, "replace": os.replace, "write-whole": store_module._write_durable}

    def counted_flush():
        calls = dict.fromkeys(real, 0)

        def counting(name):
            def call(*args):
                calls[name] += 1
                return real[name](*args)
            return call
        with monkeypatch.context() as m:
            m.setattr(os, "fsync", counting("fsync"))
            m.setattr(os, "replace", counting("replace"))
            m.setattr(store_module, "_write_durable", counting("write-whole"))
            s.flush()
        return calls

    for r in parts[0]:
        s.append(r)
    assert counted_flush() == {"fsync": 1, "replace": 0, "write-whole": 0}
    assert counted_flush() == {"fsync": 0, "replace": 0, "write-whole": 0}
    for r in parts[1]:
        s.append(r)
    report = run_refinement_pass(s)
    assert report.tracks_created + report.tracks_updated >= 1
    assert counted_flush() == {"fsync": 2, "replace": 0, "write-whole": 0}
    s.mark_covered("ifrah", "dance", TimeRange(T0, T0 + timedelta(minutes=1)))
    assert counted_flush() == {"fsync": 1, "replace": 0, "write-whole": 0}
    assert _read(manifest_path) == manifest
    with Store.open(s.root, mode="ro") as reopened:
        assert _snapshot(reopened) == _snapshot(s)
        assert reopened.is_covered("ifrah", "dance", TimeRange(T0, T0 + timedelta(seconds=30)))
    s.close()


def test_a_log_damaged_in_the_last_flush_reopens_at_the_previous_commit(tmp_path):
    """With the log cut at every byte that its last flush appended (records,
    a cover record and a commit record), or with a bit flipped there, a
    store reopens exactly as the commit before it left it, read-only and
    read-write, and a read-write open cuts the log back to that commit and
    the .tracks log to the length it committed. Whole, the log reopens as
    the last flush left it."""
    s, parts = _commit_fixture(tmp_path)
    for r in parts[0]:
        s.append(r)
    run_refinement_pass(s)
    s.flush()
    with Store.open(s.root, mode="ro") as st:
        older = _snapshot(st)
    log_bytes, tracks_bytes = _committed_lengths(s.root)
    last = next(r for r in parts[1] if isinstance(r, FrameMeta))
    s.append(last)
    s.append(Detection(last.frame_id, "mug", "object", 0.9))  # a new track
    s.append(ActivityEvent("ifrah", "dance", last.ts, last.ts + timedelta(seconds=1)))
    s.mark_covered("steve", "dance", TimeRange(T0, last.ts))
    assert run_refinement_pass(s).tracks_created == 1
    s.flush()
    newer = _snapshot(s)
    s.close()
    m = _manifest(s.root)
    log_path = os.path.join(s.root, "segments", m["segments"][-1])
    tracks_path = os.path.join(s.root, "segments", m["tracks"])
    log, tracks = _read(log_path), _read(tracks_path)
    assert len(log) == _committed_lengths(s.root)[0] > log_bytes > m["log_bytes"]
    assert len(tracks) > tracks_bytes
    flipped = []
    for at in range(log_bytes, len(log)):
        data = bytearray(log)
        data[at] ^= 1 << at % 8
        flipped.append(bytes(data))
    for i, data in enumerate([log[:cut] for cut in range(log_bytes, len(log) + 1)] + flipped):
        with open(log_path, "wb") as fh:
            fh.write(data)
        with open(tracks_path, "wb") as fh:
            fh.write(tracks)
        mode = "rw" if i % 2 else "ro"
        with Store.open(s.root, mode=mode) as st:
            assert _snapshot(st) == (newer if data == log else older)
        if mode == "rw" and data != log:
            assert (os.path.getsize(log_path), os.path.getsize(tracks_path)) == (
                log_bytes, tracks_bytes)


def test_read_only_open_between_the_tracks_append_and_the_commit(tmp_path, monkeypatch):
    """A read-only open that reads the store after a flush appended a
    pass's rows to the .tracks log but before it appended its commit record
    to the log serves the older snapshot whole."""
    s, parts = _commit_fixture(tmp_path)
    with Store.open(s.root, mode="ro") as st:
        older = _snapshot(st)
    tracks_bytes = _committed_lengths(s.root)[1]
    for r in parts[0]:
        s.append(r)
    run_refinement_pass(s)
    real = store_module._append_durable
    seen = []

    def append(path, size, data):
        if path.endswith(".seg"):
            tracks = os.path.join(s.root, "segments", _manifest(s.root)["tracks"])
            assert os.path.getsize(tracks) > tracks_bytes  # the rows went first
            with Store.open(s.root, mode="ro") as st:
                seen.append(_snapshot(st))
        real(path, size, data)
    monkeypatch.setattr(store_module, "_append_durable", append)
    s.flush()
    assert seen == [older]
    with Store.open(s.root, mode="ro") as st:
        assert _snapshot(st) == _snapshot(s) != older
    s.close()


def test_store_files_are_manifest_segments_and_tracks(tmp_path):
    """After ingest, refine, reprocess and migrate the store root holds only
    the manifest, the lock and segments/, which holds just the segments and
    the .tracks file the manifest names, and a read-only reopen answers
    summary and coverage reads as the writer does."""
    s, gt, _records = migration_fixture(tmp_path)
    run_refinement_pass(s)
    full = s.time_bounds()
    first = run_query(f'DID activity="dance" subject="ifrah" FROM {full.start:%Y-%m-%dT%H:%M:%SZ} '
                      f'TO {full.end:%Y-%m-%dT%H:%M:%SZ}', s)
    assert run_reprocess(s, first.request, OracleReprocessor(gt)).coverage_marked
    policy = TierPolicy(hot_window=timedelta(days=7))
    report = s.migrate_tiers(full.start + timedelta(seconds=90) + policy.hot_window, policy)
    assert report.detections_migrated > 0 and report.activities_migrated > 0
    s.flush()
    assert sorted(os.listdir(s.root)) == ["lock", "manifest.json", "segments"]
    assert set(os.listdir(os.path.join(s.root, "segments"))) == _named_files(s.root)
    assert _manifest(s.root)["tracks"].endswith(".tracks")

    early = TimeRange(full.start, full.start + timedelta(seconds=30))
    probes = [(subject, activity, rng)
              for subject in (None, "ifrah", "steve")
              for activity in ("walk", "sleep", "dance")
              for rng in (full, early)]

    def reads(st):
        return (st.label_summaries(), st.activity_summaries(),
                [st.is_covered(*p) for p in probes])

    writer = reads(s)
    assert writer[0] and writer[1] and any(writer[2]) and not all(writer[2])
    s.close()
    reopened = Store.open(s.root, mode="ro")
    assert reads(reopened) == writer
    reopened.close()


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


def _rows(store):
    """The tier summary rows of each key, as (count, first, last, detect prob)."""
    rows = {}
    for s in store.label_summaries():
        rows.setdefault((s.label, s.kind, s.tier, s.bucket_us), []).append(
            (s.count, (s.first_ts_us, s.first_frame), (s.last_ts_us, s.last_frame), s.detect_prob))
    return rows


def test_an_hour_cut_by_two_migrations_is_one_row(store):
    """Two migrations whose hot cutoffs fall in the same hour leave one
    hourly row for it, and PRESENT reads that row's first and last frame."""
    for f in range(60):
        store.append(FrameMeta(f, T0 + f * timedelta(minutes=1), Pose(1.0, 1.0)))
        store.append(Detection(f, "cup", "object", 0.8))
    store.flush()
    policy = TierPolicy(hot_window=timedelta(days=7))
    first = store.migrate_tiers(T0 + timedelta(days=7, minutes=20), policy)
    second = store.migrate_tiers(T0 + timedelta(days=7, minutes=50), policy)
    assert (first.hourly_created, second.hourly_created) == (1, 0)
    assert (first.detections_migrated, second.detections_migrated) == (20, 30)
    [row] = store.label_summaries("cup")
    assert (row.tier, row.bucket_us, row.count) == ("hourly", ts_to_micros(T0), 50)
    assert (row.first_frame, row.last_frame) == (0, 49)
    assert row.detect_prob == pytest.approx(1.0 - 0.2 ** 50)
    ans = run_query(f'PRESENT object="cup" FROM {T0.isoformat()} '
                    f'TO {(T0 + timedelta(minutes=59)).isoformat()}', store)
    assert ans.supporting_frames == (0, *range(49, 60))
    reopened = Store.open(store.root, mode="ro")
    assert reopened.label_summaries() == store.label_summaries()
    reopened.close()


def test_a_day_cut_by_two_warm_cutoffs_is_one_row(store):
    """Two migrations whose warm cutoffs fall in the same day roll its hours
    into one daily row."""
    for f in range(24):
        store.append(FrameMeta(f, T0 + f * timedelta(hours=1), Pose(1.0, 1.0)))
        store.append(Detection(f, "cup", "object", 0.5))
    store.flush()
    policy = TierPolicy(hot_window=timedelta(days=7), warm_window=timedelta(days=90))
    first = store.migrate_tiers(T0 + timedelta(days=90, hours=10), policy)
    second = store.migrate_tiers(T0 + timedelta(days=90, hours=20), policy)
    assert (first.hourly_rolled, first.daily_created) == (10, 1)
    assert (second.hourly_rolled, second.daily_created) == (10, 0)
    daily = [s for s in store.label_summaries("cup") if s.tier == "daily"]
    assert [(s.bucket_us, s.count, s.first_frame, s.last_frame) for s in daily] == [
        (ts_to_micros(T0), 20, 0, 19)]
    assert sorted(s.count for s in store.label_summaries("cup") if s.tier == "hourly") == [1] * 4


def test_daily_activity_row_keeps_a_later_location(store):
    """A day whose first activity hour has no location takes the location of
    a later hour, and WHERE_MOST over that day answers its cell."""
    spot = LocationEstimate(mean=(3.5, 4.5), cov=((0.25, 0.0), (0.0, 0.25)))
    store.append(ActivityEvent("dad", "sleep", T0 + timedelta(hours=1),
                               T0 + timedelta(hours=1, minutes=10)))
    store.append(ActivityEvent("dad", "sleep", T0 + timedelta(hours=3),
                               T0 + timedelta(hours=3, minutes=50), loc=spot))
    store.flush()
    report = store.migrate_tiers(T0 + timedelta(days=200), TierPolicy())
    assert report.activities_migrated == 2
    [row] = store.activity_summaries()
    assert (row.tier, row.seconds, row.loc) == ("daily", 3600.0, spot)
    ans = run_query(f'WHERE_MOST activity="sleep" subject="dad" FROM {T0.isoformat()} '
                    f'TO {(T0 + timedelta(days=1)).isoformat()}', store)
    assert (ans.cell, ans.seconds, ans.coarse) == ((3, 4), 3600.0, True)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(st.tuples(
        st.integers(0, 90),  # minutes since the previous frame
        st.lists(st.tuples(st.sampled_from(["cup", "max"]), st.sampled_from(["object", "person"]),
                           st.sampled_from([0.3, 0.8, 1.0])), max_size=2)),
        min_size=1, max_size=40),
    cut=st.integers(0, 1000),   # where in the feed the first hot cutoff falls, in 1/1000ths
    later=st.integers(0, 240),  # minutes from the first migration to the second
)
@example(steps=[(20 * (f > 0), [("cup", "object", 0.8)]) for f in range(6)],
         cut=300, later=20)  # hot cutoffs at 0:30 and 0:50 split the first hour
def test_two_migrations_fold_each_bucket_once(steps, cut, later):
    """After two migrations, each (label, kind, tier, bucket) has one row,
    equal to a direct fold of the raw sightings it holds: those older than
    the last hot cutoff, in the hour of their frame, or in its day if that
    hour is older than the last warm cutoff."""
    policy = TierPolicy(hot_window=timedelta(hours=1), warm_window=timedelta(hours=3))
    span = timedelta(minutes=sum(gap for gap, _sightings in steps))
    first = T0 + span * cut / 1000 + policy.hot_window
    nows = (first, first + timedelta(minutes=later))
    hot_us = ts_to_micros(nows[-1] - policy.hot_window)
    warm_us = ts_to_micros(nows[-1] - policy.warm_window)
    want: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = Store.create(os.path.join(tmp, "s"))
        ts = T0
        for f, (gap, sightings) in enumerate(steps):
            ts += timedelta(minutes=gap)
            store.append(FrameMeta(f, ts, Pose(1.0, 2.0)))
            for label, kind, conf in sightings:
                store.append(Detection(f, label, kind, conf))
                ts_us = ts_to_micros(ts)
                if ts_us >= hot_us:
                    continue
                tier, bucket = "hourly", ts_us - ts_us % 3_600_000_000
                if bucket < warm_us:
                    tier, bucket = "daily", bucket - bucket % 86_400_000_000
                count, first, last, miss = want.get((label, kind, tier, bucket),
                                                    (0, (ts_us, f), (ts_us, f), 1.0))
                want[(label, kind, tier, bucket)] = (
                    count + 1, min(first, (ts_us, f)), max(last, (ts_us, f)), miss * (1.0 - conf))
        store.flush()
        for at in nows:
            store.migrate_tiers(at, policy)
        got = _rows(store)
        assert got.keys() == want.keys()
        for key, (count, first, last, miss) in want.items():
            [(got_count, got_first, got_last, prob)] = got[key]
            assert (got_count, got_first, got_last) == (count, first, last)
            assert prob == pytest.approx(1.0 - miss, abs=1e-9)
        store.close()


@settings(max_examples=40, deadline=None)
@given(
    sightings=st.lists(st.tuples(
        st.integers(0, 3 * 24 * 60 - 1),  # the sighting's minute, over three days
        st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),  # the robot's x and y
        min_size=1, max_size=40, unique_by=lambda s: s[0]),
    cuts=st.lists(st.integers(0, 3 * 24 * 60), min_size=2, max_size=2),  # hot cutoffs, minutes
)
def test_summary_location_is_the_product_of_its_sightings(sightings, cuts):
    """Two migrations whose hot cutoffs split hours into pieces, then one
    that rolls every hour into its day. After each, every label row's
    location equals the sightings it holds fused one at a time, within 1e-9
    in mean and covariance."""
    sightings.sort()
    policy = TierPolicy(hot_window=timedelta(days=7), warm_window=timedelta(days=30))
    nows = [T0 + timedelta(minutes=m) + policy.hot_window for m in sorted(cuts)]
    nows.append(T0 + timedelta(days=3) + policy.warm_window)
    with tempfile.TemporaryDirectory() as tmp:
        store = Store.create(os.path.join(tmp, "s"))
        for f, (minute, x, y) in enumerate(sightings):
            store.append(FrameMeta(f, T0 + timedelta(minutes=minute), Pose(x, y)))
            store.append(Detection(f, "cup", "object", 0.9))
        store.flush()
        frames = [store.frame_by_id(f) for f in range(len(sightings))]
        for now in nows:
            store.migrate_tiers(now, policy)
            hot_us = ts_to_micros(now - policy.hot_window)
            rows = store.label_summaries()
            assert sum(row.count for row in rows) == sum(ts_to_micros(fm.ts) < hot_us for fm in frames)
            for row in rows:
                held = [fm for fm in frames
                        if row.bucket_us <= ts_to_micros(fm.ts) < min(row.bucket_us + row.width_us, hot_us)]
                want = functools.reduce(fuse, [observation_at(fm.pose.x, fm.pose.y) for fm in held])
                assert len(held) == row.count
                got = row.loc
                assert got.mean == pytest.approx(want.mean, rel=0, abs=1e-9)
                for got_row, want_row in zip(got.cov, want.cov):
                    assert got_row == pytest.approx(want_row, rel=0, abs=1e-9)
        assert {row.tier for row in store.label_summaries()} == {"daily"}
        store.close()


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
