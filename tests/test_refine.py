import math
import random
from datetime import timedelta

import pytest
from hypothesis import given, strategies as st

from robomem.errors import NonSPDCovariance
from robomem.ingest import ingest_stream
from robomem.model import (
    Detection,
    FrameMeta,
    Interval,
    LocationEstimate,
    Pose,
    Track,
    mat2_eigvals,
    ts_parse,
)
from robomem.refine import (
    RefinePolicy,
    existence_probability,
    fuse,
    observation_from_detection,
    run_refinement_pass,
)
from robomem.store import Store

from oracle import brute_tracks, canonicalize, feed_state

T0 = ts_parse("2019-06-01T00:00:00Z")


def iso(v):
    return LocationEstimate(mean=(0.0, 0.0), cov=((v, 0.0), (0.0, v)))


def at(x, y, v=2.0):
    return LocationEstimate(mean=(x, y), cov=((v, 0.0), (0.0, v)))


# ---------------------------------------------------------------------------
# observation model

def test_observation_anchored_at_pose():
    fm = FrameMeta(3, T0, Pose(0.0, 0.0))
    det = Detection(3, "remote", "object", 1.0)
    obs = observation_from_detection(det, fm, RefinePolicy(obs_sigma_m=2.0))
    assert obs.mean == (0.0, 0.0)
    assert obs.cov == ((4.0, 0.0), (0.0, 4.0))


def test_observation_translates_with_pose():
    fm = FrameMeta(3, T0, Pose(3.0, -1.0))
    det = Detection(3, "remote", "object", 1.0)
    obs = observation_from_detection(det, fm)
    assert obs.mean == (3.0, -1.0)
    assert obs.cov == ((4.0, 0.0), (0.0, 4.0))


def test_observation_sigma_scaling():
    fm = FrameMeta(3, T0, Pose(0.0, 0.0))
    det = Detection(3, "remote", "object", 1.0)
    obs = observation_from_detection(det, fm, RefinePolicy(obs_sigma_m=1.0))
    assert obs.cov == ((1.0, 0.0), (0.0, 1.0))


def test_observation_frame_mismatch():
    fm = FrameMeta(4, T0, Pose(0.0, 0.0))
    det = Detection(3, "remote", "object", 1.0)
    with pytest.raises(Exception):
        observation_from_detection(det, fm)


# ---------------------------------------------------------------------------
# fusion

def test_equal_precision_fusion_halves_variance():
    out = fuse(iso(2.0), iso(2.0))
    assert out.mean == (0.0, 0.0)
    assert out.cov == ((1.0, 0.0), (0.0, 1.0))


def test_symmetric_midpoint():
    out = fuse(at(0.0, 0.0, 2.0), at(2.0, 0.0, 2.0))
    assert out.mean == (1.0, 0.0)
    assert out.cov == ((1.0, 0.0), (0.0, 1.0))


def test_precision_additivity_sigma2_over_n():
    n, s2 = 16, 4.0
    est = at(1.0, 2.0, s2)
    for _ in range(n - 1):
        est = fuse(est, at(1.0, 2.0, s2))
    assert math.isclose(est.cov[0][0], s2 / n, rel_tol=1e-12)
    assert math.isclose(est.cov[1][1], s2 / n, rel_tol=1e-12)
    assert math.isclose(est.mean[0], 1.0, rel_tol=1e-12)


def test_non_spd_rejected():
    bad = LocationEstimate(mean=(0.0, 0.0), cov=((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(NonSPDCovariance):
        fuse(bad, iso(1.0))


spd = st.builds(
    lambda a, d, r: ((a, r * math.sqrt(a * d)), (r * math.sqrt(a * d), d)),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-0.9, max_value=0.9),
)
means = st.tuples(st.floats(min_value=-100, max_value=100),
                  st.floats(min_value=-100, max_value=100))
estimates = st.builds(LocationEstimate, mean=means, cov=spd)


@given(a=estimates, b=estimates)
def test_variance_monotonicity(a, b):
    out = fuse(a, b)
    lo_a, hi_a = mat2_eigvals(a.cov)
    lo_o, hi_o = mat2_eigvals(out.cov)
    assert lo_o < lo_a + 1e-12
    assert hi_o < hi_a + 1e-12
    assert lo_o > 0


@given(a=estimates, b=estimates, c=estimates)
def test_fusion_order_invariance(a, b, c):
    one = fuse(fuse(a, b), c)
    two = fuse(fuse(c, a), b)
    three = fuse(b, fuse(a, c))
    for other in (two, three):
        for i in range(2):
            assert math.isclose(one.mean[i], other.mean[i], abs_tol=1e-9)
            for j in range(2):
                assert math.isclose(one.cov[i][j], other.cov[i][j], abs_tol=1e-9)


@given(a=estimates, b=estimates)
def test_fusion_result_spd(a, b):
    out = fuse(a, b)
    out.require_spd()


# ---------------------------------------------------------------------------
# association + passes

def _feed_static_object(store, positions, dt_s=1.0, label="remote"):
    for f, (x, y) in enumerate(positions):
        store.append(FrameMeta(f, T0 + f * timedelta(seconds=dt_s), Pose(x, y)))
        store.append(Detection(f, label, "object", 1.0))
    store.flush()


def test_single_track_for_steady_sightings(store):
    _feed_static_object(store, [(0.0, 0.0), (0.1, 0.0), (0.2, 0.1)])
    report = run_refinement_pass(store)
    assert report.tracks_created == 1
    assert report.observations_fused == 2


def test_two_distant_same_label_objects_get_two_tracks(store):
    # alternate sightings 20 m apart, 1 s apart in time
    positions = [(0.0, 0.0), (20.0, 0.0)] * 4
    _feed_static_object(store, positions)
    run_refinement_pass(store)
    tracks = store.tracks()
    assert len(tracks) == 2
    xs = sorted(t.loc.mean[0] for t in tracks)
    assert xs[0] < 1.0 and xs[1] > 19.0


def test_gap_beyond_window_starts_new_track(store):
    _feed_static_object(store, [(0.0, 0.0)])
    store.append(FrameMeta(1, T0 + timedelta(seconds=300), Pose(0.0, 0.0)))
    store.append(Detection(1, "remote", "object", 1.0))
    store.flush()
    run_refinement_pass(store, RefinePolicy(assoc_max_gap_s=5.0))
    assert len(store.tracks()) == 2


def test_pass_idempotent(store):
    _feed_static_object(store, [(0.0, 0.0), (0.1, 0.0)])
    run_refinement_pass(store)
    state1 = store.load_refine_state()
    second = run_refinement_pass(store)
    assert second.tracks_created == 0
    assert second.tracks_updated == 0
    assert second.observations_fused == 0
    assert store.load_refine_state() == state1


def test_interval_merging_rule(store):
    # sightings spanning 10 s with max gap 2 s -> one interval
    _feed_static_object(store, [(0.0, 0.0)] * 6, dt_s=2.0)
    run_refinement_pass(store, RefinePolicy(assoc_max_gap_s=5.0, interval_merge_gap_s=60.0))
    (track,) = store.tracks()
    assert len(track.intervals) == 1
    assert (track.intervals[0].end - track.intervals[0].start).total_seconds() == 10.0


def test_interval_endpoints_are_sighting_timestamps(store):
    _feed_static_object(store, [(0.0, 0.0)] * 5)
    run_refinement_pass(store)
    sighting_ts = {store.frame_by_id(f).ts for f in range(5)}
    for t in store.tracks():
        for iv in t.intervals:
            assert iv.start in sighting_ts and iv.end in sighting_ts
            assert iv.start <= iv.end


def test_association_determinism(tmp_path):
    from conftest import small_scenario
    from robomem.scenario import generate_scenario
    cfg = small_scenario(seed=13)
    _gt, records = generate_scenario(cfg)
    states = []
    for run in range(2):
        s = Store.create(str(tmp_path / f"run{run}"))
        ingest_stream(iter(records), s)
        run_refinement_pass(s)
        states.append(s.load_refine_state())
        s.close()
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# windowed association against the brute-force oracle, which scans every track

def _append(store, records):
    for r in records:
        store.append(r)
    store.flush()


def _assert_oracle_tracks(store, records, policy=RefinePolicy()):
    want = brute_tracks(feed_state(canonicalize(records)), policy)
    got = store.tracks()
    assert len(got) == len(want)
    for t, b in zip(got, want):
        assert (t.track_id, t.label, t.kind) == (b.track_id, b.label, b.kind)
        assert [(iv.start, iv.end, iv.first_frame, iv.last_frame) for iv in t.intervals] == \
            [tuple(iv) for iv in b.intervals]
        assert t.miss_prob == pytest.approx(b.miss, abs=1e-12)
        assert t.loc.mean == pytest.approx(tuple(b.mean), abs=1e-9)
        assert [x for row in t.loc.cov for x in row] == pytest.approx(b.cov.ravel().tolist(), abs=1e-9)


@pytest.mark.parametrize("gap_us, n_tracks", [(5_000_000, 1), (5_000_001, 2)])
def test_association_window_edge(store, gap_us, n_tracks):
    # the second sighting comes in a later pass, so the window is built from
    # the saved track; exactly assoc_max_gap_s joins, 1 us more does not
    first = [FrameMeta(0, T0, Pose(0.0, 0.0)), Detection(0, "remote", "object", 0.9)]
    second = [FrameMeta(1, T0 + timedelta(microseconds=gap_us), Pose(0.0, 0.0)),
              Detection(1, "remote", "object", 0.9)]
    for batch in (first, second):
        _append(store, batch)
        run_refinement_pass(store, RefinePolicy(assoc_max_gap_s=5.0))
    assert len(store.tracks()) == n_tracks
    _assert_oracle_tracks(store, first + second)


def test_reprocessed_old_frames_find_their_tracks(store):
    frames = [FrameMeta(f, T0 + timedelta(seconds=f), Pose(0.0, 0.0)) for f in range(20)]
    live = [Detection(f, "remote", "object", 0.8) for f in (0, 1, 2, 3, 4, 15, 16, 17, 18, 19)]
    _append(store, frames + live)
    run_refinement_pass(store)
    assert len(store.tracks()) == 2
    # a reprocess appends to sightings that were already refined: a second
    # sighting in frame 19 joins the track last seen there, and frame 5
    # continues the track last seen at frame 4, not the one seen at frame 19
    old = [Detection(19, "remote", "object", 0.5)]
    old += [Detection(f, "remote", "object", 0.6) for f in range(5, 15)]
    _append(store, old)
    run_refinement_pass(store)
    assert [t.observation_count for t in store.tracks()] == [15, 6]
    _assert_oracle_tracks(store, frames + live + old)


def test_equal_distance_tie_goes_to_lower_track_id(store):
    # track 0 is seen at x=5 (t=1), then a reprocessed sighting at x=-5 (t=0)
    # starts track 1, which sorts first by last sighting; a sighting at x=0
    # (t=2) gates into both at equal distance and joins track 0
    frames = [FrameMeta(0, T0, Pose(-5.0, 0.0)),
              FrameMeta(1, T0 + timedelta(seconds=1), Pose(5.0, 0.0)),
              FrameMeta(2, T0 + timedelta(seconds=2), Pose(0.0, 0.0))]
    dets = [Detection(1, "remote", "object", 0.9), Detection(0, "remote", "object", 0.9),
            Detection(2, "remote", "object", 0.9)]
    _append(store, frames + dets)
    run_refinement_pass(store)
    assert [(t.track_id, t.observation_count) for t in store.tracks()] == [(0, 2), (1, 1)]
    _assert_oracle_tracks(store, frames + dets)


def test_state_carried_across_passes_and_reopen(tmp_path):
    from conftest import small_scenario
    from robomem.scenario import generate_scenario
    _gt, records = generate_scenario(small_scenario(seed=7, minutes=3.0))
    starts = [i for i, r in enumerate(records) if isinstance(r, FrameMeta)]
    a, b = starts[len(starts) // 3], starts[2 * len(starts) // 3]
    root = str(tmp_path / "store")
    s = Store.create(root)
    for k, batch in enumerate((records[:a], records[a:b], records[b:])):
        ingest_stream(iter(batch), s)
        run_refinement_pass(s)
        if k == 1:
            s.close()
            s = Store.open(root)
    _assert_oracle_tracks(s, records)
    s.close()


# ---------------------------------------------------------------------------
# existence probability

def _one_track(store, confs):
    for f, c in enumerate(confs):
        store.append(FrameMeta(f, T0 + f * timedelta(seconds=1), Pose(0.0, 0.0)))
        store.append(Detection(f, "remote", "object", c))
    store.flush()
    run_refinement_pass(store)
    return store.tracks()[0]


def test_certainty_preserved(store):
    t = _one_track(store, [1.0])
    assert existence_probability(t, T0) == 1.0


def test_noisy_or_two_halves(store):
    t = _one_track(store, [0.5, 0.5])
    assert math.isclose(existence_probability(t, t.last_seen), 0.75)


def test_decay_arithmetic(store):
    t = _one_track(store, [1.0])
    now = t.last_seen + timedelta(days=2)
    p = existence_probability(t, now, RefinePolicy(existence_decay_per_day=0.5))
    assert math.isclose(p, 0.25)


def test_fused_mean_converges_on_static_object(store):
    # k poses uniform in a 2 m disk around the object; fused mean should land
    # near the true position
    rng = random.Random(3)
    true = (5.0, 5.0)
    positions = []
    for _ in range(30):
        while True:
            dx, dy = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if dx * dx + dy * dy <= 4.0:
                break
        positions.append((true[0] + dx, true[1] + dy))
    _feed_static_object(store, positions, dt_s=0.5)
    run_refinement_pass(store)
    (track,) = store.tracks()
    err = math.dist(track.loc.mean, true)
    assert err < 1.0


# ---------------------------------------------------------------------------
# track_for against a scan of every track and interval

def brute_track_for(tracks, label, frame_id):
    for t in tracks:
        if t.label == label and any(iv.first_frame <= frame_id <= iv.last_frame
                                    for iv in t.intervals):
            return t
    return None


def _assert_track_for_matches_scan(store, records):
    tracks = store.tracks()
    sightings = {(r.label, r.frame_id) for r in records if isinstance(r, Detection)}
    for label, frame_id in sorted(sightings):
        assert store.track_for(label, frame_id) is brute_track_for(tracks, label, frame_id)
    # between sightings and past both ends too
    for label in {label for label, _ in sightings}:
        for frame_id in range(-1, store.max_frame_id + 2):
            assert store.track_for(label, frame_id) is brute_track_for(tracks, label, frame_id)
    return len(sightings)


def test_track_for_matches_scan_across_passes_and_reopen(tmp_path):
    from conftest import small_scenario
    from robomem.scenario import generate_scenario
    _gt, records = generate_scenario(small_scenario(seed=4, minutes=3.0, label_noise=0.1,
                                                    detection_recall=0.6))
    frames = [r for r in records if isinstance(r, FrameMeta)]
    cut = records.index(frames[len(frames) // 2])
    root = str(tmp_path / "s")
    s = Store.create(root)
    ingest_stream(iter(records[:cut]), s)
    run_refinement_pass(s)
    assert _assert_track_for_matches_scan(s, records[:cut]) > 0
    ingest_stream(iter(records[cut:]), s)
    assert run_refinement_pass(s).observations_fused > 0
    _assert_track_for_matches_scan(s, records)
    s.close()
    s = Store.open(root, mode="ro")
    _assert_track_for_matches_scan(s, records)
    s.close()


def test_track_for_first_track_wins_on_overlap(store):
    for f in range(21):
        store.append(FrameMeta(f, T0 + timedelta(seconds=f), Pose(0.0, 0.0)))

    def track(tid, label, *spans):
        ivs = tuple(Interval(start=T0 + timedelta(seconds=a), end=T0 + timedelta(seconds=b),
                             first_frame=a, last_frame=b) for a, b in spans)
        return Track(track_id=tid, label=label, kind="object", loc=at(0.0, 0.0),
                     intervals=ivs, observation_count=len(ivs), existence_prob=0.5,
                     miss_prob=0.5)

    a = track(5, "cup", (5, 10))
    b = track(1, "cup", (0, 7), (9, 15))
    c = track(2, "book", (0, 20))
    d = track(3, "cup", (12, 12), (17, 18))
    e = track(6, "cup", (16, 19))
    b2 = track(1, "cup", (0, 7), (9, 16))
    # reordered, then appended to and changed in place as a refinement pass
    # does, then cut short
    states = ([a, b, c, d], [b, a, d, c], [d, c, b, a], [d, c, b, a, e], [d, c, b2, a, e], [c])
    for tracks in states:
        store.save_refine_state({"cursor": 0, "next_track_id": 7, "tracks": tracks})
        for label in ("cup", "book", "mug"):
            for f in range(-1, 22):
                assert store.track_for(label, f) is brute_track_for(tracks, label, f)
        if tracks is states[2]:
            assert store.track_for("cup", 12) is d  # d comes first, b also holds 12
            assert store.track_for("cup", 6) is b and store.track_for("cup", 8) is a
            assert store.track_for("cup", 16) is None
