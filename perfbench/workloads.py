"""The three workloads: recall, live and escalate.

Each is a closed loop with one caller in one thread: the next operation is
sent once the previous one has answered, and the feed is replayed as fast as
the engine takes it. Inputs are made from the seed alone and the engine only
sees the generated records. Every timed answer is checked against
`checks.py`, outside the timed region.

A run repeats whole rounds of the same operations until the timed work adds
up to the requested seconds, so the share of failed operations does not
depend on how long a run lasts.
"""

from __future__ import annotations

import gc
import io
import os
import random
import shutil
import statistics
import time
import tracemalloc
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import timedelta
from typing import Optional

import checks
import oracle
from robomem import ingest, query, refine, reprocess
from robomem.model import (
    ActivityEvent,
    Detection,
    FrameMeta,
    NeedsReprocess,
    ts_format,
    ts_to_micros,
)
from robomem.scenario import (
    DEFAULT_START,
    OBJECT_LABELS,
    ActivitySpec,
    ScenarioConfig,
    generate_scenario,
)
from robomem.store import Store, TierPolicy
from spans import Tracer, percentile

MIN_SETUPS = 3        # setup_s is the median of at least this many builds
OPENS_PER_STORE = 2   # timed read-only opens of every store a round has used
FPS = 6.0
FRAMES_PER_MINUTE = round(60 * FPS)

# recall: daily sessions, migrated so that raw, hourly and daily tiers all exist
RECALL_DAYS = 7
RECALL_SESSION_MIN = 12.0
RECALL_SESSION_START = timedelta(hours=7, minutes=52)  # sessions cross an hour boundary
RECALL_HOT_DAYS = 3   # days 4-6 stay raw
RECALL_WARM_DAYS = 5  # days 2-3 become hourly summaries, days 0-1 daily ones
RECALL_SPOTS = ((3.5, 4.5), (8.2, 2.1), (1.5, 8.5), (10.5, 7.5))
RECALL_PERSONS = ("ifrah", "steve")
RECALL_ACTIVITIES = (("walk", "ifrah"), ("sleep", "steve"))
RECALL_MIX = (("LAST_SEEN", 240), ("PRESENT", 360), ("DID", 180), ("DURATION", 240), ("WHERE_MOST", 180))

# live: a prefilled store, then one ingest_stream call per minute of feed
LIVE_PREFILL_MIN = 50
LIVE_CHUNKS = 30
LIVE_STRETCH_MIN = 10  # the feed is made of stretches, each with a layout of its own
LIVE_LAST_SEEN = 4    # queries after each chunk, about labels the chunk saw
LIVE_PRESENT = 4

# escalate: the standard scenario of the acceptance tests
STANDARD = ScenarioConfig(
    seed=1, duration_minutes=37.0, fps=FPS, n_objects=4, n_persons=2,
    activity_schedule=(ActivitySpec("ifrah", "walk", 1.0, 12.0, (3.5, 4.5)),
                       ActivitySpec("steve", "sleep", 5.0, 30.0, (8.2, 2.1))),
    include_activity_records=False,
)
BATTERY_WINDOWS = 92  # DID sleep steve over 15 s windows from minute 6 to 29
BATTERY_WINDOW_S = 15
ESCALATE_WINDOWS = 30
ESCALATE_WINDOW_FRAMES = (150, 220)  # within the selection budget, so every frame is analyzed


@dataclass
class Run:
    """What one run of a workload measured."""
    tracer: Optional[Tracer]
    setup_s: list[float] = field(default_factory=list)
    answer_ms: dict[object, list[float]] = field(default_factory=dict)  # per question, one per round
    ingest_fps: float = 0.0
    open_ms: list[float] = field(default_factory=list)
    bytes_per_frame: float = 0.0
    heap_bytes_per_frame: float = 0.0
    tracks: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def error(self, message: str) -> None:
        self.wrong += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @contextmanager
    def untraced(self):
        """Checks and reference work run here, so the trace holds only timed work."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused += 1
        try:
            yield
        finally:
            self.tracer.paused -= 1

    def answers(self) -> list[float]:
        """Each question's median answer time over the rounds, ascending."""
        return sorted(statistics.median(times) for times in self.answer_ms.values())

    def tail(self) -> str:
        answers = self.answers()
        return (f"answer p90 {percentile(answers, 0.90):.4f} ms, p99 {percentile(answers, 0.99):.4f} ms "
                f"over {len(answers)} questions (not bounded: see README)")

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        answers = self.answers()
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "answer_p50_ms": (percentile(answers, 0.50), "ms"),
            "ingest_fps": (self.ingest_fps, "frames/s"),
            "open_ms": (statistics.median(self.open_ms), "ms"),
            "bytes_per_frame": (self.bytes_per_frame, "B"),
            "heap_bytes_per_frame": (self.heap_bytes_per_frame, "B"),
        }


def settle() -> None:
    """Take the benchmark's own inputs out of the garbage collector's way, so
    that a collection during timed work scans only what the engine holds, as
    it would in a process of its own."""
    gc.collect()
    gc.freeze()


def feed_lines(records) -> list[str]:
    buf = io.StringIO()
    ingest.write_feed(buf, records)
    return buf.getvalue().splitlines()


def time_opens(run: Run, path: str) -> None:
    """Read-only opens of a store once its round is done with it, so that the
    opens, like every other timing, are spread over the whole run."""
    for _ in range(OPENS_PER_STORE):
        t0 = time.perf_counter()
        store = Store.open(path, mode="ro")
        run.open_ms.append((time.perf_counter() - t0) * 1e3)
        store.close()


def measure_final_store(run: Run, path: str) -> None:
    """Size and heap figures of the store a run leaves, outside any timed phase."""
    with run.untraced():
        store = Store.open(path, mode="ro")
        stats = store.stats()
        run.tracks = len(store.tracks())
        store.close()
        run.bytes_per_frame = stats.bytes_per_frame
        tracemalloc.start()
        try:
            store = Store.open(path, mode="ro")
            store.tracks()
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        store.close()
        run.heap_bytes_per_frame = held / max(stats.frames, 1)


def timed_query(run: Run, key, text: str, store: Store):
    t0 = time.perf_counter()
    answer = query.run_query(text, store)
    took = time.perf_counter() - t0
    run.answer_ms.setdefault(key, []).append(took * 1e3)
    run.attempted += 1
    return answer, took


# ---------------------------------------------------------------------------
# recall

def recall_inputs(seed: int):
    """Daily sessions with activity records; object labels change from day to day,
    so some labels were last seen on days that migration summarizes."""
    rng = random.Random(f"recall:{seed}")
    records = []
    per_day = round(RECALL_SESSION_MIN * FRAMES_PER_MINUTE)
    for day in range(RECALL_DAYS):
        walk = rng.uniform(0.5, 8.0)
        sleep = rng.uniform(3.0, 9.0)
        cfg = ScenarioConfig(
            seed=rng.randrange(2 ** 31), duration_minutes=RECALL_SESSION_MIN, fps=FPS,
            activity_schedule=(
                ActivitySpec("ifrah", "walk", walk, walk + rng.uniform(2.0, 6.0), rng.choice(RECALL_SPOTS)),
                ActivitySpec("steve", "sleep", sleep, sleep + rng.uniform(2.0, 6.0), rng.choice(RECALL_SPOTS)),
            ),
            include_activity_records=True,
            start_time=DEFAULT_START + timedelta(days=day) + RECALL_SESSION_START,
        )
        _truth, day_records = generate_scenario(cfg)
        rename = dict(zip(OBJECT_LABELS, rng.sample(OBJECT_LABELS, len(OBJECT_LABELS))))
        offset = day * per_day
        for rec in day_records:
            if isinstance(rec, FrameMeta):
                rec = replace(rec, frame_id=rec.frame_id + offset)
            elif isinstance(rec, Detection):
                label = rename[rec.label] if rec.kind == "object" else rec.label
                rec = replace(rec, frame_id=rec.frame_id + offset, label=label)
            records.append(rec)
    return records


def recall_queries(seed: int, events: list[ActivityEvent]) -> list[str]:
    """A fixed mix of all five query types over raw, summarized and mixed ranges.

    The shape of the mix (types, days, range lengths, labels, wrong kinds,
    subjectless questions) is fixed by position; the seed moves the start of
    each range and makes the records. So every seed asks the same share of
    costly long-range questions.
    """
    rng = random.Random(f"recall-queries:{seed}")
    hot = list(range(RECALL_DAYS - RECALL_HOT_DAYS, RECALL_DAYS))
    cold = list(range(RECALL_DAYS - RECALL_HOT_DAYS))
    minute = timedelta(minutes=1)
    session_start = [DEFAULT_START + timedelta(days=d) + RECALL_SESSION_START for d in range(RECALL_DAYS)]
    by_day = {(e.name, e.subject, (e.start - DEFAULT_START).days): e for e in events}

    def share(i: int) -> float:
        """A fraction in [0, 1) fixed by position, evenly spread over the mix."""
        return (i * 0.6180339887) % 1.0

    def days(i: int) -> tuple[int, int]:
        cls = i % 3
        if cls == 2:  # from summarized days into raw ones
            pairs = [(c, h) for c in cold for h in hot]
        elif i % 10 < 3:  # several days of one tier
            pool = hot if cls == 0 else cold
            pairs = [(x, y) for x in pool for y in pool if x < y]
        else:
            pairs = [(d, d) for d in (hot if cls == 0 else cold)]
        return pairs[i // 3 % len(pairs)]

    def session_range(i: int) -> str:
        d1, d2 = days(i)
        a = session_start[d1] + rng.uniform(-10.0, 12.0) * minute
        if d2 > d1:
            b = session_start[d2] + (30.0 * share(i) - 5.0) * minute
        else:
            b = a + (0.5 + 19.5 * share(i)) * minute
        return f"FROM {ts_format(a)} TO {ts_format(b)}"

    def activity_range(i: int, name: str, subject: str) -> str:
        d1, d2 = days(i)
        first, last = by_day[(name, subject, d1)], by_day[(name, subject, d2)]
        a = first.start - rng.uniform(0.0, 6.0) * minute
        b = last.end + (1.5 * share(i) - 0.5) * (last.end - last.start)
        return f"FROM {ts_format(a)} TO {ts_format(b)}"

    right_kind = [("object", label) for label in OBJECT_LABELS] + [("person", label) for label in RECALL_PERSONS]
    wrong_kind = [("object", label) for label in RECALL_PERSONS] + [("person", label) for label in OBJECT_LABELS[:2]]

    def entity(i: int) -> str:
        pool = wrong_kind if i % 5 == 0 else right_kind
        kind, label = pool[(i + i // 10) % len(pool)]  # every label equally often
        return f'{kind}="{label}"'

    texts = []
    for verb, count in RECALL_MIX:
        for i in range(count):
            if verb == "LAST_SEEN":
                texts.append(f"LAST_SEEN {entity(i)}")
            elif verb == "PRESENT":
                texts.append(f"PRESENT {entity(i)} {session_range(i)}")
            else:
                name, subject = RECALL_ACTIVITIES[i % 2]
                subj = "" if i % 5 == 4 else f' subject="{subject}"'
                by = ("", " BY hour", " BY day")[i // 3 % 3] if verb == "DURATION" else ""
                texts.append(f'{verb} activity="{name}"{subj} {activity_range(i, name, subject)}{by}')
    rng.shuffle(texts)
    return texts


def run_recall(seed: int, seconds: float, workdir: str, tracer: Optional[Tracer]) -> Run:
    run = Run(tracer)
    now = DEFAULT_START + timedelta(days=RECALL_DAYS)
    policy = TierPolicy(hot_window=timedelta(days=RECALL_HOT_DAYS),
                        warm_window=timedelta(days=RECALL_WARM_DAYS))
    with run.untraced():
        records = recall_inputs(seed)
        lines = feed_lines(records)
        ref = checks.build_reference(records, ts_to_micros(now - policy.hot_window),
                                     ts_to_micros(now - policy.warm_window))
        texts = recall_queries(seed, ref.events)
        expected = [checks.expected_answer(ref, query.parse_query(t)) for t in texts]
        settle()
    frames = len(ref.frames)

    fps, migrate_s, path = [], [], None
    measured = 0.0
    passes = 0
    while measured < seconds or len(run.setup_s) < MIN_SETUPS:
        if path is not None:
            shutil.rmtree(path)
        path = os.path.join(workdir, f"recall-{len(run.setup_s)}")
        t0 = time.perf_counter()
        store = Store.create(path)
        ingest.ingest_stream(ingest.read_feed(lines), store)
        refine.run_refinement_pass(store)
        t1 = time.perf_counter()
        store.migrate_tiers(now, policy)
        t2 = time.perf_counter()
        run.setup_s.append(t2 - t0)
        fps.append(frames / (t1 - t0))
        migrate_s.append(t2 - t1)
        with run.untraced():
            problem = checks.check_label_counts(store, ref)
        if problem:
            run.error(f"migration: {problem}")
        store.close()

        store = Store.open(path, mode="ro")
        with run.untraced():
            store.tracks()  # decode the tracks once, as the first LAST_SEEN of a session would
        round_start = measured
        while measured - round_start < seconds / MIN_SETUPS:
            for i, (text, want) in enumerate(zip(texts, expected)):
                answer, took = timed_query(run, i, text, store)
                measured += took
                problem = checks.check_answer(answer, want)
                if problem:
                    run.error(f"{text}: {problem}")
            passes += 1
        store.close()
        time_opens(run, path)
    run.ingest_fps = statistics.median(fps)
    measure_final_store(run, path)
    run.notes += [
        f"{RECALL_DAYS} days x {RECALL_SESSION_MIN:g} min = {frames} frames; "
        f"{passes} passes over {len(texts)} queries",
        f"migrate_s median {statistics.median(migrate_s):.4f}",
    ]
    return run


# ---------------------------------------------------------------------------
# live

@dataclass
class Chunk:
    lines: list[str]
    frames: int
    detections: int
    queries: list[tuple[str, dict]]


def live_inputs(seed: int):
    """The prefill feed and one chunk per minute, with the queries asked after each
    chunk and their expected answers.

    The feed joins 10-minute stretches, each generated with a layout of its own,
    so that how much the robot sees, and so what the feed costs, evens out
    from one seed to another.
    """
    rng = random.Random(f"live:{seed}")
    records = []
    per_stretch = LIVE_STRETCH_MIN * FRAMES_PER_MINUTE
    for k in range((LIVE_PREFILL_MIN + LIVE_CHUNKS) // LIVE_STRETCH_MIN):
        cfg = ScenarioConfig(seed=rng.randrange(2 ** 31), fps=FPS, duration_minutes=LIVE_STRETCH_MIN,
                             start_time=DEFAULT_START + timedelta(minutes=LIVE_STRETCH_MIN * k))
        _truth, stretch = generate_scenario(cfg)
        records += [replace(rec, frame_id=rec.frame_id + k * per_stretch) for rec in stretch]
    pieces: list[list] = [[] for _ in range(LIVE_CHUNKS + 1)]
    for rec in records:
        minute = rec.frame_id // FRAMES_PER_MINUTE
        pieces[max(0, minute - LIVE_PREFILL_MIN + 1)].append(rec)

    newest: dict[tuple[str, str], tuple[int, int]] = {}
    frame_ts: dict[int, int] = {}

    def absorb(piece) -> None:
        for rec in piece:
            if isinstance(rec, FrameMeta):
                frame_ts[rec.frame_id] = ts_to_micros(rec.ts)
            else:
                newest[(rec.label, rec.kind)] = (frame_ts[rec.frame_id], rec.frame_id)

    absorb(pieces[0])
    prefill = Chunk(feed_lines(pieces[0]), sum(isinstance(r, FrameMeta) for r in pieces[0]),
                    sum(isinstance(r, Detection) for r in pieces[0]), [])
    chunks = []
    for piece in pieces[1:]:
        absorb(piece)
        state = oracle.feed_state(piece)
        seen = sorted({(d.kind, d.label) for d in state.detections}) or sorted(
            (kind, label) for label, kind in newest)
        frames = sorted(state.frames.values(), key=lambda f: f.frame_id)
        span = f"FROM {ts_format(frames[0].ts)} TO {ts_format(frames[-1].ts)}"
        queries = []
        for _ in range(LIVE_LAST_SEEN):
            kind, label = rng.choice(seen)
            ts_us, fid = newest[(label, kind)]
            queries.append((f'LAST_SEEN {kind}="{label}"',
                            {"answer": "location", "ts_us": ts_us, "frame_id": fid, "coarse": False}))
        for _ in range(LIVE_PRESENT):
            kind, label = rng.choice(seen)
            text = f'PRESENT {kind}="{label}" {span}'
            queries.append((text, checks.expected_raw(state, query.parse_query(text))))
        chunks.append(Chunk(feed_lines(piece), len(state.frames), len(state.detections), queries))
    return prefill, chunks


def run_live(seed: int, seconds: float, workdir: str, tracer: Optional[Tracer]) -> Run:
    run = Run(tracer)
    with run.untraced():
        prefill, chunks = live_inputs(seed)
        settle()
    chunk_s: list[list[float]] = [[] for _ in chunks]
    measured = 0.0
    rounds = 0
    path = None
    while measured < seconds or len(run.setup_s) < MIN_SETUPS:
        if path is not None:
            shutil.rmtree(path)
        path = os.path.join(workdir, f"live-{rounds}")
        t0 = time.perf_counter()
        store = Store.create(path)
        ingest.ingest_stream(ingest.read_feed(prefill.lines), store)
        refine.run_refinement_pass(store)
        run.setup_s.append(time.perf_counter() - t0)
        frames, detections = prefill.frames, prefill.detections
        for k, chunk in enumerate(chunks):
            t0 = time.perf_counter()
            ingest.ingest_stream(ingest.read_feed(chunk.lines), store)
            refine.run_refinement_pass(store)
            took = time.perf_counter() - t0
            measured += took
            chunk_s[k].append(took)
            run.attempted += 1
            frames += chunk.frames
            detections += chunk.detections
            with run.untraced():
                problem = checks.check_chunk(store, frames, detections)
            if problem:
                run.error(f"after a chunk: {problem}")
            for j, (text, want) in enumerate(chunk.queries):
                answer, took = timed_query(run, (k, j), text, store)
                measured += took
                problem = checks.check_answer(answer, want)
                if problem:
                    run.error(f"{text}: {problem}")
        store.close()
        time_opens(run, path)
        rounds += 1
    # each chunk's median over the rounds, so one slow round moves the figure little
    run.ingest_fps = (sum(c.frames for c in chunks)
                      / sum(statistics.median(times) for times in chunk_s))
    measure_final_store(run, path)
    run.notes += [
        f"prefill {LIVE_PREFILL_MIN} min ({prefill.frames} frames), then {LIVE_CHUNKS} chunks "
        f"of 1 min; {rounds} rounds of {len(run.answer_ms)} queries",
        f"chunk ingest+refine median: first {statistics.median(chunk_s[0]) * 1e3:.1f} ms, "
        f"last {statistics.median(chunk_s[-1]) * 1e3:.1f} ms",
    ]
    return run


# ---------------------------------------------------------------------------
# escalate

def escalate_inputs(seed: int, truth):
    """The fixed battery that shows the reprocessing fault, then windows drawn
    from the seed, each asked once with one of DID, DURATION and WHERE_MOST.
    Each of the two parts gets a store of its own.

    The drawn windows name no subject, so the selection takes every frame of
    the window; a window never ends on the first frame of an activity. Both
    keep the known fault out of the drawn part, which would otherwise strike
    on some seeds only; the battery shows it on every run.
    """
    t0 = STANDARD.start_time
    battery = []
    for k in range(BATTERY_WINDOWS):
        a = t0 + timedelta(minutes=6, seconds=BATTERY_WINDOW_S * k)
        b = a + timedelta(seconds=BATTERY_WINDOW_S, microseconds=-1)
        battery.append(f'DID activity="sleep" subject="steve" FROM {ts_format(a)} TO {ts_format(b)}')

    rng = random.Random(f"escalate:{seed}")
    ts = truth.frame_ts
    starts = {bisect_left(ts, ev.start) for ev in truth.activities}
    lengths = [rng.randint(*ESCALATE_WINDOW_FRAMES) for _ in range(ESCALATE_WINDOWS)]
    first = rng.randint(0, len(ts) - sum(lengths) - ESCALATE_WINDOWS)
    drawn = []
    for n in lengths:
        last = first + n - 1
        if last in starts:
            last += 1
        verb = rng.choice(("DID", "DURATION", "WHERE_MOST"))
        name = rng.choice(("walk", "sleep"))
        drawn.append(f'{verb} activity="{name}" FROM {ts_format(ts[first])} TO {ts_format(ts[last])}')
        first = last + 1
    return {name: [(t, query.parse_query(t)) for t in texts]
            for name, texts in (("battery", battery), ("drawn", drawn))}


def run_escalate(seed: int, seconds: float, workdir: str, tracer: Optional[Tracer]) -> Run:
    run = Run(tracer)
    with run.untraced():
        truth, records = generate_scenario(STANDARD)
        lines = feed_lines(records)
        parts = escalate_inputs(seed, truth)
        settle()
    worker = reprocess.OracleReprocessor(truth)
    if tracer is not None:
        worker = tracer.wrapper(worker, "reprocess.worker")
    fps = []
    measured = 0.0
    rounds = 0
    path = None
    while measured < seconds or len(run.setup_s) < MIN_SETUPS:
        for part, items in parts.items():
            if path is not None:
                shutil.rmtree(path)
            path = os.path.join(workdir, f"escalate-{rounds}-{part}")
            t0 = time.perf_counter()
            store = Store.create(path)
            ingest.ingest_stream(ingest.read_feed(lines), store)
            refine.run_refinement_pass(store)
            took = time.perf_counter() - t0
            run.setup_s.append(took)
            fps.append(STANDARD.frame_count / took)
            for i, (text, ast) in enumerate(items):
                t0 = time.perf_counter()
                first = query.run_query(text, store)
                second = first
                if isinstance(first, NeedsReprocess):
                    reprocess.run_reprocess(store, first.request, worker)
                    second = query.run_query(text, store)
                took = time.perf_counter() - t0
                run.answer_ms.setdefault((part, i), []).append(took * 1e3)
                measured += took
                run.attempted += 1
                problem, known_fault = checks.check_escalation(ast, first, second, truth)
                if problem and known_fault:
                    run.failed += 1
                elif problem:
                    run.error(f"{text}: {problem}")
            store.close()
            time_opens(run, path)
        rounds += 1
    run.ingest_fps = statistics.median(fps)
    measure_final_store(run, path)
    run.notes += [
        f"{rounds} rounds of {BATTERY_WINDOWS} battery and {ESCALATE_WINDOWS} drawn escalations",
    ]
    return run


WORKLOADS = {"recall": run_recall, "live": run_live, "escalate": run_escalate}
