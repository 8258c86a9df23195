"""Show that each check of the benchmark flags a deliberately wrong answer.

Builds a small store for each workload, checks the engine's own answers
(they must pass), then breaks answers one way at a time and confirms that
the check flags each broken one. Run from a robomem checkout:

    python3 perfbench/selfcheck.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import replace
from datetime import timedelta

import run as bench

bench.import_checkout()

import checks  # noqa: E402
import workloads  # noqa: E402
from robomem import ingest, query, refine, reprocess  # noqa: E402
from robomem.scenario import generate_scenario  # noqa: E402
from robomem.model import (  # noqa: E402
    BoolAnswer,
    DurationAnswer,
    LocationAnswer,
    NeedsReprocess,
    NotFound,
    PlaceAnswer,
    ts_format,
    ts_to_micros,
)
from robomem.store import Store, TierPolicy  # noqa: E402

failures: list[str] = []


def expect(problem, flagged: bool, what: str) -> None:
    ok = bool(problem) == flagged
    print(f"{'ok  ' if ok else 'FAIL'} {'flags' if flagged else 'passes'}: {what}")
    if not ok:
        failures.append(what)


def broken(ans):
    """One wrong variant per field the check compares."""
    if isinstance(ans, LocationAnswer):
        return [("frame id +1", replace(ans, frame_id=ans.frame_id + 1)),
                ("ts +1 us", replace(ans, ts=ans.ts + timedelta(microseconds=1))),
                ("coarse flipped", replace(ans, coarse=not ans.coarse)),
                ("NotFound instead", NotFound())]
    if isinstance(ans, BoolAnswer):
        out = [("value flipped", replace(ans, value=not ans.value)),
               ("prob +1e-6", replace(ans, prob=ans.prob + 1e-6)),
               ("coarse flipped", replace(ans, coarse=not ans.coarse))]
        if ans.supporting_frames:
            out.append(("a supporting frame dropped", replace(ans, supporting_frames=ans.supporting_frames[1:])))
        return out
    if isinstance(ans, DurationAnswer):
        out = [("total +0.01 s", replace(ans, total_seconds=ans.total_seconds + 0.01)),
               ("coarse flipped", replace(ans, coarse=not ans.coarse))]
        if ans.per_bucket:
            (b, s), rest = ans.per_bucket[0], ans.per_bucket[1:]
            out.append(("a bucket +0.01 s", replace(ans, per_bucket=((b, s + 0.01),) + rest)))
        return out
    if isinstance(ans, PlaceAnswer):
        i, j = ans.cell
        return [("cell moved", replace(ans, cell=(i + 1, j))),
                ("seconds +0.01", replace(ans, seconds=ans.seconds + 0.01)),
                ("coarse flipped", replace(ans, coarse=not ans.coarse))]
    if isinstance(ans, NotFound):
        return [("coarse flipped", replace(ans, coarse=not ans.coarse))]
    return []


def recall(tmp: str) -> None:
    workloads.RECALL_SESSION_MIN = 4.0
    now = workloads.DEFAULT_START + timedelta(days=workloads.RECALL_DAYS)
    policy = TierPolicy(hot_window=timedelta(days=workloads.RECALL_HOT_DAYS),
                        warm_window=timedelta(days=workloads.RECALL_WARM_DAYS))
    records = workloads.recall_inputs(7)
    ref = checks.build_reference(records, ts_to_micros(now - policy.hot_window),
                                 ts_to_micros(now - policy.warm_window))
    store = Store.create(os.path.join(tmp, "recall"))
    ingest.ingest_stream(iter(records), store)
    refine.run_refinement_pass(store)
    store.migrate_tiers(now, policy)
    expect(checks.check_label_counts(store, ref), False, "recall: label counts after migration")

    class Short:
        def find_by_label(self, label):
            return store.find_by_label(label)[1:]

    expect(checks.check_label_counts(Short(), ref), True, "recall: a label's count one short")

    seen = set()
    wrong_right = 0
    for text in workloads.recall_queries(7, ref.events):
        ast = query.parse_query(text)
        want = checks.expected_answer(ref, ast)
        ans = query.run_query(text, store)
        if checks.check_answer(ans, want):
            wrong_right += 1
            continue
        key = (text.split()[0], type(ans).__name__, getattr(ans, "coarse", False))
        if key in seen:
            continue
        seen.add(key)
        for what, bad in broken(ans):
            expect(checks.check_answer(bad, want), True, f"recall {key}: {what}")
    expect(wrong_right, False, "recall: every engine answer passes")
    store.close()


def live(tmp: str) -> None:
    workloads.LIVE_PREFILL_MIN, workloads.LIVE_CHUNKS, workloads.LIVE_STRETCH_MIN = 3, 2, 5
    prefill, chunks = workloads.live_inputs(7)
    store = Store.create(os.path.join(tmp, "live"))
    ingest.ingest_stream(ingest.read_feed(prefill.lines), store)
    refine.run_refinement_pass(store)
    frames, detections = prefill.frames, prefill.detections
    chunk = chunks[0]
    ingest.ingest_stream(ingest.read_feed(chunk.lines), store)
    frames, detections = frames + chunk.frames, detections + chunk.detections
    expect(checks.check_chunk(store, frames, detections), True, "live: refine cursor behind")
    refine.run_refinement_pass(store)
    expect(checks.check_chunk(store, frames, detections), False, "live: counts after a chunk")
    expect(checks.check_chunk(store, frames + 1, detections), True, "live: a frame missing")
    expect(checks.check_chunk(store, frames, detections - 1), True, "live: a detection too many")
    for text, want in chunk.queries[::workloads.LIVE_LAST_SEEN]:
        ans = query.run_query(text, store)
        expect(checks.check_answer(ans, want), False, f"live {text.split()[0]}")
        for what, bad in broken(ans):
            expect(checks.check_answer(bad, want), True, f"live {text.split()[0]}: {what}")
    store.close()


def escalate(tmp: str) -> None:
    truth, records = generate_scenario(workloads.STANDARD)
    battery = workloads.escalate_inputs(7, truth)["battery"]

    def fresh(name):
        store = Store.create(os.path.join(tmp, name))
        ingest.ingest_stream(iter(records), store)
        refine.run_refinement_pass(store)
        return store

    store = fresh("battery")
    worker = reprocess.OracleReprocessor(truth)
    t0 = workloads.STANDARD.start_time

    def ask(text):
        ast = query.parse_query(text)
        first = query.run_query(ast, store)
        if isinstance(first, NeedsReprocess):
            reprocess.run_reprocess(store, first.request, worker)
        return ast, first, query.run_query(ast, store)

    def window(verb, name, a_min, b_min):
        return (f'{verb} activity="{name}" FROM {ts_format(t0 + timedelta(minutes=a_min))} '
                f'TO {ts_format(t0 + timedelta(minutes=b_min))}')

    faults = 0
    for text, _ast in battery:
        problem, fault = checks.check_escalation(*ask(text), truth)
        faults += bool(problem and fault)
        if problem and not fault:
            expect(problem, False, f"escalate battery {text}")
    expect(faults != 42, False, f"escalate: the battery shows the known fault on 42 queries ({faults})")
    store.close()

    # the battery's reprocessing left events in minutes 6-29; ask elsewhere on a fresh store
    store = fresh("windows")

    ast, first, second = ask(window("DID", "sleep", 14.0, 14.5))
    expect(checks.check_escalation(ast, first, second, truth)[0], False, "escalate DID yes")
    expect(checks.check_escalation(ast, second, second, truth)[0], True, "escalate: first ask did not escalate")
    expect(checks.check_escalation(ast, first, first, truth)[0], True, "escalate: escalated again")
    problem, fault = checks.check_escalation(ast, first, replace(second, value=False), truth)
    expect(problem and not fault, True, "escalate: a 'no' where many analyzed frames hold")

    ast, first, second = ask(window("DID", "sleep", 33.0, 33.5))
    expect(checks.check_escalation(ast, first, second, truth)[0], False, "escalate DID no")
    expect(checks.check_escalation(ast, first, replace(second, value=True), truth)[0], True,
           "escalate: a 'yes' the truth does not hold")

    ast, first, second = ask(window("DURATION", "walk", 11.5, 12.2))
    expect(checks.check_escalation(ast, first, second, truth)[0], False, "escalate DURATION")
    expect(checks.check_escalation(ast, first, replace(second, total_seconds=second.total_seconds + 1.0),
                                   truth)[0], True, "escalate: duration off by 1 s")

    ast, first, second = ask(window("WHERE_MOST", "walk", 2.0, 2.5))
    expect(checks.check_escalation(ast, first, second, truth)[0], False, "escalate WHERE_MOST")
    expect(checks.check_escalation(ast, first, replace(second, cell=(0, 0)), truth)[0], True,
           "escalate: wrong cell")
    expect(checks.check_escalation(ast, first, NotFound(), truth)[0], True, "escalate: no place")
    store.close()


def main() -> int:
    with tempfile.TemporaryDirectory(dir=os.path.join(bench.BENCH_DIR, "_work")) as tmp:
        recall(tmp)
        live(tmp)
        escalate(tmp)
    print(f"{len(failures)} check(s) misbehaved" if failures else "every check flags its broken answers")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
