"""Which robomem functions the traced run wraps, and the per-layer metrics.

Every layer time below is the mean self time per call: the span's duration
minus what its wrapped children took, so the layers of one call add up to
its total. Counts are per call of the named function.
"""

from __future__ import annotations

from robomem import ingest, query, refine, reprocess, segment
from robomem.store import Store

from spans import Tracer, mean, percentile, read_proc_io

# Store methods timed per call; find_by_label also counts its hits
STORE_READS = ("track_for", "activities", "activity_summaries", "is_covered",
               "frames_in_range", "load_refine_state", "migrate_tiers")
QUERY_TYPES = ("LastSeen", "Present", "Did", "Duration", "WhereMost")


def _flush_io(tracer, _args, _kwargs, _out, before):
    wchar, syscw = read_proc_io()
    tracer.count("store.flush.bytes", wchar - before[0])
    tracer.count("store.flush.writes", syscw - before[1])


def _gate(tracer, args, _kwargs):
    d, fm, tracks, policy = args[:4]
    gated = 0
    for t in tracks:
        if t.label == d.label and 0 <= (fm.ts - t.last_ts).total_seconds() <= policy.assoc_max_gap_s:
            gated += 1
    tracer.count("refine.tracks_scanned", len(tracks))
    tracer.count("refine.tracks_gated", gated)


def install(tracer: Tracer) -> None:
    w = tracer.wrap
    w(ingest, "ingest_stream", "ingest.stream")
    w(ingest, "parse_feed_line", "ingest.parse")
    w(segment, "encode_record", "segment.encode")
    w(segment, "decode_payload", "segment.decode")
    w(segment, "read_segment", "segment.read")
    w(Store, "open", "store.open")
    w(Store, "append", "store.append")
    for name in STORE_READS:
        w(Store, name, "store." + name)
    w(Store, "find_by_label", "store.find_by_label",
      after=lambda t, a, k, out, _: t.count("store.find_by_label.hits", len(out)))
    w(Store, "flush", "store.flush", before=lambda t, a, k: read_proc_io(), after=_flush_io)
    w(refine, "associate", "refine.associate", before=_gate)
    w(refine, "run_refinement_pass", "refine.pass")
    w(reprocess, "run_refinement_pass", "refine.pass")
    w(query, "parse_query", "query.parse")
    w(query, "plan_query", "query.plan")
    w(query, "execute_plan", lambda a, k: "query.execute." + type(a[0].ast).__name__)
    count_selected = lambda t, a, k, out, _: t.count("reprocess.frames_selected", len(out.frame_ids))
    w(reprocess, "select_frames", "reprocess.select", after=count_selected)
    w(query, "select_frames", "reprocess.select", after=count_selected)
    w(reprocess, "run_reprocess", "reprocess.run",
      after=lambda t, a, k, out, _: t.count("reprocess.records_added", out.records_added))


# name -> unit, for every per-layer metric that all three workloads exercise
COMMON = {
    "ingest.parse_us": "us",
    "segment.encode_us": "us",
    "segment.decode_us": "us",
    "segment.read_ms": "ms",
    "store.open_ms": "ms",
    "store.append_us": "us",
    "store.flush_ms": "ms",
    "store.flush_bytes": "B",
    "store.flush_writes": "count",
    "store.find_by_label_us": "us",
    "store.find_by_label_hits": "count",
    "store.frames_in_range_us": "us",
    "store.load_refine_state_ms": "ms",
    "query.parse_us": "us",
    "query.execute_us": "us",
    "refine.pass_ms": "ms",
    "refine.associate_us": "us",
    "refine.tracks_scanned": "count",
    "refine.tracks_gated": "count",
    "refine.tracks": "count",
}


def metrics(tracer: Tracer, tracks: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the trace supports, as name -> (value, unit).

    Metrics of a function the workload never called are left out.
    """
    spans = tracer.durations()
    counters = tracer.counters
    out: dict[str, tuple[float, str]] = {}

    def calls(name: str) -> int:
        return len(spans.get(name, ((), ()))[0])

    def own(metric: str, span: str, unit: str) -> None:
        if calls(span):
            out[metric] = (mean(spans[span][1]) / _SCALE[unit], unit)

    def per_call(metric: str, counter: str, span: str, unit: str) -> None:
        if calls(span):
            out[metric] = (counters.get(counter, 0) / calls(span), unit)

    own("ingest.parse_us", "ingest.parse", "us")
    own("ingest.stream_ms", "ingest.stream", "ms")
    own("segment.encode_us", "segment.encode", "us")
    own("segment.decode_us", "segment.decode", "us")
    own("segment.read_ms", "segment.read", "ms")
    own("store.open_ms", "store.open", "ms")
    own("store.append_us", "store.append", "us")
    own("store.flush_ms", "store.flush", "ms")
    per_call("store.flush_bytes", "store.flush.bytes", "store.flush", "B")
    per_call("store.flush_writes", "store.flush.writes", "store.flush", "count")
    for name in ("find_by_label",) + STORE_READS:
        unit = "ms" if name in ("load_refine_state", "migrate_tiers") else "us"
        own(f"store.{name}_{unit}", "store." + name, unit)
    per_call("store.find_by_label_hits", "store.find_by_label.hits", "store.find_by_label", "count")

    own("query.parse_us", "query.parse", "us")
    own("query.plan_us", "query.plan", "us")
    executes = [d for t in QUERY_TYPES for d in spans.get("query.execute." + t, ((), ()))[1]]
    if executes:
        out["query.execute_us"] = (mean(executes) / 1e3, "us")
    for t in QUERY_TYPES:
        incl = sorted(spans.get("query.execute." + t, ((), ()))[0])
        if incl:
            key = _SNAKE[t]
            out[f"query.{key}_p50_us"] = (percentile(incl, 0.50) / 1e3, "us")
            out[f"query.{key}_p99_us"] = (percentile(incl, 0.99) / 1e3, "us")

    own("refine.pass_ms", "refine.pass", "ms")
    own("refine.associate_us", "refine.associate", "us")
    per_call("refine.tracks_scanned", "refine.tracks_scanned", "refine.associate", "count")
    per_call("refine.tracks_gated", "refine.tracks_gated", "refine.associate", "count")
    out["refine.tracks"] = (float(tracks), "count")

    if calls("reprocess.select"):
        out["reprocess.select_ms"] = (mean(spans["reprocess.select"][0]) / 1e6, "ms")
        per_call("reprocess.frames_selected", "reprocess.frames_selected", "reprocess.select", "count")
    if calls("reprocess.run"):
        run_ns = spans["reprocess.run"][0]
        worker_ns = spans.get("reprocess.worker", ((), ()))[0]
        out["reprocess.worker_ms"] = (mean(worker_ns) / 1e6, "ms")
        out["reprocess.merge_ms"] = ((sum(run_ns) - sum(worker_ns)) / len(run_ns) / 1e6, "ms")
        per_call("reprocess.records_added", "reprocess.records_added", "reprocess.run", "count")
    return out


_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}
_SNAKE = {"LastSeen": "last_seen", "Present": "present", "Did": "did",
          "Duration": "duration", "WhereMost": "where_most"}
