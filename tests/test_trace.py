"""The traced benchmark's hooks stay reachable from the program.

perfbench's traced mode wraps `query.parse_query`, `query.plan_query` and
`query.execute_plan` by name and names each execute span after the plan's
AST type; it also wraps store, segment, ingest and refine functions by name
and reports every metric of `layers.COMMON` for every workload. A call path
that stopped reaching those names would leave per-layer metrics missing,
which the benchmark's traced run reports only as a KeyError.
"""

import io
import os
import sys

from robomem import refine
from robomem.ingest import ingest_stream, read_feed, write_feed
from robomem.query import run_query
from robomem.scenario import generate_scenario
from robomem.store import Store

from conftest import small_scenario

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402


def test_run_query_reaches_traced_names(tmp_path):
    gt, records = generate_scenario(small_scenario(minutes=2.0))
    store = Store.create(str(tmp_path / "store"))
    ingest_stream(iter(records), store)
    b = gt.range()
    window = f"FROM {b.start:%Y-%m-%dT%H:%M:%SZ} TO {b.end:%Y-%m-%dT%H:%M:%SZ}"
    queries = ['LAST_SEEN person="ifrah"', f'PRESENT person="ifrah" {window}',
               f'DID activity="walk" subject="ifrah" {window}',
               f'DURATION activity="walk" subject="ifrah" {window}',
               f'WHERE_MOST activity="walk" subject="ifrah" {window}']
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        for q in queries:
            run_query(q, store)
        names = tracer.durations()
        metrics = layers.metrics(tracer, tracks=0)
    finally:
        tracer.unwrap_all()
        store.close()
    for t in layers.QUERY_TYPES:
        assert "query.execute." + t in names
    for m in ("query.plan_us", "query.parse_us", "query.execute_us"):
        assert m in metrics


def test_traced_round_reports_every_common_metric(tmp_path):
    gt, records = generate_scenario(small_scenario(minutes=2.0))
    buf = io.StringIO()
    write_feed(buf, records)
    lines = buf.getvalue().splitlines()
    b = gt.range()
    window = f"FROM {b.start:%Y-%m-%dT%H:%M:%SZ} TO {b.end:%Y-%m-%dT%H:%M:%SZ}"
    root = str(tmp_path / "store")
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        store = Store.create(root)
        ingest_stream(read_feed(lines), store)
        refine.run_refinement_pass(store)  # through the module, where it is wrapped
        store.flush()
        store.close()
        store = Store.open(root, mode="ro")
        run_query('LAST_SEEN person="ifrah"', store)
        run_query(f'PRESENT person="ifrah" {window}', store)
        tracks = store.stats().tracks  # stats, not tracks(): only the pass may reach load_refine_state
        store.close()
        metrics = layers.metrics(tracer, tracks)
    finally:
        tracer.unwrap_all()
    assert sorted(set(layers.COMMON) - set(metrics)) == []
