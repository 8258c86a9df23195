"""The traced benchmark's hooks stay reachable from run_query.

perfbench's traced mode wraps `query.parse_query`, `query.plan_query` and
`query.execute_plan` by name and names each execute span after the plan's
AST type. A query path that stopped calling those names would leave the
per-layer metrics empty without failing anything else.
"""

import os
import sys

from robomem.ingest import ingest_stream
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
