import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from robomem.ingest import ingest_stream
from robomem.scenario import ActivitySpec, ScenarioConfig, generate_scenario
from robomem.store import Store


@pytest.fixture
def store(tmp_path):
    s = Store.create(str(tmp_path / "store"))
    yield s
    s.close()


def small_scenario(seed=42, minutes=2.0, with_activities=True, **kw):
    schedule = ()
    if with_activities:
        schedule = (
            ActivitySpec("ifrah", "walk", 0.1, 1.2, (3.5, 4.5)),
            ActivitySpec("steve", "sleep", 0.5, 1.8, (8.2, 2.1)),
        )
    return ScenarioConfig(
        seed=seed, duration_minutes=minutes, n_persons=2,
        activity_schedule=schedule,
        include_activity_records=with_activities,
        **kw,
    )


def set_segment_max(root, records):
    """Make the store at root seal a segment every `records` records."""
    path = os.path.join(root, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["segment_max_records"] = records
    with open(path, "w") as fh:
        json.dump(manifest, fh)


@pytest.fixture
def populated(tmp_path):
    """A small ingested scenario: (store, ground truth, records)."""
    cfg = small_scenario()
    gt, records = generate_scenario(cfg)
    s = Store.create(str(tmp_path / "store"))
    ingest_stream(iter(records), s)
    yield s, gt, records
    s.close()
