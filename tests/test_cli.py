import json

import pytest

from robomem.cli import main, resolve_relative
from robomem.model import ts_parse
from robomem.store import Store

NOW = "2019-06-08T12:00:00Z"


@pytest.fixture
def feed(tmp_path):
    path = str(tmp_path / "feed.jsonl")
    rc = main(["gen", "--seed", "3", "--minutes", "2", "--persons", "2",
               "--activity", "ifrah:walk:0.1:1.2:3.5,4.5",
               "--emit-activities", "--out", path])
    assert rc == 0
    return path


@pytest.fixture
def loaded(tmp_path, feed):
    store = str(tmp_path / "store")
    assert main(["--store", store, "init"]) == 0
    assert main(["--store", store, "ingest", "--feed", feed, "--refine"]) == 0
    return store, feed


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return rc, json.loads(out)


# ---------------------------------------------------------------------------

def test_store_flag_required(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["stats"])
    assert ei.value.code == 2


def test_store_env_var(tmp_path, monkeypatch, capsys):
    store = str(tmp_path / "envstore")
    monkeypatch.setenv("ROBOMEM_STORE", store)
    assert main(["init"]) == 0
    rc, payload = run_json(capsys, ["--format", "json", "stats"])
    assert rc == 0 and payload["frames"] == 0


def test_init_refuses_an_existing_store(loaded, capsys):
    """init on a store exits 1 with a message and leaves the store as it
    was, also while a writer holds it open."""
    store, _feed = loaded
    rc, before = run_json(capsys, ["--store", store, "--format", "json", "stats"])
    assert rc == 0 and before["frames"] > 0
    assert main(["--store", store, "init"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    with Store.open(store):
        assert main(["--store", store, "init"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        rc, during = run_json(capsys, ["--store", store, "--format", "json", "stats"])
        assert during == before
    rc, after = run_json(capsys, ["--store", store, "--format", "json", "stats"])
    assert after == before

def test_missing_store_is_runtime_error(tmp_path, capsys):
    rc = main(["--store", str(tmp_path / "nope"), "stats"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_gen_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = str(tmp_path / name)
        assert main(["gen", "--seed", "7", "--minutes", "1", "--out", path]) == 0
        with open(path, "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_ingest_reports_rates(loaded, capsys, tmp_path, feed):
    store2 = str(tmp_path / "store2")
    assert main(["--store", store2, "init"]) == 0
    rc, payload = run_json(capsys, ["--store", store2, "--format", "json",
                                    "ingest", "--feed", feed])
    assert rc == 0
    assert payload["frames"] == 720
    assert payload["rejected"] == 0
    assert payload["rate_fps"] > 6.0
    assert payload["bytes_per_frame"] <= 275


def test_ingest_bad_line_reported_and_rest_ingested(tmp_path, feed, capsys):
    with open(feed) as fh:
        lines = fh.readlines()
    lines.insert(282, "{not json\n")
    with open(feed, "w") as fh:
        fh.writelines(lines)
    store = str(tmp_path / "store")
    assert main(["--store", store, "init"]) == 0
    assert main(["--store", store, "--format", "json", "ingest", "--feed", feed]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out.strip().splitlines()[-1])
    assert (payload["frames"], payload["rejected"]) == (720, 1)
    assert "line 283: bad JSON" in err
    rc, payload = run_json(capsys, ["--store", store, "--format", "json", "stats"])
    assert payload["frames"] == 720


def test_ingest_refine_bytes_per_frame_counts_refine_state(tmp_path, feed, capsys):
    store = str(tmp_path / "store")
    assert main(["--store", store, "init"]) == 0
    rc, ingested = run_json(capsys, ["--store", store, "--format", "json",
                                     "ingest", "--feed", feed, "--refine"])
    assert rc == 0
    rc, stats = run_json(capsys, ["--store", store, "--format", "json", "stats"])
    assert rc == 0 and stats["tracks"] > 0
    assert ingested["bytes_per_frame"] == stats["bytes_per_frame"]


def test_ingest_refine_in_two_halves_counts_the_tracks_once(tmp_path, feed, capsys):
    """A feed cut at a frame line and ingested with --refine half by half
    counts the tracks of a one-shot ingest. The second half's flush appended
    to the refine-state log, which is thus longer than the one-shot's."""
    with open(feed) as fh:
        lines = fh.readlines()
    frames = [i for i, line in enumerate(lines) if '"type":"frame"' in line]
    cut = frames[len(frames) // 2]
    halves = []
    for name, part in (("first", lines[:cut]), ("second", lines[cut:])):
        halves.append(str(tmp_path / f"{name}.jsonl"))
        with open(halves[-1], "w") as fh:
            fh.writelines(part)
    stats = {}
    for store, feeds in (("halves", halves), ("whole", [feed])):
        root = str(tmp_path / store)
        assert main(["--store", root, "init"]) == 0
        for path in feeds:
            assert main(["--store", root, "ingest", "--feed", path, "--refine"]) == 0
        capsys.readouterr()
        rc, stats[store] = run_json(capsys, ["--store", root, "--format", "json", "stats"])
        assert rc == 0
    halves, whole = stats["halves"], stats["whole"]
    assert halves["tracks"] == whole["tracks"] == whole["refine_log_rows"] > 0
    assert halves["refine_log_rows"] >= halves["tracks"]
    assert halves["refine_state_bytes"] > whole["refine_state_bytes"]


def test_ingest_rerun_rejects_duplicates(loaded, capsys):
    store, feed = loaded
    rc, payload = run_json(capsys, ["--store", store, "--format", "json",
                                    "ingest", "--feed", feed])
    assert rc == 0
    assert payload["frames"] == 0
    assert payload["rejected"] > 0


def test_refine_idempotent_via_cli(loaded, capsys):
    store, _feed = loaded
    rc, payload = run_json(capsys, ["--store", store, "--format", "json", "refine"])
    assert rc == 0
    assert payload["tracks_created"] == 0 and payload["observations_fused"] == 0


def test_query_json_schema(loaded, capsys):
    store, _feed = loaded
    rc, payload = run_json(capsys, [
        "--store", store, "--format", "json", "query",
        'DID activity="walk" subject="ifrah" '
        'FROM 2019-06-01T00:00:00Z TO 2019-06-01T00:02:00Z'])
    assert rc == 0
    assert payload["answer"] == "bool"
    assert payload["value"] is True
    assert 0.0 < payload["prob"] <= 1.0
    assert payload["query"].startswith("DID ")
    assert payload["elapsed_seconds"] < 1.0


def test_query_last_seen_human(loaded, capsys):
    store, _feed = loaded
    rc, payload = run_json(capsys, ["--store", store, "--format", "json",
                                    "query", 'LAST_SEEN person="ifrah"'])
    assert rc == 0
    assert payload["answer"] in ("location", "not_found")


def test_malformed_query_caret(loaded, capsys):
    store, _feed = loaded
    text = 'LAST_SEEN gadget="remote"'
    rc = main(["--store", store, "query", text])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-2] == text
    assert err[-1].index("^") == text.index("gadget")


def test_inverted_range_exit_2(loaded, capsys):
    store, _feed = loaded
    rc = main(["--store", store, "query",
               'PRESENT object="cup" FROM 2019-06-02T00:00:00Z TO 2019-06-01T00:00:00Z'])
    assert rc == 2


def test_relative_words_resolved():
    now = ts_parse(NOW)
    out = resolve_relative("PRESENT object=\"cup\" PAST_HOUR", now)
    assert out == ('PRESENT object="cup" FROM 2019-06-08T11:00:00Z '
                   'TO 2019-06-08T12:00:00Z')
    out = resolve_relative("DID activity=\"sleep\" YESTERDAY", now)
    assert out == ('DID activity="sleep" FROM 2019-06-07T00:00:00Z '
                   'TO 2019-06-08T00:00:00Z')


def test_relative_words_inside_quotes_kept():
    now = ts_parse("2020-01-02T12:00:00Z")
    out = resolve_relative('DID activity="TODAY" subject="dad" PAST_DAY', now)
    assert out == ('DID activity="TODAY" subject="dad" FROM 2020-01-01T12:00:00Z '
                   'TO 2020-01-02T12:00:00Z')
    assert resolve_relative('PRESENT object="PAST_HOUR mug"', now) == 'PRESENT object="PAST_HOUR mug"'


def test_relative_query_end_to_end(loaded, capsys):
    store, _feed = loaded
    # scenario starts 2019-06-01T00:00Z; PAST_DAY from noon 06-01 covers it
    rc, payload = run_json(capsys, [
        "--store", store, "--format", "json", "--now", "2019-06-01T12:00:00Z",
        "query", 'PRESENT person="ifrah" PAST_DAY'])
    assert rc == 0
    assert payload["answer"] == "bool"


def test_query_oracle_reprocess_loop(tmp_path, capsys):
    feed = str(tmp_path / "f.jsonl")
    truth = str(tmp_path / "truth.json")
    assert main(["gen", "--seed", "3", "--minutes", "2", "--persons", "2",
                 "--activity", "ifrah:walk:0.1:1.2:3.5,4.5",
                 "--out", feed, "--truth", truth]) == 0  # no --emit-activities
    store = str(tmp_path / "store")
    assert main(["--store", store, "init"]) == 0
    assert main(["--store", store, "ingest", "--feed", feed, "--refine"]) == 0
    q = ('DID activity="walk" subject="ifrah" '
         'FROM 2019-06-01T00:00:00Z TO 2019-06-01T00:02:00Z')
    rc, first = run_json(capsys, ["--store", store, "--format", "json", "query", q])
    assert rc == 0 and first["answer"] == "needs_reprocess"
    rc, second = run_json(capsys, ["--store", store, "--format", "json", "query", q,
                                   "--reprocess", "oracle", "--truth", truth])
    assert rc == 0
    assert second["answer"] == "bool" and second["value"] is True


def test_migrate_and_stats(loaded, capsys):
    store, _feed = loaded
    rc, before = run_json(capsys, ["--store", store, "--format", "json", "stats"])
    assert rc == 0 and before["detections"] > 0
    rc, mig = run_json(capsys, ["--store", store, "--format", "json",
                                "--now", NOW, "migrate", "--hot-days", "7"])
    assert rc == 0
    assert mig["detections_migrated"] == before["detections"]
    assert mig["bytes_after"] < mig["bytes_before"]
    rc, after = run_json(capsys, ["--store", store, "--format", "json", "stats"])
    assert rc == 0 and after["detections"] == 0
    assert after["frames"] == before["frames"]
    # the migration sealed the log's frames into a frame block; the hot
    # window holds none of them, so an open leaves the block cold
    assert before["frame_blocks"] == before["resident_frame_blocks"]
    assert after["frame_blocks"] == before["frame_blocks"] + 1
    assert after["resident_frame_blocks"] == 0


def test_coarse_answer_flagged(loaded, capsys):
    store, _feed = loaded
    assert main(["--store", store, "--format", "json", "--now", NOW,
                 "migrate", "--hot-days", "7"]) == 0
    rc, payload = run_json(capsys, ["--store", store, "--format", "json",
                                    "query", 'LAST_SEEN person="ifrah"'])
    assert rc == 0
    if payload["answer"] == "location":
        assert payload["coarse"] is True


def test_bench_reports_latency(loaded, capsys):
    store, feed = loaded
    rc, payload = run_json(capsys, ["--store", store, "--format", "json",
                                    "bench", "--probes", "50", "--feed", feed])
    assert rc == 0
    assert payload["probes"] == 50
    assert payload["p50_ms"] < 100.0
    assert payload["ingest_rate_fps"] > 6.0


def test_policy_file_and_flag_precedence(loaded, tmp_path, capsys):
    store, _feed = loaded
    pf = str(tmp_path / "policy.json")
    with open(pf, "w") as fh:
        json.dump({"obs_sigma_m": 1.5, "assoc_max_gap_s": -1.0}, fh)
    # the bad file value is overridden by the flag, so the pass runs
    rc = main(["--store", store, "refine", "--policy-file", pf, "--assoc-gap", "4.0"])
    assert rc == 0


@pytest.mark.parametrize("policy, argv, message", [
    ({"obs_sigma_m": 1.5, "interval_merge_gap_s": 60.0}, ["refine"], "interval_merge_gap_s"),
    ([1], ["refine"], "one JSON object"),
    ("{", ["refine"], "policy.json"),
    ({"existence_decay_per_day": "high"}, ["refine"], "existence_decay_per_day"),
    (None, ["refine", "--assoc-gap", "-1"], "assoc_max_gap_s must be positive"),
    (None, ["query", "--budget", "0", 'DID activity="dance" subject="ifrah" '
            'FROM 2019-06-01T00:00:00Z TO 2019-06-01T00:02:00Z'], "--budget must be >= 1"),
], ids=["unknown-key", "not-an-object", "not-json", "wrong-type", "negative-gap", "zero-budget"])
def test_policy_file_unknown_key_refused(loaded, tmp_path, capsys, policy, argv, message):
    """A malformed policy file or an out-of-range value exits 2 with a
    message, not a traceback."""
    store, _feed = loaded
    if policy is not None:
        pf = str(tmp_path / "policy.json")
        with open(pf, "w") as fh:
            fh.write(policy if isinstance(policy, str) else json.dumps(policy))
        argv = argv + ["--policy-file", pf]
    assert main(["--store", store] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_refine_without_policy_flags_uses_defaults(loaded, monkeypatch):
    import robomem.cli as cli
    from robomem.refine import RefinePolicy

    seen = []
    real = cli.run_refinement_pass
    monkeypatch.setattr(cli, "run_refinement_pass",
                        lambda store, policy: seen.append(policy) or real(store, policy))
    store, _feed = loaded
    assert main(["--store", store, "refine"]) == 0
    assert seen == [RefinePolicy()]
