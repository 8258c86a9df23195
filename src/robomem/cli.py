"""Operator command line.

Subcommands: init, gen, ingest, refine, migrate, query, bench, stats.
The store directory comes from --store or the ROBOMEM_STORE env var.
Exit codes: 0 ok, 1 runtime error, 2 usage or query-parse error.

Relative time words (YESTERDAY, TODAY, PAST_HOUR, PAST_DAY, PAST_WEEK,
PAST_MONTH) are resolved here against --now into absolute FROM/TO before the
query engine ever sees them; the engine itself only understands explicit
ranges.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, fields
from datetime import datetime, timedelta, timezone

from .errors import QuerySemanticError, QuerySyntaxError, RoboMemError
from .ingest import ingest_stream, read_feed, write_feed
from .model import (
    BoolAnswer,
    DurationAnswer,
    LocationAnswer,
    NeedsReprocess,
    NotFound,
    PlaceAnswer,
    answer_to_json,
    ts_format,
    ts_parse,
)
from .query import format_query, parse_query, run_query
from .refine import RefinePolicy, run_refinement_pass
from .reprocess import DEFAULT_BUDGET, OracleReprocessor, run_reprocess
from .scenario import (
    ActivitySpec,
    ScenarioConfig,
    config_from_json,
    config_to_json,
    generate_scenario,
    regenerate_truth,
)
from .store import Store, TierPolicy


def _now_arg(text: str) -> datetime:
    return ts_parse(text)


def resolve_relative(text: str, now: datetime) -> str:
    """Expand relative time words into absolute FROM/TO ranges; a quoted
    string is left as it is."""
    def rng(start: datetime, end: datetime) -> str:
        return f"FROM {ts_format(start)} TO {ts_format(end)}"

    midnight = now.astimezone(timezone.utc).replace(hour=0, minute=0, second=0, microsecond=0)
    subs = {
        "YESTERDAY": rng(midnight - timedelta(days=1), midnight),
        "TODAY": rng(midnight, now),
        "PAST_HOUR": rng(now - timedelta(hours=1), now),
        "PAST_DAY": rng(now - timedelta(days=1), now),
        "PAST_WEEK": rng(now - timedelta(days=7), now),
        "PAST_MONTH": rng(now - timedelta(days=30), now),
    }
    words = "|".join(subs)
    return re.sub(rf'"[^"]*"|\b(?:{words})\b', lambda m: subs.get(m[0], m[0]), text)


class UsageError(RoboMemError):
    """The command line, or a file it names, is malformed (exit 2)."""


def _policy_from_args(args) -> RefinePolicy:
    """The refine policy of the flags over the policy file over the defaults;
    a malformed file or an out-of-range value is a UsageError."""
    base = {}
    if getattr(args, "policy_file", None):
        with open(args.policy_file) as fh:
            try:
                base = json.load(fh)
            except ValueError as e:
                raise UsageError(f"{args.policy_file}: {e}") from None
        if not isinstance(base, dict):
            raise UsageError(f"{args.policy_file}: a policy file holds one JSON object")
        unknown = sorted(set(base) - {f.name for f in fields(RefinePolicy)})
        if unknown:
            raise UsageError(f"{args.policy_file}: unknown policy key(s): {', '.join(unknown)}")
    default = RefinePolicy()
    def pick(flag, key):
        v = getattr(args, flag, None)
        v = v if v is not None else base.get(key, getattr(default, key))
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise UsageError(f"refine policy: {key} must be a number, not {v!r}")
        return v
    policy = RefinePolicy(
        obs_sigma_m=pick("obs_sigma", "obs_sigma_m"),
        assoc_max_gap_s=pick("assoc_gap", "assoc_max_gap_s"),
        assoc_max_mahalanobis=pick("assoc_mahalanobis", "assoc_max_mahalanobis"),
        existence_decay_per_day=pick("decay", "existence_decay_per_day"),
    )
    try:
        policy.validate()
    except ValueError as e:
        raise UsageError(f"refine policy: {e}") from None
    return policy


def _emit(args, payload: dict, human: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(human)


def _render_answer(ans) -> str:
    tag = " (summary-based)" if getattr(ans, "coarse", False) else ""
    if isinstance(ans, LocationAnswer):
        x, y = ans.loc.mean
        sx, sy = ans.loc.cov[0][0] ** 0.5, ans.loc.cov[1][1] ** 0.5
        return (f"location ({x:.2f}, {y:.2f}) m +/- ({sx:.2f}, {sy:.2f}), "
                f"seen {ts_format(ans.ts)} frame {ans.frame_id}, "
                f"confidence {ans.confidence:.3f}{tag}")
    if isinstance(ans, BoolAnswer):
        word = "yes" if ans.value else "no"
        return (f"{word} (prob {ans.prob:.3f}, "
                f"{len(ans.supporting_frames)} supporting frames){tag}")
    if isinstance(ans, DurationAnswer):
        lines = [f"{ans.total_seconds:.1f} seconds total{tag}"]
        for b, s in ans.per_bucket:
            lines.append(f"  {ts_format(b)}  {s:.1f} s")
        return "\n".join(lines)
    if isinstance(ans, PlaceAnswer):
        return (f"cell {ans.cell} centered ({ans.cell_center[0]:.1f}, "
                f"{ans.cell_center[1]:.1f}) m, {ans.seconds:.1f} seconds{tag}")
    if isinstance(ans, NotFound):
        return f"not found{tag}"
    if isinstance(ans, NeedsReprocess):
        req = ans.request
        return (f"needs reprocess: {len(req.frame_ids)} frames "
                f"(budget {req.budget}) in {ts_format(req.range.start)} .. "
                f"{ts_format(req.range.end)}")
    return repr(ans)


# ---------------------------------------------------------------------------
# subcommands

def cmd_init(args) -> int:
    Store.create(args.store).close()
    _emit(args, {"store": args.store, "created": True}, f"initialized store at {args.store}")
    return 0


def _parse_activity_spec(text: str) -> ActivitySpec:
    # subject:name:start_min:end_min:x,y
    try:
        subject, name, start_min, end_min, xy = text.split(":")
        x, y = xy.split(",")
        return ActivitySpec(subject=subject.lower(), name=name.lower(),
                            start_min=float(start_min), end_min=float(end_min),
                            location=(float(x), float(y)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "activity spec must be subject:name:start_min:end_min:x,y") from None


def cmd_gen(args) -> int:
    cfg = ScenarioConfig(
        seed=args.seed,
        duration_minutes=args.minutes,
        fps=args.fps,
        n_objects=args.objects,
        n_persons=args.persons,
        detection_recall=args.recall,
        label_noise=args.label_noise,
        activity_schedule=tuple(args.activity or ()),
        include_activity_records=args.emit_activities,
    )
    gt, records = generate_scenario(cfg)
    with open(args.out, "w") as fh:
        n = write_feed(fh, records)
    truth_path = args.truth or args.out + ".truth.json"
    with open(truth_path, "w") as fh:
        json.dump(config_to_json(cfg), fh)
    frames = cfg.frame_count
    _emit(args, {"feed": args.out, "truth": truth_path, "records": n, "frames": frames},
          f"wrote {n} records ({frames} frames) to {args.out}; truth config in {truth_path}")
    return 0


def cmd_ingest(args) -> int:
    policy = _policy_from_args(args) if args.refine else None  # a bad one ingests nothing
    with Store.open(args.store, mode="rw") as store:
        with open(args.feed) as fh:
            report = ingest_stream(read_feed(fh), store)
        for error in report.errors:
            print(f"rejected: {error}", file=sys.stderr)
        if policy is not None:
            run_refinement_pass(store, policy)
        store.flush()  # write the refine state, so the stats count it
        stats = store.stats()
    payload = {
        "frames": report.frames,
        "detections": report.detections,
        "activities": report.activities,
        "rejected": report.rejected,
        "elapsed_seconds": report.elapsed_seconds,
        "rate_fps": report.rate_fps,
        "bytes_per_frame": stats.bytes_per_frame,
    }
    _emit(args, payload,
          f"ingested {report.frames} frames, {report.detections} detections, "
          f"{report.activities} activities ({report.rejected} rejected) in "
          f"{report.elapsed_seconds:.3f}s = {report.rate_fps:.1f} fps; "
          f"{stats.bytes_per_frame:.1f} bytes/frame")
    return 0


def cmd_refine(args) -> int:
    policy = _policy_from_args(args)
    with Store.open(args.store, mode="rw") as store:
        report = run_refinement_pass(store, policy)
    _emit(args, asdict(report),
          f"refined: {report.tracks_created} tracks created, "
          f"{report.tracks_updated} updated, {report.observations_fused} observations fused")
    return 0


def cmd_migrate(args) -> int:
    policy = TierPolicy(hot_window=timedelta(days=args.hot_days),
                        warm_window=timedelta(days=args.warm_days))
    with Store.open(args.store, mode="rw") as store:
        report = store.migrate_tiers(args.now, policy)
    _emit(args, asdict(report),
          f"migrated {report.detections_migrated} detections and "
          f"{report.activities_migrated} activities; "
          f"{report.bytes_before} -> {report.bytes_after} bytes")
    return 0


def cmd_query(args) -> int:
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    text = resolve_relative(args.query, args.now)
    try:
        ast = parse_query(text)
    except QuerySyntaxError as e:
        print(f"query error: {e}", file=sys.stderr)
        print(text, file=sys.stderr)
        print(" " * e.position + "^", file=sys.stderr)
        return 2
    except QuerySemanticError as e:
        print(f"query error: {e}", file=sys.stderr)
        return 2

    policy = _policy_from_args(args)
    with Store.open(args.store, mode="rw" if args.reprocess == "oracle" else "ro") as store:
        t0 = time.perf_counter()
        ans = run_query(ast, store, policy=policy, now=args.now, budget=args.budget)
        if isinstance(ans, NeedsReprocess) and args.reprocess == "oracle":
            if not args.truth:
                print("--reprocess oracle requires --truth", file=sys.stderr)
                return 2
            with open(args.truth) as fh:
                truth = regenerate_truth(config_from_json(json.load(fh)))
            run_reprocess(store, ans.request, OracleReprocessor(truth), policy)
            ans = run_query(ast, store, policy=policy, now=args.now, budget=args.budget)
        elapsed = time.perf_counter() - t0
    payload = answer_to_json(ans)
    payload["elapsed_seconds"] = elapsed
    payload["query"] = format_query(ast)
    _emit(args, payload, _render_answer(ans) + f"\n({elapsed * 1000:.3f} ms)")
    return 0


def cmd_bench(args) -> int:
    import random
    rows: dict = {}
    with Store.open(args.store, mode="ro") as store:
        stats = store.stats()
        rows["bytes_per_frame"] = stats.bytes_per_frame
        rows["frames"] = stats.frames
        labels = store.labels()
        bounds = store.time_bounds()
        if labels and bounds is not None:
            rng = random.Random(args.seed)
            probes = []
            for _ in range(args.probes):
                label = rng.choice(labels)
                if rng.random() < 0.5:
                    probes.append(f'LAST_SEEN object="{label}"')
                else:
                    probes.append(
                        f'PRESENT object="{label}" FROM {ts_format(bounds.start)} '
                        f'TO {ts_format(bounds.end)}')
            latencies = []
            for q in probes:
                ast = parse_query(q)
                t0 = time.perf_counter()
                run_query(ast, store)
                latencies.append(time.perf_counter() - t0)
            latencies.sort()
            rows["probes"] = len(latencies)
            rows["p50_ms"] = statistics.median(latencies) * 1000
            rows["p99_ms"] = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))] * 1000

    if args.feed:
        with tempfile.TemporaryDirectory() as tmp:
            with Store.create(os.path.join(tmp, "bench-store")) as bench_store:
                with open(args.feed) as fh:
                    report = ingest_stream(read_feed(fh), bench_store)
            rows["ingest_rate_fps"] = report.rate_fps
            rows["ingest_elapsed_seconds"] = report.elapsed_seconds

    if args.format == "json":
        print(json.dumps(rows, separators=(",", ":")))
    else:
        if not rows.get("frames"):
            print("store is empty; nothing to benchmark")
        for k, v in rows.items():
            print(f"{k:>24}: {v:.4f}" if isinstance(v, float) else f"{k:>24}: {v}")
    return 0


def cmd_stats(args) -> int:
    with Store.open(args.store, mode="ro") as store:
        s = store.stats()
    _emit(args, asdict(s),
          f"{s.frames} frames, {s.detections} detections, {s.tracks} tracks, "
          f"{s.bytes_on_disk} bytes ({s.bytes_per_frame:.1f} per frame)")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robomem",
                                     description="Embedded long-term robot memory engine")
    parser.add_argument("--store", default=os.environ.get("ROBOMEM_STORE"),
                        help="store directory (default: $ROBOMEM_STORE)")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--now", type=_now_arg,
                        default=datetime.now(timezone.utc),
                        help="anchor for relative time words (ISO-8601)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="create an empty store").set_defaults(func=cmd_init)

    p = sub.add_parser("gen", help="generate a synthetic scenario feed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--minutes", type=float, default=5.0)
    p.add_argument("--fps", type=float, default=6.0)
    p.add_argument("--objects", type=int, default=4)
    p.add_argument("--persons", type=int, default=2)
    p.add_argument("--recall", type=float, default=0.9)
    p.add_argument("--label-noise", type=float, default=0.0)
    p.add_argument("--activity", action="append", type=_parse_activity_spec,
                   metavar="SUBJECT:NAME:START_MIN:END_MIN:X,Y")
    p.add_argument("--emit-activities", action="store_true",
                   help="include activity records in the feed")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="ground-truth config path (default OUT.truth.json)")
    p.set_defaults(func=cmd_gen)

    def policy_flags(p):
        p.add_argument("--obs-sigma", type=float)
        p.add_argument("--assoc-gap", type=float)
        p.add_argument("--assoc-mahalanobis", type=float)
        p.add_argument("--decay", type=float)
        p.add_argument("--policy-file")

    p = sub.add_parser("ingest", help="ingest a feed file")
    p.add_argument("--feed", required=True)
    p.add_argument("--refine", action="store_true", help="run a refinement pass afterwards")
    policy_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("refine", help="run a refinement pass")
    policy_flags(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("migrate", help="migrate old raw records to tier summaries")
    p.add_argument("--hot-days", type=float, default=7.0)
    p.add_argument("--warm-days", type=float, default=90.0)
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser("query", help="run a DSL query")
    p.add_argument("query")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--reprocess", choices=("none", "oracle"), default="none")
    p.add_argument("--truth", help="ground-truth config for --reprocess oracle")
    policy_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="benchmark query latency and storage")
    p.add_argument("--probes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feed", help="also measure ingest rate of this feed")
    p.set_defaults(func=cmd_bench)

    sub.add_parser("stats", help="print store statistics").set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command not in ("gen",) and not args.store:
        parser.error("--store (or ROBOMEM_STORE) is required")
    try:
        return args.func(args)
    except (QuerySyntaxError, QuerySemanticError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RoboMemError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
