"""Benchmark robomem end to end and layer by layer.

Run from anywhere inside a robomem checkout:

    python3 perfbench/run.py --workload recall --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the workload
twice, untraced and then with every layer's public functions wrapped, and
prints the per-layer metrics with the tracing overhead; the spans go to
perfbench/_out/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("recall", "live", "escalate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_checkout() -> None:
    """Put the checkout's src/ and tests/ first on the path; refuse to run elsewhere."""
    src, tests = os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")
    if not (os.path.isfile(os.path.join(src, "robomem", "__init__.py"))
            and os.path.isfile(os.path.join(tests, "oracle.py"))):
        sys.exit(f"perfbench: {ROOT} holds no src/robomem and tests/oracle.py; "
                 "run it inside a robomem checkout")
    sys.path[1:1] = [src, tests]
    import robomem
    if not os.path.realpath(robomem.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"perfbench: imported robomem from {robomem.__file__}, not from {src}")


def show(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds like an exception, so its stores are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_checkout()
    import layers
    import workloads
    from spans import Tracer

    work = os.path.join(BENCH_DIR, "_work")
    os.makedirs(work, exist_ok=True)
    run_workload = workloads.WORKLOADS[args.workload]
    label = f"{args.workload} seed {args.seed}"
    runs = []
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        plain = run_workload(args.seed, args.seconds, os.path.join(tmp, "plain"), None)
        runs.append(plain)
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = run_workload(args.seed, args.seconds, os.path.join(tmp, "traced"), tracer)
            finally:
                tracer.unwrap_all()
            runs.append(traced)

    for note in plain.notes + [plain.tail()]:
        print(f"{label}: {note}")
    e2e = plain.end_to_end()
    show(f"{label}: end to end, untraced", e2e)
    metrics = e2e
    if args.trace:
        per_layer = layers.metrics(tracer, traced.tracks)
        show(f"{label}: per layer (mean self time per call; counts per call)", per_layer)
        print(f"{label}: tracing overhead, traced against untraced")
        for name, (value, unit) in traced.end_to_end().items():
            base = e2e[name][0]
            print(f"  {name:32s} {base:14.4f} -> {value:14.4f} {unit} ({(value / base - 1) * 100:+.1f}%)")
        out = os.path.join(BENCH_DIR, "_out")
        os.makedirs(out, exist_ok=True)
        stem = os.path.join(out, f"{args.workload}-seed{args.seed}")
        tracer.write(stem + ".spans.tsv.gz")
        with open(stem + ".layers.json", "w") as fh:
            json.dump({k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}, fh, indent=1)
        print(f"{label}: {len(tracer.start)} spans written to {os.path.relpath(stem, ROOT)}.*")
        metrics = {k: per_layer[k] for k in layers.COMMON}

    for run in runs:
        for message in run.errors:
            print(f"{label}: WRONG {message}", file=sys.stderr)
    result = {
        "correct": all(run.wrong == 0 for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
