"""Benchmark entry point.

    python3 perfbench/run.py --workload static-topk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository.  The workload's inputs
come from ``--seed`` only; the run measures for ``--seconds`` seconds,
checks every sampled answer against the serial CSR oracle, prints a
``report`` line with every metric under its own name, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1`` (which also writes
its spans to ``.perfbench-spans/``).  ``--workload all``
runs every workload in turn and prints each metric as a table instead.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("static-topk", "update-stream", "wire-mixed")

#: Where a traced run writes its spans, relative to the working directory.
SPANS_DIR = ".perfbench-spans"

#: End-to-end latency metrics.  Each workload maps every one of them to
#: an operation kind of its own and the quantile it reports (``SLOTS``
#: in the workload module).
LATENCY_METRICS = ("a_main", "a_tail", "b_main", "b_tail", "c_main")

#: Quantiles of every operation kind printed on the report line, so the
#: shape of each latency distribution (and any second mode) is visible.
REPORT_QUANTILES = (10, 25, 50, 75, 90, 95, 99)

#: Per-layer metrics and their units (``/op``: per operation of the mix).
PER_LAYER = (
    ("graph.build_ms", "ms/op"),
    ("graph.snapshot_ms", "ms/op"),
    ("graph.snapshots", "count/op"),
    ("graph.dense_build_ms", "ms/op"),
    ("core.search_ms", "ms/op"),
    ("core.exact_frac", "fraction"),
    ("core.kernel_ms", "ms/op"),
    ("dynamic.maintain_ms", "ms/op"),
    ("dynamic.lazy_exact", "count/op"),
    ("dynamic.lazy_skipped", "count/op"),
    ("session.self_ms", "ms/op"),
    ("parallel.ships", "count/op"),
    ("parallel.bytes_shipped", "B/op"),
    ("parallel.setup_ms", "ms/op"),
    ("parallel.compute_ms", "ms/op"),
    ("parallel.worker_busy_ms", "ms/op"),
    ("parallel.wait_ms", "ms/op"),
    ("serving.self_ms", "ms/op"),
    ("serving.mean_batch", "req/batch"),
    ("serving.window_flush_frac", "fraction"),
    ("serving.cache_hit_ratio", "fraction"),
    ("net.overhead_ms", "ms/op"),
    ("net.encoded_hit_ratio", "fraction"),
    ("net.shed", "count"),
    ("net.errors", "count"),
    ("loadgen.lag_p90_ms", "ms"),
    ("env.host_probe_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``; 0 when the base is 0 (nothing to divide)."""
    return numerator / base if base else 0.0


def layer_metrics(result) -> dict:
    """The per-layer metrics of a traced run, from spans and counters."""
    from common import metric

    counters = result["counters"]
    ops = max(1, result["outcome"].attempted)
    values = dict(result["layers"])
    values.update(
        {
            "dynamic.lazy_exact": counters.get("lazy_exact", 0) / ops,
            "dynamic.lazy_skipped": counters.get("lazy_skipped", 0) / ops,
            "serving.mean_batch": ratio(
                counters.get("coalesced_requests", 0), counters.get("batches", 0)
            ),
            "serving.window_flush_frac": ratio(
                counters.get("window_flushes", 0), counters.get("batches", 0)
            ),
            "serving.cache_hit_ratio": ratio(
                counters.get("cache_hits", 0),
                counters.get("cache_hits", 0) + counters.get("cache_misses", 0),
            ),
            "net.encoded_hit_ratio": ratio(
                counters.get("encoded_cache_hits", 0),
                counters.get("encoded_cache_hits", 0)
                + counters.get("encoded_cache_misses", 0),
            ),
            "net.shed": counters.get("shed", 0),
            "net.errors": counters.get("errors", 0),
            "loadgen.lag_p90_ms": result["lag_p90_ms"],
            "env.host_probe_ms": result["host_probe_ms"],
            "trace.overhead_pct": result["trace_overhead_pct"],
        }
    )
    return {name: metric(float(values[name]), unit) for name, unit in PER_LAYER}


def run_all(args) -> int:
    """Run every workload in its own process; print each metric by name.

    A summary for people: it prints tables, not the one-line result.
    """
    import json
    import subprocess

    all_correct = True
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        lines = subprocess.run(command, capture_output=True, text=True, check=True).stdout
        *_, report_line, result_line = lines.splitlines()
        report = json.loads(report_line.partition(" ")[2])
        result = json.loads(result_line)
        all_correct = all_correct and result["correct"]
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} host_probe_ms={report['host_probe_ms']:.3f}"
        )
        rows = dict(report["metrics"])
        if args.trace:
            rows.update(result["metrics"])
        for metric_name, entry in rows.items():
            print(f"  {metric_name:26s} {entry['value']:14.4f} {entry['unit']}")
        for metric_name, why in report["replaced"].items():
            print(f"  {metric_name:26s} {'replaced by':>14s} {why}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)

    from common import children_stopped

    with children_stopped():
        return run_one(args)


def run_one(args) -> int:
    """Run one workload and print its result line."""
    from common import emit, median, metric, peak_rss_mb

    if args.workload == "wire-mixed":
        import wire_mixed as module

        result = module.run(args.seed, args.seconds, bool(args.trace))
    else:
        import closed_loop

        if args.workload == "static-topk":
            import static_topk as module
        else:
            import update_stream as module
        result = closed_loop.run(module.Workload(args.seed), args.seconds, bool(args.trace))

    outcome, samples = result["outcome"], result["samples"]
    setup_s = median(result["setups"])
    rss = peak_rss_mb()
    named = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "error_rate": metric(outcome.error_rate, "fraction"),
    }
    slots = {}
    for slot in LATENCY_METRICS:
        kind, q = module.SLOTS[slot]
        value = samples.ms(kind, q) if samples.count(kind) else float("nan")
        named[f"{kind}_p{round(q * 100)}_ms"] = metric(value, "ms")
        slots[f"{slot}_ms"] = value
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": named,
        "replaced": module.REPLACED,
        "samples": {kind: samples.count(kind) for kind in samples.by_kind},
        "quantiles_ms": {
            kind: {f"p{q}": samples.ms(kind, q / 100) for q in REPORT_QUANTILES}
            for kind in samples.by_kind
            if samples.count(kind)
        },
        "setups_s": result["setups"],
        "host_probe_ms": result["host_probe_ms"],
        "lag_p90_ms": result["lag_p90_ms"],
        "failures": outcome.reasons,
    }
    if args.trace:
        from spans import write_jsonl

        metrics = layer_metrics(result)
        report["traced_ops"] = result["traced_ops"]
        report["spans_file"] = os.path.join(
            SPANS_DIR, f"spans-{args.workload}-{args.seed}.jsonl"
        )
        write_jsonl(result["spans"], report["spans_file"])
    else:
        metrics = {"setup_s": metric(setup_s, "s"), "peak_rss_mb": metric(rss, "MB")}
        metrics.update({name: metric(value, "ms") for name, value in slots.items()})
        missing = [name for name, value in slots.items() if not value == value]
        if missing:
            outcome.fail("no samples for " + ",".join(missing))
    emit(report, outcome, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
