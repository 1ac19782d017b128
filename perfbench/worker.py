"""One workload in its own process: set up, run timed rounds, check, report.

Started by ``run.py`` with the BLAS thread counts already set to 1 in its
environment.  Prints one JSON object on its last line of output.

With ``--setup-only`` it stops once the inputs are ready and reports the
time since ``--spawned-at`` (a ``time.monotonic`` reading taken by the
parent just before it started this process), which covers interpreter
start, imports, input generation and ``Kernel.create``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import varmcf.flow
import varmcf.ingest
import varmcf.kernel
import varmcf.metric
import varmcf.varifold
import workloads
from spans import Ops, Tracer

PARSER = argparse.ArgumentParser()
PARSER.add_argument("--workload", required=True)
PARSER.add_argument("--seed", type=int, required=True)
PARSER.add_argument("--seconds", type=float, required=True)
PARSER.add_argument("--trace", type=int, choices=(0, 1), required=True)
PARSER.add_argument("--size", choices=("full", "smoke"), required=True)
PARSER.add_argument("--outdir", required=True)
PARSER.add_argument("--spawned-at", type=float, required=True)
PARSER.add_argument("--setup-only", action="store_true")

# Per-layer metrics: (metric name, span name, field) where field is the
# self time ("self_s"), the summed span count ("count") or the call count.
ROUND_LAYERS = [
    ("kernel.eval_s", "kernel.eval", "self_s"),
    ("kernel.evals", "kernel.eval", "count"),
    ("curvature.field_s", "curvature.field", "self_s"),
    ("curvature.field_calls", "curvature.field", "calls"),
    ("curvature.dissipation_s", "curvature.dissipation", "self_s"),
    ("varifold.push_forward_s", "varifold.push_forward", "self_s"),
    ("varifold.first_variation_s", "varifold.first_variation", "self_s"),
    ("geometry.tangential_jacobian_s", "geometry.tangential_jacobian", "self_s"),
    ("geometry.tangential_jacobian_calls", "geometry.tangential_jacobian", "calls"),
    ("flow.evolve_self_s", "flow.evolve", "self_s"),
    ("flow.write_s", "flow.write", "self_s"),
    ("metric.support_s", "metric.support", "self_s"),
    ("metric.support_size", "metric.support", "count"),
    ("metric.lp_s", "metric.lp", "self_s"),
    ("metric.lp_rounds", "metric.lp", "count"),
]
SETUP_LAYERS = [
    ("kernel.create_s", "kernel.create", "self_s"),
    ("ingest.generate_s", "ingest.generate", "self_s"),
]


def install_setup_spans(tracer) -> None:
    tracer.wrap(varmcf.ingest, "generate", "ingest.generate")
    tracer.wrap(varmcf.kernel.Kernel, "create", "kernel.create")


def install_round_spans(tracer) -> None:
    """Wrap each layer's entry points where the calling module looks them up."""
    flow = varmcf.flow
    tracer.wrap(varmcf.kernel.Kernel, "_value_and_grad_scalar", "kernel.eval",
                count=lambda args, result: np.size(args[1]))
    tracer.wrap(flow, "curvature_field", "curvature.field")
    tracer.wrap(flow, "dissipation", "curvature.dissipation")
    tracer.wrap(flow, "push_forward", "varifold.push_forward")
    tracer.wrap(flow, "first_variation", "varifold.first_variation")
    tracer.wrap(varmcf.varifold, "tangential_jacobian", "geometry.tangential_jacobian")
    tracer.wrap(flow, "evolve", "flow.evolve")
    tracer.wrap(flow, "write_trajectory_json", "flow.write")
    tracer.wrap(flow, "write_diagnostics_csv", "flow.write")
    tracer.wrap(varmcf.metric, "build_support_problem", "metric.support",
                count=lambda args, result: result.size)
    tracer.wrap(varmcf.metric, "_solve_support_lp", "metric.lp",
                count=lambda args, result: result[2])


def pick(totals: dict, span: str, field: str):
    """The field of a span's totals; 0 for a layer that did not run."""
    row = totals.get(span)
    if row is None:
        return 0.0 if field == "self_s" else 0
    return row[field]


def run_rounds(args, inputs, ops, tracer, outdir) -> list[dict]:
    """Whole rounds until the next one would overrun ``--seconds``; at least one.

    In the traced mode a warm-up round comes first, then each step is a pair:
    an untraced round, then a traced one.
    """
    def one_round(traced: bool) -> dict:
        ops.calls.clear()
        lo = len(tracer.spans) if traced else 0
        if traced:
            install_round_spans(tracer)
        start = time.perf_counter()
        workloads.run_round(args.workload, inputs, outdir)
        wall = time.perf_counter() - start
        if traced:
            tracer.close()
        op_time = sum(c.seconds for c in ops.calls)
        return {
            "run_s": wall,
            "atom_ops_per_s": sum(workloads.atom_ops(c) for c in ops.calls) / op_time,
            "operations": sum(workloads.operation_count(c) for c in ops.calls),
            "signature": workloads.round_signature(args.workload, inputs, ops.calls),
            "spans": (lo, len(tracer.spans)) if traced else None,
        }

    plan = (False, True) if tracer else (False,)
    begin = time.perf_counter()
    rounds = [one_round(False)] if tracer else []
    while True:
        group_start = time.perf_counter()
        rounds += [one_round(traced) for traced in plan]
        now = time.perf_counter()
        if (now - begin) + (now - group_start) > args.seconds:
            return rounds


def layer_metrics(tracer, traced: list[dict], setup_spans: int, untraced_run_s: float):
    """Per-layer metrics of the traced round with the median time; also its span totals.

    The round's layer self times plus ``trace.other_s`` add up to ``trace.run_s``.
    """
    traced = sorted(traced, key=lambda r: r["run_s"])
    chosen = traced[(len(traced) - 1) // 2]
    lo, hi = chosen["spans"]
    totals = tracer.self_times(lo, hi)
    metrics = {name: pick(totals, span, field) for name, span, field in ROUND_LAYERS}
    setup_totals = tracer.self_times(0, setup_spans)
    for name, span, field in SETUP_LAYERS:
        metrics[name] = pick(setup_totals, span, field)
    metrics["trace.run_s"] = chosen["run_s"]
    metrics["trace.other_s"] = chosen["run_s"] - sum(row["self_s"] for row in totals.values())
    metrics["trace.overhead_s"] = median([r["run_s"] for r in traced]) - untraced_run_s
    metrics["trace.spans"] = hi - lo
    return metrics, totals


def span_counts(tracer, span_range) -> dict:
    return {k: (v["count"], v["calls"]) for k, v in tracer.self_times(*span_range).items()}


def main() -> int:
    args = PARSER.parse_args()
    tracer = Tracer() if args.trace else None
    if tracer:
        install_setup_spans(tracer)
    inputs = workloads.setup(args.workload, workloads.SIZES[args.size][args.workload], args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_spans = 0
    if tracer:
        tracer.close()
        setup_spans = len(tracer.spans)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    ops = Ops()
    for owner, attr, kind in workloads.operations(args.workload):
        ops.wrap(owner, attr, kind)
    rounds = run_rounds(args, inputs, ops, tracer, outdir)
    ops.close()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workloads.CHECKS[args.workload](inputs, ops.calls, outdir)
    failures = list(checks.pop("failures"))
    if any(r["signature"] != rounds[0]["signature"] for r in rounds):
        failures.append("a round did not reproduce the first round's outputs")

    # The first untraced round is a warm-up: checked and counted, but left out
    # of the timings whenever later rounds ran.
    untraced = [r for r in rounds if r["spans"] is None]
    timed = untraced[1:] or untraced
    run_s = median([r["run_s"] for r in timed])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "rounds": len(untraced),
        "round_run_s": [r["run_s"] for r in untraced],
        "operations_per_round": rounds[0]["operations"],
        "attempted": sum(r["operations"] for r in rounds),
        "checks": checks,
        "failures": failures,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "process_setup_s": setup_s,
        },
    }
    if tracer:
        traced = [r for r in rounds if r["spans"] is not None]
        metrics, totals = layer_metrics(tracer, traced, setup_spans, run_s)
        if any(span_counts(tracer, r["spans"]) != span_counts(tracer, traced[0]["spans"])
               for r in traced):
            failures.append("span counts differ between traced rounds")
        if metrics["trace.other_s"] < 0.0:
            failures.append("layer self times exceed the traced run time")
        spans_file = outdir / "spans.jsonl"
        phases = [("setup", 0, setup_spans)]
        phases += [(f"round{i}", *r["spans"]) for i, r in enumerate(traced)]
        tracer.write(spans_file, phases)
        report["spans_file"] = str(spans_file)
        report["layers"] = totals
    else:
        metrics = {
            "run_s": run_s,
            "atom_ops_per_s": median([r["atom_ops_per_s"] for r in timed]),
            "peak_rss_mib": peak_rss_mib,
        }
    report["metrics"] = metrics
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
