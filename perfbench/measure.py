"""One workload run: set-up, measured rounds, and the result object."""

from __future__ import annotations

import json

import harness
import tracing

OUT = harness.BENCH_DIR / "out"


def run_workload(workload, seconds: float, trace: bool) -> dict:
    """A workload provides name, seed, module, setup_repeats, repeats,
    setup() and build_round(r); cli-cold adds min_rounds, rss_of_children,
    traced and child_summary()."""
    setup_s = harness.measure_setup(workload.module, workload.setup, workload.setup_repeats)
    min_rounds = getattr(workload, "min_rounds", 1)
    repeats = workload.repeats
    if not trace:
        tally = harness.run_rounds(workload.build_round, seconds, repeats, min_rounds)
        metrics = harness.end_to_end(tally, setup_s, harness.peak_rss_mb(getattr(workload, "rss_of_children", False)))
    else:
        # The same rounds twice: untraced, then traced; their time ratio is
        # the tracing overhead.
        plain = harness.run_rounds(workload.build_round, seconds / 2, repeats, min_rounds)
        tracer = tracing.Tracer()
        tracer.install()
        workload.traced = True
        try:
            tally = harness.run_rounds(workload.build_round, 0, repeats, rounds=plain.rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        summary = tracing.merge(tracer.summary(), getattr(workload, "child_summary", dict)())
        metrics = tracing.layer_metrics(summary)
        untraced = harness.ops_per_s(plain)
        traced = harness.ops_per_s(tally)
        metrics["trace.untraced_ops_per_s"] = {"value": untraced, "unit": "1/s"}
        metrics["trace.traced_ops_per_s"] = {"value": traced, "unit": "1/s"}
        metrics["trace.overhead_ratio"] = {"value": untraced / traced, "unit": "1"}
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{workload.name}-seed{workload.seed}.spans.jsonl")
    harness.report_notes(tally)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{workload.seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result
