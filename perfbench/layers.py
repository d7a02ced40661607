"""Metric names and units, and the per-layer metrics of one traced run.

The layers are the program's modules.  Which end-to-end metric each
layer metric should move, and on which workload, is mapped in
``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Dict, Mapping

from perfbench.tracer import BENCH_NODES, Tracer

#: Metrics a user of the simulator sees, measured with tracing off.
END_TO_END: Dict[str, str] = {
    "sessions_per_s": "sessions/s",
    "epoch_latency_p50_s": "s",
    "epoch_latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Metrics of single layers, from the separate traced run.
PER_LAYER: Dict[str, str] = {
    # trace.generator
    "generator.busy_s": "s",
    "generator.sessions": "count",
    # trace.synth (input preparation)
    "synth.busy_s": "s",
    "synth.sessions": "count",
    # trace.store
    "store.read_busy_s": "s",
    "store.records_read": "count",
    "store.write_busy_s": "s",
    "store.records_written": "count",
    "store.extent_reads": "count",
    "store.extent_bytes": "bytes",
    "store.extent_busy_s": "s",
    # sim.grouping
    "grouping.busy_s": "s",
    "grouping.self_s": "s",
    "grouping.sort_busy_s": "s",
    "grouping.merge_busy_s": "s",
    "grouping.tasks": "count",
    "grouping.runs_spilled": "count",
    "grouping.peak_buffered": "count",
    "grouping.cache_hit_ratio": "ratio",
    # sim.backends
    "backends.wait_s": "s",
    "backends.blocks": "count",
    "backends.result_bytes_computed": "bytes",
    # sim.kernel
    "kernel.busy_s": "s",
    "kernel.tasks": "count",
    "kernel.compiled_tasks": "count",
    "kernel.fused_tasks": "count",
    "kernel.decode_s": "s",
    "kernel.sweep_s": "s",
    "kernel.match_s": "s",
    "kernel.account_s": "s",
    # sim.reduce
    "reduce.fold_busy_s": "s",
    "reduce.blocks": "count",
    "reduce.materialize_s": "s",
    "reduce.spill_read_s": "s",
    "reduce.peak_resident": "count",
    # sim.service
    "service.epochs": "count",
    "service.epoch_sim_s": "s",
    "service.checkpoint_busy_s": "s",
    "service.checkpoint_bytes": "bytes",
    "service.late_sessions": "count",
    "service.feed_lag_max_s": "s",
    # sim.engine, and the tracer itself
    "engine.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(
    tracer: Tracer,
    profile: Mapping[str, float],
    outcome,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric but ``synth.*``, from one traced run.

    Args:
        tracer: the traced run's nodes and counters.
        profile: the program's own ``PROFILE`` counters for the run.
        outcome: the traced run's :class:`perfbench.workloads.Outcome`.
        untraced_wall: the same call's wall time with tracing off.
    """
    busy, calls, own = tracer.busy, tracer.calls, tracer.self_time

    def counter(key: str) -> float:
        return tracer.counters.get(key, 0)

    engine_self = own("run")
    # Time the benchmark spent on its own account inside the runs
    # (waiting on the open-loop feed, re-pickling blocks) is no layer's.
    active = busy("run") - sum(busy(name) for name in BENCH_NODES)
    plans = counter("grouping.plans")
    return {
        "generator.busy_s": busy("generator"),
        "generator.sessions": counter("generator.items"),
        "store.read_busy_s": busy("store.read"),
        "store.records_read": counter("store.read.items"),
        "store.write_busy_s": busy("store.write"),
        "store.records_written": calls("store.write"),
        "store.extent_reads": calls("store.extent"),
        "store.extent_bytes": counter("store.extent_bytes"),
        "store.extent_busy_s": busy("store.extent"),
        "grouping.busy_s": busy("grouping.plan"),
        "grouping.self_s": own("grouping.plan"),
        "grouping.sort_busy_s": busy("grouping.sort"),
        "grouping.merge_busy_s": busy("grouping.merge"),
        "grouping.tasks": counter("grouping.tasks"),
        "grouping.runs_spilled": counter("grouping.runs_spilled"),
        "grouping.peak_buffered": counter("grouping.peak_buffered"),
        "grouping.cache_hit_ratio": (
            counter("grouping.cache_hits") / plans if plans else 0.0
        ),
        "backends.wait_s": own("backends.wait"),
        "backends.blocks": counter("backends.blocks"),
        "backends.result_bytes_computed": counter("backends.result_bytes_computed"),
        "kernel.busy_s": busy("kernel"),
        "kernel.tasks": counter("kernel.tasks"),
        "kernel.compiled_tasks": profile["compiled_tasks"],
        "kernel.fused_tasks": profile["fused_tasks"],
        "kernel.decode_s": profile["decode_seconds"],
        "kernel.sweep_s": profile["sweep_seconds"],
        "kernel.match_s": profile["match_seconds"],
        "kernel.account_s": profile["account_seconds"],
        "reduce.fold_busy_s": busy("reduce.fold"),
        "reduce.blocks": calls("reduce.fold"),
        "reduce.materialize_s": busy("reduce.materialize"),
        "reduce.spill_read_s": busy("reduce.spill_read"),
        "reduce.peak_resident": outcome.peak_resident,
        "service.epochs": counter("service.checkpoints"),
        "service.epoch_sim_s": outcome.epoch_sim,
        "service.checkpoint_busy_s": busy("service.checkpoint"),
        "service.checkpoint_bytes": counter("service.checkpoint_bytes"),
        "service.late_sessions": outcome.late,
        "service.feed_lag_max_s": outcome.feed_lag,
        "engine.self_s": engine_self,
        "trace.coverage": 1.0 - engine_self / active if active > 0 else 0.0,
        "trace.overhead_ratio": outcome.wall / untraced_wall,
    }
