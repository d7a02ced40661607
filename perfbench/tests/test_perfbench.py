"""Tests of the benchmark's own machinery: tracer, verification, open loop."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers, run  # noqa: E402
from perfbench.openloop import OpenLoopFeed, percentile, tail_percentile  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    AGGREGATE,
    SPAN,
    Node,
    Tracer,
    instrumented,
    self_times,
)
from perfbench.verify import digest, problems  # noqa: E402


class FakeClock:
    """A clock that moves only when told to (or when slept on)."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    nodes = [
        Node(0, "run", SPAN, None, "run-0", 0.0, 10.0, busy=10.0, calls=1),
        # Two overlapping children cover [1, 5]: 4 s, not 3 + 3.
        Node(1, "grouping.plan", SPAN, 0, "run-0", 1.0, 4.0, busy=3.0, calls=1),
        Node(2, "reduce.materialize", SPAN, 0, "run-0", 2.0, 5.0, busy=3.0, calls=1),
        # A child sticking out of its parent counts only inside it.
        Node(3, "service.flush", SPAN, 0, "run-0", 9.0, 12.0, busy=3.0, calls=1),
        # Aggregated calls under the plan cover their summed busy time.
        Node(4, "grouping.sort", AGGREGATE, 1, "run-0", 1.0, 3.5, busy=1.5, calls=9),
        Node(5, "store.write", AGGREGATE, 4, "run-0", 1.2, 3.4, busy=0.5, calls=9),
    ]
    selfs = self_times(nodes)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[4] == pytest.approx(1.5 - 0.5)
    assert selfs[5] == pytest.approx(0.5)
    assert selfs[2] == pytest.approx(3.0)


def test_tracer_nests_spans_and_aggregates_calls():
    clock = FakeClock(0.0)
    tracer = Tracer(clock=clock)
    with tracer.span("run"):
        clock.sleep(1.0)
        for _ in range(3):
            with tracer.span("store.write", AGGREGATE):
                clock.sleep(0.5)
        with tracer.span("reduce.materialize"):
            clock.sleep(2.0)
    run_node, write, materialize = tracer.nodes
    assert (write.calls, write.busy, write.parent) == (3, 1.5, run_node.id)
    assert materialize.parent == run_node.id
    assert run_node.busy == pytest.approx(4.5)
    assert tracer.self_time("run") == pytest.approx(1.0)


def test_tracer_rejects_out_of_order_exit():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.enter("run")
    tracer.enter("grouping.plan")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    from repro.trace.synth import SynthConfig, synthesize

    path = tmp_path_factory.mktemp("store") / "small.store"
    made = synthesize(
        SynthConfig(region="t", seed=3, days=2, users=80, catalogue_size=20), path
    )
    return made


def simulate_store(made, tmp_path):
    from repro.sim.engine import SimulationConfig, Simulator
    from repro.sim.grouping import ExternalGrouping
    from repro.trace.store import StoreReader

    sim = Simulator(
        SimulationConfig(reduction="spill", grouping="external"),
        grouping=ExternalGrouping(shard_dir=None, run_sessions=40),
    )
    with StoreReader(made.path) as reader:
        return sim.run_stream(reader.iter_sessions(), reader.horizon)


def test_a_mutated_result_trips_verification(small_store, tmp_path):
    from dataclasses import replace

    result = simulate_store(small_store, tmp_path)
    assert problems([result], small_store.sessions) == []
    total = result.total
    lost = replace(result, total=replace(total, sessions=total.sessions - 1))
    assert digest([lost]) != digest([result])
    assert problems([lost], small_store.sessions)
    from repro.topology.layers import NetworkLayer

    layer = next(iter(NetworkLayer))
    inflated = replace(
        result, total=replace(total, peer_bits={layer: 2 * total.demanded_bits})
    )
    assert any("offload" in note for note in problems([inflated], None))

    good = {"digest": digest([result]), "sessions": total.sessions}
    iteration = {**good, "notes": [], "attempted": 1, "late": 0}
    assert run.tally([iteration], good, None)[:2] == (1, 0)
    mutated = dict(iteration, digest=digest([lost]))
    assert run.tally([iteration, mutated], good, None)[:2] == (2, 1)
    # A late-dropped service session is a failed operation on its own.
    late = dict(iteration, attempted=50, late=2)
    assert run.tally([late], None, good["digest"])[:2] == (50, 2)


def test_tracing_observes_without_changing_the_result(small_store, tmp_path):
    from repro.trace.store import StoreWriter

    original = StoreWriter.__dict__["append"]
    untraced = simulate_store(small_store, tmp_path)
    tracer = Tracer()
    with instrumented(tracer):
        with tracer.span("run"):
            traced = simulate_store(small_store, tmp_path)
    assert digest([traced]) == digest([untraced])
    assert StoreWriter.__dict__["append"] is original
    names = {node.name for node in tracer.nodes}
    assert {"grouping.plan", "grouping.sort", "store.write", "kernel"} <= names
    assert tracer.counters["store.read.items"] >= small_store.sessions
    assert tracer.calls("reduce.fold") == tracer.counters["backends.blocks"]
    assert 0.0 <= tracer.self_time("run") <= tracer.busy("run")


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------


def test_open_loop_due_times_and_lateness_on_a_fake_clock():
    clock = FakeClock(10.0)
    feed = OpenLoopFeed(
        list("abcde"), rate=2.0, clock=clock, sleep=clock.sleep, spin=0.0
    )
    handed = []
    for item in feed:
        handed.append((item, clock.now, feed.last_due))
        if item == "b":
            clock.sleep(1.7)  # the consumer stalls on "b"
    assert [due for _, _, due in handed] == [10.0, 10.5, 11.0, 11.5, 12.0]
    # "c" was due at 11.0 but handed over at 12.2; "d" 0.7 s late; the
    # feed catches up by "e" (due 12.0, at 12.2: still 0.2 s late).
    assert [at for _, at, _ in handed] == pytest.approx([10.0, 10.5, 12.2, 12.2, 12.2])
    assert feed.max_lag == pytest.approx(1.2)
    clock.sleep(0.3)
    assert feed.latency() == pytest.approx(0.5)


def test_tail_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 169)]
    assert tail_percentile(values) == percentile(values, 90) == 152.0
    assert tail_percentile([4.0, 1.0, 3.0, 2.0]) == percentile([1, 2, 3, 4], 50)


# ----------------------------------------------------------------------
# The benchmark's declared metrics
# ----------------------------------------------------------------------


def test_benchmark_json_declares_every_metric_and_workload():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)
