"""The benchmark's workloads: inputs, set-up, the timed call, a reference.

Each workload splits its work four ways, so that only the program's
own work is timed:

* ``prepare`` (benchmark process): synthesize the inputs from the seed.
  Not timed; the program receives only these inputs.
* ``setup`` (measured process): what a user's program does before its
  first call -- build the simulator and backend, fill the shard
  cache, construct the service.  Timed as
  ``setup_s``, together with the imports.
* ``run`` (measured process): one call of the public entry point
  (``Simulator.run_stream``, ``Simulator.run_sweep_stream`` or
  ``SimulationService.run``).  Timed end to end.
* ``reference``: the same results through a different pipeline path
  (memory grouping, batched reduction), to verify against.

Why each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perfbench.openloop import OpenLoopFeed
from perfbench.tracer import Tracer, metered_iter

#: Fig. 4's upload-ratio axis (q / beta), as swept by ``bench_sweep``.
SWEEP_RATIOS = (0.2, 0.4, 0.6, 0.8, 1.0)


def import_program() -> None:
    """Import every program module a workload uses (timed as set-up)."""
    import repro.experiments.config  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.sim.service  # noqa: F401
    import repro.trace.generator  # noqa: F401
    import repro.trace.store  # noqa: F401


@dataclass
class Outcome:
    """One timed call and what it produced.

    Attributes:
        results: the call's results (one per sweep config).
        wall: seconds from the call to its complete result.
        latencies: seconds from when input was due to when each result
            (epoch delta, or the whole batch result) was received.
        sessions: input sessions the results must account for
            (``None`` when only the reference knows).
        notes: verification failures seen while running.
        late: sessions the service dropped as late.
        feed_lag: how late, at most, the open-loop feed ran (seconds).
        epoch_sim: summed seconds from each epoch's grouping to its
            delivery (traced service runs only).
        peak_resident: most reduction blocks resident at once.
    """

    results: List
    wall: float
    latencies: List[float]
    sessions: Optional[int]
    notes: List[str] = field(default_factory=list)
    late: int = 0
    feed_lag: float = 0.0
    epoch_sim: float = 0.0
    peak_resident: int = 0


@dataclass
class _State:
    """What one set-up built: the simulator or service, and its inputs."""

    sim: object
    loaded: object
    extra: Dict = field(default_factory=dict)


def timed(tracer: Optional[Tracer], call: Callable):
    """``(call(), seconds)``; traced calls are the root ``run`` span."""
    start = time.perf_counter()
    if tracer is None:
        value = call()
    else:
        with tracer.span("run"):
            value = call()
    return value, time.perf_counter() - start


def synthesize(config, path: Path, tracer: Tracer) -> Dict:
    """Write ``config``'s synthetic city to ``path`` (timed as ``synth``)."""
    from repro.trace.synth import synthesize as synth

    with tracer.span("synth"):
        made = synth(config, path, force=True)
    tracer.count("synth.items", made.sessions)
    return {
        "store": str(made.path),
        "sessions": made.sessions,
        "horizon": made.horizon,
        "cache_token": made.cache_token,
        "fingerprint": made.fingerprint,
    }


class Workload:
    """Base: a named workload and how its kernel is pinned."""

    name = ""
    #: Whether the compiled kernel must run (else pure python must).
    compiled = True
    #: Whether the external grouping feeds the fused decoder.
    fused = False
    #: An open-loop workload makes one timed replay per set-up, counts
    #: sessions (not calls) as its operations, and is checked against a
    #: reference recomputed in every run, the feed being small.
    open_loop = False

    def prepare(self, seed: int, work: Path, tracer: Tracer) -> Dict:
        """The seeded inputs; ``fingerprint`` identifies them exactly."""
        raise NotImplementedError

    def load(self, inputs: Dict):
        return inputs

    def setup(self, loaded, work: Path, seconds: float):
        raise NotImplementedError

    def run(self, state, tracer: Optional[Tracer] = None) -> Outcome:
        raise NotImplementedError

    def close(self, state) -> None:
        state.sim.close()

    def reference(self, loaded) -> List:
        raise NotImplementedError


def _batch_outcome(sim, results, wall, sessions) -> Outcome:
    notes = []
    if sessions is not None and sim.last_grouping.sessions != sessions:
        notes.append(
            f"grouping saw {sim.last_grouping.sessions} sessions, "
            f"input has {sessions}"
        )
    return Outcome(
        results=results,
        wall=wall,
        latencies=[wall],
        sessions=sessions,
        notes=notes,
        peak_resident=sim.last_reduction.peak_resident,
    )


class London(Workload):
    """Table I's month of London at density 0.01, generated on the fly."""

    name = "london"
    fused = True
    density = 0.01

    def prepare(self, seed: int, work: Path, tracer: Tracer) -> Dict:
        config = self.load({"seed": seed})
        fingerprint = hashlib.sha256(repr(config).encode("utf-8")).hexdigest()
        return {"seed": seed, "fingerprint": fingerprint}

    def load(self, inputs: Dict):
        benchmarks = str(Path(__file__).resolve().parent.parent / "benchmarks")
        if benchmarks not in sys.path:
            sys.path.insert(0, benchmarks)
        from bench_london import london_config

        return london_config(self.density, inputs["seed"])

    def setup(self, loaded, work: Path, seconds: float):
        from repro.sim.engine import SimulationConfig, Simulator
        from repro.sim.grouping import ExternalGrouping

        # The sort buffer holds the whole trace: one run, no merge.
        sim = Simulator(
            SimulationConfig(reduction="spill", grouping="external"),
            grouping=ExternalGrouping(run_sessions=1_000_000),
        )
        return _State(sim=sim, loaded=loaded)

    def run(self, state, tracer=None) -> Outcome:
        from repro.experiments.config import CITY_DEVICE_MIX
        from repro.trace.generator import TraceGenerator

        config = state.loaded

        def call():
            generator = TraceGenerator(config=config, device_mix=CITY_DEVICE_MIX)
            return state.sim.run_stream(generator.iter_sessions(), config.horizon)

        result, wall = timed(tracer, call)
        return _batch_outcome(state.sim, [result], wall, None)

    def reference(self, loaded) -> List:
        from repro.experiments.config import CITY_DEVICE_MIX
        from repro.sim.engine import SimulationConfig, Simulator
        from repro.trace.generator import TraceGenerator

        trace = TraceGenerator(config=loaded, device_mix=CITY_DEVICE_MIX).generate()
        return [Simulator(SimulationConfig()).run(trace)]


def _store_config(seed: int, region: str, days: int, users: int, catalogue: int, **knobs):
    from repro.trace.synth import SynthConfig

    return SynthConfig(
        region=region,
        seed=seed,
        days=days,
        users=users,
        catalogue_size=catalogue,
        **knobs,
    )


def _reference_runs(loaded: Dict, configs) -> List:
    from repro.sim.engine import Simulator
    from repro.trace.store import StoreReader

    results = []
    for config in configs:
        with StoreReader(loaded["store"]) as reader:
            results.append(
                Simulator(config).run_stream(reader.iter_sessions(), reader.horizon)
            )
    return results


class Store(Workload):
    """A synth city store of ~243K sessions, sorted with spills and a merge."""

    name = "store"
    fused = True
    #: Sort buffer smaller than the trace, so runs spill and k-way merge.
    run_sessions = 50_000

    def prepare(self, seed: int, work: Path, tracer: Tracer) -> Dict:
        config = _store_config(seed, "store", days=30, users=6_500, catalogue=600)
        return synthesize(config, work / "store.store", tracer)

    def setup(self, loaded, work: Path, seconds: float):
        from repro.sim.engine import SimulationConfig, Simulator
        from repro.sim.grouping import ExternalGrouping

        sim = Simulator(
            SimulationConfig(reduction="spill", grouping="external"),
            grouping=ExternalGrouping(run_sessions=self.run_sessions),
        )
        return _State(sim=sim, loaded=loaded)

    def run(self, state, tracer=None) -> Outcome:
        from repro.trace.store import StoreReader

        def call():
            with StoreReader(state.loaded["store"]) as reader:
                return state.sim.run_stream(reader.iter_sessions(), reader.horizon)

        result, wall = timed(tracer, call)
        return _batch_outcome(state.sim, [result], wall, state.loaded["sessions"])

    def reference(self, loaded) -> List:
        from repro.sim.engine import SimulationConfig

        return _reference_runs(loaded, [SimulationConfig()])


class Sweep(Workload):
    """Fig. 4's upload-ratio sweep over a warm shard cache, pure python."""

    name = "sweep"
    compiled = False

    def prepare(self, seed: int, work: Path, tracer: Tracer) -> Dict:
        config = _store_config(seed, "sweep", days=14, users=1_500, catalogue=400)
        return synthesize(config, work / "sweep.store", tracer)

    def configs(self):
        from repro.sim.engine import SimulationConfig

        return [SimulationConfig(upload_ratio=ratio) for ratio in SWEEP_RATIOS]

    def setup(self, loaded, work: Path, seconds: float):
        from repro.sim.engine import SimulationConfig, Simulator
        from repro.trace.store import StoreReader

        shards = tempfile.mkdtemp(prefix="shards-", dir=work)
        # Serial: on a two-core machine a worker pool plus its
        # coordinator measure the scheduler more than the kernel.
        sim = Simulator(
            SimulationConfig(
                backend="serial",
                reduction="streaming",
                grouping="external",
                shard_dir=shards,
            )
        )
        configs = self.configs()
        # Fill the shard cache, so every timed pass is a manifest-only hit.
        with StoreReader(loaded["store"]) as reader:
            plan = sim.grouping.plan(
                reader.iter_sessions(),
                reader.horizon,
                configs[0].policy,
                cache_token=loaded["cache_token"],
            )
            plan.cleanup()
        return _State(sim=sim, loaded=loaded, extra={"configs": configs})

    def run(self, state, tracer=None) -> Outcome:
        from repro.trace.store import StoreReader

        loaded = state.loaded

        def call():
            with StoreReader(loaded["store"]) as reader:
                return state.sim.run_sweep_stream(
                    reader.iter_sessions(),
                    reader.horizon,
                    state.extra["configs"],
                    cache_token=loaded["cache_token"],
                )

        results, wall = timed(tracer, call)
        outcome = _batch_outcome(state.sim, results, wall, loaded["sessions"])
        if state.sim.last_grouping.cache_hit is not True:
            outcome.notes.append("the sweep's grouping missed the warm shard cache")
        return outcome

    def reference(self, loaded) -> List:
        return _reference_runs(loaded, self.configs())


class Service(Workload):
    """A synth city feed replayed open loop through the always-on service."""

    name = "service"
    open_loop = True
    #: Short epochs: 120 per replay, so p90 has 12 samples beyond it.
    epoch_seconds = 3_600.0

    def prepare(self, seed: int, work: Path, tracer: Tracer) -> Dict:
        # Epochs close every --seconds / 120 (0.21 s at 25 s).  Each
        # carries ~300 sessions (~7 ms of work), so latency measures
        # epoch work rather than the few milliseconds a busy machine
        # may take to schedule the process.  A small catalogue on one
        # ISP and a flat daily profile keep the state a checkpoint
        # pickles small (~25 ms, under ~90 ms at worst): a checkpoint
        # that ran into the next epoch's due time would stall it, and
        # p90 would then swing from run to run.
        config = _store_config(
            seed,
            "service",
            days=5,
            users=300,
            catalogue=10,
            sessions_per_user_day=24.0,
            num_isps=1,
            diurnal_strength=0.0,
        )
        inputs = synthesize(config, work / "service.store", tracer)
        # The epoch length shapes the results as much as the feed does.
        inputs["fingerprint"] += f"-epochs-{self.epoch_seconds:g}"
        return inputs

    def load(self, inputs: Dict):
        from repro.trace.store import StoreReader

        with StoreReader(inputs["store"]) as reader:
            sessions = sorted(
                reader.iter_sessions(), key=lambda s: (s.start, s.session_id)
            )
        return dict(inputs, feed=sessions)

    def service_config(self, loaded):
        from repro.sim.engine import SimulationConfig
        from repro.sim.service import ServiceConfig

        return ServiceConfig(
            simulation=SimulationConfig(),
            epoch_seconds=self.epoch_seconds,
            horizon=loaded["horizon"],
        )

    def setup(self, loaded, work: Path, seconds: float):
        from repro.sim.service import SimulationService

        state_dir = tempfile.mkdtemp(prefix="service-state-", dir=work)
        service = SimulationService(self.service_config(loaded), state_dir)
        # Replay the whole feed in ``seconds``: a fixed rate per run length.
        rate = len(loaded["feed"]) / seconds
        return _State(sim=service, loaded=loaded, extra={"rate": rate})

    def run(self, state, tracer=None) -> Outcome:
        service = state.sim
        sessions = state.loaded["feed"]
        feed = OpenLoopFeed(sessions, state.extra["rate"])
        latencies: List[float] = []
        delivered: List = []

        def receive(event) -> None:
            latencies.append(feed.latency())
            if tracer is not None:
                delivered.append((tracer.group, time.perf_counter()))

        service.add_subscriber(receive)
        stream = feed if tracer is None else metered_iter(tracer, "bench.feed", feed)
        _, wall = timed(tracer, lambda: service.run(stream))
        outcome = Outcome(
            results=[service.result()],
            wall=wall,
            latencies=latencies,
            sessions=len(sessions),
            late=service.late_sessions,
            feed_lag=feed.max_lag,
        )
        if service.emitted != len(latencies):
            outcome.notes.append(
                f"{service.emitted} epochs emitted, {len(latencies)} delivered"
            )
        if tracer is not None:
            outcome.epoch_sim = _epoch_sim(tracer, delivered)
        return outcome

    def reference(self, loaded) -> List:
        from repro.sim.engine import Simulator

        config = self.service_config(loaded)
        return [
            Simulator(config.scoped_config).run_stream(
                iter(loaded["feed"]), loaded["horizon"]
            )
        ]


def _epoch_sim(tracer: Tracer, delivered) -> float:
    """Summed seconds from each epoch's grouping start to its delivery."""
    starts: Dict[str, float] = {}
    for node in tracer.nodes:
        if node.name == "grouping.plan":
            starts[node.group] = min(node.start, starts.get(node.group, node.start))
    return sum(at - starts[group] for group, at in delivered if group in starts)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (London(), Store(), Sweep(), Service())
}
