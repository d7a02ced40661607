"""Grouping strategies: external == memory, bit for bit, lazily.

The out-of-core grouping contract (repro/sim/grouping.py): the external
merge-sort strategy must produce the *identical* canonical task
sequence the in-memory grouping produces -- same keys, same session
order inside each task -- so every downstream result is bit-for-bit
equal; its coordinator residency must be bounded by the sort buffer;
and its plan must hand workers extent refs, not pickled sessions.
"""

import json
import struct

import pytest

from repro.sim import SimulationConfig, Simulator, simulate
from repro.sim.backends import SerialBackend
from repro.sim.grouping import (
    GROUPING_MODES,
    ExtentTaskRef,
    ExternalGrouping,
    MemoryGrouping,
    as_task_plan,
    plan_handoff,
    resolve_grouping,
)
from repro.sim.kernel import SwarmTask, build_tasks, resolve_task
from repro.sim.policies import PAPER_POLICY, EpochPolicy, SwarmKey, SwarmPolicy
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.store import _TAIL, StoreCorruptionError, StoreReader, StoreWriter


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=250, num_items=20, days=2, expected_sessions=2_000, seed=23
    )
    return TraceGenerator(config=config).generate()


def assert_same_tasks(a, b):
    """Two task sequences are identical: keys, sessions, horizons."""
    a, b = list(a), list(b)
    assert len(a) == len(b)
    for task_a, task_b in zip(a, b):
        assert task_a.key == task_b.key
        assert task_a.horizon == task_b.horizon
        assert task_a.sessions == task_b.sessions


class TestPlanEquivalence:
    @pytest.mark.parametrize(
        "policy",
        [
            PAPER_POLICY,
            SwarmPolicy(split_by_isp=False),
            SwarmPolicy(split_by_bitrate=False),
            SwarmPolicy(split_by_isp=False, split_by_bitrate=False),
            EpochPolicy(PAPER_POLICY, 3600.0),
        ],
        ids=["paper", "cross-isp", "mixed-bitrate", "content-only", "epoch"],
    )
    def test_external_tasks_equal_memory_tasks(self, trace, tmp_path, policy):
        memory = MemoryGrouping().plan(trace, trace.horizon, policy)
        external = ExternalGrouping(shard_dir=tmp_path, run_sessions=128).plan(
            trace, trace.horizon, policy
        )
        try:
            assert len(external) == len(memory)
            assert list(external.session_counts) == list(memory.session_counts)
            assert_same_tasks(memory.iter_tasks(), external.iter_tasks())
        finally:
            external.cleanup()

    def test_external_plan_independent_of_input_order(self, trace, tmp_path):
        forward = ExternalGrouping(shard_dir=tmp_path / "f", run_sessions=100).plan(
            iter(trace.sessions), trace.horizon, PAPER_POLICY
        )
        backward = ExternalGrouping(shard_dir=tmp_path / "b", run_sessions=100).plan(
            reversed(trace.sessions), trace.horizon, PAPER_POLICY
        )
        try:
            assert_same_tasks(forward.iter_tasks(), backward.iter_tasks())
        finally:
            forward.cleanup()
            backward.cleanup()

    def test_refs_are_extents_not_sessions(self, trace, tmp_path):
        plan = ExternalGrouping(shard_dir=tmp_path, run_sessions=256).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        try:
            refs = plan.refs()
            assert refs and all(isinstance(ref, ExtentTaskRef) for ref in refs)
            # The handoff contract: a ref pickles small and resolves to
            # the full task on the other side.
            import pickle

            ref = max(refs, key=lambda r: r.num_sessions)
            assert len(pickle.dumps(ref)) < 1_000
            task = resolve_task(pickle.loads(pickle.dumps(ref)))
            assert isinstance(task, SwarmTask)
            assert task.num_sessions == ref.num_sessions
            assert all(PAPER_POLICY.key_for(s) == ref.key for s in task.sessions)
        finally:
            plan.cleanup()

    def test_extent_refs_expose_byte_extents(self, trace, tmp_path):
        plan = ExternalGrouping(shard_dir=tmp_path, run_sessions=256).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        try:
            manifest = plan.manifest
            offsets = [extent.offset for extent in manifest.extents]
            lengths = [extent.length for extent in manifest.extents]
            # Extents tile the record region contiguously.
            for i in range(1, len(offsets)):
                assert offsets[i] == offsets[i - 1] + lengths[i - 1]
        finally:
            plan.cleanup()

    def test_peak_buffered_bounded_by_run_sessions(self, trace, tmp_path):
        plan = ExternalGrouping(shard_dir=tmp_path, run_sessions=64).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        try:
            stats = plan.stats()
            assert stats.mode == "external"
            assert stats.sessions == len(trace)
            assert 0 < stats.peak_buffered_sessions <= 64
            assert stats.runs_spilled == len(trace) // 64
            assert stats.shard_path is not None
        finally:
            plan.cleanup()

    def test_memory_plan_reports_full_residency(self, trace):
        plan = MemoryGrouping().plan(trace, trace.horizon, PAPER_POLICY)
        stats = plan.stats()
        assert stats.mode == "memory"
        assert stats.peak_buffered_sessions == len(trace)
        assert stats.sessions == len(trace)


class TestErrorContract:
    """External grouping mirrors build_tasks' validation exactly."""

    def test_rejects_nonpositive_horizon(self, tmp_path):
        with pytest.raises(ValueError):
            ExternalGrouping(shard_dir=tmp_path).plan(iter([]), 0.0, PAPER_POLICY)

    def test_rejects_sessions_past_horizon(self, trace, tmp_path):
        with pytest.raises(ValueError, match="horizon"):
            ExternalGrouping(shard_dir=tmp_path).plan(
                iter(trace.sessions), trace.horizon / 4, PAPER_POLICY
            )
        # No half-built shard directory survives the failure.
        assert list(tmp_path.iterdir()) == []

    def test_rejects_bad_run_sessions(self):
        with pytest.raises(ValueError):
            ExternalGrouping(run_sessions=0)

    def test_rejects_keys_sharing_a_sort_key(self, trace, tmp_path):
        class Colliding(SwarmPolicy):
            """Keys ``isp=None`` and ``isp=""``: distinct, same sort key."""

            def key_for(self, session):
                isp = None if session.isp == trace.isps[0] else ""
                return SwarmKey(content_id=session.content_id, isp=isp)

        with pytest.raises(ValueError, match="sort_key"):
            ExternalGrouping(shard_dir=tmp_path, run_sessions=100).plan(
                iter(trace.sessions), trace.horizon, Colliding()
            )


def write_store(sessions, path, horizon):
    with StoreWriter(path, horizon=horizon) as writer:
        for session in sessions:
            writer.append(session)
    return path


#: Byte offsets of the float fields inside one 56 B store record.
_FIELD_OFFSETS = {"start": 20, "duration": 28, "bitrate": 36}


def patch_record(path, index, field, value):
    """Overwrite one float field of one record in place."""
    with open(path, "r+b") as handle:
        handle.seek(8 + index * 56 + _FIELD_OFFSETS[field])
        handle.write(struct.pack("<d", value))


def blank_content_id(path):
    """Rewrite the footer so the first content id is the empty string."""
    data = path.read_bytes()
    footer_offset, magic = _TAIL.unpack(data[-_TAIL.size :])
    footer = json.loads(data[footer_offset : -_TAIL.size])
    footer["content"][0] = ""
    path.write_bytes(
        data[:footer_offset]
        + json.dumps(footer).encode("utf-8")
        + _TAIL.pack(footer_offset, magic)
    )


class TestRawIntakeValidation:
    """The store intake rejects exactly the records a Session rejects."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("start", -1.0),
            ("duration", 0.0),
            ("duration", -5.0),
            ("bitrate", 0.0),
            ("bitrate", -1.0),
        ],
    )
    def test_rejects_patched_field(self, trace, tmp_path, field, value):
        path = write_store(trace, tmp_path / "bad.store", trace.horizon)
        patch_record(path, len(trace) // 2, field, value)
        self.assert_rejected(path, trace.horizon, tmp_path, f"{field} must be")

    def test_rejects_empty_content_id(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "bad.store", trace.horizon)
        blank_content_id(path)
        self.assert_rejected(path, trace.horizon, tmp_path, "content_id")

    def test_rejects_sessions_past_horizon(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store", trace.horizon)
        self.assert_rejected(path, trace.horizon / 4, tmp_path, "horizon")

    def test_rejects_refs_outside_the_tables(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "bad.store", trace.horizon)
        with open(path, "r+b") as handle:
            handle.seek(8 + 3 * 56 + 16)  # record 3's content ref
            handle.write(struct.pack("<I", 10**6))
        with StoreReader(path) as reader:
            with pytest.raises(StoreCorruptionError):
                ExternalGrouping(shard_dir=tmp_path, run_sessions=100).plan(
                    reader.iter_sessions(), trace.horizon, PAPER_POLICY
                )

    @staticmethod
    def assert_rejected(path, horizon, tmp_path, match):
        shards = tmp_path / "shards"
        with StoreReader(path) as reader:
            with pytest.raises(ValueError, match=match):
                ExternalGrouping(shard_dir=shards, run_sessions=100).plan(
                    reader.iter_sessions(), horizon, PAPER_POLICY
                )
            if match != "horizon":
                # Decoding the same store into sessions agrees.
                with pytest.raises(ValueError, match=match):
                    list(reader.iter_sessions())
        # No half-built work directory survives the failure.
        assert list(shards.glob("group-*")) == []


class TestCleanup:
    def test_temp_shard_removed_on_cleanup(self, trace):
        import os

        plan = ExternalGrouping(run_sessions=256).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        shard_path = plan.manifest.path
        assert os.path.exists(shard_path)
        plan.cleanup()
        assert not os.path.exists(shard_path)
        assert plan.stats().shard_path is None

    def test_explicit_shard_dir_survives_cleanup(self, trace, tmp_path):
        import os

        plan = ExternalGrouping(shard_dir=tmp_path, run_sessions=256).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        shard_path = plan.manifest.path
        plan.cleanup()
        assert os.path.exists(shard_path)
        assert plan.stats().shard_path == shard_path

    def test_simulator_cleans_temporary_shard(self, trace):
        import os

        simulator = Simulator(
            SimulationConfig(grouping="external"),
            backend=SerialBackend(),
        )
        result = simulator.run(trace)
        stats = simulator.last_grouping
        assert stats is not None and stats.mode == "external"
        assert stats.shard_path is None  # temporary shard is gone
        assert result.identical_to(simulate(trace))

    def test_simulator_keeps_explicit_shard(self, trace, tmp_path):
        import os

        config = SimulationConfig(grouping="external", shard_dir=str(tmp_path))
        simulator = Simulator(config, backend=SerialBackend())
        simulator.run(trace)
        stats = simulator.last_grouping
        assert stats is not None and stats.shard_path is not None
        assert os.path.exists(stats.shard_path)


class TestResolution:
    def test_resolve_names(self):
        assert isinstance(resolve_grouping(None), MemoryGrouping)
        assert isinstance(resolve_grouping("memory"), MemoryGrouping)
        external = resolve_grouping("external", shard_dir="/tmp/x")
        assert isinstance(external, ExternalGrouping)
        assert str(external.shard_dir) == "/tmp/x"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_grouping("quantum")

    def test_config_validates_grouping(self):
        with pytest.raises(ValueError):
            SimulationConfig(grouping="quantum")
        with pytest.raises(ValueError):
            SimulationConfig(shard_dir="/tmp/x")  # requires external
        assert SimulationConfig(grouping="external").grouping == "external"
        assert "memory" in GROUPING_MODES and "external" in GROUPING_MODES

    def test_simulator_caches_resolved_grouping(self):
        simulator = Simulator(SimulationConfig(grouping="external"))
        assert simulator.grouping is simulator.grouping
        assert isinstance(simulator.grouping, ExternalGrouping)

    def test_as_task_plan_wraps_sequences(self, trace):
        tasks = build_tasks(trace, trace.horizon, PAPER_POLICY)
        plan = as_task_plan(tasks)
        assert len(plan) == len(tasks)
        assert list(plan.iter_tasks()) == tasks
        assert as_task_plan(plan) is plan


class TestPlanHandoff:
    """plan_handoff: the JSON-able shard/manifest description the
    distributed backend publishes beside each job's work items."""

    def test_memory_plan_has_no_shard(self, trace):
        plan = MemoryGrouping().plan(trace, trace.horizon, PAPER_POLICY)
        payload = plan_handoff(plan)
        assert payload["mode"] == "memory"
        assert payload["tasks"] == len(plan)
        assert payload["sessions"] == len(trace)
        assert payload["shard"] is None
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_external_plan_references_the_shard(self, trace, tmp_path):
        plan = ExternalGrouping(shard_dir=tmp_path).plan(
            trace, trace.horizon, PAPER_POLICY
        )
        try:
            payload = plan_handoff(plan)
            assert payload["mode"] == "external"
            assert payload["shard"] is not None
            assert payload["shard"]["path"] == plan.manifest.path
            assert payload["shard"]["extents"] == len(plan)
            assert payload["shard"]["horizon"] == trace.horizon
            json.dumps(payload)
        finally:
            plan.cleanup()
