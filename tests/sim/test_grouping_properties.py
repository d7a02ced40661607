"""Property test: grouping strategy x input permutation never changes results.

The out-of-core refactor's core claim, stated as a law and handed to
`hypothesis`: for *any* session multiset and *any* input order, the
memory and external grouping strategies produce bit-for-bit identical
simulation results.  Sessions are drawn with adversarial structure --
shared swarm keys, shared users, ties in start times -- precisely the
cases where a sort/merge bug would reorder the fold.  ``hypothesis``
is an optional dependency: the module skips when it is missing.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import SimulationConfig, Simulator
from repro.sim.grouping import ExternalGrouping, MemoryGrouping
from repro.sim.policies import PAPER_POLICY, EpochPolicy, SwarmPolicy
from repro.topology.nodes import intern_attachment
from repro.trace.diurnal import UK_TV_PROFILE, DiurnalProfile
from repro.trace.events import SECONDS_PER_DAY, Session
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.store import (
    ExternalSessionSorter,
    Extent,
    StoreReader,
    StoreWriter,
)

LAW = settings(
    max_examples=60,  # each example runs four full simulations
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HORIZON = 2 * SECONDS_PER_DAY

#: A deliberately tiny value space so examples collide on swarm keys,
#: users and attachment points -- grouping has real work to do.
_attachments = st.sampled_from(
    [
        intern_attachment("ISP-1", 0, 0),
        intern_attachment("ISP-1", 0, 1),
        intern_attachment("ISP-2", 1, 5),
    ]
)

_session_bodies = st.tuples(
    st.integers(min_value=0, max_value=9),  # user_id
    st.sampled_from(["item-a", "item-b", "item-c"]),  # content_id
    st.integers(min_value=0, max_value=int(HORIZON) - 600),  # start (s)
    st.integers(min_value=60, max_value=600),  # duration (s)
    st.sampled_from([800_000.0, 1_500_000.0]),  # bitrate
    _attachments,
)


@st.composite
def session_lists(draw):
    bodies = draw(st.lists(_session_bodies, min_size=1, max_size=24))
    sessions = [
        Session(
            session_id=index,
            user_id=user_id,
            content_id=content_id,
            start=float(start),
            duration=float(duration),
            bitrate=bitrate,
            attachment=attachment,
        )
        for index, (user_id, content_id, start, duration, bitrate, attachment)
        in enumerate(bodies)
    ]
    permutation = draw(st.permutations(sessions))
    return sessions, permutation


def _run(sessions, grouping, tmp_dir):
    simulator = Simulator(
        SimulationConfig(),
        grouping=(
            ExternalGrouping(shard_dir=tmp_dir, run_sessions=7)
            if grouping == "external"
            else MemoryGrouping()
        ),
    )
    return simulator.run_stream(iter(sessions), HORIZON)


class TestGroupingLaws:
    @LAW
    @given(data=session_lists())
    def test_strategy_and_permutation_invariance(self, data, tmp_path_factory):
        sessions, permutation = data
        tmp_dir = tmp_path_factory.mktemp("shards")
        reference = _run(sessions, "memory", tmp_dir)
        # Memory grouping on the permuted stream.
        assert reference.identical_to(_run(permutation, "memory", tmp_dir))
        # External grouping on both orders (run_sessions=7 forces real
        # spill-and-merge on most examples).
        assert reference.identical_to(_run(sessions, "external", tmp_dir))
        assert reference.identical_to(_run(permutation, "external", tmp_dir))


#: Policies the shard law ranges over: batch keys, and a time-scoped one.
_policies = st.sampled_from(
    [
        PAPER_POLICY,
        SwarmPolicy(split_by_isp=False, split_by_bitrate=False),
        EpochPolicy(PAPER_POLICY, 3_600.0),
    ]
)


def _write(sessions, path, horizon=0.0):
    with StoreWriter(path, horizon=horizon) as writer:
        for session in sessions:
            writer.append(session)
    return path


def _reference_shard(sessions, policy, path):
    """The shard bytes and extents of a plain in-memory sort."""
    ordered = sorted(
        sessions, key=lambda s: (policy.key_for(s).sort_key(), s.start, s.session_id)
    )
    _write(ordered, path, HORIZON)
    extents = []
    for index, session in enumerate(ordered):
        key = policy.key_for(session)
        if extents and extents[-1].key == key:
            last = extents[-1]
            extents[-1] = Extent(key=key, index=last.index, count=last.count + 1)
        else:
            extents.append(Extent(key=key, index=index, count=1))
    return path.read_bytes(), tuple(extents)


class TestShardLaw:
    """The record sorter's shard equals a reference sort, byte for byte.

    The shard cache keys entries on the store version, not on the code
    that sorted them, so a shard cached by an earlier implementation is
    served by a later one: this law pins the bytes and extents every
    implementation must produce.
    """

    @LAW
    @given(
        data=session_lists(),
        policy=_policies,
        run_sessions=st.sampled_from([7, 10**6]),
        intake=st.sampled_from(["iterator", "scan"]),
        consumed=st.integers(min_value=0, max_value=30),
    )
    def test_shard_equals_reference_sort(
        self, data, policy, run_sessions, intake, consumed, tmp_path_factory
    ):
        _, permutation = data
        tmp_dir = tmp_path_factory.mktemp("law")
        grouping = ExternalGrouping(shard_dir=tmp_dir, run_sessions=run_sessions)
        if intake == "iterator":
            remaining = permutation
            plan = grouping.plan(iter(permutation), HORIZON, policy)
        else:
            source = _write(permutation, tmp_dir / "source.store", HORIZON)
            with StoreReader(source) as reader:
                scan = reader.iter_sessions()
                # A scan partly consumed before grouping: only the rest
                # is grouped.
                consumed = min(consumed, len(permutation))
                for _ in range(consumed):
                    next(scan)
                remaining = permutation[consumed:]
                plan = grouping.plan(scan, HORIZON, policy)
        try:
            shard, extents = _reference_shard(
                remaining, policy, tmp_dir / "reference.store"
            )
            with open(plan.manifest.path, "rb") as handle:
                assert handle.read() == shard
            assert plan.manifest.extents == extents
            assert plan.stats().runs_spilled == len(remaining) // run_sessions
        finally:
            plan.cleanup()


#: Night hours with no demand at all.
_DARK_NIGHTS = DiurnalProfile(
    hourly=(0.0,) * 6 + (1.0,) * 12 + (0.5,) * 5 + (0.0,), weekend_multiplier=1.5
)


def _generator(seed, profile, min_session_seconds):
    config = GeneratorConfig(
        num_users=60,
        num_items=6,
        days=1,
        expected_sessions=70,
        min_session_seconds=min_session_seconds,
        seed=seed,
    )
    return TraceGenerator(config=config, profile=profile)


def _shard(plan):
    try:
        with open(plan.manifest.path, "rb") as handle:
            return handle.read(), plan.manifest.extents, plan.stats().runs_spilled
    finally:
        plan.cleanup()


class TestGeneratorIntakeLaw:
    """A generator scan is grouped from raw records, and its shard is
    the one the ``Session`` intake builds from the same sessions."""

    @LAW
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        profile=st.sampled_from([UK_TV_PROFILE, _DARK_NIGHTS]),
        min_session_seconds=st.sampled_from([60.0, 6 * 3_600.0]),
        policy=_policies,
        run_sessions=st.sampled_from([7, 10**6]),
        consumed=st.integers(min_value=0, max_value=40),
    )
    def test_shard_equals_session_intake(
        self,
        seed,
        profile,
        min_session_seconds,
        policy,
        run_sessions,
        consumed,
        tmp_path_factory,
    ):
        generator = _generator(seed, profile, min_session_seconds)
        sessions = list(generator.iter_sessions())
        consumed = min(consumed, len(sessions))
        tmp_dir = tmp_path_factory.mktemp("gen")
        grouping = ExternalGrouping(shard_dir=tmp_dir, run_sessions=run_sessions)
        expected = _shard(
            grouping.plan(iter(sessions[consumed:]), SECONDS_PER_DAY, policy)
        )
        scan = generator.iter_sessions()
        # A scan partly consumed before grouping: the rest is grouped.
        assert [next(scan) for _ in range(consumed)] == sessions[:consumed]
        with pytest.MonkeyPatch.context() as patch:
            # The raw intake never packs a Session.
            patch.delattr(ExternalSessionSorter, "add")
            actual = _shard(grouping.plan(scan, SECONDS_PER_DAY, policy))
        assert actual == expected
        assert expected[2] == (len(sessions) - consumed) // run_sessions

    def test_min_session_seconds_drops_sessions(self):
        """The law's long minimum really drops sessions: every Poisson
        draw is the same, but sessions cut short by the horizon go."""
        kept = len(list(_generator(1, UK_TV_PROFILE, 60.0).iter_sessions()))
        fewer = list(_generator(1, UK_TV_PROFILE, 6 * 3_600.0).iter_sessions())
        assert 0 < len(fewer) < kept
        assert [s.session_id for s in fewer] == list(range(len(fewer)))
