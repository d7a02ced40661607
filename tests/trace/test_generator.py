"""Tests for the synthetic trace generator."""

import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.diurnal import FLAT_PROFILE
from repro.trace.events import SECONDS_PER_DAY
from repro.trace.generator import (
    GeneratorConfig,
    GeneratorScan,
    TraceGenerator,
    beta_sampler,
    generate_trace,
    sample_poisson,
)
from repro.trace.store import RECORD_SIZE, RecordScan, StoreReader, StoreWriter


SMALL = GeneratorConfig(
    num_users=800,
    num_items=100,
    days=3,
    expected_sessions=4_000,
    seed=11,
)


@pytest.fixture(scope="module")
def small_trace():
    return TraceGenerator(config=SMALL).generate()


class TestSamplePoisson:
    def test_zero_lambda(self):
        assert sample_poisson(random.Random(1), 0.0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_poisson(random.Random(1), -1.0)

    @pytest.mark.parametrize("lam", [0.5, 3.0, 25.0, 100.0, 5_000.0])
    def test_mean_and_variance(self, lam):
        rng = random.Random(42)
        n = 4_000
        draws = [sample_poisson(rng, lam) for _ in range(n)]
        mean = sum(draws) / n
        var = sum((d - mean) ** 2 for d in draws) / n
        assert mean == pytest.approx(lam, rel=0.1)
        assert var == pytest.approx(lam, rel=0.25)

    @given(lam=st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=50)
    def test_nonnegative_int(self, lam):
        value = sample_poisson(random.Random(0), lam)
        assert isinstance(value, int)
        assert value >= 0


class TestGeneratorConfig:
    def test_horizon(self):
        assert SMALL.horizon == 3 * SECONDS_PER_DAY

    def test_scaled(self):
        big = GeneratorConfig(pinned_views={"hit": 100.0})
        half = big.scaled(0.5)
        assert half.num_users == big.num_users // 2
        assert half.expected_sessions == pytest.approx(big.expected_sessions / 2)
        assert half.pinned_views["hit"] == pytest.approx(50.0)
        assert half.days == big.days  # time axis untouched

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            SMALL.scaled(0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_users": 0},
            {"num_items": 0},
            {"days": 0},
            {"expected_sessions": -1.0},
            {"completion_alpha": 0.0},
            {"min_session_seconds": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)


class TestGeneratedTrace:
    def test_session_count_near_expectation(self, small_trace):
        # Poisson totals plus the min-duration filter: within ~10 %.
        assert len(small_trace) == pytest.approx(4_000, rel=0.1)

    def test_sessions_within_horizon(self, small_trace):
        assert all(s.start >= 0 for s in small_trace)
        assert all(s.end <= small_trace.horizon + 1e-6 for s in small_trace)

    def test_durations_respect_minimum(self, small_trace):
        assert all(s.duration >= SMALL.min_session_seconds for s in small_trace)

    def test_durations_bounded_by_longest_programme(self, small_trace):
        assert all(s.duration <= 5_400.0 + 1e-6 for s in small_trace)

    def test_bitrates_from_device_mix(self, small_trace):
        bitrates = {s.bitrate for s in small_trace}
        assert bitrates <= {0.8e6, 1.5e6, 3.0e6, 5.0e6}

    def test_users_come_from_population(self, small_trace):
        assert all(0 <= s.user_id < SMALL.num_users for s in small_trace)

    def test_user_attachment_consistent(self, small_trace):
        """A user keeps one attachment point across all their sessions."""
        seen = {}
        for s in small_trace:
            if s.user_id in seen:
                assert seen[s.user_id] == s.attachment
            else:
                seen[s.user_id] = s.attachment

    def test_popularity_skew_realised(self, small_trace):
        views = Counter(s.content_id for s in small_trace)
        top = views.most_common(1)[0][1]
        median = sorted(views.values())[len(views) // 2]
        assert top > 5 * median

    def test_deterministic(self):
        a = TraceGenerator(config=SMALL).generate()
        b = TraceGenerator(config=SMALL).generate()
        assert len(a) == len(b)
        assert a.sessions[:50] == b.sessions[:50]
        assert a.sessions[-1] == b.sessions[-1]

    def test_seed_changes_trace(self):
        other = TraceGenerator(config=GeneratorConfig(
            num_users=SMALL.num_users,
            num_items=SMALL.num_items,
            days=SMALL.days,
            expected_sessions=SMALL.expected_sessions,
            seed=99,
        )).generate()
        base = TraceGenerator(config=SMALL).generate()
        assert base.sessions[:20] != other.sessions[:20]

    def test_pinned_item_views(self):
        config = GeneratorConfig(
            num_users=500,
            num_items=20,
            days=2,
            expected_sessions=3_000,
            pinned_views={"exemplar": 1_000.0},
            seed=5,
        )
        trace = TraceGenerator(config=config).generate()
        views = Counter(s.content_id for s in trace)
        assert views["exemplar"] == pytest.approx(1_000, rel=0.15)

    def test_diurnal_shape_respected(self):
        trace = TraceGenerator(config=SMALL).generate()
        hours = Counter(int((s.start % SECONDS_PER_DAY) // 3600) for s in trace)
        assert hours[21] > 3 * max(hours[3], 1)

    def test_flat_profile_option(self):
        trace = TraceGenerator(config=SMALL, profile=FLAT_PROFILE).generate()
        hours = Counter(int((s.start % SECONDS_PER_DAY) // 3600) for s in trace)
        assert max(hours.values()) < 3 * min(hours.values())


class TestGenerateTraceHelper:
    def test_defaults_smoke(self):
        config = GeneratorConfig(
            num_users=200, num_items=20, days=1, expected_sessions=500, seed=1
        )
        trace = generate_trace(config)
        assert len(trace) > 300
        assert trace.num_days == 1


class TestIterSessions:
    def test_stream_equals_generated_trace(self):
        """iter_sessions is the lazy twin of generate(): identical
        sessions, identical order of RNG consumption."""
        gen = TraceGenerator(config=SMALL)
        streamed = list(gen.iter_sessions())
        materialized = TraceGenerator(config=SMALL).generate()
        assert sorted(streamed, key=lambda s: (s.start, s.session_id)) == list(
            materialized.sessions
        )

    def test_stream_is_lazy(self):
        gen = TraceGenerator(config=SMALL)
        iterator = gen.iter_sessions()
        first = next(iterator)
        assert first.session_id == 0

    def test_stream_is_restartable(self):
        gen = TraceGenerator(config=SMALL)
        assert list(gen.iter_sessions()) == list(gen.iter_sessions())


class TestAttachmentInterning:
    """The flyweight satellite: per-session attachments share identity.

    Attachment points are interned per (ISP, PoP, exchange) triple
    (repro.topology.nodes.intern_attachment), so a month-scale trace
    holds thousands of shared attachment objects instead of millions of
    duplicates -- without consuming any randomness (the RNG streams,
    and hence every generated session, are unchanged; the golden
    fixtures in tests/golden/ pin that down to the bit).
    """

    def test_generated_attachments_share_identity(self):
        trace = TraceGenerator(config=SMALL).generate()
        by_triple = {}
        for session in trace:
            a = session.attachment
            assert by_triple.setdefault((a.isp, a.pop, a.exchange), a) is a
        # Far fewer distinct objects than sessions: the point of the
        # flyweight.
        assert len({id(s.attachment) for s in trace}) == len(by_triple)
        assert len(by_triple) < len(trace)

    def test_interning_is_identity_stable(self):
        from repro.topology.nodes import AttachmentPoint, intern_attachment

        a = intern_attachment("ISP-1", 2, 30)
        b = intern_attachment("ISP-1", 2, 30)
        assert a is b
        assert a == AttachmentPoint(isp="ISP-1", pop=2, exchange=30)
        assert intern_attachment("ISP-2", 2, 30) is not a

    def test_rng_streams_unchanged_by_interning(self):
        """Interning consumes no randomness: two generators with the
        same seed still produce identical traces (the regression this
        satellite guards -- a cache that drew from an RNG would skew
        every downstream stream)."""
        first = TraceGenerator(config=SMALL).generate()
        second = TraceGenerator(config=SMALL).generate()
        assert first.sessions == second.sessions


class TestBetaSampler:
    """The inlined sampler is ``rng.betavariate``, draw for draw."""

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 6.0, 40.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.0000001, 2.0, 25.0])
    def test_same_floats_and_same_rng_state(self, alpha, beta):
        for seed in (0, 1, 20180701):
            inlined, stock = random.Random(seed), random.Random(seed)
            draw = beta_sampler(inlined, alpha, beta)
            for k in (0, 1, 7, 300):
                drawn = list(draw(k))
                assert drawn == [stock.betavariate(alpha, beta) for _ in range(k)]
            assert inlined.getstate() == stock.getstate()

    def test_draws_as_values_are_consumed(self):
        """Each value is drawn when it is consumed, so other draws from
        the same RNG in between see the stream they would see between
        ``betavariate`` calls."""
        inlined, stock = random.Random(3), random.Random(3)
        values = beta_sampler(inlined, 6.0, 2.0)(50)
        for _ in range(50):
            assert next(values) == stock.betavariate(6.0, 2.0)
            assert inlined.random() == stock.random()
        assert next(values, None) is None
        assert inlined.getstate() == stock.getstate()


class TestGeneratorScan:
    """``iter_sessions`` returns a resumable record scan."""

    def test_is_a_record_scan_hooked_by_name(self):
        scan = TraceGenerator(config=SMALL).iter_sessions()
        assert isinstance(scan, GeneratorScan) and isinstance(scan, RecordScan)
        # Benchmarks wrap the method by name on the class.
        assert callable(TraceGenerator.__dict__["iter_sessions"])

    def test_raw_chunks_are_the_sessions_records(self, small_trace, tmp_path):
        scan = TraceGenerator(config=SMALL).iter_sessions()
        tables = tuple(list(table) for table in scan.tables)
        raw = list(scan.raw_chunks())
        # The tables were complete before the first chunk.
        assert tuple(list(table) for table in scan.tables) == tables
        assert all(0 < len(chunk) <= 1024 * RECORD_SIZE for chunk in raw)
        path = tmp_path / "raw.store"
        with StoreWriter(path, horizon=SMALL.horizon) as writer:
            for chunk in raw:
                writer.append(chunk, tables)
        with StoreReader(path) as reader:
            decoded = reader.read_range(0, len(reader))
        assert decoded == list(TraceGenerator(config=SMALL).iter_sessions())
        assert sorted(decoded, key=lambda s: (s.start, s.session_id)) == list(
            small_trace.sessions
        )

    def test_chunks_hold_at_most_1024_records(self):
        config = GeneratorConfig(
            num_users=500, num_items=3, days=2, expected_sessions=3_000, seed=4
        )
        raw = list(TraceGenerator(config=config).iter_sessions().raw_chunks())
        assert len(raw) >= 3
        assert {len(chunk) for chunk in raw[:-1]} == {1024 * RECORD_SIZE}

    @pytest.mark.parametrize("consumed", [0, 1, 999])
    def test_raw_chunks_resume_at_the_next_unyielded_session(self, consumed):
        gen = TraceGenerator(config=SMALL)
        scan = gen.iter_sessions()
        head = [next(scan) for _ in range(consumed)]
        rest = b"".join(scan.raw_chunks())
        sessions = list(gen.iter_sessions())
        assert head == sessions[:consumed]
        assert len(rest) == (len(sessions) - consumed) * RECORD_SIZE
        first = int.from_bytes(rest[:8], "little", signed=True)
        assert first == sessions[consumed].session_id
        # The chunks consumed the scan.
        assert list(scan) == []

    def test_drops_users_and_catalogue_once_columns_are_built(self):
        alive = []

        class Watched(TraceGenerator):
            def build_catalogue(self):
                catalogue = super().build_catalogue()
                alive.append(weakref.ref(catalogue.items[0]))
                return catalogue

            def build_population(self):
                population = super().build_population()
                alive.append(weakref.ref(population.users[0]))
                return population

        scan = Watched(config=SMALL).iter_sessions()
        assert scan.tables[0]
        gc.collect()
        assert len(alive) == 2
        assert all(ref() is None for ref in alive)
        assert next(scan).session_id == 0
