"""Tests for the binary session store and external merge-sort."""

import os
from dataclasses import replace

import pytest

from repro.sim.policies import PAPER_POLICY
from repro.trace.events import Session
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.store import (
    RECORD_SIZE,
    Extent,
    ExternalSessionSorter,
    ShardManifest,
    StoreCorruptionError,
    StoreReader,
    StoreWriter,
    _TAIL,
    clear_reader_cache,
    evict_reader,
    shared_reader,
)


@pytest.fixture(scope="module")
def trace():
    config = GeneratorConfig(
        num_users=150, num_items=15, days=1, expected_sessions=600, seed=11
    )
    return TraceGenerator(config=config).generate()


def write_store(sessions, path, horizon=0.0):
    with StoreWriter(path, horizon=horizon) as writer:
        for session in sessions:
            writer.append(session)
    return path


class TestRoundTrip:
    def test_sessions_bit_for_bit(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store", horizon=trace.horizon)
        with StoreReader(path) as reader:
            loaded = list(reader.iter_sessions())
            assert reader.horizon == trace.horizon
        assert tuple(loaded) == trace.sessions

    def test_fixed_record_size(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        header_and_records = 8 + len(trace) * RECORD_SIZE
        assert path.stat().st_size > header_and_records  # footer follows
        with StoreReader(path) as reader:
            assert len(reader) == len(trace)

    def test_empty_store(self, tmp_path):
        path = write_store([], tmp_path / "empty.store", horizon=86_400.0)
        with StoreReader(path) as reader:
            assert len(reader) == 0
            assert list(reader.iter_sessions()) == []
            assert reader.horizon == 86_400.0

    def test_attachments_interned_on_read(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            loaded = list(reader.iter_sessions())
        by_triple = {}
        for session in loaded:
            a = session.attachment
            triple = (a.isp, a.pop, a.exchange)
            assert by_triple.setdefault(triple, a) is a

    def test_writer_rejects_append_after_close(self, trace, tmp_path):
        writer = StoreWriter(tmp_path / "t.store")
        writer.close()
        with pytest.raises(RuntimeError):
            writer.append(trace.sessions[0])

    def test_writer_rejects_negative_horizon(self, tmp_path):
        with pytest.raises(ValueError):
            StoreWriter(tmp_path / "t.store", horizon=-1.0)


class TestReadRange:
    def test_range_matches_slice(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            assert tuple(reader.read_range(5, 17)) == trace.sessions[5:22]
            assert reader.read_range(0, 0) == []

    def test_out_of_bounds_rejected(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            with pytest.raises(ValueError):
                reader.read_range(0, len(trace) + 1)
            with pytest.raises(ValueError):
                reader.read_range(-1, 1)


class TestCorruption:
    def test_not_a_store(self, tmp_path):
        path = tmp_path / "junk.store"
        path.write_bytes(b"definitely not a session store, not even close")
        with pytest.raises(ValueError, match="magic"):
            StoreReader(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "tiny.store"
        path.write_bytes(b"RPSS")
        with pytest.raises(ValueError, match="truncated"):
            StoreReader(path)

    def test_corruption_error_is_a_value_error(self):
        """Existing ``except ValueError`` call sites keep working."""
        assert issubclass(StoreCorruptionError, ValueError)

    def test_record_region_shorter_than_footer_promises(self, trace, tmp_path):
        """A store missing records fails at open, not with silent short data.

        Drop the first record and repoint the tail at the (now earlier)
        footer: every structural field still parses, but the record
        region no longer holds the count the footer promises -- the
        exact corruption the old masking decode slipped past.
        """
        path = write_store(trace.sessions[:10], tmp_path / "whole.store")
        raw = path.read_bytes()
        footer_offset, magic = _TAIL.unpack(raw[-_TAIL.size :])
        corrupt = (
            raw[:8]
            + raw[8 + RECORD_SIZE : footer_offset]
            + raw[footer_offset : -_TAIL.size]
            + _TAIL.pack(footer_offset - RECORD_SIZE, magic)
        )
        bad = tmp_path / "bad.store"
        bad.write_bytes(corrupt)
        with pytest.raises(StoreCorruptionError, match="promises"):
            StoreReader(bad)

    def test_short_read_after_truncation(self, trace, tmp_path):
        """A store truncated underneath an open reader raises, loudly."""
        path = write_store(trace.sessions[:10], tmp_path / "t.store")
        with StoreReader(path) as reader:
            os.truncate(path, 8 + 5 * RECORD_SIZE)
            with pytest.raises(StoreCorruptionError, match="short read"):
                reader.read_raw_range(0, 10)


class TestRawAndColumnReads:
    def test_raw_range_is_the_exact_record_bytes(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        raw = path.read_bytes()
        with StoreReader(path) as reader:
            assert reader.read_raw_range(3, 4) == raw[
                8 + 3 * RECORD_SIZE : 8 + 7 * RECORD_SIZE
            ]
            assert reader.read_raw_range(0, 0) == b""

    def test_raw_range_bounds_checked(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            with pytest.raises(ValueError):
                reader.read_raw_range(0, len(trace) + 1)
            with pytest.raises(ValueError):
                reader.read_raw_range(-1, 1)

    def test_columns_match_decoded_sessions(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            sessions = reader.read_range(5, 17)
            columns = reader.read_columns(5, 17)
        assert columns.count == 17
        for i, session in enumerate(sessions):
            assert columns.session_ids[i] == session.session_id
            assert columns.user_ids[i] == session.user_id
            assert (
                columns.content_table[columns.content_refs[i]]
                == session.content_id
            )
            assert columns.starts[i] == session.start
            assert columns.durations[i] == session.duration
            assert columns.bitrates[i] == session.bitrate
            attachment = session.attachment
            assert columns.isp_table[columns.isp_refs[i]] == attachment.isp
            assert columns.pops[i] == attachment.pop
            assert columns.exchanges[i] == attachment.exchange
            assert (
                columns.device_table[columns.device_refs[i]] == session.device
            )

    def test_empty_column_read(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            columns = reader.read_columns(4, 0)
        assert columns.count == 0
        assert len(columns.starts) == 0
        assert len(columns.session_ids) == 0


class TestSharedReaderCache:
    def test_same_instance_until_evicted(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        try:
            first = shared_reader(path)
            assert shared_reader(path) is first
            evict_reader(path)
            second = shared_reader(path)
            assert second is not first
        finally:
            clear_reader_cache()

    def test_clear_cache(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        reader = shared_reader(path)
        clear_reader_cache()
        assert shared_reader(path) is not reader
        clear_reader_cache()

    def test_cache_is_bounded_lru(self, trace, tmp_path):
        """Persistent pool workers see a fresh shard per run: the cache
        must close least-recently-used readers instead of pinning one
        open fd per run forever."""
        from repro.trace.store import _READER_CACHE, _READER_CACHE_MAX

        clear_reader_cache()
        try:
            readers = []
            for i in range(_READER_CACHE_MAX + 3):
                path = write_store(trace.sessions[:5], tmp_path / f"s{i}.store")
                readers.append(shared_reader(path))
            assert len(_READER_CACHE) == _READER_CACHE_MAX
            # The overflow evicted the oldest readers and closed them.
            assert all(r._closed for r in readers[:3])
            assert not readers[-1]._closed
            # A cache hit refreshes recency: touching the oldest
            # survivor keeps it alive through the next eviction.
            survivor = readers[3]
            assert shared_reader(survivor.path) is survivor
            extra = write_store(trace.sessions[:5], tmp_path / "extra.store")
            shared_reader(extra)
            assert not survivor._closed
        finally:
            clear_reader_cache()


class TestManifest:
    def test_extent_geometry(self):
        extent = Extent(key="k", index=3, count=7)
        assert extent.offset == 8 + 3 * RECORD_SIZE
        assert extent.length == 7 * RECORD_SIZE

    def test_iter_groups_round_trip(self, trace, tmp_path):
        # Sort by the paper policy's swarm key and cut extents by key.
        keyed = sorted(
            trace.sessions,
            key=lambda s: (
                PAPER_POLICY.key_for(s).sort_key(),
                s.start,
                s.session_id,
            ),
        )
        path = write_store(keyed, tmp_path / "sorted.store", trace.horizon)
        extents = []
        start = 0
        for i in range(1, len(keyed) + 1):
            if i == len(keyed) or PAPER_POLICY.key_for(keyed[i]) != PAPER_POLICY.key_for(
                keyed[start]
            ):
                extents.append(
                    Extent(
                        key=PAPER_POLICY.key_for(keyed[start]),
                        index=start,
                        count=i - start,
                    )
                )
                start = i
        manifest = ShardManifest(
            path=str(path), horizon=trace.horizon, extents=tuple(extents)
        )
        try:
            assert manifest.num_sessions == len(trace)
            rebuilt = []
            for key, sessions in manifest.iter_groups():
                assert all(PAPER_POLICY.key_for(s) == key for s in sessions)
                rebuilt.extend(sessions)
            assert rebuilt == keyed
        finally:
            evict_reader(path)


def sort_key(session: Session):
    return (
        PAPER_POLICY.key_for(session).sort_key(),
        session.start,
        session.session_id,
    )


def sorted_sessions(sorter, path):
    """Drain ``sorter.finish()`` into a store at ``path``; decode it."""
    with StoreWriter(path) as writer:
        for chunk in sorter.finish():
            writer.append(chunk, sorter.tables)
    with StoreReader(path) as reader:
        return list(reader.iter_sessions())


def expected_groups(sessions):
    """``(key, count)`` per group of an already sorted session list."""
    groups = []
    for session in sessions:
        key = PAPER_POLICY.key_for(session)
        if groups and groups[-1][0] == key:
            groups[-1][1] += 1
        else:
            groups.append([key, 1])
    return [tuple(group) for group in groups]


class TestExternalSorter:
    def test_sorted_output_with_spilling(self, trace, tmp_path):
        sorter = ExternalSessionSorter(PAPER_POLICY, tmp_path, run_sessions=50)
        sorter.extend(trace.sessions)
        merged = sorted_sessions(sorter, tmp_path / "sorted.store")
        reference = sorted(trace.sessions, key=sort_key)
        assert merged == reference
        assert sorter.groups() == expected_groups(reference)
        stats = sorter.stats
        assert stats.sessions == len(trace)
        assert stats.runs_spilled == len(trace) // 50
        assert stats.peak_buffered <= 50
        assert stats.latest_end == max(s.end for s in trace.sessions)
        # Run files are removed once the merge completes.
        assert list(tmp_path.glob("run-*.store")) == []

    def test_no_spill_when_buffer_fits(self, trace, tmp_path):
        sorter = ExternalSessionSorter(PAPER_POLICY, tmp_path, run_sessions=10**6)
        sorter.extend(trace.sessions)
        merged = sorted_sessions(sorter, tmp_path / "sorted.store")
        assert merged == sorted(trace.sessions, key=sort_key)
        assert sorter.stats.runs_spilled == 0

    def test_order_independent_of_input_permutation(self, trace, tmp_path):
        forward = ExternalSessionSorter(PAPER_POLICY, tmp_path / "a", run_sessions=64)
        forward.extend(trace.sessions)
        backward = ExternalSessionSorter(PAPER_POLICY, tmp_path / "b", run_sessions=64)
        backward.extend(reversed(trace.sessions))
        assert sorted_sessions(forward, tmp_path / "a.store") == sorted_sessions(
            backward, tmp_path / "b.store"
        )
        assert forward.groups() == backward.groups()

    def test_add_after_finish_rejected(self, trace, tmp_path):
        sorter = ExternalSessionSorter(PAPER_POLICY, tmp_path, run_sessions=10)
        sorter.add(trace.sessions[0])
        list(sorter.finish())
        with pytest.raises(RuntimeError):
            sorter.add(trace.sessions[1])
        with pytest.raises(RuntimeError):
            sorter.add_records(b"")
        with pytest.raises(RuntimeError):
            list(sorter.finish())

    def test_rejects_bad_run_sessions(self, tmp_path):
        with pytest.raises(ValueError):
            ExternalSessionSorter(PAPER_POLICY, tmp_path, run_sessions=0)

    def test_spilled_runs_are_sorted_stores(self, trace, tmp_path):
        sorter = ExternalSessionSorter(PAPER_POLICY, tmp_path, run_sessions=100)
        sorter.extend(trace.sessions[:250])
        runs = sorted(tmp_path.glob("run-*.store"))
        assert len(runs) == 2
        for run in runs:
            with StoreReader(run) as reader:
                sessions = list(reader.iter_sessions())
            assert len(sessions) == 100
            assert sessions == sorted(sessions, key=sort_key)
        list(sorter.finish())

    @pytest.mark.parametrize("run_sessions", [37, 10**6])
    def test_raw_intake_equals_session_intake(self, trace, tmp_path, run_sessions):
        source = write_store(trace, tmp_path / "source.store", trace.horizon)
        by_session = ExternalSessionSorter(
            PAPER_POLICY, tmp_path / "s", run_sessions=run_sessions
        )
        by_session.extend(trace.sessions)
        with StoreReader(source) as reader:
            by_record = ExternalSessionSorter(
                PAPER_POLICY,
                tmp_path / "r",
                run_sessions=run_sessions,
                tables=reader.tables,
            )
            for chunk in reader.iter_sessions().raw_chunks():
                by_record.add_records(chunk)
        a = sorted_sessions(by_session, tmp_path / "a.store")
        b = sorted_sessions(by_record, tmp_path / "b.store")
        assert a == b == sorted(trace.sessions, key=sort_key)
        assert (tmp_path / "a.store").read_bytes() == (
            tmp_path / "b.store"
        ).read_bytes()
        assert by_session.groups() == by_record.groups()
        assert by_session.stats == by_record.stats


    def test_negative_zero_start_sorts_as_zero(self, trace, tmp_path):
        # -0.0 == 0.0, so the session id alone orders these two.
        first, second = (
            replace(trace.sessions[0], session_id=sid, start=start)
            for sid, start in ((1, -0.0), (2, 0.0))
        )
        sorter = ExternalSessionSorter(PAPER_POLICY, tmp_path, run_sessions=10)
        sorter.extend([second, first])
        merged = sorted_sessions(sorter, tmp_path / "sorted.store")
        assert [s.session_id for s in merged] == [1, 2]


class TestStoreScan:
    def test_position_tracks_what_was_yielded(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            scan = reader.iter_sessions()
            assert scan.reader is reader and scan.position == 0
            head = [next(scan) for _ in range(5)]
            assert head == list(trace.sessions[:5])
            assert scan.position == 5
            assert list(scan) == list(trace.sessions[5:])
            assert scan.position == len(trace)

    def test_raw_chunks_resume_where_sessions_stopped(self, trace, tmp_path):
        path = write_store(trace, tmp_path / "t.store")
        with StoreReader(path) as reader:
            scan = reader.iter_sessions()
            for _ in range(7):
                next(scan)
            raw = b"".join(scan.raw_chunks())
            assert raw == reader.read_raw_range(7, len(trace) - 7)
            # The chunks consumed the scan.
            assert scan.position == len(trace)
            assert list(scan) == []


class TestAppendRawRecords:
    def test_bytes_equal_appending_sessions(self, trace, tmp_path):
        source = write_store(trace, tmp_path / "source.store", trace.horizon)
        order = sorted(range(len(trace)), key=lambda i: sort_key(trace.sessions[i]))
        expected = write_store(
            [trace.sessions[i] for i in order], tmp_path / "expected.store"
        )
        with StoreReader(source) as reader:
            raws = [reader.read_raw_range(i, 1) for i in range(len(reader))]
            with StoreWriter(tmp_path / "repacked.store") as writer:
                for start in range(0, len(order), 100):
                    chunk = b"".join(raws[i] for i in order[start : start + 100])
                    assert writer.append(chunk, reader.tables) == start
        assert (tmp_path / "repacked.store").read_bytes() == expected.read_bytes()

    def test_rejects_append_after_close(self, tmp_path):
        writer = StoreWriter(tmp_path / "t.store")
        writer.close()
        with pytest.raises(RuntimeError):
            writer.append(b"", ([], [], []))
