"""docs/STORE_FORMAT.md round-trips: the spec is sufficient to write.

``write_store_from_the_doc`` below is a third-party writer implemented
from docs/STORE_FORMAT.md **alone** -- plain ``struct`` and ``json``,
no imports from :mod:`repro.trace.store` (the reader side only comes in
to verify the file).  If the doc drifts from the code, either the
round-trip here breaks (doc describes bytes the reader rejects) or the
doc-content assertions break (code changed under an unchanged doc).
"""

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.trace.store import STORE_VERSION, StoreCorruptionError, StoreReader

DOC = Path(__file__).resolve().parents[2] / "docs" / "STORE_FORMAT.md"

# ----------------------------------------------------------------------
# The writer, transcribed from the doc (and nothing else)
# ----------------------------------------------------------------------

#: Each session a caller supplies: (session_id, user_id, content_id,
#: start, duration, bitrate, isp, pop, exchange, device).
ROWS = [
    (1, 10, "east/c00000.g0", 0.0, 1800.0, 5.0e6, "east/isp-0", 0, 3, "tv"),
    (2, 11, "east/c00001.g0", 60.5, 900.25, 2.5e6, "east/isp-1", 1, 7, "mobile"),
    (3, 10, "east/c00000.g0", 120.0, 3600.0, 8.0e6, "east/isp-0", 0, 3, "desktop"),
    (4, 12, "west/c00002.g0", 0.125, 42.5, 1.0e6, "east/isp-1", 2, 1, "tv"),
]
HORIZON = 86400.0


def write_store_from_the_doc(path, rows, horizon):
    """Write a ``.store`` file following only docs/STORE_FORMAT.md."""
    header = struct.pack("<4sI", b"RPSS", 1)
    record = struct.Struct("<qqIdddHIIH")

    def interner():
        table = {}

        def ref(value):
            # "order-preserving first-encounter": first distinct value
            # appended gets ref 0, the second ref 1, ...
            if value not in table:
                table[value] = len(table)
            return table[value]

        return table, ref

    content_table, content_ref = interner()
    isp_table, isp_ref = interner()
    device_table, device_ref = interner()

    body = bytearray(header)
    for sid, uid, content, start, dur, rate, isp, pop, exch, device in rows:
        body += record.pack(
            sid,
            uid,
            content_ref(content),
            start,
            dur,
            rate,
            isp_ref(isp),
            pop,
            exch,
            device_ref(device),
        )

    footer_offset = 8 + len(rows) * 56
    assert footer_offset == len(body)  # doc: footer starts after records
    footer = json.dumps(
        {
            "version": 1,
            "records": len(rows),
            "horizon": horizon,
            "content": list(content_table),
            "isp": list(isp_table),
            "device": list(device_table),
        }
    ).encode("utf-8")
    body += footer
    body += struct.pack("<Q4s", footer_offset, b"RPSS")
    path.write_bytes(bytes(body))
    return path


# ----------------------------------------------------------------------
# Round-trip: StoreReader accepts the third-party file byte-for-byte
# ----------------------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    return write_store_from_the_doc(tmp_path / "thirdparty.store", ROWS, HORIZON)


def test_reader_accepts_doc_written_store(store):
    with StoreReader(store) as reader:
        assert len(reader) == len(ROWS)
        assert reader.horizon == HORIZON
        sessions = list(reader.iter_sessions())
    assert len(sessions) == len(ROWS)
    for session, row in zip(sessions, ROWS):
        sid, uid, content, start, dur, rate, isp, pop, exch, device = row
        assert session.session_id == sid
        assert session.user_id == uid
        assert session.content_id == content
        # doc: doubles round-trip bit-for-bit, so exact comparison.
        assert session.start == start
        assert session.duration == dur
        assert session.bitrate == rate
        assert session.attachment.isp == isp
        assert session.attachment.pop == pop
        assert session.attachment.exchange == exch
        assert session.device == device


def test_doc_written_store_is_simulatable(store):
    from repro.sim import SimulationConfig, Simulator

    with StoreReader(store) as reader:
        result = Simulator(SimulationConfig()).run_stream(
            reader.iter_sessions(), reader.horizon
        )
    assert result.total.sessions == len(ROWS)
    assert result.total.demanded_bits > 0


# ----------------------------------------------------------------------
# Corruption: violating the doc's invariants must be rejected
# ----------------------------------------------------------------------


def corrupt(store, tmp_path, mutate):
    data = bytearray(store.read_bytes())
    mutate(data)
    bad = tmp_path / "bad.store"
    bad.write_bytes(bytes(data))
    return bad


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__setitem__(slice(0, 4), b"XXXX"),  # header magic
        lambda d: d.__setitem__(slice(4, 8), struct.pack("<I", 99)),  # version
        lambda d: d.__setitem__(slice(-4, None), b"XXXX"),  # tail magic
        lambda d: d.__setitem__(  # footer_offset != 8 + records*56
            slice(-12, -4), struct.pack("<Q", 8)
        ),
    ],
    ids=["header-magic", "version", "tail-magic", "offset-mismatch"],
)
def test_reader_rejects_doc_violations(store, tmp_path, mutate):
    bad = corrupt(store, tmp_path, mutate)
    with pytest.raises(StoreCorruptionError):
        with StoreReader(bad) as reader:
            list(reader.iter_sessions())


# ----------------------------------------------------------------------
# Doc content: the normative constants must appear verbatim
# ----------------------------------------------------------------------


def test_doc_states_the_normative_constants():
    text = DOC.read_text()
    assert '"<qqIdddHIIH"' in text  # record struct
    assert "56 bytes" in text  # record size
    assert '"<4sI"' in text and '"<Q4s"' in text  # header and tail structs
    assert 'b"RPSS"' in text  # magic
    assert f"STORE_VERSION = {STORE_VERSION}" in text  # version in sync
    # Footer keys, exactly as the reader expects them.
    for key in ("version", "records", "horizon", "content", "isp", "device"):
        assert f'"{key}"' in text


# ----------------------------------------------------------------------
# The per-user delta log: a reader transcribed from the doc alone
# ----------------------------------------------------------------------


def read_delta_log_from_the_doc(path):
    """Fold a per-user delta log following only docs/STORE_FORMAT.md.

    Returns ``{user_id: (watched_bits, uploaded_bits)}`` in
    first-encounter order, and the number of blocks read.
    """
    data = Path(path).read_bytes()
    magic, version = struct.unpack_from("<4sI", data, 0)
    assert (magic, version) == (b"RPUD", 1)
    folded = {}
    blocks = 0
    offset = 8
    while offset < len(data):
        count, crc = struct.unpack_from("<II", data, offset)
        assert count <= 65536
        payload = data[offset + 8 : offset + 8 + 24 * count]
        assert len(payload) == 24 * count
        assert zlib.crc32(payload) == crc
        ids = struct.unpack_from(f"<{count}q", payload, 0)
        pairs = struct.unpack_from(f"<{2 * count}d", payload, 8 * count)
        for position, user_id in enumerate(ids):
            watched, uploaded = pairs[2 * position], pairs[2 * position + 1]
            if user_id in folded:
                before = folded[user_id]
                folded[user_id] = (before[0] + watched, before[1] + uploaded)
            else:  # doc: a user's first record is taken as it is
                folded[user_id] = (watched, uploaded)
        blocks += 1
        offset += 8 + 24 * count
    return folded, blocks


def test_doc_reader_parses_an_accumulator_log(store, tmp_path):
    from repro.sim import SimulationConfig, Simulator
    from repro.sim.kernel import build_tasks, run_shard
    from repro.sim.reduce import FootprintAccumulator

    with StoreReader(store) as reader:
        sessions = list(reader.iter_sessions())
        horizon = reader.horizon
    config = SimulationConfig()
    outputs = run_shard(build_tasks(sessions, horizon, config.policy), config)
    log = tmp_path / "deltas.log"
    accumulator = FootprintAccumulator(spill_path=log)
    for output in outputs:
        accumulator.add(output.per_user)
    materialized = accumulator.materialize()

    folded, blocks = read_delta_log_from_the_doc(log)
    assert blocks == len(outputs)  # doc: one block per folded output
    assert list(folded) == list(materialized)  # first-encounter order
    for user_id, traffic in materialized.items():
        assert folded[user_id] == (traffic.watched_bits, traffic.uploaded_bits)
    expected = Simulator(config).run_stream(iter(sessions), horizon).per_user
    assert folded == {
        uid: (t.watched_bits, t.uploaded_bits) for uid, t in expected.items()
    }


def test_doc_states_the_delta_log_constants():
    from repro.sim.reduce import DELTA_LOG_MAGIC, DELTA_LOG_VERSION, MAX_BLOCK_RECORDS

    text = DOC.read_text()
    assert "## Per-user delta log" in text
    assert f'b"{DELTA_LOG_MAGIC.decode()}"' in text
    assert f"DELTA_LOG_VERSION = {DELTA_LOG_VERSION}" in text
    assert f"MAX_BLOCK_RECORDS = {MAX_BLOCK_RECORDS}" in text
    assert '"<II"' in text
