"""Out-of-core session storage: a compact binary columnar trace format.

The paper's headline workload is a month of London catch-up TV -- 23.5M
sessions from 3.3M users (Table I).  At that scale a trace does not fit
in coordinator RAM as Python objects (a :class:`~repro.trace.events.\
Session` costs hundreds of bytes; the packed record below costs 56), so
this module provides the disk substrate the out-of-core pipeline stands
on:

* :class:`StoreWriter` / :class:`StoreReader` -- an append-only binary
  session file: fixed-width struct-packed numeric columns plus interned
  string tables for ``content_id`` / ``isp`` / ``device`` (and, via the
  interned :class:`~repro.topology.nodes.AttachmentPoint` flyweights,
  one attachment object per distinct (ISP, PoP, exchange) triple on
  read-back).  Records are fixed size, so any contiguous extent of
  sessions is addressable as ``(offset, length)`` byte ranges and a
  worker process can decode *its own* sessions straight from the file
  instead of receiving them pickled from the coordinator.
* :class:`ExternalSessionSorter` -- an external merge-sort of raw
  records by group: bounded in-memory runs of raw 56 B records are
  sorted by ``(group, start, session_id)`` and spilled as store files,
  then k-way merged into one globally sorted record stream.  The
  grouping policy is injected by the caller (the simulator passes its
  :class:`~repro.sim.policies.SwarmPolicy`), so the module stays
  independent of the simulation layer.  It takes records through two
  intakes: :meth:`~ExternalSessionSorter.add` packs any
  :class:`~repro.trace.events.Session`, and
  :meth:`~ExternalSessionSorter.add_records` takes raw chunks of
  records as they are -- from any :class:`RecordScan`, such as the
  :class:`StoreScan` :meth:`StoreReader.iter_sessions` returns or the
  trace generator's scan -- so a store or a generated trace is sorted
  without building one ``Session``.
* :class:`Extent` / :class:`ShardManifest` -- the map from each group
  (swarm) to its ``(file, offset, length)`` extent in a sorted store,
  the unit of zero-copy handoff to workers.
* :func:`shared_reader` -- a per-process cache of open readers so a
  worker decoding many extents of the same shard file pays one open /
  one string-table parse, with thread-safe positional reads
  (``os.pread``) underneath.

Everything round-trips losslessly: floats are stored as IEEE-754
doubles, so a session read back from a store compares equal -- bit for
bit -- to the one written.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import struct
import threading
from abc import abstractmethod
from array import array
from bisect import bisect_right
from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import add, is_, itemgetter, length_hint
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.sim import faults
from repro.topology.nodes import intern_attachment
from repro.trace.events import Session

__all__ = [
    "RECORD_SIZE",
    "STORE_VERSION",
    "StoreCorruptionError",
    "SessionColumns",
    "StoreWriter",
    "StoreReader",
    "RecordScan",
    "StoreScan",
    "Extent",
    "ShardManifest",
    "ExternalSessionSorter",
    "SorterStats",
    "shared_reader",
    "evict_reader",
    "clear_reader_cache",
    "trace_fingerprint",
    "file_fingerprint",
    "save_manifest",
    "load_manifest",
]

#: File layout:  [header][records...][footer JSON][tail]
#:   header = magic (4 bytes) + version (u32 LE)
#:   record = the fixed-width struct below, one per session
#:   footer = UTF-8 JSON: record count, horizon, string tables
#:   tail   = footer byte offset (u64 LE) + magic (4 bytes)
_MAGIC = b"RPSS"
_VERSION = 1
_HEADER = struct.Struct("<4sI")
_TAIL = struct.Struct("<Q4s")

#: The on-disk format version, exported for cache keying: a cached
#: shard + manifest is only reusable by a process that writes (and
#: reads) the identical record layout, so content-addressed cache keys
#: must include this number -- bumping ``_VERSION`` automatically
#: invalidates every cache entry built by older code.
STORE_VERSION = _VERSION

#: One session: session_id, user_id, content ref, start, duration,
#: bitrate, isp ref, pop, exchange, device ref.  Little-endian, packed
#: (no padding) -- 56 bytes.
_RECORD = struct.Struct("<qqIdddHIIH")
RECORD_SIZE = _RECORD.size

#: Sequential readers decode this many records per file read.
_READ_CHUNK_RECORDS = 4096

#: Field accessors on an unpacked record tuple (see ``_RECORD``).
_SESSION_ID_OF = itemgetter(0)
_CONTENT_OF = itemgetter(2)
_START_OF = itemgetter(3)
_DURATION_OF = itemgetter(4)
_BITRATE_OF = itemgetter(5)
_ISP_OF = itemgetter(6)
_DEVICE_OF = itemgetter(9)
#: The raw fields a batch group key is a function of: content ref, ISP
#: ref, bitrate.
_GROUP_FIELDS_OF = itemgetter(2, 6, 5)
#: One record as opaque bytes, for moving records without decoding them.
_RAW_RECORD = struct.Struct(f"<{RECORD_SIZE}s")
#: One record as its three string refs (content, ISP, device) between
#: the opaque bytes around them, for rewriting only the refs.
_REFS = struct.Struct("<16sI24sH8sH")
_FIRST = itemgetter(0)

#: An external sort entry: a group label (id or rank), the start, the
#: session id offset to unsigned, then the raw record.  Big-endian, so
#: for the non-negative starts sessions have, ``bytes`` order is
#: ``(label, start, session_id, record)`` order.  Starts are packed as
#: ``start + 0.0``, which turns a ``-0.0`` into the ``0.0`` it equals.
_ENTRY = struct.Struct(f">IdQ{RECORD_SIZE}s")
_ENTRY_RAW = struct.Struct(f">{_ENTRY.size - RECORD_SIZE}x{RECORD_SIZE}s")
_ID_OFFSET = 1 << 63


class StoreCorruptionError(ValueError):
    """A store file's bytes do not match its self-description.

    Raised when a file fails structural validation: bad magic, an
    unsupported version, a tail pointing outside the file, a record
    region whose size disagrees with the footer's record count, or an
    extent read that comes back short.  Subclasses :class:`ValueError`
    so existing ``except ValueError`` call sites keep working.
    """


@dataclass(frozen=True)
class SessionColumns:
    """One extent decoded straight into typed columns -- no objects.

    The zero-object ingest primitive: every numeric field of the 56-byte
    record lands in a stdlib :class:`array.array` (``q`` for integers,
    ``d`` for IEEE-754 doubles, both lossless round-trips of the stored
    values), and string-valued fields stay as integer refs into the
    store file's interned tables.  ``content_table`` / ``isp_table`` /
    ``device_table`` are the read-only tables themselves so callers can
    intern ``isp_table[isp_refs[i]]`` at accounting boundaries -- but the
    hot path never has to.

    Within one store file the ref <-> string mapping is bijective
    (:class:`_StringTable` interns first-encounter), so dense codes
    computed over integer refs are identical to codes computed over the
    strings -- the property the columnar schedule builder relies on.
    """

    count: int
    session_ids: array
    user_ids: array
    content_refs: array
    starts: array
    durations: array
    bitrates: array
    isp_refs: array
    pops: array
    exchanges: array
    device_refs: array
    content_table: Sequence[str]
    isp_table: Sequence[str]
    device_table: Sequence[str]


class _StringTable:
    """Order-preserving string interner for one store file."""

    __slots__ = ("_index", "values")

    def __init__(self, values: Optional[Sequence[str]] = None) -> None:
        self.values: List[str] = list(values or [])
        self._index: Dict[str, int] = {v: i for i, v in enumerate(self.values)}

    def ref(self, value: str) -> int:
        """Return the ref for ``value``, interning it on first encounter."""
        index = self._index.get(value)
        if index is None:
            index = self._index[value] = len(self.values)
            self.values.append(value)
        return index

    def remap(self, refs: Sequence[int], source: Sequence[str]) -> Iterator[int]:
        """``refs`` into ``source`` as refs into this table.

        Strings are interned in first-encounter order, exactly as
        :meth:`ref` over ``source[ref]`` one by one would intern them.
        """
        mapping = {ref: self.ref(source[ref]) for ref in dict.fromkeys(refs)}
        return map(mapping.__getitem__, refs)


def _write_footer(
    handle, count: int, horizon: float, tables: Sequence[_StringTable]
) -> None:
    """Finish a store file whose ``count`` records are already written."""
    content, isp, device = tables
    footer = json.dumps(
        {
            "version": _VERSION,
            "records": count,
            "horizon": horizon,
            "content": content.values,
            "isp": isp.values,
            "device": device.values,
        }
    ).encode("utf-8")
    handle.write(footer)
    handle.write(_TAIL.pack(_HEADER.size + count * RECORD_SIZE, _MAGIC))


class StoreWriter:
    """Append-only writer of the binary session format.

    Records are written in :meth:`append` order; string tables are
    collected incrementally and written into the footer at
    :meth:`close`.  A file is unreadable until closed (the footer is
    what makes it self-describing) -- use the context-manager form::

        with StoreWriter(path, horizon) as writer:
            for session in sessions:
                writer.append(session)

    Args:
        path: output file path (parent directories are created).
        horizon: trace horizon in seconds, stored in the footer so
            round-trips are lossless; 0.0 marks "not recorded"
            (intermediate sort runs).
    """

    def __init__(self, path: Union[str, Path], horizon: float = 0.0) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon!r}")
        self.path = Path(path)
        self.horizon = horizon
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "wb")
        self._file.write(_HEADER.pack(_MAGIC, _VERSION))
        self._content = _StringTable()
        self._isp = _StringTable()
        self._device = _StringTable()
        self._count = 0
        self._closed = False

    @property
    def records_written(self) -> int:
        """Sessions appended so far."""
        return self._count

    def append(
        self,
        item: Union[Session, bytes],
        tables: Optional[Sequence[Sequence[str]]] = None,
    ) -> int:
        """Write one session, or a chunk of raw records.

        Without ``tables``, ``item`` is one
        :class:`~repro.trace.events.Session`.  With ``tables``, it is a
        buffer of whole 56 B records whose string refs index the
        ``(content, isp, device)`` ``tables``: each ref is re-interned
        into this file's own first-encounter tables, so the bytes
        written equal appending the same sessions one by one -- without
        building them.

        Returns the record index of the (first) record written.
        """
        if self._closed:
            raise RuntimeError(f"store {self.path} is closed")
        index = self._count
        if tables is not None:
            self._append_raw(item, tables)
            return index
        session = item
        self._file.write(
            _RECORD.pack(
                session.session_id,
                session.user_id,
                self._content.ref(session.content_id),
                session.start,
                session.duration,
                session.bitrate,
                self._isp.ref(session.attachment.isp),
                session.attachment.pop,
                session.attachment.exchange,
                self._device.ref(session.device),
            )
        )
        self._count += 1
        return index

    def _append_raw(self, buffer: bytes, tables: Sequence[Sequence[str]]) -> None:
        """Repack ``buffer``'s records with refs into this file's tables."""
        if not buffer:
            return
        heads, content_refs, middles, isp_refs, tails, device_refs = zip(
            *_REFS.iter_unpack(buffer)
        )
        content, isp, device = tables
        self._file.write(
            b"".join(
                map(
                    _REFS.pack,
                    heads,
                    self._content.remap(content_refs, content),
                    middles,
                    self._isp.remap(isp_refs, isp),
                    tails,
                    self._device.remap(device_refs, device),
                )
            )
        )
        self._count += len(heads)

    def append_fields(
        self,
        session_id: int,
        user_id: int,
        content_id: str,
        start: float,
        duration: float,
        bitrate: float,
        isp: str,
        pop: int,
        exchange: int,
        device: str = "unknown",
    ) -> int:
        """Write one session from raw field values; returns its record index.

        The zero-object ingest entry point: bulk producers (the
        generative synthesizer, third-party importers) pack the 56 B
        record straight from scalars, never constructing a
        :class:`~repro.trace.events.Session`.  Field semantics and
        validation mirror ``Session`` exactly, so ``append_fields(...)``
        and ``append(Session(...))`` write identical bytes.
        """
        if self._closed:
            raise RuntimeError(f"store {self.path} is closed")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start!r}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration!r}")
        if bitrate <= 0:
            raise ValueError(f"bitrate must be > 0, got {bitrate!r}")
        if not content_id:
            raise ValueError("content_id must be non-empty")
        self._file.write(
            _RECORD.pack(
                session_id,
                user_id,
                self._content.ref(content_id),
                start,
                duration,
                bitrate,
                self._isp.ref(isp),
                pop,
                exchange,
                self._device.ref(device),
            )
        )
        index = self._count
        self._count += 1
        return index

    def close(self) -> None:
        """Write the footer and tail; the file becomes readable."""
        if self._closed:
            return
        _write_footer(
            self._file,
            self._count,
            self.horizon,
            (self._content, self._isp, self._device),
        )
        self._file.close()
        self._closed = True

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class StoreReader:
    """Random-access reader of a closed store file.

    Reads go through ``os.pread`` (positional, no shared seek pointer),
    so one reader instance may serve many threads concurrently -- the
    property the thread backend and the shared reader cache rely on.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fd = os.open(self.path, os.O_RDONLY)
        try:
            size = os.fstat(self._fd).st_size
            if size < _HEADER.size + _TAIL.size:
                raise StoreCorruptionError(
                    f"{self.path}: not a session store (truncated)"
                )
            magic, version = _HEADER.unpack(os.pread(self._fd, _HEADER.size, 0))
            if magic != _MAGIC:
                raise StoreCorruptionError(
                    f"{self.path}: not a session store (bad magic)"
                )
            if version != _VERSION:
                raise StoreCorruptionError(
                    f"{self.path}: unsupported store version {version} "
                    f"(expected {_VERSION})"
                )
            footer_offset, tail_magic = _TAIL.unpack(
                os.pread(self._fd, _TAIL.size, size - _TAIL.size)
            )
            if tail_magic != _MAGIC or footer_offset > size - _TAIL.size:
                raise StoreCorruptionError(f"{self.path}: corrupt store tail")
            footer_bytes = os.pread(
                self._fd, size - _TAIL.size - footer_offset, footer_offset
            )
            try:
                footer = json.loads(footer_bytes.decode("utf-8"))
                self._count: int = int(footer["records"])
                self.horizon: float = float(footer["horizon"])
                self._content: List[str] = list(footer["content"])
                self._isp: List[str] = list(footer["isp"])
                self._device: List[str] = list(footer["device"])
            except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
                # A corrupt footer_offset can land the footer range inside
                # binary record bytes; surface every shape of that as the
                # one documented corruption error.
                raise StoreCorruptionError(
                    f"{self.path}: corrupt store footer ({exc})"
                ) from exc
            # The record region must hold exactly the footer's promised
            # count.  Without this check a store missing record bytes
            # (truncation, a torn copy) would open fine and short-decode
            # extents silently.
            expected_offset = _HEADER.size + self._count * RECORD_SIZE
            if footer_offset != expected_offset:
                raise StoreCorruptionError(
                    f"{self.path}: record region is "
                    f"{footer_offset - _HEADER.size} bytes but the footer "
                    f"promises {self._count} records "
                    f"({self._count * RECORD_SIZE} bytes)"
                )
        except Exception:
            os.close(self._fd)
            raise
        self._closed = False

    def __len__(self) -> int:
        return self._count

    @property
    def tables(self) -> Tuple[List[str], List[str], List[str]]:
        """The ``(content, isp, device)`` string tables records index."""
        return self._content, self._isp, self._device

    def close(self) -> None:
        """Release the underlying file descriptor (idempotent)."""
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    def __enter__(self) -> "StoreReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- decoding ------------------------------------------------------

    def _decode(self, buffer: bytes, count: int) -> List[Session]:
        if len(buffer) != count * RECORD_SIZE:
            raise StoreCorruptionError(
                f"{self.path}: extent holds {len(buffer)} bytes, "
                f"expected {count} records ({count * RECORD_SIZE} bytes)"
            )
        return _decode(buffer, self.tables)

    def read_raw_range(self, index: int, count: int) -> bytes:
        """Read ``count`` raw 56 B records starting at record ``index``.

        The fused-kernel handoff primitive: the compiled decoder parses
        these bytes directly, so the hot path never materializes Python
        objects (or even per-field tuples).  The returned buffer is
        validated to be exactly ``count * RECORD_SIZE`` bytes.
        """
        if index < 0 or count < 0 or index + count > self._count:
            raise ValueError(
                f"record range [{index}, {index + count}) outside "
                f"[0, {self._count})"
            )
        if count == 0:
            return b""
        offset = _HEADER.size + index * RECORD_SIZE
        length = count * RECORD_SIZE

        def pread() -> bytes:
            """One positional read through the fault-injectable facade."""
            buffer = faults.storage().pread(
                self._fd, length, offset, site="store.pread"
            )
            if len(buffer) != length:
                # A short read on a complete store is transient (EIO
                # territory on flaky shared storage): surface it as one
                # so the retry loop gets a shot before we call the
                # store corrupt.
                raise OSError(
                    errno.EIO,
                    f"short read at record {index} "
                    f"(got {len(buffer)} of {length} bytes)",
                )
            return buffer

        try:
            return faults.retrying("store.pread", pread)
        except OSError as error:
            raise StoreCorruptionError(f"{self.path}: {error}") from error

    def read_range(self, index: int, count: int) -> List[Session]:
        """Decode ``count`` sessions starting at record ``index``.

        The zero-copy handoff primitive: a worker holding only
        ``(path, index, count)`` reads exactly its own bytes.
        """
        if count == 0:
            # Still bounds-check the empty range.
            self.read_raw_range(index, count)
            return []
        return self._decode(self.read_raw_range(index, count), count)

    def read_columns(self, index: int, count: int) -> SessionColumns:
        """Decode ``count`` records starting at ``index`` into columns.

        The pure-python half of zero-object ingest: one batched
        ``struct.iter_unpack`` pass transposed straight into typed
        arrays.  Field values are bit-identical to the ones
        :meth:`read_range` would put on :class:`Session` objects; string
        fields stay as integer refs (see :class:`SessionColumns`).
        """
        buffer = self.read_raw_range(index, count)
        if count == 0:
            columns: Tuple[Sequence, ...] = ((),) * 10
        else:
            columns = tuple(zip(*_RECORD.iter_unpack(buffer)))
        return SessionColumns(
            count=count,
            session_ids=array("q", columns[0]),
            user_ids=array("q", columns[1]),
            content_refs=array("q", columns[2]),
            starts=array("d", columns[3]),
            durations=array("d", columns[4]),
            bitrates=array("d", columns[5]),
            isp_refs=array("q", columns[6]),
            pops=array("q", columns[7]),
            exchanges=array("q", columns[8]),
            device_refs=array("q", columns[9]),
            content_table=self._content,
            isp_table=self._isp,
            device_table=self._device,
        )

    def iter_sessions(self) -> "StoreScan":
        """Every session in record order, as a chunk-buffered scan."""
        return StoreScan(self)


def _decode(buffer: bytes, tables: Sequence[Sequence[str]]) -> List[Session]:
    """The sessions ``buffer``'s records stand for, refs resolved in ``tables``."""
    content, isp, device = tables
    sessions: List[Session] = []
    for fields in _RECORD.iter_unpack(buffer):
        (
            session_id,
            user_id,
            content_ref,
            start,
            duration,
            bitrate,
            isp_ref,
            pop,
            exchange,
            device_ref,
        ) = fields
        sessions.append(
            Session(
                session_id=session_id,
                user_id=user_id,
                content_id=content[content_ref],
                start=start,
                duration=duration,
                bitrate=bitrate,
                attachment=intern_attachment(isp[isp_ref], pop, exchange),
                device=device[device_ref],
            )
        )
    return sessions


class RecordScan(Iterator[Session]):
    """An iterator of sessions that can hand its rest over as raw records.

    A subclass supplies :attr:`tables` -- the ``(content, isp, device)``
    strings its records' refs index, complete before the first chunk --
    and :meth:`_chunks`, a generator of its records in order as raw 56 B
    chunks (it runs lazily, from the first session or chunk asked for).
    Iterating decodes one chunk at a time into
    :class:`~repro.trace.events.Session` values; :meth:`raw_chunks`
    hands the records not yet yielded over undecoded instead -- the
    intake external grouping sorts from without building a ``Session``.
    """

    def __init__(self) -> None:
        #: The chunks after the current one.
        self._source = self._chunks()
        self._chunk = b""
        #: The current chunk's sessions not yet yielded.
        self._decoded: Iterator[Session] = iter(())

    @property
    @abstractmethod
    def tables(self) -> Tuple[Sequence[str], Sequence[str], Sequence[str]]:
        """The ``(content, isp, device)`` strings the records' refs index."""

    @abstractmethod
    def _chunks(self) -> Iterator[bytes]:
        """Every record of the scan, in order, as raw chunks."""

    def __next__(self) -> Session:
        session = next(self._decoded, None)
        while session is None:
            chunk = next(self._source, None)
            if chunk is None:
                raise StopIteration
            self._chunk = chunk
            self._decoded = iter(_decode(chunk, self.tables))
            session = next(self._decoded, None)
        return session

    def raw_chunks(self) -> Iterator[bytes]:
        """The records not yet yielded, as raw chunks; consumes the scan."""
        left = length_hint(self._decoded)
        self._decoded = iter(())
        if left:
            yield self._chunk[len(self._chunk) - left * RECORD_SIZE :]
        yield from self._source


class StoreScan(RecordScan):
    """A :class:`RecordScan` over a store, in record order.

    Chunks come from :meth:`StoreReader.read_raw_range`, so every one is
    validated.  The scan also exposes its :attr:`reader` and
    :attr:`position`.
    """

    def __init__(self, reader: StoreReader) -> None:
        super().__init__()
        self.reader = reader
        #: Index of the first record not yet read.
        self._next = 0

    @property
    def tables(self) -> Tuple[List[str], List[str], List[str]]:
        """The reader's ``(content, isp, device)`` string tables."""
        return self.reader.tables

    @property
    def position(self) -> int:
        """Index of the next record the scan would yield."""
        return self._next - length_hint(self._decoded)

    def _chunks(self) -> Iterator[bytes]:
        total = len(self.reader)
        while self._next < total:
            count = min(_READ_CHUNK_RECORDS, total - self._next)
            chunk = self.reader.read_raw_range(self._next, count)
            self._next += count
            yield chunk


# ----------------------------------------------------------------------
# Shared reader cache (one open + one footer parse per file per process)
# ----------------------------------------------------------------------

_READER_LOCK = threading.Lock()
_READER_CACHE: "OrderedDict[str, StoreReader]" = OrderedDict()

#: Most readers ever cached per process.  Long-lived pool workers see a
#: fresh temporary shard file per run; without a bound every run would
#: pin one open fd (and, once the coordinator unlinks the shard, its
#: disk space) in every worker forever.  One run touches one shard
#: file, so a small LRU keeps all the reuse and none of the leak.
_READER_CACHE_MAX = 4


def shared_reader(path: Union[str, Path]) -> StoreReader:
    """A process-wide cached :class:`StoreReader` for ``path``.

    Store files are immutable once written, so caching is safe; reads
    are positional (``os.pread``), so one cached reader serves any
    number of threads.  Workers decoding many extents of the same shard
    file hit the cache after the first open.  The cache is a small LRU
    (:data:`_READER_CACHE_MAX` entries): least-recently-used readers
    are closed on overflow, so persistent worker processes never
    accumulate open fds to long-gone shard files.

    Cache keys are normalised ``str(Path(path))`` strings.  A path
    that already is one (an extent ref's shard path) hits without
    being re-parsed; any other spelling is normalised on the miss.
    """
    evicted: List[StoreReader] = []
    with _READER_LOCK:
        key = path
        reader = _READER_CACHE.get(key)
        if reader is None:
            key = str(Path(path))
            reader = _READER_CACHE.get(key)
        if reader is not None:
            _READER_CACHE.move_to_end(key)
            return reader
        reader = _READER_CACHE[key] = StoreReader(key)
        while len(_READER_CACHE) > _READER_CACHE_MAX:
            _, stale = _READER_CACHE.popitem(last=False)
            evicted.append(stale)
    for stale in evicted:
        stale.close()
    return reader


def evict_reader(path: Union[str, Path]) -> None:
    """Close and drop the cached reader for ``path`` (if any)."""
    key = str(Path(path))
    with _READER_LOCK:
        reader = _READER_CACHE.pop(key, None)
    if reader is not None:
        reader.close()


def clear_reader_cache() -> None:
    """Close and drop every cached reader (tests / process teardown)."""
    with _READER_LOCK:
        readers = list(_READER_CACHE.values())
        _READER_CACHE.clear()
    for reader in readers:
        reader.close()


# ----------------------------------------------------------------------
# Extents and manifests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Extent:
    """One group's contiguous slice of a sorted store file.

    Attributes:
        key: the group's identity (the simulator stores
            :class:`~repro.sim.policies.SwarmKey` values here; this
            module only requires picklability).
        index: record index of the group's first session.
        count: number of sessions in the group.
    """

    key: object
    index: int
    count: int

    @property
    def offset(self) -> int:
        """Byte offset of the extent's first record."""
        return _HEADER.size + self.index * RECORD_SIZE

    @property
    def length(self) -> int:
        """Extent size in bytes."""
        return self.count * RECORD_SIZE


@dataclass(frozen=True)
class ShardManifest:
    """Map from every group to its ``(file, offset, length)`` extent.

    The product of external grouping: ``path`` is a store file whose
    records are globally sorted so each group occupies one contiguous
    extent, and ``extents`` lists the groups in sorted-key order --
    exactly the canonical task order the simulator folds in.
    """

    path: str
    horizon: float
    extents: Tuple[Extent, ...]

    @property
    def num_sessions(self) -> int:
        """Total sessions across all extents."""
        return sum(extent.count for extent in self.extents)

    def read_extent(self, extent: Extent) -> List[Session]:
        """Decode one extent's sessions via the shared reader cache."""
        return shared_reader(self.path).read_range(extent.index, extent.count)

    def iter_groups(self) -> Iterator[Tuple[object, List[Session]]]:
        """Yield ``(key, sessions)`` per group, in manifest order."""
        for extent in self.extents:
            yield extent.key, self.read_extent(extent)


# ----------------------------------------------------------------------
# External merge-sort
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SorterStats:
    """What one external sort actually did.

    Attributes:
        sessions: total sessions sorted.
        runs_spilled: sorted runs written to disk (0 when everything
            fit in the buffer).
        peak_buffered: most sessions ever resident in the sort buffer
            -- the coordinator's grouping memory footprint, bounded by
            ``run_sessions`` regardless of trace size.
        latest_end: the latest session end (``start + duration``) among
            the sorted sessions, 0.0 when there were none.
    """

    sessions: int
    runs_spilled: int
    peak_buffered: int
    latest_end: float = 0.0


class ExternalSessionSorter:
    """Bounded-memory sort of an arbitrarily large session stream by group.

    The sorter orders sessions by ``(policy.key_for(s).sort_key(),
    s.start, s.session_id)`` and never holds more than ``run_sessions``
    of them, yet it builds neither a ``Session`` nor a key object per
    session:

    * Everything it buffers is a **raw record** -- the 56 B store
      record, its strings as refs into the sorter's own :attr:`tables`
      -- behind a 20 B big-endian prefix ``(group, start, session_id)``,
      so that plain ``bytes`` order is sort order.  :meth:`add` packs a
      ``Session`` into one; :meth:`add_records` takes raw store chunks
      as they are, their refs indexing the ``tables`` the sorter was
      seeded with (a store reader's, for the zero-object store intake),
      and rejects the records a ``Session`` would reject.
    * The group key is memoised once per distinct raw ``(content ref,
      ISP ref, bitrate)`` triple -- plus ``policy.epoch_of(start)`` under
      a ``time_scoped`` policy -- by calling ``policy.key_for`` on a
      probe session.  That is sound because of the contract policies
      keep: a policy's key is a function of ``(content_id, isp,
      bitrate)`` only, or, for a time-scoped policy, of those and the
      start's epoch.  Distinct keys must also have distinct
      ``sort_key()`` values (``SwarmKey``'s have).
    * A full buffer is sorted, its groups laid out in ``sort_key()``
      order, and spilled under ``directory`` as a valid store file.
    * :meth:`finish` ranks every group once all are known and k-way
      merges the spilled runs with the final in-memory run, prefixing
      each record with its global rank recomputed from its raw fields.
      It yields the merged records as raw chunks; :meth:`groups` gives
      each group's key and record count in the same order, so extents
      need no scan.  Run files are deleted as soon as the merge
      completes.

    Ties on ``(key, start, session_id)`` -- duplicate ids -- are broken
    by the record bytes, so the order is total and never depends on
    input order.

    Args:
        policy: the grouping policy (``key_for``; ``time_scoped`` and
            ``epoch_of`` when keys depend on time).
        directory: where sorted runs are spilled.
        run_sessions: sort-buffer size, in sessions.
        tables: ``(content, isp, device)`` strings the refs of records
            passed to :meth:`add_records` index; :meth:`add` interns
            new strings after them.
    """

    def __init__(
        self,
        policy,
        directory: Union[str, Path],
        run_sessions: int = 100_000,
        tables: Optional[Sequence[Sequence[str]]] = None,
    ) -> None:
        if run_sessions < 1:
            raise ValueError(f"run_sessions must be >= 1, got {run_sessions!r}")
        self.policy = policy
        self.directory = Path(directory)
        self.run_sessions = run_sessions
        self._tables = tuple(_StringTable(values) for values in tables or ((), (), ()))
        self._epoch_of = (
            policy.epoch_of if getattr(policy, "time_scoped", False) else None
        )
        self._memo: Dict[tuple, int] = {}  # raw group fields -> group id
        self._group_of_key: Dict[object, int] = {}  # group key -> group id
        self._keys: List[object] = []  # group id -> group key
        self._counts: List[int] = []  # group id -> records
        self._entries: List[bytes] = []  # the buffer, labelled by group id
        self._run_counts: Counter = Counter()  # group id -> buffered records
        self._run_paths: List[Path] = []
        self._runs_spilled = 0
        self._sessions = 0
        self._peak_buffered = 0
        self._latest_end = 0.0
        self._finished = False

    @property
    def stats(self) -> SorterStats:
        """What the sort has done so far (see :class:`SorterStats`)."""
        return SorterStats(
            sessions=self._sessions,
            runs_spilled=self._runs_spilled,
            peak_buffered=max(self._peak_buffered, len(self._entries)),
            latest_end=self._latest_end,
        )

    @property
    def tables(self) -> Tuple[List[str], List[str], List[str]]:
        """The ``(content, isp, device)`` strings buffered refs index."""
        content, isp, device = self._tables
        return content.values, isp.values, device.values

    def add(self, session: Session) -> None:
        """Buffer one session as a record, spilling a sorted run when full."""
        if self._finished:
            raise RuntimeError("cannot add sessions after finish()")
        content, isp, device = self._tables
        attachment = session.attachment
        content_ref = content.ref(session.content_id)
        isp_ref = isp.ref(attachment.isp)
        memo_key = (content_ref, isp_ref, session.bitrate)
        if self._epoch_of is not None:
            memo_key = (memo_key, self._epoch_of(session.start))
        group = self._memo.get(memo_key)
        if group is None:
            group = self._memo[memo_key] = self._group_id(session)
        end = session.start + session.duration
        if end > self._latest_end:
            self._latest_end = end
        self._sessions += 1
        raw = _RECORD.pack(
            session.session_id,
            session.user_id,
            content_ref,
            session.start,
            session.duration,
            session.bitrate,
            isp_ref,
            attachment.pop,
            attachment.exchange,
            device.ref(session.device),
        )
        self._entries.append(
            _ENTRY.pack(
                group, session.start + 0.0, session.session_id + _ID_OFFSET, raw
            )
        )
        self._run_counts[group] += 1
        if len(self._entries) >= self.run_sessions:
            self._spill()

    def extend(self, sessions: Iterable[Session]) -> None:
        """Buffer a stream of sessions (spilling as needed)."""
        for session in sessions:
            self.add(session)

    def add_records(self, buffer: bytes) -> None:
        """Buffer raw 56 B records, spilling sorted runs as the buffer fills.

        The zero-object intake: the refs in ``buffer`` must index the
        ``tables`` the sorter was built with.  Records are validated
        exactly as a :class:`~repro.trace.events.Session` validates its
        fields (``ValueError``), and refs outside the tables raise
        :class:`StoreCorruptionError`.
        """
        if self._finished:
            raise RuntimeError("cannot add sessions after finish()")
        records = list(_RECORD.iter_unpack(buffer))
        if not records:
            return
        self._check(records)
        groups = self._groups_of(records)
        self._latest_end = max(
            chain(
                (self._latest_end,),
                map(add, map(_START_OF, records), map(_DURATION_OF, records)),
            )
        )
        entries = _entries(groups, records, buffer)
        self._sessions += len(records)
        position = 0
        while position < len(records):
            end = position + self.run_sessions - len(self._entries)
            self._entries += entries[position:end]
            self._run_counts.update(groups[position:end])
            position = end
            if len(self._entries) >= self.run_sessions:
                self._spill()

    def _check(self, records: List[tuple]) -> None:
        """Reject the records ``Session.__post_init__`` would reject."""
        # Seeded minima: a NaN never displaces the seed, just as it
        # passes the comparisons in ``Session.__post_init__``.
        lowest = min(chain((0.0,), map(_START_OF, records)))
        if lowest < 0:
            raise ValueError(f"start must be >= 0, got {lowest!r}")
        for name, of in (("duration", _DURATION_OF), ("bitrate", _BITRATE_OF)):
            lowest = min(chain((math.inf,), map(of, records)))
            if lowest <= 0:
                raise ValueError(f"{name} must be > 0, got {lowest!r}")
        for table, of in zip(self._tables, (_CONTENT_OF, _ISP_OF, _DEVICE_OF)):
            if max(map(of, records)) >= len(table.values):
                raise StoreCorruptionError(
                    f"record string ref outside its table of "
                    f"{len(table.values)} strings"
                )
        empty = self._tables[0]._index.get("")
        if empty is not None and empty in map(_CONTENT_OF, records):
            raise ValueError("content_id must be non-empty")

    def _memo_keys(self, records: List[tuple]) -> List[tuple]:
        """The raw fields each record's group key is a function of."""
        memo_keys: Iterable = map(_GROUP_FIELDS_OF, records)
        if self._epoch_of is not None:
            memo_keys = zip(memo_keys, map(self._epoch_of, map(_START_OF, records)))
        return list(memo_keys)

    def _groups_of(self, records: List[tuple]) -> List[int]:
        """Each record's group id, learning new groups from probes."""
        memo_keys = self._memo_keys(records)
        memo = self._memo
        groups = list(map(memo.get, memo_keys))
        if None in groups:
            # A new memo key's first record stands for its group.
            for index in compress(count(), map(is_, groups, repeat(None))):
                memo_key = memo_keys[index]
                group = memo.get(memo_key)
                if group is None:
                    group = memo[memo_key] = self._group_id(
                        self._probe(records[index])
                    )
                groups[index] = group
        return groups

    def _probe(self, record: tuple) -> Session:
        """The session a raw record stands for."""
        content, isp, device = self._tables
        (
            session_id,
            user_id,
            content_ref,
            start,
            duration,
            bitrate,
            isp_ref,
            pop,
            exchange,
            device_ref,
        ) = record
        return Session(
            session_id=session_id,
            user_id=user_id,
            content_id=content.values[content_ref],
            start=start,
            duration=duration,
            bitrate=bitrate,
            attachment=intern_attachment(isp.values[isp_ref], pop, exchange),
            device=device.values[device_ref],
        )

    def _group_id(self, session: Session) -> int:
        """The id of ``session``'s group, registering a new group."""
        key = self.policy.key_for(session)
        group = self._group_of_key.get(key)
        if group is None:
            group = self._group_of_key[key] = len(self._keys)
            self._keys.append(key)
            self._counts.append(0)
        return group

    def _order(self) -> List[int]:
        """Group ids of every group seen so far, in ``sort_key()`` order."""
        sort_keys = [key.sort_key() for key in self._keys]
        order = sorted(range(len(sort_keys)), key=sort_keys.__getitem__)
        for before, after in zip(order, order[1:]):
            if sort_keys[before] == sort_keys[after]:
                raise ValueError(
                    f"group keys {self._keys[before]!r} and "
                    f"{self._keys[after]!r} share sort_key {sort_keys[after]!r}"
                )
        return order

    def _take_run(self, order: List[int]) -> List[bytes]:
        """Empty the buffer into one sorted run, groups in ``order``.

        Entries keep their group-id labels: sorting by label puts each
        group's records together, already in ``(start, session_id)``
        order, and the groups are then laid out in ``order``.  The
        run's records are added to the per-group counts.
        """
        entries, counts = self._entries, self._run_counts
        self._entries, self._run_counts = [], Counter()
        self._peak_buffered = max(self._peak_buffered, len(entries))
        entries.sort()
        offsets = {}
        index = 0
        for group in sorted(counts):
            offsets[group] = index
            index += counts[group]
            self._counts[group] += counts[group]
        return list(
            chain.from_iterable(
                entries[offsets[group] : offsets[group] + counts[group]]
                for group in order
                if group in counts
            )
        )

    def _spill(self) -> None:
        run = self._take_run(self._order())
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"run-{len(self._run_paths):06d}.store"
        with open(path, "wb") as handle:
            handle.write(_HEADER.pack(_MAGIC, _VERSION))
            for index in range(0, len(run), _READ_CHUNK_RECORDS):
                handle.write(_raws_of(run[index : index + _READ_CHUNK_RECORDS]))
            _write_footer(handle, len(run), 0.0, self._tables)
        self._run_paths.append(path)
        self._runs_spilled += 1

    def _run_chunks(
        self, reader: StoreReader, ranks: Dict[tuple, int]
    ) -> Iterator[List[bytes]]:
        """A spilled run's entries, labelled by rank, one chunk at a time.

        ``ranks`` maps memo keys straight to global ranks.
        """
        for index in range(0, len(reader), _READ_CHUNK_RECORDS):
            count = min(_READ_CHUNK_RECORDS, len(reader) - index)
            buffer = reader.read_raw_range(index, count)
            records = list(_RECORD.iter_unpack(buffer))
            yield _entries(
                map(ranks.__getitem__, self._memo_keys(records)), records, buffer
            )

    def finish(self) -> Iterator[bytes]:
        """Yield every added record, globally sorted, as raw chunks.

        Each chunk is a run of 56 B records whose string refs index
        :attr:`tables`.  May be consumed once; spilled run files are
        removed when the iterator is exhausted (or closed).
        """
        if self._finished:
            raise RuntimeError("finish() may only be called once")
        self._finished = True
        order = self._order()
        ranks = [0] * len(order)
        for rank, group in enumerate(order):
            ranks[group] = rank
        sources = [_relabelled(self._take_run(order), ranks)]
        readers: List[StoreReader] = []
        try:
            memo_ranks = {
                memo_key: ranks[group] for memo_key, group in self._memo.items()
            }
            for path in self._run_paths:
                readers.append(StoreReader(path))
                sources.append(self._run_chunks(readers[-1], memo_ranks))
            for batch in _merge(sources):
                for index in range(0, len(batch), _READ_CHUNK_RECORDS):
                    yield _raws_of(batch[index : index + _READ_CHUNK_RECORDS])
        finally:
            for reader in readers:
                reader.close()
            for path in self._run_paths:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
            self._run_paths = []

    def groups(self) -> List[Tuple[object, int]]:
        """``(key, records)`` of every group, in sorted order.

        Complete once :meth:`finish` has been consumed.
        """
        return [(self._keys[group], self._counts[group]) for group in self._order()]


def _split(buffer: bytes) -> Iterator[bytes]:
    """A buffer of whole records, one ``bytes`` per record."""
    return map(_FIRST, _RAW_RECORD.iter_unpack(buffer))


def _entries(labels: Iterable[int], records: List[tuple], buffer: bytes) -> List[bytes]:
    """Sort entries of ``buffer``'s records (unpacked as ``records``)."""
    return list(
        map(
            _ENTRY.pack,
            labels,
            map(add, map(_START_OF, records), repeat(0.0)),
            map(add, map(_SESSION_ID_OF, records), repeat(_ID_OFFSET)),
            _split(buffer),
        )
    )


def _raws_of(entries: List[bytes]) -> bytes:
    """The raw records of ``entries``, concatenated."""
    return b"".join(map(_FIRST, _ENTRY_RAW.iter_unpack(b"".join(entries))))


def _relabelled(entries: List[bytes], ranks: List[int]) -> Iterator[List[bytes]]:
    """Group-id-labelled entries relabelled by rank, a chunk at a time."""
    for index in range(0, len(entries), _READ_CHUNK_RECORDS):
        chunk = b"".join(entries[index : index + _READ_CHUNK_RECORDS])
        groups, starts, session_ids, raws = zip(*_ENTRY.iter_unpack(chunk))
        yield list(
            map(_ENTRY.pack, map(ranks.__getitem__, groups), starts, session_ids, raws)
        )


def _merge(sources: List[Iterator[List[bytes]]]) -> Iterator[List[bytes]]:
    """K-way merge of sorted sources, each a stream of sorted chunks.

    Each round takes, from every source's current chunk, the entries no
    greater than the smallest chunk tail -- no entry still unread can
    precede them -- and sorts them in one pass (Timsort merges the
    presorted pieces).  At most one chunk per source is resident.
    """
    heads = []
    for source in sources:
        chunk = next(source, None)
        if chunk:
            heads.append((chunk, 0, source))
    while heads:
        first = min(heads, key=lambda head: head[0][-1])
        bound = first[0][-1]
        batch: List[bytes] = []
        live = []
        for head in heads:
            chunk, position, source = head
            # The chunk holding the bound is taken whole: every round
            # consumes a chunk, even if a source is out of order.
            cut = len(chunk) if head is first else bisect_right(chunk, bound, position)
            batch += chunk[position:cut]
            if cut == len(chunk):
                chunk = next(source, None)
                if not chunk:
                    continue
                cut = 0
            live.append((chunk, cut, source))
        heads = live
        batch.sort()
        yield batch


# ----------------------------------------------------------------------
# Content addressing: trace fingerprints and persisted manifests
# ----------------------------------------------------------------------

#: Per-session numeric fields fed to the fingerprint, packed exactly
#: (IEEE-754 doubles, not decimal round-trips).
_FINGERPRINT_RECORD = struct.Struct("<qqdddII")


def trace_fingerprint(sessions: Iterable[Session]) -> str:
    """A stable content hash of a session sequence.

    The cache key half of the content-addressed shard cache: two traces
    with the same fingerprint (and the same grouping policy and store
    version) would produce byte-identical sorted shards, so a cached
    shard + manifest can be reused across runs *and across processes*
    without re-reading the sessions.

    The hash covers every field a session carries -- ids, times,
    bitrate (as exact doubles), content/ISP/device strings and the
    attachment coordinates -- and is **order-sensitive**, so fingerprint
    a canonically ordered source (a :class:`~repro.trace.events.Trace`
    orders its sessions at construction; hashing it is deterministic).
    Hashing is a single streamed pass: far cheaper than the sort /
    spill / merge it lets a run skip.
    """
    hasher = hashlib.blake2b(digest_size=16)
    update = hasher.update
    pack = _FINGERPRINT_RECORD.pack
    for session in sessions:
        attachment = session.attachment
        update(
            pack(
                session.session_id,
                session.user_id,
                session.start,
                session.duration,
                session.bitrate,
                attachment.pop,
                attachment.exchange,
            )
        )
        update(session.content_id.encode("utf-8"))
        update(b"\x00")
        update(attachment.isp.encode("utf-8"))
        update(b"\x00")
        update(session.device.encode("utf-8"))
        update(b"\x1f")
    return hasher.hexdigest()


def file_fingerprint(path: Union[str, Path]) -> str:
    """A content hash of a trace *file*, for cache tokens.

    The streamed-file counterpart of :func:`trace_fingerprint`: callers
    that would rather not parse a session stream twice (the CLI's
    out-of-core path feeds a ``.jsonl`` straight into external
    grouping) can key the shard cache on the raw bytes instead.  Any
    stable content identifier is a valid token -- a byte-level and a
    session-level fingerprint of the same trace simply address separate
    (equally correct) cache entries.
    """
    hasher = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            hasher.update(chunk)
    return "file:" + hasher.hexdigest()


def save_manifest(
    manifest: ShardManifest,
    path: Union[str, Path],
    *,
    key_encoder: Callable[[object], Dict],
    meta: Optional[Dict] = None,
) -> None:
    """Persist a :class:`ShardManifest` as JSON next to its shard.

    The shard path is stored *relative to the manifest's directory*, so
    a cache directory can be moved (or mounted at a different root by a
    worker host) and still resolve.  ``key_encoder`` turns each extent
    key into a JSON object -- the simulation layer supplies the
    :class:`~repro.sim.policies.SwarmKey` codec, keeping this module
    free of simulation imports.  The write is atomic (temp file +
    ``os.replace``), so readers never observe a torn manifest.
    """
    path = Path(path)
    shard = Path(manifest.path)
    try:
        shard_ref = str(shard.relative_to(path.parent))
    except ValueError:
        shard_ref = str(shard)
    payload = {
        "store_version": STORE_VERSION,
        "shard": shard_ref,
        "horizon": manifest.horizon,
        "records": manifest.num_sessions,
        "meta": meta or {},
        "extents": [
            {
                "index": extent.index,
                "count": extent.count,
                "key": key_encoder(extent.key),
            }
            for extent in manifest.extents
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    temp_path = path.with_name(path.name + ".tmp")
    temp_path.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(temp_path, path)


def load_manifest(
    path: Union[str, Path], *, key_decoder: Callable[[Dict], object]
) -> Tuple[ShardManifest, Dict]:
    """Load a persisted manifest; returns ``(manifest, meta)``.

    Validates the store version and that the shard file both exists and
    holds exactly the record count the manifest promises (one cheap
    footer read) -- a truncated or half-written cache entry raises
    ``ValueError`` instead of producing silently wrong extents.
    """
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("store_version") != STORE_VERSION:
        raise ValueError(
            f"{path}: manifest store version {payload.get('store_version')!r} "
            f"does not match this process ({STORE_VERSION})"
        )
    shard_path = Path(payload["shard"])
    if not shard_path.is_absolute():
        shard_path = path.parent / shard_path
    extents = tuple(
        Extent(
            key=key_decoder(entry["key"]),
            index=int(entry["index"]),
            count=int(entry["count"]),
        )
        for entry in payload["extents"]
    )
    manifest = ShardManifest(
        path=str(shard_path), horizon=float(payload["horizon"]), extents=extents
    )
    expected = int(payload["records"])
    if manifest.num_sessions != expected:
        raise ValueError(
            f"{path}: extents cover {manifest.num_sessions} records, "
            f"manifest promises {expected}"
        )
    with StoreReader(shard_path) as reader:
        if len(reader) != expected:
            raise ValueError(
                f"{shard_path}: shard holds {len(reader)} records, "
                f"manifest promises {expected}"
            )
    return manifest, dict(payload.get("meta") or {})
