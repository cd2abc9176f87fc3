"""Append-only write-ahead log for the ingest tier.

Every bulk append (``insert_array``) lands in the log as one
length-prefixed binary record before the caller returns, so an
in-memory store can be rebuilt after a crash by replaying the log in
order.  The format is deliberately dumb — no page structure, no index,
just a framed stream — because the store it protects is itself the
index; what matters is that appends are cheap, replay is sequential,
and a torn tail (the crash case) is detected and discarded instead of
poisoning recovery.

Record framing::

    file      = header (8 bytes) record*
    header    = b"RWALv1" | u16 generation
    record    = u32 payload_len | u32 crc32(payload) | payload
    payload   = u8 opcode(=1) | u16 name_len | name utf-8
              | u16 n_tags | (u16 key_len | key | u16 val_len | val)*
              | u32 n_points | n_points * i64 timestamps (LE raw)
              | n_points * f64 values (LE raw)

All integers are little-endian.  Timestamp/value columns are raw array
bytes — replay hands ``np.frombuffer`` views of them straight to the
store's bulk path, which copies each point once, so a log written at
ingest speed also replays at ingest speed.  The CRC makes tail truncation unambiguous: a record whose frame
is incomplete *or* whose checksum fails marks the end of the valid
prefix, and :class:`WriteAheadLog` truncates the file there on open so
the next append never interleaves with garbage.

The header's *generation* (modulo 2**16) names one life of the log
between checkpoints: :meth:`WriteAheadLog.truncate` atomically swaps in
an empty log of the next generation, so ``(generation, record count)``
— :attr:`WriteAheadLog.position` — identifies an exact record prefix.
A checkpoint stores that position, and :meth:`WriteAheadLog.replay_into`
skips the records it covers; a log of generation 0 is byte-identical to
the header-only format (``MAGIC``).

Durability is batched: ``fsync`` runs every ``fsync_every`` appends (and
on ``flush``/``close``), so at most ``fsync_every`` acknowledged records
can be lost on power failure — set it to 1 for per-record durability.
"""

from __future__ import annotations

import io
import itertools
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.tsdb.model import SeriesFormatError, SeriesId

#: The header of a generation-0 log (magic + u16 generation 0).
MAGIC = b"RWALv1\x00\x00"
_MAGIC_PREFIX = MAGIC[:6]
_GENERATION = struct.Struct("<H")

_FRAME = struct.Struct("<II")          # payload length, crc32(payload)
_OP_INSERT_ARRAY = 1

#: Cap on a single record's payload, used to reject absurd length
#: prefixes when scanning a damaged file (a torn length field could
#: otherwise claim gigabytes and stall recovery).  64 MiB ≈ 4M points.
_MAX_PAYLOAD = 64 * 1024 * 1024


def encode_record(series: SeriesId, timestamps: np.ndarray,
                  values: np.ndarray) -> bytes:
    """Frame one ``insert_array`` as a complete WAL record (with header)."""
    name = series.name.encode("utf-8")
    parts = [struct.pack("<BH", _OP_INSERT_ARRAY, len(name)), name,
             struct.pack("<H", len(series.tags))]
    for key, value in series.tags:
        k, v = key.encode("utf-8"), value.encode("utf-8")
        parts.append(struct.pack("<H", len(k)))
        parts.append(k)
        parts.append(struct.pack("<H", len(v)))
        parts.append(v)
    ts = np.ascontiguousarray(timestamps, dtype="<i8")
    vals = np.ascontiguousarray(values, dtype="<f8")
    parts.append(struct.pack("<I", ts.size))
    parts.append(ts.tobytes())
    parts.append(vals.tobytes())
    payload = b"".join(parts)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> tuple[SeriesId, np.ndarray, np.ndarray]:
    """Decode one record payload back into ``(series, timestamps, values)``.

    The columns are read-only views of ``payload``, not copies: the
    store's bulk path copies them once, into the chunk it seals.
    """
    view = memoryview(payload)
    op, name_len = struct.unpack_from("<BH", view, 0)
    if op != _OP_INSERT_ARRAY:
        raise SeriesFormatError(f"unknown WAL opcode {op}")
    pos = 3
    name = bytes(view[pos:pos + name_len]).decode("utf-8")
    pos += name_len
    (n_tags,) = struct.unpack_from("<H", view, pos)
    pos += 2
    tags: dict[str, str] = {}
    for _ in range(n_tags):
        (k_len,) = struct.unpack_from("<H", view, pos)
        pos += 2
        key = bytes(view[pos:pos + k_len]).decode("utf-8")
        pos += k_len
        (v_len,) = struct.unpack_from("<H", view, pos)
        pos += 2
        tags[key] = bytes(view[pos:pos + v_len]).decode("utf-8")
        pos += v_len
    (count,) = struct.unpack_from("<I", view, pos)
    pos += 4
    expected = pos + 16 * count
    if expected != len(payload):
        raise SeriesFormatError(
            f"WAL payload length {len(payload)} != {expected} "
            f"for {count} points")
    ts = np.frombuffer(payload, dtype="<i8", count=count, offset=pos)
    vals = np.frombuffer(payload, dtype="<f8", count=count,
                         offset=pos + 8 * count)
    ts.flags.writeable = vals.flags.writeable = False
    return SeriesId.make(name, tags), ts, vals


def _header(generation: int) -> bytes:
    return _MAGIC_PREFIX + _GENERATION.pack(generation)


def _scan_valid_prefix(handle: io.BufferedReader) -> tuple[int, int]:
    """``(byte offset past the last intact record, records before it)``.

    Reads frames sequentially; stops at EOF, a torn frame, an absurd
    length prefix, or a CRC mismatch — everything before that point is
    a valid replay prefix, everything after is crash debris.  Offset 0
    means the file has no valid header.
    """
    handle.seek(0, os.SEEK_END)
    size = handle.tell()
    handle.seek(0)
    if size < len(MAGIC) or handle.read(len(MAGIC))[:6] != _MAGIC_PREFIX:
        return 0, 0
    good, count = len(MAGIC), 0
    while True:
        frame = handle.read(_FRAME.size)
        if len(frame) < _FRAME.size:
            return good, count
        length, crc = _FRAME.unpack(frame)
        if length > _MAX_PAYLOAD or good + _FRAME.size + length > size:
            return good, count
        payload = handle.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return good, count
        good += _FRAME.size + length
        count += 1


def replace_durably(tmp: Path, path: Path) -> None:
    """``os.replace(tmp, path)``, then fsync the directory so the rename
    itself survives a power failure.  ``tmp`` must already be fsync'd."""
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """Framed append-only log with batched fsync and tail recovery.

    Opening an existing file scans it for the longest valid record
    prefix and truncates anything after it (the torn tail a crash mid-
    append leaves behind), so appends always start on a record boundary.
    A missing or empty file is created with the magic header.  All
    methods are thread-safe; appends from multiple ingest threads are
    serialised by an internal lock, which is also what gives the log a
    total order consistent with per-series insertion order when callers
    append while holding the store's lock.
    """

    def __init__(self, path: str | Path, fsync_every: int = 64) -> None:
        if fsync_every <= 0:
            raise SeriesFormatError("fsync_every must be positive")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._lock = threading.Lock()
        self._pending = 0
        self._records = 0
        self._syncs = 0
        mode = "r+b" if self.path.exists() else "w+b"
        self._handle = open(self.path, mode)
        valid, self._count = _scan_valid_prefix(self._handle)
        if valid == 0:
            self._handle.seek(0)
            self._handle.truncate(0)
            self._handle.write(MAGIC)
            self._handle.flush()
        else:
            self._handle.truncate(valid)
        self._handle.seek(len(_MAGIC_PREFIX))
        (self._generation,) = _GENERATION.unpack(
            self._handle.read(_GENERATION.size))
        self._handle.seek(0, os.SEEK_END)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append_array(self, series: SeriesId, timestamps: np.ndarray,
                     values: np.ndarray) -> None:
        """Append one bulk-insert record (fsync'd per the batching policy)."""
        record = encode_record(series, timestamps, values)
        with self._lock:
            self._handle.write(record)
            self._records += 1
            self._count += 1
            self._pending += 1
            if self._pending >= self.fsync_every:
                self._sync()

    def flush(self) -> None:
        """Force buffered records to disk (fsync) regardless of batching."""
        with self._lock:
            if self._pending:
                self._sync()
            else:
                self._handle.flush()

    def truncate(self) -> None:
        """Discard every record and start the next generation.

        Called after a checkpoint has durably persisted everything the
        log protects.  The swap is atomic: an fsync'd header-only file
        of the next generation is renamed over the log, so a crash sees
        either the old log whole or the new one empty — never a log
        whose generation and records disagree.
        """
        with self._lock:
            generation = (self._generation + 1) % (1 << 16)
            tmp = self.path.with_name(self.path.name + ".tmp")
            with open(tmp, "wb") as fresh:
                fresh.write(_header(generation))
                fresh.flush()
                os.fsync(fresh.fileno())
            self._handle.close()
            replace_durably(tmp, self.path)
            self._handle = open(self.path, "r+b")
            self._handle.seek(0, os.SEEK_END)
            self._generation = generation
            self._count = 0
            self._pending = 0

    def _sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._pending = 0
        self._syncs += 1

    def close(self) -> None:
        with self._lock:
            if self._handle.closed:
                return
            if self._pending:
                self._sync()
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection (used by tests and the benchmark)
    # ------------------------------------------------------------------
    @property
    def records_written(self) -> int:
        return self._records

    @property
    def sync_count(self) -> int:
        return self._syncs

    @property
    def position(self) -> tuple[int, int]:
        """``(generation, records in the log)`` — the exact record prefix
        a checkpoint taken now covers (appends must be quiesced)."""
        with self._lock:
            return self._generation, self._count

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def records(self) -> Iterator[tuple[SeriesId, np.ndarray, np.ndarray]]:
        """Iterate decoded records from the start of the log.

        Flushes buffered appends first, then reads through a separate
        handle, so iteration never perturbs the append position.  Only
        the validated prefix is yielded (the constructor already
        truncated the tail; a record that fails to decode mid-iteration
        stops replay the same way).
        """
        self.flush()
        with open(self.path, "rb") as handle:
            if handle.read(len(MAGIC))[:6] != _MAGIC_PREFIX:
                return
            while True:
                frame = handle.read(_FRAME.size)
                if len(frame) < _FRAME.size:
                    return
                length, crc = _FRAME.unpack(frame)
                if length > _MAX_PAYLOAD:
                    return
                payload = handle.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    return
                yield decode_payload(payload)

    def replay_into(self, store,
                    covered: tuple[int, int] | None = None) -> int:
        """Apply every valid record to a store; returns points replayed.

        ``store`` needs only ``insert_array``.  ``covered`` is the
        :attr:`position` a checkpoint recorded: when it names this log's
        generation, its first ``records`` records are already in the
        snapshot and are skipped, so a crash between a checkpoint's
        rename and its truncate never replays a point twice.  Records
        replay in log order, which the append locking guarantees is
        consistent with per-series insertion order.
        """
        skip = 0
        if covered is not None and covered[0] == self._generation:
            skip = covered[1]
        points = 0
        for series, ts, vals in itertools.islice(self.records(), skip, None):
            store.insert_array(series, ts, vals)
            points += int(ts.size)
        return points
