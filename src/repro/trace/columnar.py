"""Columnar trace format (v2): chunked column layout, zero-copy reads.

Format v1 (:mod:`repro.trace.format`) stores a trace as a stream of
packed 24-byte records; decoding dispatches one ``PacketRecord`` object
per record, which caps replay around a few hundred thousand records per
second.  Format v2 keeps the same 16-byte file header (version bumped
to 2) but lays the body out in *chunks*, each storing one contiguous
array per field::

    header:  magic "RPRT" | u16 version=2 | u16 flags | u64 record count
    chunk:   u32 record count n | u32 reserved
             | f8[n] time | u4[n] src | u4[n] dst
             | u2[n] sport | u2[n] dport
             | u1[n] proto | u1[n] flags | u1[n] link | u1[n] icmp
             | padding to the next 8-byte boundary

Chunks start 8-byte aligned (the header is 16 bytes and every chunk's
total size is a multiple of 8), so the ``time`` column of an mmap'd
file is always a properly aligned ``float64`` view.  Readers map the
whole file once and hand out :class:`RecordColumns` batches whose
arrays are numpy views straight into the mapping -- no copies, no
per-record objects.  The record count in the file header is stamped on
close; readers tolerate a zero count (truncated writer) by walking the
chunk headers.

Lifetime rule: column views keep the underlying ``mmap`` alive (numpy
holds a buffer export), so the mapping is released only when the last
view is garbage collected.  Readers therefore never explicitly close
the mapping; they close the file descriptor immediately after mapping,
which is safe -- the mapping outlives the descriptor.

V1 files can also be read as columns: the packed v1 record layout is
exactly a numpy structured dtype (:data:`V1_DTYPE`), so a v1 file is
mmap'd into one structured view and its fields are strided column
views.  V2's advantage is contiguity (each field is a dense array, so
vector ops run at memory bandwidth) plus per-chunk locality.
"""

from __future__ import annotations

import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from repro.net.packet import ICMP_PORT_UNREACHABLE, PacketRecord

from repro.trace.format import (
    _HEADER,
    _ICMP_NONE,
    _ICMP_PORT_UNREACH,
    _ICMP_VALUES,
    _FLAG_VALUES,
    _LINK_INDEX,
    _LINKS,
    _MAGIC,
    _RECORD,
    read_header,
)

#: The version this module writes.
VERSION_COLUMNAR = 2

#: Records per chunk written by :class:`ColumnarTraceWriter` (and the
#: batch size v1 files are sliced into when read as columns).
DEFAULT_CHUNK_RECORDS = 65536

#: Chunk header: u32 record count, u32 reserved (keeps chunks 8-aligned).
_CHUNK_HEADER = struct.Struct("<II")

#: (field name, dtype) in on-disk order.  The dtypes are little-endian
#: and match the v1 packed record field for field.
COLUMN_FIELDS: tuple[tuple[str, np.dtype], ...] = (
    ("time", np.dtype("<f8")),
    ("src", np.dtype("<u4")),
    ("dst", np.dtype("<u4")),
    ("sport", np.dtype("<u2")),
    ("dport", np.dtype("<u2")),
    ("proto", np.dtype("u1")),
    ("flags", np.dtype("u1")),
    ("link", np.dtype("u1")),
    ("icmp", np.dtype("u1")),
)

#: Bytes per record across all columns (equals the v1 record size).
_BYTES_PER_RECORD = sum(dtype.itemsize for _, dtype in COLUMN_FIELDS)

#: The v1 packed record as a numpy structured dtype (itemsize 24, no
#: padding) -- lets a v1 file be viewed as columns without decoding.
V1_DTYPE = np.dtype([(name, dtype) for name, dtype in COLUMN_FIELDS])

assert V1_DTYPE.itemsize == _RECORD.size == _BYTES_PER_RECORD


def _chunk_payload_bytes(count: int) -> int:
    """On-disk size of one chunk body (columns + alignment padding)."""
    raw = count * _BYTES_PER_RECORD
    return raw + (-raw % 8)


def _link_index(link: str) -> int:
    """The one-byte index a link name is stored as."""
    index = _LINK_INDEX.get(link)
    if index is None:
        raise ValueError(f"unknown link {link!r}")
    return index


def _icmp_marker(icmp) -> int:
    """The one-byte marker an ICMP kind is stored as."""
    if icmp is None:
        return _ICMP_NONE
    if icmp == ICMP_PORT_UNREACHABLE:
        return _ICMP_PORT_UNREACH
    raise ValueError(f"unsupported ICMP kind: {icmp}")


@dataclass
class RecordColumns:
    """One batch of records as parallel numpy arrays (one per field).

    The only batch that flows from a record source to the observers:
    index *i* of every array describes the same record.  Arrays may be
    zero-copy views into an mmap'd trace -- treat them as read-only.

    ``link_names`` maps the ``link`` column's one-byte indices back to
    link name strings (index 0 is the empty link).
    """

    time: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    sport: np.ndarray
    dport: np.ndarray
    proto: np.ndarray
    flags: np.ndarray
    link: np.ndarray
    icmp: np.ndarray
    link_names: tuple[str, ...] = _LINKS

    def __len__(self) -> int:
        return len(self.time)

    # ---- construction ------------------------------------------------

    @classmethod
    def from_records(cls, records: "Iterable[PacketRecord]") -> "RecordColumns":
        """Columnise records (validates links and ICMP kinds).

        The single place records are encoded into the stored field
        layout: the trace writer and the regenerating record source
        both go through it.  *records* is consumed in one pass and not
        held, so columnising a generator keeps no record alive.
        """
        rows = np.fromiter(
            (
                (r.time, r.src, r.dst, r.sport, r.dport, r.proto,
                 r.flags._value_, _link_index(r.link), _icmp_marker(r.icmp))
                for r in records
            ),
            dtype=V1_DTYPE,
        )
        return cls(*(np.ascontiguousarray(rows[name]) for name, _ in COLUMN_FIELDS))

    @classmethod
    def from_structured(cls, view: np.ndarray) -> "RecordColumns":
        """Columns over a :data:`V1_DTYPE` structured view (zero-copy)."""
        return cls(*(view[name] for name, _ in COLUMN_FIELDS))

    # ---- conversion ----------------------------------------------------

    def to_records(self) -> "list[PacketRecord]":
        """Materialise the batch as ``PacketRecord`` objects."""
        make = PacketRecord
        flag_values = _FLAG_VALUES
        icmp_values = _ICMP_VALUES
        links = self.link_names
        return [
            make(
                time=time, src=src, dst=dst, sport=sport, dport=dport,
                proto=proto, flags=flag_values[flags],
                icmp=icmp_values[icmp], link=links[link],
            )
            for time, src, dst, sport, dport, proto, flags, link, icmp
            in zip(
                self.time.tolist(), self.src.tolist(), self.dst.tolist(),
                self.sport.tolist(), self.dport.tolist(),
                self.proto.tolist(), self.flags.tolist(),
                self.link.tolist(), self.icmp.tolist(),
            )
        ]

    def to_structured(self) -> np.ndarray:
        """Pack the batch into a fresh :data:`V1_DTYPE` array (v1 bytes)."""
        out = np.empty(len(self), dtype=V1_DTYPE)
        for name, _ in COLUMN_FIELDS:
            out[name] = getattr(self, name)
        return out

    # ---- selection -----------------------------------------------------

    def _rebuild(self, selector) -> "RecordColumns":
        return RecordColumns(
            *(getattr(self, name)[selector] for name, _ in COLUMN_FIELDS),
            link_names=self.link_names,
        )

    def take(self, indices: np.ndarray) -> "RecordColumns":
        """Rows at *indices* (fancy indexing; copies)."""
        return self._rebuild(indices)

    def compress(self, mask: np.ndarray) -> "RecordColumns":
        """Rows where the boolean *mask* is True (copies)."""
        return self._rebuild(mask)

    def slice(self, start: int, stop: "int | None" = None) -> "RecordColumns":
        """Contiguous row range (zero-copy views)."""
        return self._rebuild(np.s_[start:stop])


class ColumnarTraceWriter:
    """Streaming v2 writer: buffers records, spills full chunks.

    Interface-compatible with :class:`repro.trace.format.TraceWriter`
    (``write``/``close``/``records_written``, context manager), plus
    :meth:`write_columns` for batches that are already columnar.
    """

    def __init__(
        self, fileobj: BinaryIO, chunk_records: int = DEFAULT_CHUNK_RECORDS
    ) -> None:
        if chunk_records <= 0:
            raise ValueError("chunk_records must be positive")
        self._file = fileobj
        self._chunk_records = chunk_records
        self._count = 0
        self._pending: list[PacketRecord] = []
        self._file.write(_HEADER.pack(_MAGIC, VERSION_COLUMNAR, 0, 0))

    @classmethod
    def open(
        cls, path: "str | Path", chunk_records: int = DEFAULT_CHUNK_RECORDS
    ) -> "ColumnarTraceWriter":
        return cls(open(path, "wb"), chunk_records)

    def write(self, record: PacketRecord) -> None:
        self._pending.append(record)
        self._count += 1
        if len(self._pending) >= self._chunk_records:
            self._flush_pending()

    def write_columns(self, columns: RecordColumns) -> None:
        """Append a columnar batch, starting a new chunk.

        A batch of exactly ``chunk_records`` rows lays out the same
        bytes as writing its records one by one.
        """
        self._flush_pending()
        total = len(columns)
        for start in range(0, total, self._chunk_records):
            self._flush_chunk(columns.slice(start, start + self._chunk_records))
        self._count += total

    def _flush_pending(self) -> None:
        if self._pending:
            self._flush_chunk(RecordColumns.from_records(self._pending))
            self._pending = []

    def _flush_chunk(self, columns: RecordColumns) -> None:
        """Write *columns* (non-empty) as one chunk."""
        count = len(columns)
        write = self._file.write
        write(_CHUNK_HEADER.pack(count, 0))
        for name, dtype in COLUMN_FIELDS:
            array = np.ascontiguousarray(getattr(columns, name), dtype=dtype)
            write(array.tobytes())
        padding = -(count * _BYTES_PER_RECORD) % 8
        if padding:
            write(b"\x00" * padding)

    def close(self) -> None:
        """Flush the tail chunk, finalise the header, close the file."""
        self._flush_pending()
        self._file.seek(0)
        self._file.write(_HEADER.pack(_MAGIC, VERSION_COLUMNAR, 0, self._count))
        self._file.close()

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def records_written(self) -> int:
        return self._count


def _mmap_file(path: "str | Path") -> mmap.mmap:
    """Map *path* read-only; the descriptor is closed immediately."""
    with open(path, "rb") as fileobj:
        return mmap.mmap(fileobj.fileno(), 0, access=mmap.ACCESS_READ)


def _iter_v2_chunks(
    buffer: mmap.mmap, skip_records: int, chunk_records: int
) -> Iterator[RecordColumns]:
    """Walk a v2 mapping's chunks as zero-copy batches of at most
    *chunk_records* rows (a chunk is sliced from the skip point)."""
    size = len(buffer)
    offset = _HEADER.size
    remaining_skip = skip_records
    while offset < size:
        if offset + _CHUNK_HEADER.size > size:
            raise ValueError("truncated chunk header at end of trace")
        count, _reserved = _CHUNK_HEADER.unpack_from(buffer, offset)
        if count == 0:
            raise ValueError("empty chunk in columnar trace")
        payload = _chunk_payload_bytes(count)
        data_start = offset + _CHUNK_HEADER.size
        if data_start + payload > size:
            raise ValueError("truncated chunk at end of trace")
        if remaining_skip >= count:
            remaining_skip -= count
            offset = data_start + payload
            continue
        columns = []
        column_offset = data_start
        for _, dtype in COLUMN_FIELDS:
            columns.append(
                np.frombuffer(buffer, dtype=dtype, count=count,
                              offset=column_offset)
            )
            column_offset += count * dtype.itemsize
        batch = RecordColumns(*columns)
        for start in range(remaining_skip, count, chunk_records):
            yield batch.slice(start, start + chunk_records)
        remaining_skip = 0
        offset = data_start + payload


def read_trace_columns(
    path: "str | Path",
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    skip_records: int = 0,
) -> Iterator[RecordColumns]:
    """Read any trace file as :class:`RecordColumns` batches.

    Batches hold at most *chunk_records* rows and never span two of
    the file's chunks.  V2 files yield zero-copy views into one mmap of
    the file; v1 files are mmap'd into a structured view and sliced
    the same way (still zero-copy, but each field is a strided view
    rather than a dense array).  *skip_records* drops the first N
    records -- whole skipped chunks cost one header read, and a partial
    skip is a view slice.
    """
    if skip_records < 0:
        raise ValueError("skip_records must be >= 0")
    if chunk_records <= 0:
        raise ValueError("chunk_records must be positive")
    with open(path, "rb") as fileobj:
        version, _count = read_header(fileobj)
    buffer = _mmap_file(path)
    if version == VERSION_COLUMNAR:
        yield from _iter_v2_chunks(buffer, skip_records, chunk_records)
        return
    body = len(buffer) - _HEADER.size
    if body % _RECORD.size:
        raise ValueError("truncated record at end of trace")
    view = np.frombuffer(
        buffer, dtype=V1_DTYPE, count=body // _RECORD.size,
        offset=_HEADER.size,
    )
    for start in range(skip_records, len(view), chunk_records):
        yield RecordColumns.from_structured(
            view[start:start + chunk_records]
        )


def columnar_record_count(path: "str | Path") -> int:
    """Total records in a v2 file, by walking chunk headers (cheap)."""
    count = 0
    with open(path, "rb") as fileobj:
        read_header(fileobj)
        size = os.fstat(fileobj.fileno()).st_size
        offset = _HEADER.size
        while offset < size:
            header = fileobj.read(_CHUNK_HEADER.size)
            if len(header) < _CHUNK_HEADER.size:
                raise ValueError("truncated chunk header at end of trace")
            chunk_count, _reserved = _CHUNK_HEADER.unpack(header)
            count += chunk_count
            offset += _CHUNK_HEADER.size + _chunk_payload_bytes(chunk_count)
            fileobj.seek(offset)
    return count


def columnar_is_intact(path: "str | Path") -> bool:
    """V2 integrity probe: chunk walk consistent with header and size.

    Mirrors the v1 rule: a cleanly closed writer stamps the record
    count, which (with the chunk structure) fixes the exact file size;
    a zero count with a non-empty body means the writer never finished.
    Truncation anywhere -- mid-chunk-header, mid-column, lost tail --
    breaks either the walk or the count match.
    """
    try:
        size = os.stat(path).st_size
        with open(path, "rb") as fileobj:
            _version, declared = read_header(fileobj)
            offset = _HEADER.size
            walked = 0
            while offset < size:
                header = fileobj.read(_CHUNK_HEADER.size)
                if len(header) < _CHUNK_HEADER.size:
                    return False
                chunk_count, _reserved = _CHUNK_HEADER.unpack(header)
                if chunk_count == 0:
                    return False
                walked += chunk_count
                offset += (
                    _CHUNK_HEADER.size + _chunk_payload_bytes(chunk_count)
                )
                fileobj.seek(offset)
    except (OSError, ValueError):
        return False
    return offset == size and walked == declared


def convert_trace(
    source: "str | Path",
    destination: "str | Path",
    to_version: int = VERSION_COLUMNAR,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> int:
    """Convert a trace file between format versions; return record count.

    Both directions are supported (v1 -> v2 for the fast columnar
    replay path, v2 -> v1 for tools that want the flat record stream);
    converting a file to its own version rewrites it canonically.  The
    record sequence is preserved exactly -- ``read_trace`` of source
    and destination yield identical ``PacketRecord`` lists.
    """
    if to_version not in (1, VERSION_COLUMNAR):
        raise ValueError(f"unsupported target version: {to_version}")
    total = 0
    if to_version == VERSION_COLUMNAR:
        with ColumnarTraceWriter.open(destination, chunk_records) as writer:
            for columns in read_trace_columns(source):
                writer.write_columns(columns)
            total = writer.records_written
        return total
    # v2 (or v1) -> v1: stream packed record bytes through a v1 header.
    with open(destination, "wb") as out:
        out.write(_HEADER.pack(_MAGIC, 1, 0, 0))
        for columns in read_trace_columns(source):
            out.write(columns.to_structured().tobytes())
            total += len(columns)
        out.seek(0)
        out.write(_HEADER.pack(_MAGIC, 1, 0, total))
    return total
