"""Binary trace format.

A trace file is a 16-byte header followed by fixed-width 24-byte
records.  The format stores exactly the fields the monitors consume --
the simulated analogue of the paper's 64-byte header captures.

Layout (little endian)::

    header:  magic "RPRT" | u16 version | u16 flags | u64 record count
    record:  f64 time | u32 src | u32 dst | u16 sport | u16 dport
             | u8 proto | u8 tcp flags | u8 link index | u8 icmp marker

The record count in the header is written on close; a reader tolerates
a zero count (e.g. a truncated writer) by reading to EOF.
"""

from __future__ import annotations

import io
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.net.packet import ICMP_PORT_UNREACHABLE, PacketRecord, TcpFlags

_MAGIC = b"RPRT"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")
_RECORD = struct.Struct("<dIIHHBBBB")

#: Format versions readers understand.  1 is the flat packed-record
#: stream this module writes; 2 is the chunked columnar layout of
#: :mod:`repro.trace.columnar`.
KNOWN_VERSIONS = (1, 2)

#: The version new recordings are written in (the trace cache keys
#: entries by this, so bumping it invalidates stale-format entries).
TRACE_FORMAT_VERSION = 2

#: Link names are stored as one-byte indices.
_LINKS: tuple[str, ...] = ("", "commercial1", "commercial2", "internet2")
_LINK_INDEX = {name: index for index, name in enumerate(_LINKS)}

#: icmp marker values.
_ICMP_NONE = 0
_ICMP_PORT_UNREACH = 1

#: Decode lookup tables: one-byte fields map through tuples instead of
#: calling the enum constructor per record.
_FLAG_VALUES: tuple[TcpFlags, ...] = tuple(TcpFlags(value) for value in range(256))
_ICMP_VALUES: tuple[tuple[int, int] | None, ...] = (None, ICMP_PORT_UNREACHABLE)

#: Default number of records per batch a stream run reads.
DEFAULT_BATCH_RECORDS = 8192


class TraceWriter:
    """Streaming writer of packet records.

    Use as a context manager::

        with TraceWriter.open(path) as writer:
            for record in stream:
                writer.write(record)
    """

    def __init__(self, fileobj: BinaryIO) -> None:
        self._file = fileobj
        self._count = 0
        self._file.write(_HEADER.pack(_MAGIC, _VERSION, 0, 0))

    @classmethod
    def open(cls, path: str | Path) -> "TraceWriter":
        return cls(open(path, "wb"))

    def write(self, record: PacketRecord) -> None:
        link_index = _LINK_INDEX.get(record.link)
        if link_index is None:
            raise ValueError(f"unknown link {record.link!r}")
        icmp_marker = _ICMP_NONE
        if record.icmp is not None:
            if record.icmp != ICMP_PORT_UNREACHABLE:
                raise ValueError(f"unsupported ICMP kind: {record.icmp}")
            icmp_marker = _ICMP_PORT_UNREACH
        self._file.write(
            _RECORD.pack(
                record.time,
                record.src,
                record.dst,
                record.sport,
                record.dport,
                record.proto,
                int(record.flags),
                link_index,
                icmp_marker,
            )
        )
        self._count += 1

    def close(self) -> None:
        """Finalise the header and close the file."""
        self._file.seek(0)
        self._file.write(_HEADER.pack(_MAGIC, _VERSION, 0, self._count))
        self._file.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def records_written(self) -> int:
        return self._count


def read_header(fileobj: BinaryIO) -> tuple[int, int]:
    """Validate the header at the file position.

    Returns ``(version, declared record count)``; accepts every version
    in :data:`KNOWN_VERSIONS`.
    """
    header = fileobj.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("trace file too short for header")
    magic, version, _, count = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ValueError(f"bad trace magic: {magic!r}")
    if version not in KNOWN_VERSIONS:
        raise ValueError(f"unsupported trace version: {version}")
    return version, count


def _read_header(fileobj: BinaryIO) -> int:
    """Validate a *v1* header; return the record count."""
    version, count = read_header(fileobj)
    if version != _VERSION:
        raise ValueError(f"expected a v1 trace, found version {version}")
    return count


def trace_version(path: str | Path) -> int:
    """The format version of the trace file at *path*."""
    with open(path, "rb") as fileobj:
        version, _count = read_header(fileobj)
    return version


def _stream_size(fileobj: BinaryIO) -> int:
    """Total byte size of a seekable stream (position preserved)."""
    position = fileobj.tell()
    fileobj.seek(0, io.SEEK_END)
    size = fileobj.tell()
    fileobj.seek(position)
    return size


def trace_is_intact(path: str | Path) -> bool:
    """Cheap integrity probe: header valid and size matches its count.

    A writer that closed cleanly stamps the record count into the
    header, which fixes the file's exact size (for v2 together with the
    chunk structure).  A zero count with a non-empty body means the
    writer never finished.
    """
    try:
        with open(path, "rb") as fileobj:
            version, count = read_header(fileobj)
        if version != _VERSION:
            from repro.trace.columnar import columnar_is_intact

            return columnar_is_intact(path)
        size = os.stat(path).st_size
    except (OSError, ValueError):
        return False
    return size == _HEADER.size + count * _RECORD.size


class TraceReader:
    """Streaming reader; iterates :class:`PacketRecord` values.

    Reads both format versions: v1 decodes the packed record stream in
    place; v2 materialises the columnar reader's batches.  A zero
    record count in the header (a writer that never finalised) is
    repaired by computing the count from the file size.
    """

    def __init__(self, fileobj: BinaryIO) -> None:
        self._file = fileobj
        self.version, declared = read_header(fileobj)
        if declared == 0 and self.version == _VERSION:
            # Truncated-writer tolerance: records are fixed width, so
            # the stream size fixes the count exactly.  A trailing
            # partial record is ignored here and raises on iteration,
            # matching the read-to-EOF behaviour.
            body = _stream_size(fileobj) - _HEADER.size
            declared = body // _RECORD.size
        self.declared_count = declared

    @classmethod
    def open(cls, path: str | Path) -> "TraceReader":
        reader = cls(open(path, "rb"))
        if reader.version != _VERSION:
            reader._path = Path(path)
            if reader.declared_count == 0:
                from repro.trace.columnar import columnar_record_count

                reader.declared_count = columnar_record_count(path)
        return reader

    _path: Path | None = None

    def __iter__(self) -> Iterator[PacketRecord]:
        if self.version != _VERSION:
            if self._path is None:
                raise ValueError(
                    "columnar traces must be opened by path (TraceReader.open)"
                )
            from repro.trace.columnar import read_trace_columns

            for columns in read_trace_columns(self._path):
                yield from columns.to_records()
            return
        read = self._file.read
        size = _RECORD.size
        unpack = _RECORD.unpack
        while True:
            chunk = read(size)
            if len(chunk) < size:
                if chunk:
                    raise ValueError("truncated record at end of trace")
                return
            (time, src, dst, sport, dport, proto, flags, link_index, icmp) = unpack(
                chunk
            )
            yield PacketRecord(
                time=time,
                src=src,
                dst=dst,
                sport=sport,
                dport=dport,
                proto=proto,
                flags=TcpFlags(flags),
                icmp=ICMP_PORT_UNREACHABLE if icmp == _ICMP_PORT_UNREACH else None,
                link=_LINKS[link_index],
            )

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_records_chunked(
    path: str | Path,
    batch_size: int = DEFAULT_BATCH_RECORDS,
    skip_records: int = 0,
) -> Iterator[list[PacketRecord]]:
    """A trace as ``PacketRecord`` lists of at most *batch_size*.

    Nothing in the pipeline reads record lists; this adapter over
    :func:`repro.trace.columnar.read_trace_columns` is kept because
    ``perfbench/layers.py`` wraps it by name.
    """
    from repro.trace.columnar import read_trace_columns

    for columns in read_trace_columns(path, batch_size, skip_records):
        yield columns.to_records()


def write_trace(path: str | Path, records: Iterable[PacketRecord]) -> int:
    """Write all *records* to *path*; return the record count."""
    with TraceWriter.open(path) as writer:
        for record in records:
            writer.write(record)
        return writer.records_written


def read_trace(path: str | Path) -> list[PacketRecord]:
    """Read a whole trace into memory (tests and small traces only)."""
    with TraceReader.open(path) as reader:
        return list(reader)


def trace_bytes(records: Iterable[PacketRecord]) -> bytes:
    """Serialise records to bytes in memory (round-trip tests)."""
    buffer = io.BytesIO()
    writer = TraceWriter(buffer)
    for record in records:
        writer.write(record)
    # Finalise header without closing the BytesIO.
    buffer.seek(0)
    buffer.write(_HEADER.pack(_MAGIC, _VERSION, 0, writer.records_written))
    return buffer.getvalue()
