"""Packet-header trace recording.

The paper's LANDER infrastructure stored 64-byte packet headers and the
published datasets are anonymised.  This package provides the same
pipeline for our simulated captures:

* :mod:`repro.trace.format` -- a compact binary record format with a
  streaming writer/reader;
* :mod:`repro.trace.columnar` -- the chunked columnar layout (format
  v2): one contiguous array per field per chunk, read zero-copy via
  mmap into numpy views, plus converters between versions;
* :mod:`repro.trace.anonymize` -- deterministic, prefix-preserving
  address anonymisation (campus addresses stay campus addresses, so
  every analysis still works on anonymised traces);
* :mod:`repro.trace.cache` -- the record-once trace cache that lets a
  dataset's border traffic be generated once and replayed many times.
"""

from repro.trace.anonymize import Anonymizer
from repro.trace.cache import TraceCache, default_trace_cache
from repro.trace.columnar import (
    ColumnarTraceWriter,
    RecordColumns,
    convert_trace,
    read_trace_columns,
)
from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    TraceReader,
    TraceWriter,
    read_trace,
    trace_is_intact,
    trace_version,
    write_trace,
)

__all__ = [
    "Anonymizer",
    "ColumnarTraceWriter",
    "RecordColumns",
    "TRACE_FORMAT_VERSION",
    "TraceCache",
    "TraceReader",
    "TraceWriter",
    "convert_trace",
    "default_trace_cache",
    "read_trace",
    "read_trace_columns",
    "trace_is_intact",
    "trace_version",
    "write_trace",
]
