"""Per-layer spans for the benchmark's traced run.

The traced run calls :func:`install` before ``repro.cli.main``.  It
replaces each layer's public entry point with a wrapper that records a
span -- name, start, end, parent span, thread and process -- and the
layer's work counts.  Spans stay in memory and are written once per
process at exit (:func:`flush`), as ``spans-<pid>-<clock>.json`` in the trace
directory.  Wrappers are installed before the fabric forks its workers,
and an after-fork hook gives every worker a fresh recorder that flushes
when the worker exits cleanly.

Functions called once per record or once per probe are never wrapped.
Where a layer's only public entry point is per record, the span sits on
the per-chunk step instead (the trace writer's chunk flush), and
per-record generators are timed a block of records at a time.

:func:`summarize` reads the span files back and computes the
``per_layer`` metrics: a layer's time is the *self time* of its spans
(duration minus the time its direct child spans cover), summed over
threads and processes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path

#: Records pulled from a per-record generator inside one span.
GENERATOR_BLOCK = 4096

#: Endpoints whose request handling is reported separately.
ENDPOINTS = ("host", "liveness", "services", "watermarks", "healthz")


class Recorder:
    """Spans and counts of one process, kept in memory until exit."""

    def __init__(self) -> None:
        self.directory: Path | None = None
        self.main = True
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def after_fork(self) -> None:
        """Child side of a fork: drop the parent's spans, flush at exit."""
        self._reset()
        self.main = False
        multiprocessing.util.Finalize(None, self.flush, exitpriority=0)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def flush(self) -> None:
        if self.directory is None:
            return
        # Named by pid and clock, so a reused pid never overwrites; written
        # aside and renamed, so a process killed mid-write leaves no part.
        name = f"spans-{self.pid}-{time.monotonic_ns()}"
        partial = self.directory / f"{name}.tmp"
        partial.write_text(json.dumps({
            "pid": self.pid,
            "main": self.main,
            "spans": self.spans,
            "counts": self.counts,
        }))
        os.replace(partial, self.directory / f"{name}.json")


class _Span:
    __slots__ = ("rec", "name", "sid", "parent", "start")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> None:
        local = self.rec._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        self.parent = stack[-1] if stack else -1
        self.sid = next(self.rec._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.rec._local.stack.pop()
        self.rec.spans.append((
            self.sid, self.parent, self.name, self.start, end,
            threading.get_ident(),
        ))


RECORDER = Recorder()


# ---- wrapping ---------------------------------------------------------


def _rebind(original, replacement) -> None:
    """Point every imported binding of *original* at *replacement*.

    Modules bind functions by name at import (``from x import f``), so
    patching only the defining module would miss those call sites.
    """
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap(target: str, name, after=None, items: str | None = None,
          blocks: str | None = None) -> None:
    """Wrap ``module:qualname`` in a span.

    *name* is the span name, or a function of the call's arguments
    returning one.  *after(args, result)* records counts.  With *items*
    the returned iterator of batches is timed too, one span per
    ``next``; with *blocks* the returned per-record iterator is pulled
    :data:`GENERATOR_BLOCK` records per span.  Either way the records
    delivered are counted under that key.
    """
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = getattr(owner, attr)
    rec = RECORDER
    span_name = name if callable(name) else (lambda args, _n=name: _n)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        label = span_name(args)
        with rec.span(label):
            result = original(*args, **kwargs)
        if after is not None:
            after(args, result)
        if items is not None:
            return _timed_items(result, label, items)
        if blocks is not None:
            return _timed_blocks(result, label, blocks)
        return result

    if owner_name:
        setattr(owner, attr, wrapper)
    else:
        _rebind(original, wrapper)


def _timed_items(iterator, label, key):
    iterator = iter(iterator)
    rec = RECORDER
    try:
        while True:
            with rec.span(label):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            rec.count(key, len(item))
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def _timed_blocks(iterator, label, key):
    iterator = iter(iterator)
    rec = RECORDER
    pull = itertools.islice
    while True:
        with rec.span(label):
            block = list(pull(iterator, GENERATOR_BLOCK))
        if not block:
            return
        rec.count(key, len(block))
        yield from block


def _endpoint(args) -> str:
    path = str(args[2]).split("?", 1)[0]
    head = path.split("/", 2)[1] if path.startswith("/") else ""
    return "query.handle." + (head if head in ENDPOINTS else "other")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def install(directory: "str | Path") -> None:
    """Wrap every layer's entry points; flush spans under *directory*."""
    rec = RECORDER
    rec.directory = Path(directory)
    rec.directory.mkdir(parents=True, exist_ok=True)
    count = rec.count
    # Import every module that binds a wrapped function by name before
    # rebinding, so no call site keeps the unwrapped original.
    for module in (
        "repro.cli", "repro.datasets.builder", "repro.stream.engine",
        "repro.stream.fabric", "repro.query.http", "repro.query.serve",
    ):
        try:
            importlib.import_module(module)
        except ImportError:
            pass

    def scan_counts(args, report):
        targets, ports = args[1], args[2]
        probes = len(targets) * len(ports)
        count("active.sweeps")
        count("active.probes", probes)
        count("active.opens", len(report.opens))

    def mask_counts(args, mask):
        count("faults.records", len(args[1]))
        count("faults.kept", int(mask.sum()))

    def filter_counts(args, kept):
        count("faults.records", len(args[1]))
        count("faults.kept", len(kept))

    def observe_counts(args, _result):
        count("passive.records", len(args[1]))

    def lookup_counts(_args, path):
        count("trace.cache_hits" if path is not None else "trace.cache_misses")

    def read_counts(args, _result):
        count("trace.bytes_read", _file_size(args[0]))

    def checkpoint_counts(_args, size):
        count("stream.checkpoints")
        count("stream.checkpoint_bytes", size or 0)

    def store_counts(_args, path):
        count("fabric.checkpoint_bytes", _file_size(path))

    def handle_counts(args, _result):
        count(_endpoint(args).replace("handle", "requests"))

    def publish_counts(_args, _result):
        count("query.publishes")

    _wrap("repro.datasets.builder:build_dataset", "datasets.build")
    _wrap("repro.campus.population:synthesize_population", "campus.synthesize")
    _wrap("repro.active.prober:HalfOpenScanner.scan", "active.scan",
          after=scan_counts)
    _wrap("repro.traffic.generator:border_packet_stream", "traffic.generate",
          blocks="records.generated")
    _wrap("repro.trace.columnar:ColumnarTraceWriter._flush_chunk",
          "trace.write")
    _wrap("repro.trace.columnar:read_trace_columns", "trace.read",
          after=read_counts, items="records.columnar")
    _wrap("repro.trace.format:read_records_chunked", "trace.read",
          after=read_counts, items="records.scalar")
    _wrap("repro.trace.cache:TraceCache.lookup", "trace.lookup",
          after=lookup_counts)
    _wrap("repro.faults.capture:CaptureFilter.keep_mask", "faults.mask",
          after=mask_counts)
    _wrap("repro.faults.capture:CaptureFilter.filter_batch", "faults.mask",
          after=filter_counts)
    _wrap("repro.passive.monitor:PassiveServiceTable.observe_columns",
          "passive.observe", after=observe_counts)
    _wrap("repro.passive.monitor:PassiveServiceTable.observe_batch",
          "passive.observe", after=observe_counts)
    _wrap("repro.stream.shard:split_columns", "stream.route")
    _wrap("repro.stream.shard:split_batch", "stream.route")
    _wrap("repro.stream.shard:ShardState.observe_columns", "stream.fold")
    _wrap("repro.stream.shard:ShardState.observe_batch", "stream.fold")
    _wrap("repro.stream.ingest:StreamIngestor.dispatch", "stream.dispatch_wait")
    _wrap("repro.stream.ingest:StreamIngestor.drain", "stream.drain")
    _wrap("repro.stream.checkpoint:save_checkpoint", "stream.checkpoint",
          after=checkpoint_counts)
    _wrap("repro.stream.shard:merge_shards", "stream.merge")
    _wrap("repro.stream.engine:finalize_result", "stream.merge")
    _wrap("repro.stream.fabric:FabricSupervisor.run", "fabric.run")
    _wrap("repro.stream.checkpoint:ShardCheckpointStore.save_shard",
          "fabric.checkpoint", after=store_counts)
    _wrap("repro.stream.checkpoint:ShardCheckpointStore.save_manifest",
          "fabric.checkpoint", after=store_counts)
    def advance_counts(args, issued):
        count("probe.issued", issued)
        # Cumulative on the scheduler: keep the latest reading.
        rec.counts["probe.synacks"] = args[0].synacks

    _wrap("repro.probe.scheduler:ProbeScheduler.advance", "probe.advance",
          after=advance_counts)
    _wrap("repro.query.http:handle_request", lambda args: _endpoint(args),
          after=handle_counts)
    _wrap("repro.query.liveness:infer_liveness", "query.liveness")
    _wrap("repro.query.snapshot:snapshot_states", "query.snapshot")
    _wrap("repro.query.state:QueryState.publish", "query.publish",
          after=publish_counts)
    _wrap("repro.core.completeness:summarize_overlap", "core.analyze")
    _wrap("repro.core.report:survey_table", "core.analyze")
    multiprocessing.util.register_after_fork(rec, Recorder.after_fork)


# ---- reading the spans back -------------------------------------------


def _self_times(spans: list) -> dict[str, float]:
    """Self time per span name: duration minus direct children's."""
    child_time: dict[int, float] = {}
    for _sid, parent, _name, start, end, _tid in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict[str, float] = {}
    for sid, _parent, name, start, end, _tid in spans:
        own = (end - start) - child_time.get(sid, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def _covered(spans: list) -> float:
    """Wall time covered by the union of the root spans (any thread)."""
    roots = sorted((s[3], s[4]) for s in spans if s[1] < 0)
    covered = 0.0
    cursor = float("-inf")
    for start, end in roots:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


def summarize(directory: "str | Path") -> dict[str, float]:
    """Per-layer metrics from the span files under *directory*.

    ``covered_s`` is the wall time the main processes spent inside at
    least one span (any thread); the caller subtracts it from the
    measured wall time to get the unattributed remainder.
    """
    self_time: dict[str, float] = {}
    counts: dict[str, float] = {}
    covered = fabric_run = 0.0
    for path in sorted(Path(directory).glob("spans-*.json")):
        data = json.loads(path.read_text())
        spans = data["spans"]
        for name, value in _self_times(spans).items():
            if name == "stream.fold" and not data["main"]:
                name = "fabric.worker_fold"
            self_time[name] = self_time.get(name, 0.0) + value
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
        if data["main"]:
            covered += _covered(spans)
            for _sid, _parent, name, s, e, _tid in spans:
                if name == "fabric.run":
                    fabric_run += e - s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    for layer in (
        "datasets.build", "campus.synthesize", "active.scan",
        "traffic.generate", "trace.write", "trace.read", "faults.mask",
        "passive.observe", "stream.route", "stream.fold",
        "stream.dispatch_wait", "stream.drain", "stream.checkpoint",
        "stream.merge", "fabric.worker_fold", "fabric.checkpoint",
        "probe.advance", "query.liveness", "query.snapshot", "core.analyze",
    ):
        metrics[layer + "_s"] = self_time.get(layer, 0.0)
    metrics["active.sweeps"] = counts.get("active.sweeps", 0)
    metrics["active.probes"] = counts.get("active.probes", 0)
    metrics["active.open_ratio"] = ratio(
        counts.get("active.opens", 0), counts.get("active.probes", 0)
    )
    metrics["traffic.records"] = counts.get("records.generated", 0)
    metrics["trace.bytes_read"] = counts.get("trace.bytes_read", 0)
    metrics["trace.cache_hits"] = counts.get("trace.cache_hits", 0)
    metrics["trace.cache_misses"] = counts.get("trace.cache_misses", 0)
    columnar = counts.get("records.columnar", 0)
    metrics["trace.columnar_ratio"] = ratio(
        columnar,
        columnar + counts.get("records.scalar", 0)
        + counts.get("records.generated", 0),
    )
    metrics["faults.records"] = counts.get("faults.records", 0)
    metrics["faults.drop_ratio"] = ratio(
        counts.get("faults.records", 0) - counts.get("faults.kept", 0),
        counts.get("faults.records", 0),
    )
    metrics["passive.records"] = counts.get("passive.records", 0)
    metrics["stream.checkpoint_bytes"] = counts.get("stream.checkpoint_bytes", 0)
    metrics["stream.checkpoints"] = counts.get("stream.checkpoints", 0)
    metrics["fabric.run_s"] = fabric_run
    metrics["fabric.checkpoint_bytes"] = counts.get("fabric.checkpoint_bytes", 0)
    metrics["fabric.unattributed_s"] = self_time.get("fabric.run", 0.0)
    metrics["probe.issued"] = counts.get("probe.issued", 0)
    metrics["probe.open_ratio"] = ratio(
        counts.get("probe.synacks", 0), counts.get("probe.issued", 0)
    )
    for endpoint in ENDPOINTS:
        metrics[f"query.handle_s.{endpoint}"] = self_time.get(
            f"query.handle.{endpoint}", 0.0
        )
        metrics[f"query.requests.{endpoint}"] = counts.get(
            f"query.requests.{endpoint}", 0
        )
    metrics["query.publishes"] = counts.get("query.publishes", 0)
    metrics["covered_s"] = covered
    return metrics
