"""Benchmark: trace-replay throughput, generated vs. cached.

The record-once trace cache is the repo's single biggest wall-clock
lever: every analysis pass after the first should stream the stored
binary trace as zero-copy column batches instead of regenerating the
synthetic traffic.  This benchmark measures both origins of
``BuiltDataset.record_batches`` -- regenerated and cached -- through
the one column replay loop with the standard observer set, and
records their throughput (records/sec) in ``extra_info``, so the
speedup is tracked in the perf trajectory.  The acceptance floor is a
2x advantage for the cached path.
"""

from __future__ import annotations

import time

DATASET = "DTCP1-18d"


def _fresh_observers(dataset):
    from repro.passive.monitor import PassiveServiceTable
    from repro.passive.scandetect import ExternalScanDetector

    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
        links=frozenset(dataset.spec.monitored_links),
    )
    return table, ExternalScanDetector(is_campus=dataset.is_campus)


def test_bench_replay_throughput(benchmark, bench_seed, bench_scale):
    from repro.experiments.common import get_dataset
    from repro.passive.monitor import replay
    from repro.trace.cache import default_trace_cache
    from repro.trace.columnar import DEFAULT_CHUNK_RECORDS, read_trace_columns

    dataset = get_dataset(DATASET, bench_seed, bench_scale)
    cache = default_trace_cache()
    assert cache.enabled, "replay benchmark needs the trace cache enabled"

    # Warm: ensure the trace is recorded (tees generation on first use).
    dataset.replay(*_fresh_observers(dataset))
    trace_path = cache.lookup(dataset.trace_cache_key)
    assert trace_path is not None

    # Reference path: regenerate the stream per pass (the pre-cache cost).
    started = time.perf_counter()
    generated_count = replay(
        dataset._generated_batches(None, 0, DEFAULT_CHUNK_RECORDS),
        *_fresh_observers(dataset),
    )
    generated_seconds = time.perf_counter() - started

    # Measured path: column replay from the stored trace.
    def cached_pass():
        return replay(
            read_trace_columns(trace_path), *_fresh_observers(dataset)
        )

    started = time.perf_counter()
    cached_count = benchmark.pedantic(cached_pass, rounds=1, iterations=1)
    cached_seconds = time.perf_counter() - started

    assert cached_count == generated_count
    generated_rps = generated_count / generated_seconds
    cached_rps = cached_count / cached_seconds
    speedup = cached_rps / generated_rps
    benchmark.extra_info.update(
        records=cached_count,
        generated_records_per_sec=round(generated_rps, 1),
        cached_records_per_sec=round(cached_rps, 1),
        cached_vs_generated_speedup=round(speedup, 2),
        trace_bytes=trace_path.stat().st_size,
    )
    print(
        f"\nreplay throughput ({DATASET}, scale {bench_scale}): "
        f"generated {generated_rps:,.0f} rec/s, cached {cached_rps:,.0f} rec/s "
        f"({speedup:.2f}x, {cached_count:,} records)"
    )
    # The whole point of record-once/analyze-many.
    assert speedup >= 2.0
