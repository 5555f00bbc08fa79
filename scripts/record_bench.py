#!/usr/bin/env python
"""Record a machine-readable replay-throughput baseline.

Runs the column-replay hot path (the repo's perf-critical loop) a few
times over a cached trace and writes the best observed throughput to a
JSON baseline file (``BENCH_baseline.json`` at the repo root by
default).  The committed baseline gives regression gating something to
diff against: re-run the script on a quiet machine and compare the
``records_per_sec`` fields before accepting a perf-sensitive change.

The script also measures the telemetry-enabled pass so the baseline
records the observability overhead alongside the raw throughput --
the subsystem's contract is that the *disabled* path is free and the
*enabled* path stays within a few percent -- plus a streaming-ingest
row (the sharded pipeline of :mod:`repro.stream` over the same cached
trace), so stream-engine regressions gate the same way replay
regressions do (``scripts/check_bench.py``).

Five rows are recorded.  ``replay_columnar`` runs the observers over
the cached trace through the column replay loop
(:func:`repro.passive.monitor.replay`), with telemetry off and then on,
so the row carries the observability overhead; ``stream_columnar``
runs the sharded streaming engine over the same trace.
``stream_fabric`` runs the same stream through the supervised
worker-*process* fabric (``--fabric-workers``, default 4), gating the
multiprocessing path's throughput alongside the in-process ones.
``stream_online_probe`` runs the stream with the online probe scheduler
enabled (heartbeat, 1 probe/s on port 80), gating the probing hot path
-- probe dispatch interleaved with ingest plus active-evidence folding
-- so enabling probing cannot silently tax ingest.  ``query_service``
measures the live query service: ``--query-clients`` concurrent asyncio
clients issue ``--query-requests`` mixed HTTP queries against a
:class:`repro.query.QueryService` while the streaming engine ingests
the same trace and publishes snapshots, recording ``queries_per_sec``
under concurrent read load.

Usage::

    PYTHONPATH=src python scripts/record_bench.py [--dataset DTCPall]
        [--scale 1.0] [--seed 0] [--repeats 3] [--out BENCH_baseline.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def fresh_observers(dataset):
    from repro.passive.monitor import PassiveServiceTable
    from repro.passive.scandetect import ExternalScanDetector

    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
        links=frozenset(dataset.spec.monitored_links),
    )
    return table, ExternalScanDetector(is_campus=dataset.is_campus)


def timed_columnar_pass(trace_path, dataset) -> tuple[int, float]:
    """One zero-copy columnar replay over the cached v2 trace."""
    from repro.passive.monitor import replay
    from repro.trace.columnar import read_trace_columns

    started = time.perf_counter()
    count = replay(
        read_trace_columns(trace_path), *fresh_observers(dataset)
    )
    return count, time.perf_counter() - started


def timed_stream_pass(args, dataset, shards: int) -> tuple[int, float]:
    """One full streaming-ingest run (sharded pipeline, cached trace)."""
    from repro.stream import StreamConfig, StreamEngine

    engine = StreamEngine(
        StreamConfig(
            dataset=args.dataset, seed=args.seed, scale=args.scale,
            shards=shards,
        ),
        dataset=dataset,
    )
    started = time.perf_counter()
    result = engine.run()
    return result.records_read, time.perf_counter() - started


def timed_online_probe_pass(
    args, dataset, shards: int
) -> tuple[int, float, int]:
    """One streaming run with the online probe scheduler enabled.

    Heartbeat policy at 1 probe/s over port 80 (the bench dataset is
    DTCPall, whose port set is "all", so the port must be explicit).
    The row gates the probing hot path -- probe dispatch interleaved
    with ingest plus active-evidence folding.  Probe cost scales with
    *simulated duration* (rate x days), not with record count, so the
    row reports probes_issued alongside records_per_sec.
    """
    from repro.stream import StreamConfig, StreamEngine

    engine = StreamEngine(
        StreamConfig(
            dataset=args.dataset, seed=args.seed, scale=args.scale,
            shards=shards,
            probe_policy="heartbeat", probe_rate=1.0, probe_ports=(80,),
        ),
        dataset=dataset,
    )
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    return result.records_read, elapsed, result.snapshot.probes.issued


def timed_fabric_pass(args, dataset, workers: int) -> tuple[int, float]:
    """One full fabric run (supervised worker processes, cached trace)."""
    from repro.stream import FabricConfig, FabricSupervisor, StreamConfig

    supervisor = FabricSupervisor(
        StreamConfig(
            dataset=args.dataset, seed=args.seed, scale=args.scale,
            shards=workers,
        ),
        FabricConfig(),
        dataset=dataset,
    )
    started = time.perf_counter()
    result = supervisor.run()
    return result.records_read, time.perf_counter() - started


def timed_query_pass(
    args, dataset, clients: int, requests: int
) -> tuple[int, float]:
    """Concurrent HTTP query throughput while streaming ingest runs.

    Starts a :class:`~repro.query.QueryService` over a
    :class:`~repro.query.QueryState`, runs the streaming engine in a
    background thread publishing snapshots into it, and drives
    *clients* keep-alive asyncio clients through a fixed mix of
    queries (listings, host lookups, liveness, watermarks, health).
    The timed window covers only the query loop.
    """
    import asyncio
    import threading

    from repro.query import ActiveView, QueryClient, QueryService, QueryState
    from repro.simkernel.clock import hours
    from repro.stream import StreamConfig, StreamEngine

    engine = StreamEngine(
        StreamConfig(
            dataset=args.dataset, seed=args.seed, scale=args.scale,
            shards=args.stream_shards, snapshot_every=hours(6),
        ),
        dataset=dataset,
    )
    state = QueryState(ActiveView.from_dataset(dataset))
    ingest = threading.Thread(
        target=engine.run, kwargs={"publisher": state}, daemon=True
    )
    listing_targets = (
        "/services?proto=tcp&since=48h&limit=100",
        "/services?limit=25",
        "/watermarks",
        "/healthz",
    )

    async def client_task(index: int, service, per_client: int) -> int:
        client = QueryClient("127.0.0.1", service.port)
        addresses = ["128.125.0.1"]
        completed = 0
        try:
            for n in range(per_client):
                kind = (index + n) % 6
                if kind < 4:
                    target = listing_targets[kind]
                elif kind == 4:
                    target = f"/host/{addresses[n % len(addresses)]}"
                else:
                    target = f"/liveness/{addresses[n % len(addresses)]}"
                status, body = await client.get(target)
                assert status < 500, (status, target, body)
                rows = body.get("services") if isinstance(body, dict) else None
                if isinstance(rows, list) and rows:
                    addresses = [row["address"] for row in rows]
                completed += 1
        finally:
            await client.close()
        return completed

    async def run() -> tuple[int, float]:
        service = QueryService(state, port=0)
        await service.start()
        ingest.start()
        per_client = max(1, requests // clients)
        started = time.perf_counter()
        counts = await asyncio.gather(
            *(client_task(index, service, per_client)
              for index in range(clients))
        )
        elapsed = time.perf_counter() - started
        await service.close()
        return sum(counts), elapsed

    total, elapsed = asyncio.run(run())
    ingest.join()
    return total, elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="DTCPall")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--stream-shards", type=int, default=2,
                        help="shard count for the streaming-ingest row")
    parser.add_argument("--fabric-workers", type=int, default=4,
                        help="worker-process count for the fabric row")
    parser.add_argument("--query-clients", type=int, default=8,
                        help="concurrent clients for the query-service row")
    parser.add_argument("--query-requests", type=int, default=2000,
                        help="total HTTP queries per query-service pass")
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_baseline.json")
    )
    args = parser.parse_args(argv)

    from repro.datasets import build_dataset
    from repro.telemetry import (
        MetricRegistry,
        NullRegistry,
        git_sha,
        set_registry,
    )
    from repro.trace.cache import default_trace_cache

    cache = default_trace_cache()
    if not cache.enabled:
        print("record_bench needs the trace cache enabled "
              "(set REPRO_TRACE_CACHE)", file=sys.stderr)
        return 1
    dataset = build_dataset(args.dataset, seed=args.seed, scale=args.scale)
    # Warm pass records the (columnar v2) trace on first use; discard
    # its timing.
    dataset.replay(*fresh_observers(dataset))
    trace_path = cache.lookup(dataset.trace_cache_key)
    assert trace_path is not None, "warm pass should have recorded the trace"

    set_registry(NullRegistry())
    columnar = [
        timed_columnar_pass(trace_path, dataset) for _ in range(args.repeats)
    ]
    set_registry(MetricRegistry())
    enabled = [
        timed_columnar_pass(trace_path, dataset) for _ in range(args.repeats)
    ]
    set_registry(NullRegistry())
    stream_columnar = [
        timed_stream_pass(args, dataset, args.stream_shards)
        for _ in range(args.repeats)
    ]
    online = [
        timed_online_probe_pass(args, dataset, args.stream_shards)
        for _ in range(args.repeats)
    ]
    fabric = [
        timed_fabric_pass(args, dataset, args.fabric_workers)
        for _ in range(args.repeats)
    ]
    queried = [
        timed_query_pass(
            args, dataset, args.query_clients, args.query_requests
        )
        for _ in range(args.repeats)
    ]

    records = columnar[0][0]
    assert all(count == records for count, _ in columnar + enabled)
    stream_records = stream_columnar[0][0]
    assert all(
        count == stream_records for count, _ in stream_columnar + fabric
    )
    assert all(count == stream_records for count, _, _ in online)
    probes_issued = online[0][2]
    assert all(issued == probes_issued for _, _, issued in online)
    best_stream_columnar = min(seconds for _, seconds in stream_columnar)
    best_online = min(seconds for _, seconds, _ in online)
    best_fabric = min(seconds for _, seconds in fabric)
    query_total = queried[0][0]
    assert all(count == query_total for count, _ in queried)
    best_query = min(seconds for _, seconds in queried)
    best_columnar = min(seconds for _, seconds in columnar)
    best_enabled = min(seconds for _, seconds in enabled)
    overhead_pct = 100.0 * (best_enabled - best_columnar) / best_columnar

    baseline = {
        "version": 3,
        "recorded_unix": int(time.time()),
        "dataset": args.dataset,
        "scale": args.scale,
        "seed": args.seed,
        "repeats": args.repeats,
        "git_sha": git_sha(),
        "python_version": sys.version.split()[0],
        "replay_columnar": {
            "records": records,
            "trace_bytes": trace_path.stat().st_size,
            "best_seconds": round(best_columnar, 4),
            "records_per_sec": round(records / best_columnar, 1),
            "telemetry_best_seconds": round(best_enabled, 4),
            "telemetry_records_per_sec": round(records / best_enabled, 1),
            "telemetry_overhead_pct": round(overhead_pct, 2),
        },
        "stream_columnar": {
            "records": stream_records,
            "shards": args.stream_shards,
            "best_seconds": round(best_stream_columnar, 4),
            "records_per_sec": round(
                stream_records / best_stream_columnar, 1
            ),
        },
        "stream_online_probe": {
            "records": stream_records,
            "shards": args.stream_shards,
            "policy": "heartbeat",
            "probe_rate": 1.0,
            "probe_ports": [80],
            "probes_issued": probes_issued,
            "best_seconds": round(best_online, 4),
            "records_per_sec": round(stream_records / best_online, 1),
            "probes_per_sec": round(probes_issued / best_online, 1),
        },
        "stream_fabric": {
            "records": stream_records,
            "workers": args.fabric_workers,
            "best_seconds": round(best_fabric, 4),
            "records_per_sec": round(stream_records / best_fabric, 1),
        },
        "query_service": {
            "queries": query_total,
            "clients": args.query_clients,
            "best_seconds": round(best_query, 4),
            "queries_per_sec": round(query_total / best_query, 1),
        },
    }
    out = Path(args.out)
    out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}: {records:,} records, "
          f"replay {baseline['replay_columnar']['records_per_sec']:,.0f} rec/s "
          f"(telemetry overhead {overhead_pct:+.2f}%), "
          f"stream {baseline['stream_columnar']['records_per_sec']:,.0f} rec/s "
          f"({args.stream_shards} shards), "
          f"online probe "
          f"{baseline['stream_online_probe']['records_per_sec']:,.0f} rec/s "
          f"({probes_issued:,} probes interleaved), "
          f"fabric {baseline['stream_fabric']['records_per_sec']:,.0f} rec/s "
          f"({args.fabric_workers} workers), "
          f"query {baseline['query_service']['queries_per_sec']:,.0f} q/s "
          f"({args.query_clients} clients)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
