"""Command-line interface: ``python -m repro <command>``.

Operational entry points over the library:

``datasets``
    Print the dataset registry (the paper's Table 1).
``survey DATASET``
    Build a dataset, run both discovery methods, print the overlap
    summary -- the quickstart as a command.
``stream DATASET``
    Run the online streaming discovery engine: sharded ingestion with
    periodic completeness watermarks, checkpoint/resume, and a final
    report byte-identical to ``survey`` on the same configuration.
``serve DATASET``
    Run streaming ingest under a live HTTP/JSON query service:
    ``GET /host/{addr}``, ``/services``, ``/liveness/{addr}``,
    ``/watermarks``, ``/healthz``, ``/metricsz`` answer from immutable
    published snapshots while ingest continues.
``checkpoint prune DIR``
    Drop old checkpoint generations from a fabric checkpoint store,
    keeping the newest ``--keep N``.
``record DATASET OUT``
    Record a dataset's border traffic to a binary trace file
    (columnar v2 by default; ``--format 1`` for the row format),
    optionally anonymised.
``trace-stats FILE``
    Summarise a recorded trace (record counts, protocol mix, top
    campus responders).
``trace convert SRC DST``
    Convert a trace between the v1 row format and the v2 columnar
    format (``--to {1,2}``); the record sequence is preserved exactly.
``cache``
    Show the record-once trace cache (location, entries, sizes, and the
    persistent hit/miss counters); ``--clear`` empties it.
``degradation``
    Sweep seeded capture-loss/outage fault plans against passive and
    active completeness (see :mod:`repro.experiments.degradation`).
``online_probing``
    Compare heartbeat and periodic online probing against the passive
    stream across probe budgets: completeness and evidence freshness
    per policy (see :mod:`repro.experiments.online_probing`).
``stats DIR``
    Read back a ``--telemetry DIR`` export: run manifest, counters and
    gauges, histograms, and span timings.  ``--require NAME...`` exits
    non-zero unless every named metric is present and non-zero (the CI
    smoke check).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.report import (
    TextTable,
    count_rows,
    format_count,
    format_count_pct,
    format_percent,
)


def cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.datasets.registry import dataset_table_rows

    table = TextTable(
        title="Datasets (paper Table 1)",
        headers=["Name", "Start", "Passive", "Scans", "Services",
                 "Addresses", "Section"],
    )
    for row in dataset_table_rows():
        table.add_row(*row)
    print(table.render())
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    from repro.active.results import union_open_endpoints
    from repro.core.completeness import summarize_overlap
    from repro.datasets import build_dataset
    from repro.passive.monitor import PassiveServiceTable
    from repro.telemetry import span

    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir:
        from repro.telemetry import enable

        enable()
    # The spans are no-ops unless --telemetry enabled a real registry.
    with span("survey"):
        with span("build"):
            dataset = build_dataset(
                args.dataset, seed=args.seed, scale=args.scale
            )
        table = PassiveServiceTable(
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        with span("replay"):
            records = dataset.replay(table)
        with span("analyze"):
            active = {a for a, _ in union_open_endpoints(dataset.scan_reports)}
            if dataset.udp_report is not None:
                active |= {a for a, _ in dataset.udp_report.open_endpoints()}
            summary = summarize_overlap(table.server_addresses(), active)
    from repro.core.report import survey_table

    report = survey_table(
        args.dataset, args.scale, args.seed,
        records, len(dataset.scan_reports), summary,
    )
    print(report.render())
    if telemetry_dir:
        from repro.telemetry import RunManifest, registry, write_exports

        reg = registry()
        reg.gauge(
            "repro_passive_services_inferred",
            "Service endpoints the passive table discovered.",
        ).set(len(table.endpoints()))
        reg.gauge(
            "repro_passive_server_addresses",
            "Addresses with at least one passively discovered service.",
        ).set(len(table.server_addresses()))
        reg.gauge(
            "repro_active_open_addresses",
            "Addresses with an open port in any active sweep.",
        ).set(len(active))
        manifest = RunManifest.collect(
            command="survey",
            dataset=args.dataset,
            seed=args.seed,
            scale=args.scale,
        )
        written = write_exports(telemetry_dir, reg, manifest)
        print(
            "telemetry: wrote " + ", ".join(str(path) for path in written),
            file=sys.stderr,
        )
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    import signal

    from repro.simkernel.clock import hours
    from repro.stream import StreamConfig, StreamEngine

    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir:
        from repro.telemetry import enable

        enable()
    plan = None
    if args.loss_rate or args.burst_loss_rate or args.outage_fraction:
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(
            seed=args.fault_seed,
            capture_loss_rate=args.loss_rate,
            burst_loss_rate=args.burst_loss_rate,
            outage_fraction=args.outage_fraction,
            outage_count=args.outage_count,
        )
    fabric_mode = bool(args.fabric or args.workers is not None)
    trace_dir = getattr(args, "trace", None)
    if trace_dir:
        from repro.telemetry import enable_tracing

        enable_tracing(
            trace_dir, process="supervisor" if fabric_mode else "engine"
        )
    shards = args.workers if args.workers is not None else args.shards
    checkpoint = args.checkpoint
    if checkpoint is None and (args.checkpoint_every is not None or args.resume):
        base = args.out if args.out else f"{args.dataset}-stream"
        # The fabric checkpoints into a per-shard store *directory*;
        # the threaded engine keeps its single snapshot file.
        checkpoint = f"{base}.fabric-ckpt" if fabric_mode else f"{base}.checkpoint"
    config = StreamConfig(
        dataset=args.dataset,
        seed=args.seed,
        scale=args.scale,
        shards=shards,
        batch_records=args.batch_records,
        emit_every=hours(args.emit_every) if args.emit_every else None,
        checkpoint_every=(
            hours(args.checkpoint_every) if args.checkpoint_every else None
        ),
        checkpoint_path=checkpoint,
        max_queue_chunks=args.queue_chunks,
        faults=plan,
        probe_policy=args.probe_policy,
        probe_rate=args.probe_rate,
        probe_ports=tuple(args.probe_ports) if args.probe_ports else None,
    )
    if args.resume and checkpoint:
        from pathlib import Path

        if fabric_mode:
            from repro.stream import ShardCheckpointStore

            if ShardCheckpointStore(checkpoint).generations():
                print(f"resuming: {checkpoint}", file=sys.stderr)
        elif Path(checkpoint).exists():
            print(f"resuming: {checkpoint}", file=sys.stderr)

    def _terminate(signum, frame):  # pragma: no cover - exercised via smoke
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        # Without --emit-every the only watermark is the final one,
        # which would just duplicate the report line; stay quiet then.
        progress = (
            (lambda watermark: print(watermark.render()))
            if args.emit_every else None
        )
        if fabric_mode:
            from repro.stream import (
                FabricConfig,
                FabricDegradedError,
                FabricSupervisor,
            )

            worker_plan = None
            if (
                args.worker_crash_rate
                or args.worker_stall_rate
                or args.worker_heartbeat_drop_rate
            ):
                from repro.faults.worker import WorkerFaultPlan

                worker_plan = WorkerFaultPlan(
                    seed=args.worker_fault_seed,
                    crash_rate=args.worker_crash_rate,
                    stall_rate=args.worker_stall_rate,
                    heartbeat_drop_rate=args.worker_heartbeat_drop_rate,
                )
            fabric_config = FabricConfig(
                heartbeat_interval=args.heartbeat_interval,
                miss_budget=args.miss_budget,
                max_restarts=args.max_restarts,
                worker_faults=worker_plan,
            )
            supervisor = FabricSupervisor(config, fabric_config)
            try:
                result = supervisor.run(
                    resume=args.resume,
                    progress=progress,
                    on_event=lambda line: print(line, file=sys.stderr),
                )
            except FabricDegradedError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
        else:
            result = StreamEngine(config).run(
                resume=args.resume, progress=progress
            )
    except KeyboardInterrupt:
        if checkpoint:
            print(f"interrupted; checkpoint saved to {checkpoint}",
                  file=sys.stderr)
        else:
            print("interrupted (no checkpoint configured)", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)
        if trace_dir:
            from repro.telemetry import disable_tracing

            disable_tracing()
            print(
                f"trace: events in {trace_dir}; view with "
                f"python -m repro trace-view {trace_dir}",
                file=sys.stderr,
            )
    print(result.report)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(result.report + "\n", encoding="utf-8")
    if telemetry_dir:
        from repro.telemetry import RunManifest, registry, write_exports

        reg = registry()
        reg.gauge(
            "repro_passive_services_inferred",
            "Service endpoints the passive table discovered.",
        ).set(len(result.table.endpoints()))
        reg.gauge(
            "repro_passive_server_addresses",
            "Addresses with at least one passively discovered service.",
        ).set(len(result.table.server_addresses()))
        manifest = RunManifest.collect(
            command="stream",
            dataset=args.dataset,
            seed=args.seed,
            scale=args.scale,
            faults=plan,
            arguments={
                "shards": shards,
                "fabric": fabric_mode,
                "emit_every_hours": args.emit_every,
                "checkpoint_every_hours": args.checkpoint_every,
                "resumed": result.resumed,
            },
        )
        written = write_exports(telemetry_dir, reg, manifest)
        print(
            "telemetry: wrote " + ", ".join(str(path) for path in written),
            file=sys.stderr,
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.query.serve import run_serve
    from repro.simkernel.clock import hours
    from repro.stream import StreamConfig

    plan = None
    if args.loss_rate or args.burst_loss_rate or args.outage_fraction:
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(
            seed=args.fault_seed,
            capture_loss_rate=args.loss_rate,
            burst_loss_rate=args.burst_loss_rate,
            outage_fraction=args.outage_fraction,
            outage_count=args.outage_count,
        )
    fabric_mode = bool(args.fabric or args.workers is not None)
    shards = args.workers if args.workers is not None else args.shards
    config = StreamConfig(
        dataset=args.dataset,
        seed=args.seed,
        scale=args.scale,
        shards=shards,
        batch_records=args.batch_records,
        emit_every=hours(args.emit_every) if args.emit_every else None,
        checkpoint_every=(
            hours(args.checkpoint_every) if args.checkpoint_every else None
        ),
        checkpoint_path=args.checkpoint,
        snapshot_every=hours(args.snapshot_every),
        faults=plan,
        probe_policy=args.probe_policy,
        probe_rate=args.probe_rate,
        probe_ports=tuple(args.probe_ports) if args.probe_ports else None,
    )
    fabric_config = None
    if fabric_mode:
        from repro.stream import FabricConfig

        fabric_config = FabricConfig(
            heartbeat_interval=args.heartbeat_interval,
            miss_budget=args.miss_budget,
            max_restarts=args.max_restarts,
        )
    return run_serve(
        config,
        host=args.host,
        port=args.port,
        fabric=fabric_config,
        telemetry_dir=getattr(args, "telemetry", None),
        trace_dir=getattr(args, "trace", None),
    )


def cmd_checkpoint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.stream import ShardCheckpointStore

    if args.checkpoint_command != "prune":  # pragma: no cover - argparse gates
        raise SystemExit(f"unknown checkpoint command {args.checkpoint_command!r}")
    if args.keep < 1:
        # Keeping zero generations would leave nothing to resume from;
        # refuse rather than let the store constructor traceback.
        print(
            f"error: --keep must be >= 1 (got {args.keep}); a prune always "
            f"retains the newest committed generation",
            file=sys.stderr,
        )
        return 2
    root = Path(args.directory)
    if not root.is_dir():
        print(f"checkpoint store {root} does not exist", file=sys.stderr)
        return 1
    store = ShardCheckpointStore(root, keep_generations=args.keep)
    generations = store.generations()
    if not generations:
        print(f"no committed generations under {root}; nothing to prune")
        return 0
    before = {entry.name for entry in root.iterdir()}
    store.prune(generations[0])
    removed = sorted(before - {entry.name for entry in root.iterdir()})
    kept = store.generations()
    print(
        f"kept {len(kept)} generation(s) (newest {kept[0]}), "
        f"removed {len(removed)} file(s)"
    )
    for name in removed:
        print(f"  removed {name}")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    from repro.datasets import build_dataset
    from repro.simkernel.clock import days
    from repro.trace.anonymize import Anonymizer
    from repro.trace.columnar import DEFAULT_CHUNK_RECORDS, ColumnarTraceWriter
    from repro.trace.format import TraceWriter

    dataset = build_dataset(args.dataset, seed=args.seed, scale=args.scale)
    end = days(args.days) if args.days is not None else None
    anonymizer = (
        Anonymizer(key=args.anonymize_key)
        if args.anonymize_key is not None
        else None
    )
    writer_cls = TraceWriter if args.format_version == 1 else ColumnarTraceWriter
    with writer_cls.open(args.out) as writer:
        for batch in dataset.record_batches(end, batch_records=DEFAULT_CHUNK_RECORDS):
            for record in batch.to_records():
                if anonymizer is not None:
                    record = anonymizer.anonymize(record)
                writer.write(record)
        count = writer.records_written
    suffix = " (anonymised)" if anonymizer else ""
    print(f"wrote {count:,} records to {args.out}{suffix}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace.columnar import DEFAULT_CHUNK_RECORDS, convert_trace
    from repro.trace.format import trace_version

    if args.trace_command != "convert":  # pragma: no cover - argparse gates
        raise SystemExit(f"unknown trace command {args.trace_command!r}")
    source_version = trace_version(args.source)
    chunk_records = (
        args.chunk_records
        if args.chunk_records is not None
        else DEFAULT_CHUNK_RECORDS
    )
    count = convert_trace(
        args.source, args.destination,
        to_version=args.to_version, chunk_records=chunk_records,
    )
    print(
        f"converted {count:,} records: {args.source} (v{source_version}) "
        f"-> {args.destination} (v{args.to_version})"
    )
    return 0


def cmd_trace_stats(args: argparse.Namespace) -> int:
    from repro.net.addr import format_ipv4, parse_cidr
    from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP
    from repro.trace.format import TraceReader

    network, prefix = parse_cidr(args.campus)
    mask = ~((1 << (32 - prefix)) - 1) & 0xFFFFFFFF

    def is_campus(address: int) -> bool:
        return (address & mask) == network

    proto_names = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}
    protocols: dict[str, int] = {}
    flags: dict[str, int] = {}
    links: dict[str, int] = {}
    responders: dict[int, int] = {}
    first = last = None
    total = 0
    with TraceReader.open(args.file) as reader:
        for record in reader:
            total += 1
            first = record.time if first is None else min(first, record.time)
            last = record.time if last is None else max(last, record.time)
            proto = proto_names.get(record.proto, str(record.proto))
            protocols[proto] = protocols.get(proto, 0) + 1
            link = record.link or "unknown"
            links[link] = links.get(link, 0) + 1
            if record.proto == PROTO_TCP:
                if record.flags.is_synack:
                    flags["syn-ack"] = flags.get("syn-ack", 0) + 1
                    if is_campus(record.src):
                        responders[record.src] = responders.get(record.src, 0) + 1
                elif record.flags.is_syn:
                    flags["syn"] = flags.get("syn", 0) + 1
                elif record.flags.is_rst:
                    flags["rst"] = flags.get("rst", 0) + 1
                else:
                    flags["other"] = flags.get("other", 0) + 1
    table = TextTable(
        title=f"Trace {args.file}: {total:,} records",
        headers=["Measure", "Value"],
    )
    if first is not None:
        table.add_row("time span", f"{first:.1f}s .. {last:.1f}s "
                                   f"({(last - first) / 3600:.1f} h)")
    for label, cell in count_rows(protocols, label_prefix="protocol "):
        table.add_row(label, cell)
    for label, cell in count_rows(flags, label_prefix="tcp "):
        table.add_row(label, cell)
    for label, cell in count_rows(links, label_prefix="link "):
        table.add_row(label, cell)
    print(table.render())
    if responders:
        top = TextTable(
            title="Top campus responders (SYN-ACK senders)",
            headers=["Address", "SYN-ACKs"],
        )
        ranked = sorted(responders.items(), key=lambda item: (-item[1], item[0]))
        for address, count in ranked[: args.top]:
            top.add_row(format_ipv4(address), format_count(count))
        print()
        print(top.render())
    return 0


def cmd_trace_view(args: argparse.Namespace) -> int:
    from repro.telemetry import load_events, summarize, write_chrome_trace

    events = load_events(args.directory)
    if not events:
        print(f"no trace events under {args.directory}", file=sys.stderr)
        return 1
    print(summarize(events))
    path, count = write_chrome_trace(args.directory, out=args.out)
    print(f"chrome trace: {count} events -> {path}", file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.trace.cache import ENV_VAR, default_trace_cache

    cache = default_trace_cache()
    if not cache.enabled:
        print(f"trace cache disabled ({ENV_VAR}={os.environ.get(ENV_VAR)})")
        return 0
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached trace(s) from {cache.root}")
        return 0
    entries = cache.entries()
    table = TextTable(
        title=f"Trace cache {cache.root}: {len(entries)} entr"
              f"{'y' if len(entries) == 1 else 'ies'}",
        headers=["Trace", "Size"],
    )
    total = 0
    for path in entries:
        size = path.stat().st_size
        total += size
        table.add_row(path.name, f"{size / 1e6:,.1f} MB")
    table.add_row("total", f"{total / 1e6:,.1f} MB")
    print(table.render())
    persisted = cache.persistent_stats()
    lookups = persisted.get("hits", 0) + persisted.get("misses", 0)
    if lookups:
        effectiveness = TextTable(
            title="Cache effectiveness (all runs)",
            headers=["Measure", "Value"],
        )
        effectiveness.add_row("lookups", format_count(lookups))
        effectiveness.add_row("hits", format_count(persisted.get("hits", 0)))
        effectiveness.add_row("misses", format_count(persisted.get("misses", 0)))
        effectiveness.add_row(
            "corrupt evictions", format_count(persisted.get("evictions", 0))
        )
        effectiveness.add_row(
            "hit rate",
            format_percent(100.0 * persisted.get("hits", 0) / lookups),
        )
        print()
        print(effectiveness.render())
    return 0


def _stats_links(args: argparse.Namespace) -> int:
    """Aggregate link/protocol counters across a directory of exports.

    The per-link dashboard: ``DIR`` may itself be one ``--telemetry``
    export or a directory of them (one per sweep point, as the
    monitor-outage sweeps produce); every export found is summed into
    one link-mix table.
    """
    from pathlib import Path

    from repro.telemetry import load_run

    root = Path(args.directory)
    if not root.is_dir():
        print(f"telemetry directory {root} does not exist", file=sys.stderr)
        return 1
    run_dirs = [root] + sorted(path for path in root.iterdir() if path.is_dir())
    links: dict[str, float] = {}
    protocols: dict[str, float] = {}
    drops: dict[str, float] = {}
    runs = 0
    for directory in run_dirs:
        manifest, records = load_run(directory)
        if manifest is None and not records:
            continue
        runs += 1
        for record in records:
            if record.get("type") != "counter":
                continue
            name = record.get("name")
            labels = record.get("labels", {})
            value = record.get("value", 0)
            if name == "repro_passive_link_records_total":
                link = labels.get("link", "unknown")
                links[link] = links.get(link, 0) + value
            elif name == "repro_passive_protocol_records_total":
                proto = labels.get("proto", "unknown")
                protocols[proto] = protocols.get(proto, 0) + value
            elif name == "repro_passive_dropped_total":
                cause = labels.get("cause", "unknown")
                drops[cause] = drops.get(cause, 0) + value
    if not links:
        print(f"no per-link telemetry found under {root} "
              f"({runs} export(s) scanned)", file=sys.stderr)
        return 1
    total = sum(links.values())
    table = TextTable(
        title=f"Link mix: {runs} run(s), {int(total):,} records ({root})",
        headers=["Link", "Records"],
    )
    ranked = sorted(links.items(), key=lambda item: (-item[1], item[0]))
    for link, count in ranked:
        table.add_row(link, format_count_pct(int(count), 100.0 * count / total))
    print(table.render())
    if protocols:
        proto_table = TextTable(
            title="Protocol mix", headers=["Protocol", "Records"],
        )
        proto_total = sum(protocols.values())
        for proto, count in sorted(
            protocols.items(), key=lambda item: (-item[1], item[0])
        ):
            proto_table.add_row(
                proto, format_count_pct(int(count), 100.0 * count / proto_total)
            )
        print()
        print(proto_table.render())
    if drops:
        drop_table = TextTable(
            title="Capture drops", headers=["Cause", "Records"],
        )
        seen = total + sum(drops.values())
        for cause, count in sorted(
            drops.items(), key=lambda item: (-item[1], item[0])
        ):
            drop_table.add_row(
                cause, format_count_pct(int(count), 100.0 * count / seen)
            )
        print()
        print(drop_table.render())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.telemetry import load_run

    if getattr(args, "links", False):
        return _stats_links(args)
    manifest, records = load_run(args.directory)
    if manifest is None and not records:
        if not Path(args.directory).is_dir():
            print(f"telemetry directory {args.directory} does not exist",
                  file=sys.stderr)
        else:
            print(f"telemetry directory {args.directory} exists but "
                  f"contains no exports", file=sys.stderr)
        return 1
    if args.require is not None and not records:
        # --require is the CI gate: a manifest with no metric records
        # means the instrumented run exported nothing measurable.
        print(f"telemetry export in {args.directory} has no metric records",
              file=sys.stderr)
        return 1
    if manifest is not None:
        payload = manifest.get("manifest", {})
        info = TextTable(
            title=f"Run manifest ({args.directory})",
            headers=["Field", "Value"],
        )
        for key in ("command", "dataset", "seed", "scale", "fault_digest",
                    "git_sha", "python_version", "repro_version", "platform"):
            value = payload.get(key)
            if value is not None:
                info.add_row(key, value)
        print(info.render())
        print()

    def label_suffix(labels: dict) -> str:
        if not labels:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return "{" + inner + "}"

    scalars: dict[str, float] = {}
    totals: dict[str, float] = {}
    histograms = []
    spans = []
    process_spans = []
    for record in records:
        kind = record.get("type")
        name = record.get("name", "")
        if kind in ("counter", "gauge"):
            scalars[name + label_suffix(record.get("labels", {}))] = (
                record.get("value", 0)
            )
            totals[name] = totals.get(name, 0) + record.get("value", 0)
        elif kind == "histogram":
            histograms.append(record)
            totals[name] = totals.get(name, 0) + record.get("count", 0)
        elif kind == "span":
            # Per-process span records (fabric worker attribution) are
            # already folded into the merged aggregates; keep them out
            # of the default view so nothing double-counts.
            if "process" in record:
                process_spans.append(record)
            else:
                spans.append(record)
    if scalars:
        table = TextTable(
            title=f"Metrics: {len(scalars)} series",
            headers=["Metric", "Value"],
        )
        for label, cell in count_rows(scalars):
            table.add_row(label, cell)
        print(table.render())
    if histograms:
        table = TextTable(
            title="Histograms",
            headers=["Metric", "Count", "Mean", "Sum"],
        )
        for record in histograms:
            table.add_row(
                record["name"] + label_suffix(record.get("labels", {})),
                format_count(record.get("count", 0)),
                f"{record.get('mean', 0):.6g}",
                f"{record.get('sum', 0):.6g}",
            )
        print()
        print(table.render())
    if spans:
        table = TextTable(
            title="Spans",
            headers=["Span", "Count", "Wall s", "CPU s"],
        )
        for record in spans:
            table.add_row(
                record.get("name", ""),
                format_count(record.get("count", 0)),
                f"{record.get('wall_seconds', 0):.3f}",
                f"{record.get('cpu_seconds', 0):.3f}",
            )
        print()
        print(table.render())
    if getattr(args, "per_process", False):
        # Render the table even when no span carries a process label
        # (e.g. a threaded-engine export): an explicit empty table, not
        # silence and never a traceback.
        table = TextTable(
            title="Spans by process",
            headers=["Process", "Span", "Count", "Wall s", "CPU s"],
        )
        for record in sorted(
            process_spans,
            key=lambda item: (
                item.get("process") or "", item.get("name") or ""
            ),
        ):
            table.add_row(
                record.get("process") or "",
                record.get("name") or "",
                format_count(record.get("count", 0)),
                f"{record.get('wall_seconds', 0):.3f}",
                f"{record.get('cpu_seconds', 0):.3f}",
            )
        print()
        print(table.render())
    missing = [name for name in (args.require or [])
               if totals.get(name, 0) <= 0]
    if missing:
        print("missing or zero metrics: " + ", ".join(missing),
              file=sys.stderr)
        return 1
    return 0


def cmd_degradation(args: argparse.Namespace) -> int:
    from repro.experiments.degradation import run_from_args

    return run_from_args(args)


def cmd_online_probing(args: argparse.Namespace) -> int:
    from repro.experiments.online_probing import run_from_args

    return run_from_args(args)


def _add_probe_arguments(parser: argparse.ArgumentParser) -> None:
    """Online-probing flags shared by ``stream`` and ``serve``."""
    from repro.probe import POLICY_NAMES

    parser.add_argument(
        "--probe-policy", choices=POLICY_NAMES, default=None,
        help="run the active side online: dispatch seeded probes "
             "inside the event loop under this policy instead of "
             "reading build-time scan reports",
    )
    parser.add_argument(
        "--probe-rate", type=float, default=1.0, metavar="PPS",
        help="probes per simulated second for the online prober "
             "(default 1.0; 0 disables dispatch entirely)",
    )
    parser.add_argument(
        "--probe-ports", type=int, nargs="+", default=None, metavar="PORT",
        help="ports each target is probed on (default: the dataset's "
             "configured service ports; required for tcp-all datasets)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the paper's datasets")

    survey = commands.add_parser("survey", help="run both discovery methods")
    survey.add_argument("dataset")
    survey.add_argument("--scale", type=float, default=0.1)
    survey.add_argument("--seed", type=int, default=0)
    survey.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="collect metrics/spans and export a run manifest, "
             "Prometheus text and JSONL into DIR",
    )

    stream = commands.add_parser(
        "stream", help="run the online streaming discovery engine"
    )
    stream.add_argument("dataset")
    stream.add_argument("--scale", type=float, default=0.1)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--shards", type=int, default=2,
                        help="partition the stream across N shard workers")
    stream.add_argument(
        "--fabric", action="store_true",
        help="run shards as supervised worker processes (the "
             "distributed fabric) instead of in-process threads",
    )
    stream.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker process count for the fabric (implies --fabric; "
             "overrides --shards)",
    )
    stream.add_argument("--heartbeat-interval", type=float, default=0.25,
                        metavar="SECONDS",
                        help="fabric worker heartbeat cadence")
    stream.add_argument("--miss-budget", type=int, default=8,
                        help="heartbeats a fabric worker may miss before "
                             "it is declared dead")
    stream.add_argument("--max-restarts", type=int, default=3,
                        help="restarts per shard before the fabric fails "
                             "the run as degraded")
    stream.add_argument("--worker-crash-rate", type=float, default=0.0,
                        help="chaos: probability a worker incarnation "
                             "crashes at a seeded record count")
    stream.add_argument("--worker-stall-rate", type=float, default=0.0,
                        help="chaos: probability a worker incarnation "
                             "stalls (stops consuming and beating)")
    stream.add_argument("--worker-heartbeat-drop-rate", type=float,
                        default=0.0,
                        help="chaos: probability a worker incarnation "
                             "silently drops a run of heartbeats")
    stream.add_argument("--worker-fault-seed", type=int, default=0)
    stream.add_argument(
        "--emit-every", type=float, default=None, metavar="H",
        help="emit a windowed-completeness watermark every H sim-hours",
    )
    stream.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="H",
        help="write an atomic state checkpoint every H sim-hours",
    )
    stream.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint file (threaded) or per-shard store directory "
             "(fabric); default derived from --out or the dataset",
    )
    stream.add_argument("--resume", action="store_true",
                        help="resume from the checkpoint file if present")
    stream.add_argument("--batch-records", type=int, default=8192)
    stream.add_argument("--queue-chunks", type=int, default=8,
                        help="bound on queued batches per shard (backpressure)")
    stream.add_argument("--loss-rate", type=float, default=0.0,
                        help="i.i.d. capture loss rate")
    stream.add_argument("--burst-loss-rate", type=float, default=0.0)
    stream.add_argument("--outage-fraction", type=float, default=0.0,
                        help="fraction of the observation each link's "
                             "monitor is down")
    stream.add_argument("--outage-count", type=int, default=1)
    stream.add_argument("--fault-seed", type=int, default=0)
    stream.add_argument("--out", default=None,
                        help="also write the final report to this file")
    stream.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="collect metrics/spans and export a run manifest, "
             "Prometheus text and JSONL into DIR",
    )
    stream.add_argument(
        "--trace", default=None, metavar="DIR",
        help="record causally linked trace events (and crash flight-"
             "recorder dumps) into DIR; view with trace-view",
    )
    _add_probe_arguments(stream)

    serve = commands.add_parser(
        "serve", help="serve live discovery state over HTTP while ingesting"
    )
    serve.add_argument("dataset")
    serve.add_argument("--scale", type=float, default=0.1)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks an ephemeral port, "
                            "announced on stderr)")
    serve.add_argument("--shards", type=int, default=2,
                       help="partition ingest across N shard workers")
    serve.add_argument(
        "--fabric", action="store_true",
        help="run shards as supervised worker processes (the "
             "distributed fabric) instead of in-process threads",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker process count for the fabric (implies --fabric; "
             "overrides --shards)",
    )
    serve.add_argument("--heartbeat-interval", type=float, default=0.25,
                       metavar="SECONDS")
    serve.add_argument("--miss-budget", type=int, default=8)
    serve.add_argument("--max-restarts", type=int, default=3)
    serve.add_argument(
        "--snapshot-every", type=float, default=1.0, metavar="H",
        help="publish a query snapshot every H sim-hours (default 1.0)",
    )
    serve.add_argument(
        "--emit-every", type=float, default=None, metavar="H",
        help="emit a windowed-completeness watermark every H sim-hours",
    )
    serve.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="H",
        help="write an atomic state checkpoint every H sim-hours",
    )
    serve.add_argument("--checkpoint", default=None, metavar="PATH")
    serve.add_argument("--batch-records", type=int, default=8192)
    serve.add_argument("--loss-rate", type=float, default=0.0,
                       help="i.i.d. capture loss rate")
    serve.add_argument("--burst-loss-rate", type=float, default=0.0)
    serve.add_argument("--outage-fraction", type=float, default=0.0)
    serve.add_argument("--outage-count", type=int, default=1)
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="export collected metrics into DIR on shutdown",
    )
    serve.add_argument(
        "--trace", default=None, metavar="DIR",
        help="record causally linked trace events into DIR; serves "
             "/tracez and flight-recorder state on /healthz",
    )
    _add_probe_arguments(serve)

    checkpoint = commands.add_parser(
        "checkpoint", help="checkpoint-store utilities"
    )
    checkpoint_commands = checkpoint.add_subparsers(
        dest="checkpoint_command", required=True
    )
    prune = checkpoint_commands.add_parser(
        "prune",
        help="drop generations older than the newest --keep N from a "
             "fabric checkpoint store",
    )
    prune.add_argument("directory")
    prune.add_argument("--keep", type=int, default=2, metavar="N",
                       help="committed generations to retain (default 2)")

    record = commands.add_parser("record", help="record a border trace")
    record.add_argument("dataset")
    record.add_argument("out")
    record.add_argument("--scale", type=float, default=0.1)
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--days", type=float, default=None,
                        help="record only the first N days")
    record.add_argument("--anonymize-key", type=int, default=None,
                        help="anonymise addresses with this key")
    record.add_argument(
        "--format", type=int, choices=(1, 2), default=2, dest="format_version",
        help="trace format version to write (2 = columnar, the default)",
    )

    stats = commands.add_parser("trace-stats", help="summarise a trace file")
    stats.add_argument("file")
    stats.add_argument("--campus", default="128.125.0.0/16")
    stats.add_argument("--top", type=int, default=10)

    trace_view = commands.add_parser(
        "trace-view",
        help="merge a --trace directory into one Chrome-trace timeline",
    )
    trace_view.add_argument("directory")
    trace_view.add_argument(
        "--out", default=None, metavar="PATH",
        help="Chrome trace JSON output path (default DIR/trace.json)",
    )

    trace = commands.add_parser(
        "trace", help="trace-file utilities (convert between formats)"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    convert = trace_commands.add_parser(
        "convert",
        help="convert a trace between v1 (row) and v2 (columnar) formats",
    )
    convert.add_argument("source")
    convert.add_argument("destination")
    convert.add_argument(
        "--to", type=int, choices=(1, 2), default=2, dest="to_version",
        help="target format version (default: 2, the columnar format)",
    )
    convert.add_argument(
        "--chunk-records", type=int, default=None,
        help="records per v2 chunk (default %d)" % 65536,
    )

    cache = commands.add_parser("cache", help="show the record-once trace cache")
    cache.add_argument("--clear", action="store_true",
                       help="remove every cached trace")

    run_stats = commands.add_parser(
        "stats", help="read back a --telemetry export directory"
    )
    run_stats.add_argument("directory")
    run_stats.add_argument(
        "--require", nargs="*", default=None, metavar="METRIC",
        help="exit non-zero unless each named metric is present "
             "and non-zero (summed across its label sets)",
    )
    run_stats.add_argument(
        "--links", action="store_true",
        help="aggregate per-link and per-protocol counters across a "
             "directory of telemetry exports into one link-mix table",
    )
    run_stats.add_argument(
        "--per-process", action="store_true", dest="per_process",
        help="also show span aggregates attributed to each fabric "
             "worker process",
    )

    from repro.experiments.degradation import configure_parser

    degradation = commands.add_parser(
        "degradation",
        help="sweep fault plans against passive/active completeness",
    )
    configure_parser(degradation)

    from repro.experiments.online_probing import (
        configure_parser as configure_online_probing,
    )

    online_probing = commands.add_parser(
        "online_probing",
        help="compare heartbeat/periodic online probing against the "
             "passive stream across probe budgets",
    )
    configure_online_probing(online_probing)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "survey": cmd_survey,
        "stream": cmd_stream,
        "serve": cmd_serve,
        "checkpoint": cmd_checkpoint,
        "record": cmd_record,
        "trace-stats": cmd_trace_stats,
        "trace-view": cmd_trace_view,
        "trace": cmd_trace,
        "cache": cmd_cache,
        "stats": cmd_stats,
        "degradation": cmd_degradation,
        "online_probing": cmd_online_probing,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    sys.exit(main())
