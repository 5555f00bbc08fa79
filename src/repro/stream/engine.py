"""The streaming discovery engine: run loop, resume, and final merge.

:class:`StreamEngine` consumes a dataset's border capture as an
unbounded stream of column batches
(:meth:`repro.datasets.builder.BuiltDataset.record_batches`: the
record-once trace cache when a recording exists, the traffic model
otherwise, entered at the resume offset) and drives the sharded
pipeline end to end:

1. the driving thread reads one batch, applies the run's fault filter
   (capture loss and monitor outages, in stream order -- the same drop
   pattern the batch path produces), routes it with
   :func:`repro.stream.shard.split_columns`, and hands the parts to the
   :class:`repro.stream.ingest.StreamIngestor`;
2. when stream time crosses an emission mark, the engine drains the
   shard queues and emits a :class:`repro.stream.watermark.Watermark`
   -- windowed completeness without replay;
3. when stream time crosses a checkpoint mark, it drains and writes an
   atomic versioned snapshot (:mod:`repro.stream.checkpoint`), so a
   killed run resumes from the last checkpoint and converges to the
   identical final report;
4. at end of stream the shard states merge into one ordinary
   :class:`~repro.passive.monitor.PassiveServiceTable` and the final
   report renders through the same function as ``python -m repro
   survey`` -- byte-identical to the batch path on the same
   (seed, scale, faults).

Memory is flat in trace length: the engine holds one decoded batch
plus the bounded shard queues; nothing retains the stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.active.results import union_open_endpoints
from repro.core.completeness import CompletenessSummary, summarize_overlap
from repro.core.report import survey_table
from repro.passive.monitor import Endpoint, PassiveServiceTable
from repro.probe import POLICY_NAMES, build_prober
from repro.query.snapshot import DiscoverySnapshot, snapshot_states
from repro.stream.checkpoint import (
    checkpoint_config,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.ingest import DEFAULT_MAX_QUEUE_CHUNKS, StreamIngestor
from repro.stream.shard import (
    ShardState,
    merge_shards,
    merged_last_seen,
    split_columns,
)
from repro.stream.watermark import ActiveTimeline, Watermark, emit_schedule
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.telemetry.tracing import tracer as _tracer
from repro.trace.format import DEFAULT_BATCH_RECORDS


@dataclass(frozen=True)
class StreamConfig:
    """Everything one stream run is a function of.

    ``emit_every`` and ``checkpoint_every`` are in dataset seconds
    (the CLI converts from sim-hours); ``None`` disables periodic
    emission (a final watermark at end of stream is always produced)
    or checkpointing respectively.  ``end`` truncates the stream (the
    memory-flatness test compares 1x vs 4x duration); ``None`` streams
    the dataset's full observation.
    """

    dataset: str
    seed: int = 0
    scale: float = 1.0
    shards: int = 1
    batch_records: int = DEFAULT_BATCH_RECORDS
    emit_every: float | None = None
    checkpoint_every: float | None = None
    checkpoint_path: str | None = None
    max_queue_chunks: int = DEFAULT_MAX_QUEUE_CHUNKS
    faults: object | None = None
    end: float | None = None
    #: Publish a query snapshot every this many dataset seconds (needs a
    #: ``publisher`` passed to :meth:`StreamEngine.run`).  Like
    #: ``emit_every`` this is outside the checkpoint identity: it only
    #: controls how often read-side copies are taken, never the result.
    snapshot_every: float | None = None
    #: Online probing policy (``"periodic"`` or ``"heartbeat"``); None
    #: streams passively against build-time scan reports, exactly as
    #: before.  With a policy set, the run's active side comes
    #: exclusively from the in-stream :class:`repro.probe.ProbeScheduler`
    #: -- watermarks, the final report, and published snapshots all
    #: read its live evidence.
    probe_policy: str | None = None
    #: Probes per second: the heartbeat's uniform rate, the periodic
    #: sweep's polite-timing cap.  0 (the default) schedules no probes
    #: -- an online run at rate 0 is byte-identical to the passive path.
    probe_rate: float = 0.0
    #: Ports to probe; None means the dataset's watched port list.
    probe_ports: tuple | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if self.snapshot_every is not None and self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        if self.probe_policy is not None and self.probe_policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown probe policy {self.probe_policy!r}; "
                f"expected one of {POLICY_NAMES}"
            )
        if self.probe_rate < 0:
            raise ValueError("probe_rate must be >= 0")
        if self.probe_ports is not None and not self.probe_ports:
            raise ValueError("probe_ports must be None or non-empty")

    def probe_identity(self) -> dict | None:
        """The online-probing part of the checkpoint identity.

        Everything the probe schedule is a pure function of (beyond
        the dataset/seed/scale already in the identity): policy, rate
        (keyed by ``repr`` like the scale), and the explicit port list.
        ``None`` when probing is off, keeping passive checkpoint
        identities exactly as they were.
        """
        if self.probe_policy is None:
            return None
        return {
            "policy": self.probe_policy,
            "rate": repr(float(self.probe_rate)),
            "ports": (
                sorted(self.probe_ports)
                if self.probe_ports is not None
                else None
            ),
        }


@dataclass
class StreamResult:
    """What a stream run produced.

    ``finished`` is False only for runs stopped early via
    ``stop_after_records`` (the in-process kill simulation); such
    results carry progress counters but no report.
    """

    finished: bool
    records_read: int
    records_delivered: int
    checkpoints_written: int
    resumed: bool
    watermarks: list[Watermark] = field(default_factory=list)
    summary: CompletenessSummary | None = None
    report: str | None = None
    table: PassiveServiceTable | None = None
    last_seen: dict[Endpoint, float] = field(default_factory=dict)
    #: The final merged state as the query path's snapshot structure --
    #: the same object type the live service answers from, so a query
    #: response and this result cannot disagree.
    snapshot: DiscoverySnapshot | None = None


def finalize_result(
    config: StreamConfig,
    dataset,
    states: list[ShardState],
    watermarks: list[Watermark],
    records_read: int,
    records_delivered: int,
    checkpoints_written: int,
    resumed: bool,
    now: float = 0.0,
    probes=None,
) -> StreamResult:
    """Merge drained shard states and render the final report.

    The single funnel every streaming front-end finishes through --
    the threaded engine and the process fabric both call this, so
    "byte-identical to batch" is one code path, not a convention.
    The completeness summary is computed from the *query snapshot's*
    view of the merged state (:func:`snapshot_states`), so the rendered
    report and an exhaustive ``/services`` query share one aggregation.

    *probes* is the run's :class:`~repro.probe.ProbeScheduler` when it
    probed online (advanced to the stream end by the caller); its live
    evidence then replaces the build-time scan reports as the report's
    active side, and the scan count is the sweeps it completed.
    """
    merged = merge_shards(
        states,
        PassiveServiceTable(
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        ),
    )
    snapshot = snapshot_states(
        states, now=now, records=records_delivered, watermarks=watermarks,
        probes=probes.view() if probes is not None else None,
    )
    if probes is not None:
        active_addresses = probes.open_addresses()
        scans = probes.sweeps_recorded()
    else:
        active_addresses = {
            address for address, _ in union_open_endpoints(dataset.scan_reports)
        }
        if dataset.udp_report is not None:
            active_addresses |= {
                address for address, _ in dataset.udp_report.open_endpoints()
            }
        scans = len(dataset.scan_reports)
    summary = summarize_overlap(snapshot.server_addresses(), active_addresses)
    report = survey_table(
        config.dataset, config.scale, config.seed,
        records_delivered, scans, summary,
    ).render()
    return StreamResult(
        finished=True,
        records_read=records_read,
        records_delivered=records_delivered,
        checkpoints_written=checkpoints_written,
        resumed=resumed,
        watermarks=watermarks,
        summary=summary,
        report=report,
        table=merged,
        last_seen=merged_last_seen(states),
        snapshot=snapshot,
    )


class StreamEngine:
    """Drive one streaming discovery run (see the module docstring)."""

    def __init__(self, config: StreamConfig, dataset=None) -> None:
        self.config = config
        plan = config.faults
        if plan is not None and getattr(plan, "is_null", False):
            plan = None
        self.plan = plan
        if dataset is None:
            from repro.datasets import build_dataset

            dataset = build_dataset(
                config.dataset, seed=config.seed, scale=config.scale,
                faults=plan,
            )
        self.dataset = dataset

    # ---- identity & sources -------------------------------------------

    def _identity(self) -> dict:
        digest = None
        if self.plan is not None:
            from repro.telemetry.manifest import fault_plan_digest

            digest = fault_plan_digest(self.plan)
        config = self.config
        return checkpoint_config(
            config.dataset, config.seed, config.scale, config.shards, digest,
            probe=config.probe_identity(),
        )

    def _effective_end(self) -> float:
        duration = self.dataset.duration
        if self.config.end is None:
            return duration
        return min(self.config.end, duration)

    # ---- watermarks & checkpoints --------------------------------------

    def _watermark(
        self,
        mark: float,
        records: int,
        states: list[ShardState],
        active: ActiveTimeline,
    ) -> Watermark:
        """Completeness at *mark* from live (drained) shard state.

        The current batch may straddle the mark, so passive state is
        filtered by evidence time: an endpoint counts iff its first
        evidence is at or before the mark, exactly the set a batch
        replay truncated at the mark would report.
        """
        passive = {
            address
            for state in states
            for (address, _port, _proto), seen in state.table.first_seen.items()
            if seen <= mark
        }
        summary = summarize_overlap(passive, set(active.addresses_by(mark)))
        return Watermark(time=mark, records=records, summary=summary)

    def _save_checkpoint(
        self,
        path: Path,
        identity: dict,
        states: list[ShardState],
        faults,
        progress: dict,
    ) -> None:
        payload = {
            "config": identity,
            "faults": faults.state_dict() if faults is not None else None,
            "shards": [state.state_dict() for state in states],
        }
        payload.update(progress)
        started = perf_counter()
        size = save_checkpoint(path, payload)
        elapsed = perf_counter() - started
        reg = _telemetry_registry()
        if reg.enabled:
            reg.counter(
                "repro_stream_checkpoints_total",
                "Checkpoints written by stream runs.",
            ).inc()
            reg.histogram(
                "repro_stream_checkpoint_bytes",
                "Size of each written stream checkpoint.",
            ).observe(size)
            reg.histogram(
                "repro_stream_checkpoint_seconds",
                "Wall time to serialise and atomically write a checkpoint.",
            ).observe(elapsed)

    # ---- the run loop ---------------------------------------------------

    def run(
        self,
        resume: bool = False,
        stop_after_records: int | None = None,
        progress: Callable[[Watermark], None] | None = None,
        publisher=None,
    ) -> StreamResult:
        """Stream the dataset to completion (or resume a killed run).

        With ``resume=True`` and an existing checkpoint at
        ``config.checkpoint_path``, the run restores shard state, the
        fault filter's per-link loss processes, and the source offset,
        then continues -- converging to the same final report as an
        uninterrupted run.  ``stop_after_records`` aborts the run
        after roughly that many records *without* a final checkpoint
        (simulating a kill for the recovery tests).  *progress* is
        called with each emitted watermark.

        On ``KeyboardInterrupt`` (the CLI maps SIGTERM onto it) the
        engine drains, writes a checkpoint when a path is configured,
        and re-raises -- the graceful half of kill/resume.

        *publisher* is a :class:`repro.query.state.QueryState` (or
        anything with ``publish(snapshot)``); when set together with
        ``config.snapshot_every``, the engine drains at each snapshot
        mark and publishes a copy-on-publish
        :class:`~repro.query.snapshot.DiscoverySnapshot` of the merged
        shard state.  The final snapshot is always published so the
        service keeps answering after the stream ends.
        """
        config = self.config
        dataset = self.dataset
        end = self._effective_end()
        identity = self._identity()
        ckpt_path = (
            Path(config.checkpoint_path) if config.checkpoint_path else None
        )

        def fresh_table() -> PassiveServiceTable:
            return PassiveServiceTable(
                is_campus=dataset.is_campus,
                tcp_ports=dataset.tcp_ports,
                udp_ports=dataset.udp_ports,
            )

        states = [ShardState(index, fresh_table()) for index in range(config.shards)]
        faults = (
            self.plan.capture_filter(dataset.duration)
            if self.plan is not None
            else None
        )
        prober = build_prober(
            dataset, config.probe_policy, config.probe_rate,
            config.probe_ports, config.seed, end,
        )
        # With online probing, the scheduler IS the active side: its
        # live evidence feeds watermarks (same addresses_by contract)
        # instead of the build-time scan timeline.
        active = (
            prober
            if prober is not None
            else ActiveTimeline(dataset.scan_reports, dataset.udp_report)
        )
        marks = (
            emit_schedule(end, config.emit_every)
            if config.emit_every
            else [end]
        )
        snap_marks = (
            emit_schedule(end, config.snapshot_every)
            if publisher is not None and config.snapshot_every
            else []
        )
        snap_index = 0

        records_read = 0
        records_delivered = 0
        now = 0.0
        emitted_index = 0
        watermarks: list[Watermark] = []
        checkpoints_written = 0
        resumed = False

        if resume:
            if ckpt_path is None:
                raise ValueError("resume requires config.checkpoint_path")
            if ckpt_path.exists():
                payload = load_checkpoint(ckpt_path, identity)
                records_read = int(payload["records_read"])
                records_delivered = int(payload["records_delivered"])
                now = float(payload["now"])
                emitted_index = int(payload["emitted_index"])
                watermarks = list(payload["watermarks"])
                for state, saved in zip(states, payload["shards"]):
                    state.restore_state(saved)
                if faults is not None and payload.get("faults") is not None:
                    faults.restore_state(payload["faults"])
                if prober is not None and payload.get("probes") is not None:
                    prober.restore_state(payload["probes"])
                resumed = True

        next_checkpoint = None
        if config.checkpoint_every is not None and ckpt_path is not None:
            next_checkpoint = config.checkpoint_every
            while next_checkpoint <= now:
                next_checkpoint += config.checkpoint_every

        read_at_start = records_read
        delivered_at_start = records_delivered
        loss_at_start = faults.stats.dropped_loss if faults is not None else 0
        outage_at_start = faults.stats.dropped_outage if faults is not None else 0
        reg = _telemetry_registry()
        tap = None
        if reg.enabled:
            from repro.telemetry.tap import ReplayTap

            tap = ReplayTap()
        is_campus = dataset.is_campus
        shards = config.shards

        def snapshot_progress() -> dict:
            return {
                "records_read": records_read,
                "records_delivered": records_delivered,
                "now": now,
                "emitted_index": emitted_index,
                "watermarks": list(watermarks),
                "probes": (
                    prober.state_dict() if prober is not None else None
                ),
            }

        ingestor = StreamIngestor(states, max_queue_chunks=config.max_queue_chunks)
        interrupted = False
        trc = _tracer()
        trc.event(
            "stream.start", shards=shards, records=records_read,
            resumed=resumed,
        )
        wall_start = perf_counter()
        try:
            for batch in dataset.record_batches(
                end, records_read, config.batch_records
            ):
                records_read += len(batch)
                if faults is not None:
                    batch = faults.keep_rows(batch)
                records_delivered += len(batch)
                if len(batch):
                    last_time = float(batch.time[-1])
                    if last_time > now:
                        now = last_time
                    if tap is not None:
                        tap.observe_columns(batch)
                    ingestor.dispatch(split_columns(batch, is_campus, shards))
                    if trc.enabled:
                        trc.note("engine.batch", records=records_read)
                if prober is not None:
                    # Interleave: fire every probe the policy scheduled
                    # at or before the stream's new instant, so the
                    # watermark/checkpoint below see its evidence.
                    prober.advance(now)
                while emitted_index < len(marks) and now >= marks[emitted_index]:
                    ingestor.drain()
                    mark = marks[emitted_index]
                    watermark = self._watermark(
                        mark, records_delivered, states, active
                    )
                    watermarks.append(watermark)
                    emitted_index += 1
                    if trc.enabled:
                        trc.event(
                            "stream.watermark", mark=mark,
                            records=records_delivered,
                        )
                    if reg.enabled:
                        reg.counter(
                            "repro_stream_watermarks_total",
                            "Watermarks emitted by stream runs.",
                        ).inc()
                        reg.histogram(
                            "repro_stream_watermark_lag_seconds",
                            "Stream-time lag between a mark and its emission.",
                        ).observe(max(0.0, now - mark))
                    if progress is not None:
                        progress(watermark)
                if snap_index < len(snap_marks) and now >= snap_marks[snap_index]:
                    # Catch up past every satisfied mark but copy state
                    # only once -- queues drained, so the snapshot is a
                    # consistent stream prefix.
                    while (
                        snap_index < len(snap_marks)
                        and now >= snap_marks[snap_index]
                    ):
                        snap_index += 1
                    ingestor.drain()
                    publisher.publish(
                        snapshot_states(
                            states,
                            now=now,
                            records=records_delivered,
                            watermarks=list(watermarks),
                            probes=(
                                prober.view() if prober is not None else None
                            ),
                        )
                    )
                    if trc.enabled:
                        trc.event(
                            "stream.snapshot", records=records_delivered
                        )
                    if reg.enabled:
                        reg.counter(
                            "repro_stream_snapshots_total",
                            "Query snapshots published by stream runs.",
                        ).inc()
                if next_checkpoint is not None and now >= next_checkpoint:
                    ingestor.drain()
                    with trc.span("stream.checkpoint", records=records_read):
                        self._save_checkpoint(
                            ckpt_path, identity, states, faults,
                            snapshot_progress(),
                        )
                    checkpoints_written += 1
                    while next_checkpoint <= now:
                        next_checkpoint += config.checkpoint_every
                if (
                    stop_after_records is not None
                    and records_read >= stop_after_records
                ):
                    interrupted = True
                    break
        except KeyboardInterrupt:
            ingestor.drain()
            if ckpt_path is not None:
                self._save_checkpoint(
                    ckpt_path, identity, states, faults, snapshot_progress()
                )
            raise
        finally:
            ingestor.close()
            if reg.enabled:
                if tap is not None:
                    tap.flush_into(reg)
                ingestor.flush_telemetry(reg)
                elapsed = perf_counter() - wall_start
                reg.counter(
                    "repro_stream_read_records_total",
                    "Records pulled from the stream source this run.",
                ).inc(records_read - read_at_start)
                reg.counter(
                    "repro_stream_records_total",
                    "Records delivered to the shards this run (post-faults).",
                ).inc(records_delivered - delivered_at_start)
                reg.counter(
                    "repro_stream_seconds_total",
                    "Wall time spent inside stream run loops.",
                ).inc(elapsed)
                if faults is not None:
                    drops = faults.stats
                    reg.counter(
                        "repro_passive_dropped_total",
                        "Records the monitors failed to capture, by cause.",
                        cause="loss",
                    ).inc(drops.dropped_loss - loss_at_start)
                    reg.counter(
                        "repro_passive_dropped_total",
                        "Records the monitors failed to capture, by cause.",
                        cause="outage",
                    ).inc(drops.dropped_outage - outage_at_start)
                if elapsed > 0:
                    reg.gauge(
                        "repro_stream_records_per_sec",
                        "Source throughput of the most recent stream run.",
                    ).set((records_read - read_at_start) / elapsed)

        if interrupted:
            return StreamResult(
                finished=False,
                records_read=records_read,
                records_delivered=records_delivered,
                checkpoints_written=checkpoints_written,
                resumed=resumed,
                watermarks=watermarks,
            )

        if prober is not None:
            # The stream is drained; fire everything scheduled through
            # its end (probes can outlast the last packet) so the final
            # marks and report carry the complete active evidence.
            prober.advance(end)

        while emitted_index < len(marks):
            # Marks at or past the last record's timestamp (always at
            # least the final one) are emitted once the source drains.
            watermark = self._watermark(
                marks[emitted_index], records_delivered, states, active
            )
            watermarks.append(watermark)
            emitted_index += 1
            if reg.enabled:
                reg.counter(
                    "repro_stream_watermarks_total",
                    "Watermarks emitted by stream runs.",
                ).inc()
            if progress is not None:
                progress(watermark)

        if ckpt_path is not None and ckpt_path.exists():
            # Clean finish: a stale checkpoint must not hijack the next run.
            ckpt_path.unlink()
        trc.event(
            "stream.end", records=records_read, watermarks=len(watermarks)
        )
        result = finalize_result(
            config, dataset, states, watermarks,
            records_read, records_delivered, checkpoints_written, resumed,
            now=now, probes=prober,
        )
        if publisher is not None and result.snapshot is not None:
            publisher.publish(result.snapshot)
        return result


def batch_survey_report(config: StreamConfig, dataset=None) -> str:
    """The batch path's report for *config* -- the equivalence oracle.

    Builds the dataset, replays it through one monolithic passive table
    (with the same fault plan a stream run would apply), and renders
    through the shared :func:`repro.core.report.survey_table`.  Tests
    assert ``StreamEngine(config).run().report == batch_survey_report(config)``
    byte for byte, at any shard count.
    """
    plan = config.faults
    if plan is not None and getattr(plan, "is_null", False):
        plan = None
    if dataset is None:
        from repro.datasets import build_dataset

        dataset = build_dataset(
            config.dataset, seed=config.seed, scale=config.scale, faults=plan
        )
    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
    )
    faults = plan.capture_filter(dataset.duration) if plan is not None else None
    records = dataset.replay(table, faults=faults)
    active_addresses = {
        address for address, _ in union_open_endpoints(dataset.scan_reports)
    }
    if dataset.udp_report is not None:
        active_addresses |= {
            address for address, _ in dataset.udp_report.open_endpoints()
        }
    summary = summarize_overlap(table.server_addresses(), active_addresses)
    return survey_table(
        config.dataset, config.scale, config.seed,
        records, len(dataset.scan_reports), summary,
    ).render()
