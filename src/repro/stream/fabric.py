"""The distributed shard fabric: supervised worker processes.

The threaded engine (:mod:`repro.stream.engine`) shards across worker
*threads*, so folding throughput is GIL-bound and any crash kills the
whole run.  This module promotes shards to shared-nothing worker
**processes**: a :class:`FabricSupervisor` reads the source stream,
applies the run's fault filter (once, in stream order -- the drop
pattern is decided before any process boundary, so it cannot depend on
worker scheduling or deaths), routes each batch with
:func:`repro.stream.shard.split_columns`, and ships per-shard
sub-batches over bounded ``multiprocessing`` queues to workers that do
nothing but fold them into their own
:class:`~repro.stream.shard.ShardState`.

**Membership and liveness.**  Workers join with a registration
handshake and then heartbeat on their own clock; the supervisor's
:class:`~repro.stream.membership.Membership` table declares a worker
dead after ``miss_budget`` missed intervals (or a blown join timeout),
on process exit, or when its queue stays full past the stall budget.
Every worker message carries an incarnation number, so traffic from a
declared-dead process that lingers in a queue is discarded.

**Failover.**  A dead shard is dropped and reassigned: the supervisor
SIGKILLs the old process, restores the shard from the newest good
per-shard checkpoint generation (:class:`ShardCheckpointStore`),
replays the gap from the trace via the source's ``skip_records`` seek
through a scratch fault filter restored to the checkpoint's state (so
the replayed drop pattern is bit-identical to what the dead worker
saw), and resumes -- with bounded retries and exponential backoff.
Exhausting ``max_restarts`` raises :class:`FabricDegradedError`
("degraded: shard N restarted K times") instead of hanging.

**Consistency.**  Watermark and checkpoint requests travel *in band*
on the same FIFO queues as data, so a worker answers them only after
folding everything that preceded them -- the distributed analogue of
the threaded engine's ``drain()`` barrier.  A checkpoint generation is
committed by the supervisor's manifest write, which happens only after
every shard acked its own file: generations are all-or-nothing, and a
failover mid-generation simply aborts it (the orphan shard files are
never referenced and later pruned).

The invariant all of this machinery serves: the final report is
**byte-identical** to the single-process batch path at any worker
count -- including under injected worker crashes, stalls, dropped
heartbeats, and a SIGKILL'd supervisor resumed from the manifest --
because the merge is the same order-independent shard union and every
replayed record is filtered by the same deterministic RNG streams.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter
from typing import Callable

from repro.core.completeness import summarize_overlap
from repro.faults.worker import WorkerFaultEvents, WorkerFaultPlan
from repro.passive.monitor import PassiveServiceTable
from repro.probe import build_prober
from repro.query.snapshot import merge_snapshot_payloads, shard_snapshot_payload
from repro.stream.checkpoint import (
    ShardCheckpointStore,
    ShardRestore,
)
from repro.stream.engine import StreamConfig, StreamEngine, StreamResult, finalize_result
from repro.stream.membership import Membership
from repro.stream.shard import ShardState, split_columns
from repro.stream.watermark import ActiveTimeline, Watermark, emit_schedule
from repro.telemetry.metrics import MetricRegistry, set_registry
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.telemetry.spans import span as _span
from repro.telemetry.tracing import Tracer, set_tracer
from repro.telemetry.tracing import tracer as _tracer


class FabricError(RuntimeError):
    """The fabric could not complete the run."""


class FabricDegradedError(FabricError):
    """A shard exhausted its restart budget; the run fails structurally.

    Raised instead of hanging or silently dropping the shard: a report
    missing one shard's endpoints would be *wrong*, not late, so the
    degraded contract is fail-stop with a machine-readable reason.
    """

    def __init__(self, shard: int, restarts: int, reason: str) -> None:
        super().__init__(
            f"degraded: shard {shard} restarted {restarts} times ({reason})"
        )
        self.shard = shard
        self.restarts = restarts
        self.reason = reason


@dataclass(frozen=True)
class FabricConfig:
    """Supervision knobs, separate from the stream identity.

    Nothing here affects the report's bytes -- heartbeat cadence,
    restart budgets, and fault injection change *when* failovers happen,
    never what the merged shard states contain -- so none of it enters
    the checkpoint identity.
    """

    heartbeat_interval: float = 0.25
    miss_budget: int = 8
    join_timeout: float = 30.0
    max_restarts: int = 3
    restart_backoff: float = 0.05
    restart_backoff_max: float = 2.0
    put_timeout: float = 0.1
    stall_timeout: float = 10.0
    keep_generations: int = 2
    worker_faults: WorkerFaultPlan | None = None

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.miss_budget < 1:
            raise ValueError("miss_budget must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.put_timeout <= 0 or self.stall_timeout <= 0:
            raise ValueError("put_timeout and stall_timeout must be > 0")


# ---- the worker process -----------------------------------------------


def _shard_worker(
    shard: int,
    incarnation: int,
    dataset,
    identity: dict,
    store_root,
    keep_generations: int,
    initial_state: dict | None,
    work_queue,
    results_queue,
    heartbeat_interval: float,
    events: WorkerFaultEvents,
    trace_config: dict | None = None,
) -> None:
    """Child main: fold sub-batches, answer markers, heartbeat.

    Runs under the ``fork`` start method, so arguments (including the
    dataset with its closure-based campus predicate) arrive by memory
    inheritance, never pickling.  The worker owns its shard's state
    exclusively; the only shared surfaces are the two queues.  Exits
    via ``os._exit`` on injected crashes (no atexit, no queue flush --
    indistinguishable from SIGKILL) and when orphaned by a dead
    supervisor.

    Every in-band work item carries the supervisor's trace context as
    its trailing element; with tracing on, the worker's own events
    parent on it, which is what stitches a failover into one causal
    chain across the process boundary.  The inherited parent tracer and
    registry must never be written from the child: the tracer is
    replaced first thing (a fresh per-incarnation one, or the null
    tracer), and a fresh metric registry is swapped in iff telemetry is
    enabled, its snapshot shipped home on the ``done`` message.
    """
    parent = os.getppid()
    if trace_config is not None:
        trc = set_tracer(
            Tracer(
                trace_config["directory"],
                trace_id=trace_config["trace_id"],
                process=f"shard{shard}-i{incarnation}",
                flight_limit=trace_config["flight_limit"],
            )
        )
        trc.event(
            "worker.start",
            parent=trace_config["parent"],
            shard=shard,
            incarnation=incarnation,
        )
    else:
        trc = set_tracer(None)
    snapshot_home = _telemetry_registry().enabled
    if snapshot_home:
        # The forked registry holds the parent's counts; a fresh one
        # isolates this worker's contribution for the merge at "done".
        set_registry(MetricRegistry())
    state = ShardState(
        shard,
        PassiveServiceTable(
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        ),
    )
    if initial_state is not None:
        state.restore_state(initial_state)
    store = (
        ShardCheckpointStore(store_root, keep_generations)
        if store_root is not None
        else None
    )
    suppress_beats = 0
    drop_armed = events.drop_heartbeats_at is not None
    last_beat = monotonic()
    results_queue.put(("join", shard, incarnation, os.getpid()))
    try:
        while True:
            if os.getppid() != parent:
                os._exit(2)  # supervisor died; no one will reap us
            tick = monotonic()
            if tick - last_beat >= heartbeat_interval:
                last_beat = tick
                if suppress_beats > 0:
                    suppress_beats -= 1
                else:
                    results_queue.put(("beat", shard, incarnation))
            try:
                item = work_queue.get(timeout=heartbeat_interval / 2)
            except queue.Empty:
                continue
            kind = item[0]
            if kind == "batch":
                part = item[1]
                with _span("fabric.worker.batch"):
                    state.observe_columns(part)
                if trc.enabled:
                    trc.note("worker.batch", parent=item[2],
                             records=state.records)
                if events.crash_at is not None and state.records >= events.crash_at:
                    if trc.enabled:
                        trc.event("worker.crash", parent=item[2], shard=shard,
                                  incarnation=incarnation,
                                  records=state.records)
                        trc.dump_flight(
                            "crash",
                            f"injected crash at {state.records} records",
                        )
                    os._exit(137)  # injected crash: as abrupt as SIGKILL
                if events.stall_at is not None and state.records >= events.stall_at:
                    # Injected stall: stop consuming *and* beating, so the
                    # supervisor's miss budget is what ends us.
                    if trc.enabled:
                        trc.event("worker.stall", parent=item[2], shard=shard,
                                  incarnation=incarnation,
                                  records=state.records)
                        trc.dump_flight(
                            "stall",
                            f"injected stall at {state.records} records",
                        )
                    while True:
                        time.sleep(heartbeat_interval)
                        if os.getppid() != parent:
                            os._exit(2)
                if drop_armed and state.records >= events.drop_heartbeats_at:
                    drop_armed = False
                    suppress_beats = events.drop_heartbeats
            elif kind == "mark":
                _, index, mark, ctx = item
                with _span("fabric.worker.mark"), \
                        trc.span("worker.mark", parent=ctx, index=index,
                                 records=state.records):
                    owned = sorted(
                        {
                            address
                            for (address, _p, _pr), seen
                            in state.table.first_seen.items()
                            if seen <= mark
                        }
                    )
                results_queue.put(
                    ("mark_ack", shard, incarnation, index, tuple(owned))
                )
            elif kind == "ckpt":
                generation = item[1]
                with _span("fabric.worker.ckpt"), \
                        trc.span("worker.ckpt", parent=item[2],
                                 generation=generation,
                                 records=state.records):
                    store.save_shard(
                        shard, generation, identity, state.state_dict()
                    )
                results_queue.put(("ckpt_ack", shard, incarnation, generation))
            elif kind == "snap":
                # In-band like marks: the payload covers exactly the
                # records fed before the request -- a consistent cut.
                with trc.span("worker.snap", parent=item[2], index=item[1],
                              records=state.records):
                    payload = shard_snapshot_payload(state)
                results_queue.put(
                    ("snap_ack", shard, incarnation, item[1], payload)
                )
            elif kind == "stop":
                if trc.enabled:
                    trc.event("worker.done", parent=item[1], shard=shard,
                              incarnation=incarnation, records=state.records)
                    trc.close()
                results_queue.put(
                    ("done", shard, incarnation, state.state_dict(),
                     _telemetry_registry().snapshot() if snapshot_home else None)
                )
                return  # clean exit flushes the queue feeder
    except KeyboardInterrupt:
        os._exit(130)
    except BaseException as exc:  # noqa: BLE001 - reported, then hard exit
        try:
            if trc.enabled:
                trc.event("worker.error", shard=shard,
                          incarnation=incarnation, error=repr(exc))
                trc.dump_flight("error", repr(exc))
            results_queue.put(("error", shard, incarnation, repr(exc)))
            results_queue.close()
            results_queue.join_thread()
        finally:
            os._exit(1)


# ---- the supervisor ---------------------------------------------------


@dataclass
class _PendingMark:
    """A watermark request sent to the workers but not yet emitted."""

    index: int
    mark: float
    records: int
    acks: dict[int, tuple] = field(default_factory=dict)


class FabricSupervisor:
    """Run one stream as a fleet of supervised shard worker processes.

    Wraps a :class:`~repro.stream.engine.StreamEngine` for everything
    that defines the run (identity, source batches, dataset) and
    replaces its in-process ingest with the process fabric.  ``shards``
    in the stream config is the worker count; since the checkpoint
    identity already includes it, fabric and threaded checkpoints can
    never cross-contaminate a resume.
    """

    def __init__(
        self,
        config: StreamConfig,
        fabric: FabricConfig | None = None,
        dataset=None,
    ) -> None:
        self.engine = StreamEngine(config, dataset)
        self.config = config
        self.fabric = fabric or FabricConfig()
        self.dataset = self.engine.dataset
        self.plan = self.engine.plan
        worker_faults = self.fabric.worker_faults
        if worker_faults is not None and worker_faults.is_null:
            worker_faults = None
        self._worker_faults = worker_faults
        self.store = (
            ShardCheckpointStore(
                Path(config.checkpoint_path), self.fabric.keep_generations
            )
            if config.checkpoint_path
            else None
        )
        # The dataset's campus predicate is a closure, so workers must
        # inherit it by fork; spawn would have to pickle it and fail.
        self._ctx = multiprocessing.get_context("fork")

    # ---- small helpers ------------------------------------------------

    @staticmethod
    def _wall() -> float:
        return monotonic()

    def _event(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    def _store_root(self):
        return self.store.root if self.store is not None else None

    # ---- worker lifecycle ---------------------------------------------

    def _spawn(self, shard: int, initial_state: dict | None) -> int:
        incarnation = self.membership.launch(shard, self._wall())
        # A fresh queue per incarnation: the dead worker's queue may
        # hold unfolded batches and a feeder mid-write; never reuse it.
        self._queues[shard] = self._ctx.Queue(
            maxsize=self.config.max_queue_chunks
        )
        events = (
            self._worker_faults.events_for(shard, incarnation)
            if self._worker_faults is not None
            else WorkerFaultEvents()
        )
        trc = _tracer()
        if trc.enabled:
            # Flush so the child's inherited file buffer is empty, and
            # hand it the current span as the parent of worker.start.
            trc.flush()
            trace_config = {
                "directory": str(trc.directory),
                "trace_id": trc.trace_id,
                "parent": trc.current_ids(),
                "flight_limit": trc.flight.limit,
            }
        else:
            trace_config = None
        process = self._ctx.Process(
            target=_shard_worker,
            args=(
                shard, incarnation, self.dataset, self._identity,
                self._store_root(), self.fabric.keep_generations,
                initial_state, self._queues[shard], self._results,
                self.fabric.heartbeat_interval, events, trace_config,
            ),
            name=f"repro-fabric-shard-{shard}",
            daemon=True,
        )
        process.start()
        self.membership.members[shard].pid = process.pid
        self._procs[shard] = process
        reg = _telemetry_registry()
        if reg.enabled:
            reg.counter(
                "repro_fabric_launches_total",
                "Worker processes launched (first launches and restarts).",
            ).inc()
        trc.event(
            "fabric.launch", shard=shard, incarnation=incarnation,
            worker_pid=process.pid,
        )
        self._event(
            f"fabric: launch shard={shard} incarnation={incarnation} "
            f"pid={process.pid}"
        )
        return incarnation

    def _kill_worker(self, shard: int) -> None:
        process = self._procs[shard]
        if process is None:
            return
        old_queue = self._queues[shard]
        try:
            if process.is_alive():
                process.kill()
            process.join(timeout=5.0)
        finally:
            self._procs[shard] = None
        if old_queue is not None:
            # The abandoned queue's feeder may be blocked on a full
            # pipe; cancel it so it cannot wedge interpreter exit.
            old_queue.close()
            old_queue.cancel_join_thread()

    def _kill_all(self) -> None:
        for shard in range(self.config.shards):
            try:
                self._kill_worker(shard)
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass

    # ---- message pump & liveness --------------------------------------

    def _pump(self, timeout: float = 0.0) -> None:
        """Drain worker messages into membership/ack state."""
        block = timeout
        while True:
            try:
                if block > 0:
                    message = self._results.get(timeout=block)
                else:
                    message = self._results.get_nowait()
            except queue.Empty:
                return
            block = 0.0
            kind, shard, incarnation = message[0], message[1], message[2]
            if not self.membership.is_current(shard, incarnation):
                continue  # stale incarnation; its process is already dead
            if kind == "join":
                self.membership.join(shard, incarnation, self._wall(),
                                     pid=message[3])
                reg = _telemetry_registry()
                if reg.enabled:
                    reg.counter(
                        "repro_fabric_joins_total",
                        "Registration handshakes completed by workers.",
                    ).inc()
                _tracer().event(
                    "fabric.join", shard=shard, incarnation=incarnation,
                    worker_pid=message[3],
                )
                self._event(
                    f"fabric: join shard={shard} incarnation={incarnation} "
                    f"pid={message[3]}"
                )
            elif kind == "beat":
                self.membership.heartbeat(shard, incarnation, self._wall())
                self._heartbeats += 1
            elif kind == "mark_ack":
                pending = self._pending_marks.get(message[3])
                if pending is not None:
                    pending.acks[shard] = message[4]
            elif kind == "ckpt_ack":
                self._ckpt_acks.add((shard, message[3]))
            elif kind == "snap_ack":
                if message[3] == self._snap_index:
                    self._snap_acks[shard] = message[4]
            elif kind == "done":
                self._done[shard] = message[3]
                if len(message) > 4 and message[4] is not None:
                    reg = _telemetry_registry()
                    if reg.enabled:
                        reg.merge_snapshot(message[4], process=f"shard{shard}")
            elif kind == "error":
                self._worker_errors[shard] = message[3]

    def _dead_reason(self, shard: int) -> str | None:
        """Why *shard* must be declared dead right now, or ``None``."""
        if shard in self._done:
            return None
        error = self._worker_errors.pop(shard, None)
        if error is not None:
            return f"worker error: {error}"
        process = self._procs[shard]
        if process is not None and not process.is_alive():
            return f"process exited with code {process.exitcode}"
        if self.membership.overdue(shard, self._wall()):
            age = self.membership.heartbeat_age(shard, self._wall())
            return f"heartbeat overdue by {age:.2f}s"
        return None

    def _reap(self) -> None:
        """Declare and fail over every currently-dead shard."""
        reg = _telemetry_registry()
        for shard in range(self.config.shards):
            if reg.enabled and shard not in self._done:
                reg.gauge(
                    "repro_fabric_heartbeat_age_seconds",
                    "Seconds since each shard worker last proved liveness.",
                    shard=str(shard),
                ).set(self.membership.heartbeat_age(shard, self._wall()))
            reason = self._dead_reason(shard)
            if reason is not None:
                self._failover(shard, reason)
        if self._on_health is not None:
            # _reap runs per batch; throttle pushes so the serving side
            # sees fresh-enough membership without per-batch overhead.
            now = monotonic()
            if now - self._last_health_push >= 0.25:
                self._last_health_push = now
                self._on_health(self.membership.health(self._wall()))

    # ---- data movement ------------------------------------------------

    def _put(self, shard: int, item, abandon_on_failover: bool = False) -> bool:
        """Enqueue to a shard's current worker; never deadlocks.

        Bounded-timeout puts give backpressure; each timeout re-checks
        liveness across the fleet.  When the *target* shard is failed
        over mid-put, ``abandon_on_failover=True`` returns ``False``
        without enqueueing (for items the failover's own catch-up and
        marker resend already cover); otherwise the item is retried
        into the replacement's fresh queue.
        """
        waited = 0.0
        while True:
            incarnation = self.membership.members[shard].incarnation
            try:
                self._queues[shard].put(item, timeout=self.fabric.put_timeout)
                return True
            except queue.Full:
                waited += self.fabric.put_timeout
                self._backpressure_timeouts += 1
            self._pump()
            self._reap()
            if waited >= self.fabric.stall_timeout and self.membership.is_current(
                shard, incarnation
            ):
                self._failover(
                    shard, f"queue stayed full for {waited:.1f}s"
                )
            if not self.membership.is_current(shard, incarnation):
                if abandon_on_failover:
                    return False
                waited = 0.0  # fresh queue, fresh stall budget

    def _feed_catchup(
        self,
        shard: int,
        incarnation: int,
        base: int,
        target: int,
        faults_state: dict | None,
    ) -> bool:
        """Replay source records ``[base, target)`` into one shard.

        A scratch fault filter restored to *faults_state* (the filter's
        state at offset *base*, from the same manifest the shard state
        came from) reproduces the primary pass's drop pattern exactly,
        so the replacement folds the identical sub-stream the dead
        worker saw.  Returns ``False`` when a nested failover replaced
        *incarnation* mid-feed -- that failover's own catch-up covered
        the rest.
        """
        if target <= base:
            return True
        scratch = None
        if self.plan is not None:
            scratch = self.plan.capture_filter(self.dataset.duration)
            if faults_state is not None:
                scratch.restore_state(faults_state)
        is_campus = self.dataset.is_campus
        shards = self.config.shards
        fed = 0
        for batch in self.dataset.record_batches(
            self._end, base, self.config.batch_records
        ):
            # Heartbeats are timestamped at pump time, so a long replay
            # without pumping would make every *healthy* worker look
            # overdue and cascade into spurious failovers.
            self._pump()
            take = min(len(batch), target - base - fed)
            if take <= 0:
                break
            if take < len(batch):
                batch = batch.slice(0, take)
            fed += take
            if scratch is not None:
                batch = scratch.keep_rows(batch)
            if len(batch):
                part = split_columns(batch, is_campus, shards)[shard]
                if part:
                    if not self._put(
                        shard,
                        ("batch", part, _tracer().current_ids()),
                        abandon_on_failover=True,
                    ):
                        return False
            if not self.membership.is_current(shard, incarnation):
                return False
            if fed >= target - base:
                break
        self._catchup_records += fed
        reg = _telemetry_registry()
        if reg.enabled:
            reg.counter(
                "repro_fabric_catchup_records_total",
                "Source records replayed to restore failed-over shards.",
            ).inc(fed)
        return True

    # ---- failover -----------------------------------------------------

    def _failover(self, shard: int, reason: str) -> None:
        """Drop a dead shard's worker and reassign the shard.

        Kill, back off, restore from the newest good committed
        generation, relaunch, replay the gap, re-send unanswered
        watermark requests.  Any checkpoint generation in flight is
        aborted (its manifest is never written).  Exhausting the
        restart budget raises :class:`FabricDegradedError` after
        tearing the fleet down.
        """
        restarts = self.membership.note_restart(shard)
        self._ckpt_abort = True
        self._snap_abort = True
        reg = _telemetry_registry()
        if reg.enabled:
            reg.counter(
                "repro_fabric_restarts_total",
                "Shard failovers performed, by shard.",
                shard=str(shard),
            ).inc()
        trc = _tracer()
        trc.event("fabric.dead", shard=shard, restarts=restarts, reason=reason)
        # Every induced death gets a post-mortem ring dump; the key is
        # unique per (shard, restart) so repeat failovers each get one.
        trc.dump_flight(f"failover-shard{shard}-r{restarts}", reason)
        self._event(
            f"fabric: dead shard={shard} restarts={restarts} reason={reason!r}"
        )
        if restarts > self.fabric.max_restarts:
            trc.event(
                "fabric.degraded", shard=shard, restarts=restarts - 1,
                reason=reason,
            )
            trc.dump_flight(
                "degraded",
                f"shard {shard} restarted {restarts - 1} times ({reason})",
            )
            self._kill_all()
            raise FabricDegradedError(shard, restarts - 1, reason)
        started = perf_counter()
        with _span("fabric.reassign"), trc.span(
            "fabric.reassign", shard=shard, restarts=restarts
        ):
            self._kill_worker(shard)
            backoff = min(
                self.fabric.restart_backoff * (2 ** (restarts - 1)),
                self.fabric.restart_backoff_max,
            )
            time.sleep(backoff)
            if self.store is not None:
                restore = self.store.restore_shard(
                    shard, self._identity, self._committed
                )
            else:
                restore = ShardRestore(
                    shard=shard, state=None, records_read=0, faults=None
                )
            incarnation = self._spawn(shard, restore.state)
            trc.event(
                "fabric.restore", shard=shard, incarnation=incarnation,
                from_records=restore.records_read,
                records=self._records_fed[shard],
            )
            self._event(
                f"fabric: reassign shard={shard} incarnation={incarnation} "
                f"from_records={restore.records_read} "
                f"to_records={self._records_fed[shard]}"
            )
            caught_up = self._feed_catchup(
                shard, incarnation, restore.records_read,
                self._records_fed[shard], restore.faults,
            )
            if caught_up:
                # Unanswered watermark requests must reach the
                # replacement; already-acked ones stay valid (the dead
                # worker answered them from the same deterministic
                # prefix the replacement now holds).
                for index in sorted(self._pending_marks):
                    pending = self._pending_marks[index]
                    if shard not in pending.acks:
                        if not self._put(
                            shard,
                            ("mark", pending.index, pending.mark,
                             trc.current_ids()),
                            abandon_on_failover=True,
                        ):
                            break
        if reg.enabled:
            reg.histogram(
                "repro_fabric_reassign_seconds",
                "Wall time to restore, relaunch, and catch up a shard.",
            ).observe(perf_counter() - started)

    # ---- watermarks ---------------------------------------------------

    def _send_mark(self, index: int, mark: float, records: int) -> None:
        self._pending_marks[index] = _PendingMark(
            index=index, mark=mark, records=records
        )
        ctx = _tracer().current_ids()
        for shard in range(self.config.shards):
            # On failover the marker resend inside _failover covers it.
            self._put(
                shard, ("mark", index, mark, ctx), abandon_on_failover=True
            )

    def _emit_ready_marks(
        self, progress: Callable[[Watermark], None] | None
    ) -> None:
        """Emit, in order, every fully-acked pending watermark."""
        reg = _telemetry_registry()
        while self._emitted_index in self._pending_marks:
            pending = self._pending_marks[self._emitted_index]
            if len(pending.acks) < self.config.shards:
                return
            passive: set[int] = set()
            for addresses in pending.acks.values():
                passive.update(addresses)
            summary = summarize_overlap(
                passive, set(self._active.addresses_by(pending.mark))
            )
            watermark = Watermark(
                time=pending.mark, records=pending.records, summary=summary
            )
            self._watermarks.append(watermark)
            del self._pending_marks[self._emitted_index]
            self._emitted_index += 1
            if reg.enabled:
                reg.counter(
                    "repro_stream_watermarks_total",
                    "Watermarks emitted by stream runs.",
                ).inc()
            if progress is not None:
                progress(watermark)

    def _await_marks(
        self, progress: Callable[[Watermark], None] | None
    ) -> None:
        """Block until every sent watermark has been emitted."""
        while self._pending_marks:
            self._pump(0.02)
            self._reap()
            self._emit_ready_marks(progress)

    # ---- checkpoints --------------------------------------------------

    def _commit_checkpoint(
        self,
        faults,
        progress: Callable[[Watermark], None] | None,
    ) -> None:
        """Run one checkpoint generation to a committed manifest.

        Pending watermarks drain first so the manifest's emission
        cursor matches its watermark list.  Then every worker is asked
        to write its shard file for a fresh generation; the manifest --
        the commit record -- is written only once all acks arrive.  A
        failover anywhere in between aborts the generation and retries
        with the next one (the restart budget bounds the retries).
        """
        self._await_marks(progress)
        reg = _telemetry_registry()
        while True:
            self._generation = max(self._generation, self._committed) + 1
            generation = self._generation
            self._ckpt_abort = False
            aborted = False
            ctx = _tracer().current_ids()
            for shard in range(self.config.shards):
                if not self._put(
                    shard, ("ckpt", generation, ctx), abandon_on_failover=True
                ):
                    aborted = True
                    break
            started = perf_counter()
            while not aborted:
                if self._ckpt_abort:
                    aborted = True
                    break
                acked = sum(
                    1
                    for shard in range(self.config.shards)
                    if (shard, generation) in self._ckpt_acks
                )
                if acked >= self.config.shards:
                    break
                self._pump(0.02)
                self._reap()
            if aborted:
                continue
            payload = {
                "records_read": self._records_read,
                "records_delivered": self._records_delivered,
                "now": self._now,
                "emitted_index": self._emitted_index,
                "watermarks": list(self._watermarks),
                "faults": faults.state_dict() if faults is not None else None,
                "probes": (
                    self._prober.state_dict()
                    if self._prober is not None
                    else None
                ),
            }
            path = self.store.save_manifest(generation, self._identity, payload)
            self._committed = generation
            self._checkpoints += 1
            _tracer().event(
                "fabric.manifest", generation=generation,
                records=self._records_read,
            )
            if reg.enabled:
                reg.counter(
                    "repro_stream_checkpoints_total",
                    "Checkpoints written by stream runs.",
                ).inc()
                reg.histogram(
                    "repro_stream_checkpoint_seconds",
                    "Wall time to serialise and atomically write a checkpoint.",
                ).observe(perf_counter() - started)
            self._event(
                f"fabric: manifest generation={generation} "
                f"records={self._records_read} path={path}"
            )
            return

    # ---- query snapshots ----------------------------------------------

    def _publish_snapshot(self, publisher) -> None:
        """Collect per-worker payloads and publish one merged snapshot.

        The request travels in band, so each worker's payload covers
        exactly the batches fed before it -- and the supervisor feeds
        every shard from one source cursor, so the payloads form a
        consistent stream prefix.  A failover anywhere in the round
        aborts it: this boundary is simply skipped (queries keep
        answering from the previous snapshot; the next boundary
        publishes a fresh one).
        """
        self._snap_index += 1
        index = self._snap_index
        self._snap_acks = {}
        self._snap_abort = False
        ctx = _tracer().current_ids()
        for shard in range(self.config.shards):
            if not self._put(
                shard, ("snap", index, ctx), abandon_on_failover=True
            ):
                return
        while not self._snap_abort:
            if len(self._snap_acks) >= self.config.shards:
                publisher.publish(
                    merge_snapshot_payloads(
                        self._snap_acks.values(),
                        now=self._now,
                        records=self._records_delivered,
                        watermarks=list(self._watermarks),
                        probes=(
                            self._prober.view()
                            if self._prober is not None
                            else None
                        ),
                    )
                )
                reg = _telemetry_registry()
                if reg.enabled:
                    reg.counter(
                        "repro_stream_snapshots_total",
                        "Query snapshots published by stream runs.",
                    ).inc()
                return
            self._pump(0.02)
            self._reap()

    # ---- finish -------------------------------------------------------

    def _collect_states(self) -> list[ShardState]:
        """Stop every worker and gather final shard state dicts."""
        stop_sent: dict[int, int] = {}
        while len(self._done) < self.config.shards:
            for shard in range(self.config.shards):
                if shard in self._done:
                    continue
                incarnation = self.membership.members[shard].incarnation
                if stop_sent.get(shard) != incarnation:
                    item = ("stop", _tracer().current_ids())
                    if self._put(shard, item, abandon_on_failover=True):
                        stop_sent[shard] = incarnation
            self._pump(0.02)
            self._reap()
        states = []
        for shard in range(self.config.shards):
            state = ShardState(
                shard,
                PassiveServiceTable(
                    is_campus=self.dataset.is_campus,
                    tcp_ports=self.dataset.tcp_ports,
                    udp_ports=self.dataset.udp_ports,
                ),
            )
            state.restore_state(self._done[shard])
            states.append(state)
        return states

    # ---- the run loop -------------------------------------------------

    def run(
        self,
        resume: bool = False,
        progress: Callable[[Watermark], None] | None = None,
        on_event: Callable[[str], None] | None = None,
        publisher=None,
        on_health: Callable[[list[dict]], None] | None = None,
    ) -> StreamResult:
        """Stream the dataset through the worker fleet to completion.

        With ``resume=True`` and a committed manifest in the checkpoint
        store, the run restores run-level progress from the newest
        manifest, per-shard state from each shard's newest good
        generation (catching stragglers up by source replay), and
        continues -- converging to the identical final report.
        *on_event* receives human-readable fabric lifecycle lines
        (launch/join/dead/reassign/manifest).  *publisher* plus
        ``config.snapshot_every`` publishes merged query snapshots
        aggregated from per-worker payloads (see
        :meth:`_publish_snapshot`), exactly like the threaded engine's
        ``publisher`` hook.  *on_health* receives throttled
        :meth:`~repro.stream.membership.Membership.health` summaries
        (per-shard heartbeat age / incarnation / restarts) so a serving
        layer can expose fabric liveness on ``/healthz``.

        On ``KeyboardInterrupt`` the fleet is torn down and the
        interrupt re-raised; resume picks up from the last committed
        manifest, which is why ``checkpoint_every`` matters in
        production runs.
        """
        config = self.config
        dataset = self.dataset
        self._identity = self.engine._identity()
        self._end = self.engine._effective_end()
        self._on_event = on_event
        self._on_health = on_health
        self._last_health_push = 0.0
        faults = (
            self.plan.capture_filter(dataset.duration)
            if self.plan is not None
            else None
        )
        self._prober = build_prober(
            dataset, config.probe_policy, config.probe_rate,
            config.probe_ports, config.seed, self._end,
        )
        # Online probing runs supervisor-side: the scheduler replaces
        # the build-time timeline as the watermarks' active side, its
        # state rides in the commit manifest, and -- because it never
        # lives in a worker -- shard failover cannot perturb it.
        self._active = (
            self._prober
            if self._prober is not None
            else ActiveTimeline(dataset.scan_reports, dataset.udp_report)
        )
        marks = (
            emit_schedule(self._end, config.emit_every)
            if config.emit_every
            else [self._end]
        )
        snap_marks = (
            emit_schedule(self._end, config.snapshot_every)
            if publisher is not None and config.snapshot_every
            else []
        )
        snap_cursor = 0

        self.membership = Membership(
            shards=config.shards,
            heartbeat_interval=self.fabric.heartbeat_interval,
            miss_budget=self.fabric.miss_budget,
            join_timeout=self.fabric.join_timeout,
        )
        self._procs: list = [None] * config.shards
        self._queues: list = [None] * config.shards
        self._results = self._ctx.Queue()
        self._pending_marks: dict[int, _PendingMark] = {}
        self._ckpt_acks: set[tuple[int, int]] = set()
        self._done: dict[int, dict] = {}
        self._worker_errors: dict[int, str] = {}
        self._watermarks: list[Watermark] = []
        self._records_read = 0
        self._records_delivered = 0
        self._now = 0.0
        self._emitted_index = 0
        self._generation = 0
        self._committed = 0
        self._checkpoints = 0
        self._backpressure_timeouts = 0
        self._catchup_records = 0
        self._heartbeats = 0
        self._ckpt_abort = False
        self._snap_acks: dict[int, dict] = {}
        self._snap_index = 0
        self._snap_abort = False
        self._records_fed = [0] * config.shards
        resumed = False

        restores: list[ShardRestore | None] = [None] * config.shards
        if resume:
            if self.store is None:
                raise ValueError("resume requires config.checkpoint_path")
            plan = self.store.plan_restore(self._identity)
            if plan is not None:
                manifest = plan.manifest
                self._records_read = int(manifest["records_read"])
                self._records_delivered = int(manifest["records_delivered"])
                self._now = float(manifest["now"])
                self._emitted_index = int(manifest["emitted_index"])
                self._watermarks = list(manifest["watermarks"])
                if faults is not None and manifest.get("faults") is not None:
                    faults.restore_state(manifest["faults"])
                if (
                    self._prober is not None
                    and manifest.get("probes") is not None
                ):
                    self._prober.restore_state(manifest["probes"])
                self._generation = plan.generation
                self._committed = plan.generation
                for restore in plan.shards:
                    restores[restore.shard] = restore
                resumed = True

        next_checkpoint = None
        if config.checkpoint_every is not None and self.store is not None:
            next_checkpoint = config.checkpoint_every
            while next_checkpoint <= self._now:
                next_checkpoint += config.checkpoint_every

        reg = _telemetry_registry()
        trc = _tracer()
        trc.event(
            "fabric.start", shards=config.shards,
            records=self._records_read, resumed=resumed,
        )
        read_at_start = self._records_read
        is_campus = dataset.is_campus
        shards = config.shards
        wall_start = perf_counter()
        try:
            for shard in range(shards):
                restore = restores[shard]
                incarnation = self._spawn(
                    shard, restore.state if restore is not None else None
                )
                if restore is not None:
                    # This shard's newest good generation may lag the
                    # manifest we resumed from; replay the difference.
                    self._records_fed[shard] = self._records_read
                    self._feed_catchup(
                        shard, incarnation, restore.records_read,
                        self._records_read, restore.faults,
                    )
                else:
                    self._records_fed[shard] = self._records_read

            for batch in self.dataset.record_batches(
                self._end, self._records_read, self.config.batch_records
            ):
                self._records_read += len(batch)
                if faults is not None:
                    batch = faults.keep_rows(batch)
                self._records_delivered += len(batch)
                if len(batch):
                    last_time = float(batch.time[-1])
                    if last_time > self._now:
                        self._now = last_time
                    parts = split_columns(batch, is_campus, shards)
                    ctx = trc.current_ids()
                    for shard, part in enumerate(parts):
                        if part:
                            self._put(shard, ("batch", part, ctx))
                        self._records_fed[shard] = self._records_read
                    if trc.enabled:
                        trc.note(
                            "supervisor.batch", records=self._records_read
                        )
                if self._prober is not None:
                    # Interleave probe dispatch with feeding, so marks
                    # and manifests below see the live evidence.
                    self._prober.advance(self._now)
                self._pump()
                self._reap()
                self._emit_ready_marks(progress)
                while (
                    self._emitted_index + len(self._pending_marks) < len(marks)
                    and self._now
                    >= marks[self._emitted_index + len(self._pending_marks)]
                ):
                    index = self._emitted_index + len(self._pending_marks)
                    self._send_mark(
                        index, marks[index], self._records_delivered
                    )
                self._emit_ready_marks(progress)
                if snap_cursor < len(snap_marks) and self._now >= snap_marks[snap_cursor]:
                    while (
                        snap_cursor < len(snap_marks)
                        and self._now >= snap_marks[snap_cursor]
                    ):
                        snap_cursor += 1
                    self._publish_snapshot(publisher)
                if next_checkpoint is not None and self._now >= next_checkpoint:
                    self._commit_checkpoint(faults, progress)
                    while next_checkpoint <= self._now:
                        next_checkpoint += config.checkpoint_every

            # End of stream: emit every remaining scheduled mark (at
            # least the final one), then gather shard states.
            if self._prober is not None:
                # Probes can outlast the last packet; fire everything
                # scheduled through the stream end first.
                self._prober.advance(self._end)
            while self._emitted_index + len(self._pending_marks) < len(marks):
                index = self._emitted_index + len(self._pending_marks)
                self._send_mark(index, marks[index], self._records_delivered)
            self._await_marks(progress)
            states = self._collect_states()
            trc.event(
                "fabric.end", records=self._records_read,
                watermarks=len(self._watermarks),
            )
        except KeyboardInterrupt:
            self._kill_all()
            raise
        except BaseException:
            self._kill_all()
            raise
        finally:
            self._kill_all()
            if reg.enabled:
                elapsed = perf_counter() - wall_start
                read = self._records_read - read_at_start
                reg.counter(
                    "repro_stream_read_records_total",
                    "Records pulled from the stream source this run.",
                ).inc(read)
                reg.counter(
                    "repro_stream_backpressure_timeouts_total",
                    "Bounded-put timeouts while shard queues were full.",
                ).inc(self._backpressure_timeouts)
                reg.counter(
                    "repro_fabric_heartbeats_total",
                    "Heartbeats accepted from current worker incarnations.",
                ).inc(self._heartbeats)
                reg.counter(
                    "repro_stream_seconds_total",
                    "Wall time spent inside stream run loops.",
                ).inc(elapsed)
                if elapsed > 0:
                    reg.gauge(
                        "repro_stream_records_per_sec",
                        "Source throughput of the most recent stream run.",
                    ).set(read / elapsed)

        result = finalize_result(
            config, dataset, states, self._watermarks,
            self._records_read, self._records_delivered,
            self._checkpoints, resumed,
            now=self._now, probes=self._prober,
        )
        if publisher is not None and result.snapshot is not None:
            publisher.publish(result.snapshot)
        if self.store is not None:
            # Clean finish: stale generations must not hijack the next run.
            self.store.clear()
        return result
