"""The stream ingestor: bounded fan-out of record batches to shards.

:class:`StreamIngestor` owns one worker thread and one bounded queue
per shard.  The driving thread routes each column batch
(:func:`repro.stream.shard.split_columns`) and enqueues the per-shard
sub-batches; workers fold them into their :class:`ShardState` in
arrival order.

Memory stays flat regardless of trace length because nothing in the
pipeline buffers unboundedly: the source yields fixed-size batches, the
queues hold at most ``max_queue_chunks`` sub-batches each (an
over-full queue *blocks the producer* -- backpressure, not growth), and
shard state is keyed by endpoints, whose count is bounded by the
population rather than the observation length.

:meth:`StreamIngestor.drain` is the synchronisation barrier the engine
uses before watermark emission and checkpoints: it returns only when
every queued batch has been folded in, so a snapshot taken after a
drain is a consistent prefix of the stream.
"""

from __future__ import annotations

import queue
import threading
from time import perf_counter

from repro.stream.shard import ShardState

#: Default bound on queued sub-batches per shard.  With the default
#: 8192-record read batches this caps in-flight records at
#: ``shards * 8 * 8192`` regardless of how long the stream runs.
DEFAULT_MAX_QUEUE_CHUNKS = 8

#: How long one ``put`` attempt waits before re-checking worker health.
DEFAULT_PUT_TIMEOUT = 0.05

#: Total time a single enqueue may stay blocked before the producer
#: gives up and raises :class:`IngestStallError` instead of deadlocking
#: on a queue nobody will ever drain.
DEFAULT_STALL_TIMEOUT = 60.0

_STOP = object()


class ShardWorkerError(RuntimeError):
    """A shard worker raised; carries the shard index and original error."""

    def __init__(self, index: int, error: BaseException) -> None:
        super().__init__(f"shard {index} worker failed: {error!r}")
        self.index = index
        self.error = error


class IngestStallError(RuntimeError):
    """A shard queue stayed full past the stall budget.

    Raised by the producer when bounded ``put`` retries exhaust
    ``stall_timeout`` seconds without the consumer making room -- the
    structured alternative to blocking forever on a queue whose worker
    has died or wedged.
    """

    def __init__(self, index: int, waited: float, timeouts: int) -> None:
        super().__init__(
            f"shard {index} queue stayed full for {waited:.1f}s "
            f"({timeouts} put timeouts): consumer dead or stalled"
        )
        self.index = index
        self.waited = waited
        self.timeouts = timeouts


class StreamIngestor:
    """Fan record batches out to per-shard workers with backpressure.

    Parameters
    ----------
    states:
        One :class:`ShardState` per shard; workers mutate them.
    max_queue_chunks:
        Bound on queued sub-batches per shard; a full queue blocks
        :meth:`dispatch` until the worker catches up.
    """

    def __init__(
        self,
        states: list[ShardState],
        max_queue_chunks: int = DEFAULT_MAX_QUEUE_CHUNKS,
        put_timeout: float = DEFAULT_PUT_TIMEOUT,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
    ) -> None:
        if not states:
            raise ValueError("at least one shard is required")
        if max_queue_chunks < 1:
            raise ValueError("max_queue_chunks must be >= 1")
        if put_timeout <= 0 or stall_timeout <= 0:
            raise ValueError("put_timeout and stall_timeout must be > 0")
        self.states = states
        self.put_timeout = put_timeout
        self.stall_timeout = stall_timeout
        self.put_timeouts = 0
        self._queues: list[queue.Queue] = [
            queue.Queue(maxsize=max_queue_chunks) for _ in states
        ]
        self._errors: list[ShardWorkerError] = []
        self._closed = False
        # Observability accumulators (flushed once, at close).
        self.max_queued_records = 0
        self._queued_records = [0] * len(states)
        self._queued_lock = threading.Lock()
        self.shard_records = [0] * len(states)
        self.shard_seconds = [0.0] * len(states)
        self.batches_dispatched = 0
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(index,),
                name=f"repro-stream-shard-{index}",
                daemon=True,
            )
            for index in range(len(states))
        ]
        for thread in self._threads:
            thread.start()

    @property
    def shards(self) -> int:
        return len(self.states)

    def _worker(self, index: int) -> None:
        state = self.states[index]
        work = self._queues[index]
        while True:
            item = work.get()
            if item is _STOP:
                work.task_done()
                return
            started = perf_counter()
            try:
                state.observe_columns(item)
            except BaseException as exc:  # noqa: BLE001 - surfaced on drain
                self._errors.append(ShardWorkerError(index, exc))
                work.task_done()
                return
            self.shard_seconds[index] += perf_counter() - started
            self.shard_records[index] += len(item)
            with self._queued_lock:
                self._queued_records[index] -= len(item)
            work.task_done()

    def _raise_pending(self) -> None:
        if self._errors:
            raise self._errors[0]

    def _put_bounded(self, index: int, part) -> None:
        """Enqueue with timeout + bounded retries instead of blocking forever.

        Each timeout re-checks worker health (a dead worker's pending
        error surfaces immediately rather than after a deadlock) and
        counts toward the stall budget; exhausting the budget raises
        :class:`IngestStallError` naming the wedged shard.
        """
        waited = 0.0
        timeouts = 0
        while True:
            try:
                self._queues[index].put(part, timeout=self.put_timeout)
                return
            except queue.Full:
                timeouts += 1
                self.put_timeouts += 1
                waited += self.put_timeout
                self._raise_pending()
                if waited >= self.stall_timeout:
                    from repro.telemetry.tracing import tracer

                    trc = tracer()
                    if trc.enabled:
                        trc.event(
                            "stream.ingest_stall", shard=index,
                            waited=round(waited, 3), timeouts=timeouts,
                        )
                        trc.dump_flight(
                            f"ingest-stall-shard{index}",
                            f"shard {index} queue full for {waited:.1f}s",
                        )
                    raise IngestStallError(index, waited, timeouts) from None

    def dispatch(self, parts: list) -> None:
        """Enqueue one routed batch (backpressure-blocks, never deadlocks).

        *parts* holds one :class:`repro.trace.columnar.RecordColumns`
        sub-batch per shard (:func:`repro.stream.shard.split_columns`).

        A full shard queue applies backpressure through the bounded
        retry loop in :meth:`_put_bounded`; a queue that stays full for
        ``stall_timeout`` seconds raises :class:`IngestStallError`.
        """
        if self._closed:
            raise RuntimeError("ingestor already closed")
        self._raise_pending()
        for index, part in enumerate(parts):
            if not part:
                continue
            with self._queued_lock:
                self._queued_records[index] += len(part)
                in_flight = sum(self._queued_records)
                if in_flight > self.max_queued_records:
                    self.max_queued_records = in_flight
            try:
                self._put_bounded(index, part)
            except BaseException:
                with self._queued_lock:
                    self._queued_records[index] -= len(part)
                raise
        self.batches_dispatched += 1

    def drain(self) -> None:
        """Block until every enqueued batch has been folded into state."""
        for work in self._queues:
            work.join()
        self._raise_pending()

    def close(self) -> None:
        """Drain, stop the workers, and join the threads (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for work in self._queues:
            work.put(_STOP)
        for thread in self._threads:
            thread.join()
        self._raise_pending()

    def flush_telemetry(self, registry) -> None:
        """Fold the ingestor's accumulated counters into *registry*."""
        registry.gauge(
            "repro_stream_queue_peak_records",
            "Peak records in flight across all shard queues.",
        ).set(self.max_queued_records)
        registry.counter(
            "repro_stream_batches_total",
            "Routed batches dispatched to shard workers.",
        ).inc(self.batches_dispatched)
        registry.counter(
            "repro_stream_backpressure_timeouts_total",
            "Bounded-put timeouts while shard queues were full.",
        ).inc(self.put_timeouts)
        for index in range(self.shards):
            registry.counter(
                "repro_stream_shard_records_total",
                "Records folded into each shard's state.",
                shard=str(index),
            ).inc(self.shard_records[index])
            registry.counter(
                "repro_stream_shard_seconds_total",
                "Wall time each shard worker spent folding records.",
                shard=str(index),
            ).inc(self.shard_seconds[index])
