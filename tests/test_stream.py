"""Tests for the streaming discovery engine (:mod:`repro.stream`).

The load-bearing property is equivalence: a stream run's final report
must be byte-identical to the batch path's for the same (seed, scale,
faults), at any shard count, with or without an interruption/resume in
the middle.  The suite also pins the supporting invariants: shard
routing partitions records deterministically, checkpoints validate
their identity, the fault filter's loss processes survive a snapshot,
and peak memory stays flat as the stream gets longer.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.faults.plan import FaultPlan
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.simkernel.clock import days, hours
from repro.stream import (
    CheckpointError,
    StreamConfig,
    StreamEngine,
    StreamIngestor,
    ShardState,
    ShardWorkerError,
    batch_survey_report,
    emit_schedule,
    load_checkpoint,
    owning_address,
    save_checkpoint,
    shard_of,
)
from repro.passive.monitor import PassiveServiceTable
from repro.stream.shard import split_batch, split_columns
from repro.trace.columnar import RecordColumns

#: Must match the session-scoped ``small_dtcp18`` fixture's build.
SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)

#: A fault plan exercising every capture failure mode.
CAPTURE_FAULTS = FaultPlan(
    seed=3,
    capture_loss_rate=0.01,
    burst_loss_rate=0.0005,
    burst_mean_length=40,
    outage_fraction=0.03,
    outage_count=2,
)


def small_config(**overrides) -> StreamConfig:
    return StreamConfig(**{**SMALL, **overrides})


@pytest.fixture(scope="module")
def batch_report(small_dtcp18):
    return batch_survey_report(small_config(), dataset=small_dtcp18)


@pytest.fixture(scope="module")
def record_sample(small_dtcp18):
    """A couple of thousand real border records (one partial pass)."""
    from itertools import islice

    return list(islice(small_dtcp18._generate_stream(hours(12)), 4000))


class TestShardRouting:
    def test_owning_address_rules(self, small_dtcp18, record_sample):
        is_campus = small_dtcp18.is_campus
        for record in record_sample:
            owner = owning_address(record, is_campus)
            if record.proto == PROTO_TCP:
                flags = int(record.flags)
                if flags & 0x02 and flags & 0x10:
                    assert owner == record.src  # SYN-ACK is about its sender
                else:
                    assert owner == record.dst
            elif record.proto == PROTO_UDP:
                expected = record.src if is_campus(record.src) else record.dst
                assert owner == expected
            else:
                assert owner == record.dst

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_shard_of_deterministic_and_in_range(self, shards):
        for address in range(0, 1 << 16, 997):
            index = shard_of(address, shards)
            assert 0 <= index < shards
            assert index == shard_of(address, shards)

    @pytest.mark.parametrize("shards", [2, 8])
    def test_split_batch_partitions_in_order(
        self, small_dtcp18, record_sample, shards
    ):
        is_campus = small_dtcp18.is_campus
        parts = split_batch(record_sample, is_campus, shards)
        assert len(parts) == shards
        assert sum(len(part) for part in parts) == len(record_sample)
        positions = {id(record): i for i, record in enumerate(record_sample)}
        for index, part in enumerate(parts):
            for record in part:
                assert shard_of(owning_address(record, is_campus), shards) == index
            # Stream order is preserved within each shard.
            order = [positions[id(record)] for record in part]
            assert order == sorted(order)
        by_id = {id(record) for part in parts for record in part}
        assert by_id == {id(record) for record in record_sample}

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_split_columns_routes_by_owning_address(
        self, small_dtcp18, record_sample, shards
    ):
        is_campus = small_dtcp18.is_campus
        parts = split_columns(
            RecordColumns.from_records(record_sample), is_campus, shards
        )
        expected = [[] for _ in range(shards)]
        for record in record_sample:
            expected[shard_of(owning_address(record, is_campus), shards)].append(
                record
            )
        # Each shard gets exactly its records, in stream order.
        assert [part.to_records() for part in parts] == expected


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_stream_matches_batch_bytes(self, small_dtcp18, batch_report, shards):
        result = StreamEngine(
            small_config(shards=shards, emit_every=hours(96)),
            dataset=small_dtcp18,
        ).run()
        assert result.finished
        assert result.report == batch_report

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_faulted_stream_matches_faulted_batch(self, small_dtcp18, shards):
        config = small_config(shards=shards, faults=CAPTURE_FAULTS)
        result = StreamEngine(config, dataset=small_dtcp18).run()
        assert result.report == batch_survey_report(config, dataset=small_dtcp18)
        assert result.records_delivered < result.records_read  # faults dropped

    def test_merged_table_matches_batch_table(self, small_dtcp18):
        result = StreamEngine(small_config(shards=4), dataset=small_dtcp18).run()
        reference = PassiveServiceTable(
            is_campus=small_dtcp18.is_campus,
            tcp_ports=small_dtcp18.tcp_ports,
            udp_ports=small_dtcp18.udp_ports,
        )
        small_dtcp18.replay(reference)
        assert result.table.first_seen == reference.first_seen
        assert result.table.flow_counts == reference.flow_counts
        assert result.table.clients == reference.clients


class TestWatermarks:
    def test_emit_schedule_covers_end(self):
        marks = emit_schedule(days(18), hours(96))
        assert marks[-1] == days(18)
        assert all(b > a for a, b in zip(marks, marks[1:]))
        with pytest.raises(ValueError):
            emit_schedule(days(1), 0)

    def test_watermarks_monotone_and_final_equals_summary(self, small_dtcp18):
        result = StreamEngine(
            small_config(shards=2, emit_every=hours(96)), dataset=small_dtcp18
        ).run()
        times = [watermark.time for watermark in result.watermarks]
        assert times == sorted(times)
        assert times[-1] == small_dtcp18.duration
        assert result.watermarks[-1].summary == result.summary
        # Discovery is cumulative: the union never shrinks.
        unions = [watermark.summary.union for watermark in result.watermarks]
        assert all(b >= a for a, b in zip(unions, unions[1:]))

    def test_mid_stream_watermark_matches_time_filtered_state(self, small_dtcp18):
        mark = hours(96)
        result = StreamEngine(
            small_config(shards=2, emit_every=mark), dataset=small_dtcp18
        ).run()
        watermark = result.watermarks[0]
        assert watermark.time == mark
        expected = {
            address
            for (address, _port, _proto), seen in result.table.first_seen.items()
            if seen <= mark
        }
        passive_at_mark = (
            watermark.summary.both + watermark.summary.passive_only
        )
        assert passive_at_mark == len(expected)

    def test_last_seen_timeline(self, small_dtcp18):
        result = StreamEngine(small_config(shards=2), dataset=small_dtcp18).run()
        assert result.last_seen  # endpoints were observed
        for endpoint, last in result.last_seen.items():
            first = result.table.first_seen.get(endpoint)
            assert first is not None and last >= first


class TestCheckpointResume:
    def test_interrupt_and_resume_identical(self, small_dtcp18, tmp_path):
        ckpt = tmp_path / "stream.ckpt"
        config = small_config(
            shards=2,
            emit_every=hours(96),
            checkpoint_every=hours(48),
            checkpoint_path=str(ckpt),
            faults=CAPTURE_FAULTS,
        )
        reference = StreamEngine(config, dataset=small_dtcp18).run()
        assert reference.finished and not ckpt.exists()

        partial = StreamEngine(config, dataset=small_dtcp18).run(
            stop_after_records=reference.records_read // 2
        )
        assert not partial.finished
        assert ckpt.exists()  # periodic checkpoint survived the "kill"

        resumed = StreamEngine(config, dataset=small_dtcp18).run(resume=True)
        assert resumed.resumed
        assert resumed.report == reference.report
        assert resumed.watermarks == reference.watermarks
        assert resumed.records_delivered == reference.records_delivered
        assert not ckpt.exists()  # cleaned up after the successful finish

    def test_resume_without_checkpoint_path_raises(self, small_dtcp18):
        engine = StreamEngine(small_config(), dataset=small_dtcp18)
        with pytest.raises(ValueError):
            engine.run(resume=True)

    def test_checkpoint_rejects_other_identity(self, tmp_path):
        path = tmp_path / "c.ckpt"
        config = {"dataset": "DTCP1-18d", "seed": 7, "scale": "0.04",
                  "shards": 2, "fault_digest": None}
        save_checkpoint(path, {"config": config, "records_read": 0})
        assert load_checkpoint(path, config)["records_read"] == 0
        other = dict(config, shards=4)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, other)

    def test_checkpoint_rejects_unknown_version(self, tmp_path):
        import pickle

        path = tmp_path / "c.ckpt"
        path.write_bytes(pickle.dumps({"version": 999, "config": {}}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, {})

    def test_capture_filter_state_roundtrip(self, record_sample):
        duration = days(18)
        uninterrupted = CAPTURE_FAULTS.capture_filter(duration)
        expected = uninterrupted.filter_batch(list(record_sample))

        first = CAPTURE_FAULTS.capture_filter(duration)
        half = len(record_sample) // 2
        head = first.filter_batch(list(record_sample[:half]))
        snapshot = first.state_dict()

        second = CAPTURE_FAULTS.capture_filter(duration)
        second.restore_state(snapshot)
        tail = second.filter_batch(list(record_sample[half:]))
        assert [r.time for r in head + tail] == [r.time for r in expected]
        assert second.stats.seen == uninterrupted.stats.seen


class TestIngestor:
    def _states(self, n=2):
        return [
            ShardState(i, PassiveServiceTable(is_campus=lambda a: True))
            for i in range(n)
        ]

    def test_dispatch_after_close_raises(self):
        ingestor = StreamIngestor(self._states())
        ingestor.close()
        with pytest.raises(RuntimeError):
            ingestor.dispatch([[], []])
        ingestor.close()  # idempotent

    def test_worker_error_surfaces(self, record_sample):
        class Exploding:
            is_campus = staticmethod(lambda a: True)

            def observe_columns(self, cols):
                raise RuntimeError("boom")

        states = self._states(1)
        states[0].table = Exploding()
        ingestor = StreamIngestor(states)
        ingestor.dispatch([RecordColumns.from_records(record_sample[:10])])
        with pytest.raises(ShardWorkerError):
            ingestor.drain()

    def test_accounting(self, small_dtcp18, record_sample):
        states = [
            ShardState(
                i,
                PassiveServiceTable(
                    is_campus=small_dtcp18.is_campus,
                    tcp_ports=small_dtcp18.tcp_ports,
                ),
            )
            for i in range(2)
        ]
        ingestor = StreamIngestor(states, max_queue_chunks=4)
        parts = split_columns(
            RecordColumns.from_records(record_sample), small_dtcp18.is_campus, 2
        )
        ingestor.dispatch(parts)
        ingestor.drain()
        ingestor.close()
        assert sum(ingestor.shard_records) == len(record_sample)
        assert ingestor.max_queued_records <= len(record_sample)
        assert sum(state.records for state in states) == len(record_sample)


class TestMemoryFlat:
    def test_peak_memory_flat_in_stream_length(self, small_dtcp18):
        """4x the stream length must not grow peak memory materially.

        Both runs regenerate (truncated passes bypass the trace cache)
        with small batches, so the only length-dependent state would be
        a buffering bug.  Discovery state itself is bounded by the
        population, not the observation, and most endpoints appear in
        the first days -- hence the conservative 1.5x bound.
        """

        def peak_for(end_days: float) -> tuple[int, int]:
            config = small_config(
                shards=2, batch_records=1024, end=days(end_days)
            )
            engine = StreamEngine(config, dataset=small_dtcp18)
            tracemalloc.start()
            try:
                result = engine.run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak, result.records_read

        peak_short, records_short = peak_for(2)
        peak_long, records_long = peak_for(8)
        assert records_long > 2.5 * records_short  # genuinely 4x the stream
        assert peak_long < peak_short * 1.5 + 512 * 1024
