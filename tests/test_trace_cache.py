"""Tests for the record-once trace cache and the column replay loop.

The acceptance bar for the whole subsystem is *bit-identical* analysis:
an observer fed from a cached trace (or column batches) must end in
exactly the state it reaches on the freshly generated stream.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import build_dataset
from repro.passive.monitor import PassiveServiceTable, replay
from repro.passive.scandetect import ExternalScanDetector
from repro.passive.taps import MultiLinkMonitor
from repro.passive.windows import WindowActivityObserver
from repro.trace.cache import (
    ENV_VAR,
    TraceCache,
    default_trace_cache,
)
from repro.trace.columnar import RecordColumns, read_trace_columns
from repro.trace.format import (
    TraceReader,
    read_trace,
    write_trace,
)

#: Cheap full-scale build with scans and all three record protocols.
DATASET = "DTCPall"
SEED = 11


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(DATASET, seed=SEED, scale=1.0)


@pytest.fixture(scope="module")
def generated_records(dataset):
    """The dataset's full border stream, regenerated (no cache)."""
    return list(dataset._generate_stream())


def column_batches(records, size=1000):
    """*records* as column batches of *size* (the last may be short)."""
    return [
        RecordColumns.from_records(records[i : i + size])
        for i in range(0, len(records), size)
    ]


def observe_each(records, *observers):
    """The per-record reference: ``observe`` on every record in order."""
    for record in records:
        for observer in observers:
            observer.observe(record)


def standard_observers(dataset):
    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
        links=frozenset(dataset.spec.monitored_links),
    )
    detector = ExternalScanDetector(is_campus=dataset.is_campus)
    return table, detector


def assert_same_analysis(a_table, b_table, a_detector, b_detector):
    assert a_table.first_seen == b_table.first_seen
    assert a_table.flow_counts == b_table.flow_counts
    assert a_table.clients == b_table.clients
    assert a_detector.scanners() == b_detector.scanners()
    assert a_detector._targets == b_detector._targets
    assert a_detector._rst_sources == b_detector._rst_sources


class TestChunkedReader:
    def test_matches_streaming_reader(self, tmp_path, generated_records):
        path = tmp_path / "t.rprt"
        write_trace(path, generated_records)
        streamed = read_trace(path)
        chunked = [
            r for batch in read_trace_columns(path, 1000)
            for r in batch.to_records()
        ]
        assert chunked == streamed == generated_records

    def test_truncated_trace_rejected(self, tmp_path, generated_records):
        path = tmp_path / "t.rprt"
        write_trace(path, generated_records[:10])
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError, match="truncated"):
            for _ in read_trace_columns(path):
                pass

    def test_bad_batch_size_rejected(self, tmp_path):
        path = tmp_path / "t.rprt"
        write_trace(path, [])
        with pytest.raises(ValueError):
            list(read_trace_columns(path, 0))


class TestRoundTripFidelity:
    """The paper's record-once/analyze-many premise: offline == online."""

    def test_observers_identical_via_trace(self, tmp_path, dataset, generated_records):
        path = tmp_path / "capture.rprt"
        write_trace(path, generated_records)

        direct_table, direct_detector = standard_observers(dataset)
        observe_each(generated_records, direct_table, direct_detector)

        stream_table, stream_detector = standard_observers(dataset)
        with TraceReader.open(path) as reader:
            observe_each(reader, stream_table, stream_detector)

        batch_table, batch_detector = standard_observers(dataset)
        batch_count = replay(
            read_trace_columns(path), batch_table, batch_detector
        )

        assert batch_count == len(generated_records)
        assert_same_analysis(direct_table, stream_table, direct_detector, stream_detector)
        assert_same_analysis(direct_table, batch_table, direct_detector, batch_detector)

    def test_cached_replay_identical_to_generation(self, dataset):
        """``BuiltDataset.replay``: miss (tee) and hit give equal state."""
        first_table, first_detector = standard_observers(dataset)
        first = dataset.replay(first_table, first_detector)
        assert default_trace_cache().lookup(dataset.trace_cache_key) is not None

        second_table, second_detector = standard_observers(dataset)
        second = dataset.replay(second_table, second_detector)
        assert first == second
        assert_same_analysis(first_table, second_table, first_detector, second_detector)

    def test_record_batches_served_from_cache(self, dataset, generated_records):
        dataset.replay(PassiveServiceTable(is_campus=dataset.is_campus))
        assert default_trace_cache().lookup(dataset.trace_cache_key)
        served = [r for b in dataset.record_batches() for r in b.to_records()]
        assert served == generated_records

    def test_partial_replay_regenerates(self, dataset):
        """``end`` before the dataset end must not read the full trace."""
        table = PassiveServiceTable(
            is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
        )
        partial = dataset.replay(table, end=dataset.duration / 4)
        full = dataset.replay(
            PassiveServiceTable(
                is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
            )
        )
        assert partial < full


class TestBatchedObservers:
    """observe_columns must equal per-record observe for every observer."""

    def test_passive_table(self, dataset, generated_records):
        per_record, _ = standard_observers(dataset)
        batched, _ = standard_observers(dataset)
        for record in generated_records:
            per_record.observe(record)
        replay(column_batches(generated_records), batched)
        assert per_record.first_seen == batched.first_seen
        assert per_record.flow_counts == batched.flow_counts
        assert per_record.clients == batched.clients

    def test_passive_table_handshake_signal(self, dataset, generated_records):
        from repro.passive.monitor import ServiceSignal

        def make():
            return PassiveServiceTable(
                is_campus=dataset.is_campus,
                tcp_ports=dataset.tcp_ports,
                signal=ServiceSignal.HANDSHAKE,
            )

        per_record, batched = make(), make()
        for record in generated_records:
            per_record.observe(record)
        replay(column_batches(generated_records), batched)
        assert per_record.first_seen == batched.first_seen
        assert per_record.flow_counts == batched.flow_counts

    def test_scan_detector(self, dataset, generated_records):
        per_record = ExternalScanDetector(is_campus=dataset.is_campus)
        batched = ExternalScanDetector(is_campus=dataset.is_campus)
        for record in generated_records:
            per_record.observe(record)
        replay(column_batches(generated_records), batched)
        assert per_record._targets == batched._targets
        assert per_record._rst_sources == batched._rst_sources

    def test_window_observer(self, dataset, generated_records):
        windows = dataset.scan_windows()

        def make():
            return WindowActivityObserver(
                windows=windows,
                is_campus=dataset.is_campus,
                tcp_ports=dataset.tcp_ports,
            )

        per_record, batched = make(), make()
        for record in generated_records:
            per_record.observe(record)
        replay(column_batches(generated_records), batched)
        assert per_record.hits == batched.hits

    def test_multilink_monitor(self, dataset, generated_records):
        def make():
            return MultiLinkMonitor(
                links=dataset.spec.monitored_links,
                is_campus=dataset.is_campus,
                tcp_ports=dataset.tcp_ports,
            )

        per_record, batched = make(), make()
        for record in generated_records:
            per_record.observe(record)
        replay(column_batches(generated_records), batched)
        assert per_record.combined.first_seen == batched.combined.first_seen
        for link, tap in per_record.taps.items():
            assert tap.table.first_seen == batched.taps[link].table.first_seen

    def test_replay_falls_back_to_observe(self, generated_records):
        class RecordingObserver:
            def __init__(self):
                self.seen = []

            def observe(self, record):
                self.seen.append(record)

        observer = RecordingObserver()
        batches = column_batches(generated_records[:250], 100)
        assert replay(iter(batches), observer) == 250
        assert observer.seen == generated_records[:250]


class TestTraceCache:
    def test_disabled_by_env(self, monkeypatch):
        for value in ("off", "none", "disabled", "0", "OFF"):
            monkeypatch.setenv(ENV_VAR, value)
            assert default_trace_cache().enabled is False

    def test_env_points_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "cachedir"))
        cache = default_trace_cache()
        assert cache.enabled
        assert cache.root == tmp_path / "cachedir"

    def test_disabled_lookup_never_hits(self, tmp_path):
        cache = TraceCache(root=tmp_path, enabled=False)
        assert cache.lookup(("DTCPall", 0, "1.0", 1)) is None
        assert cache.stats.hits == cache.stats.misses == 0

    def test_keying(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        a = cache.path_for(("DTCP1-18d", 0, "1.0", 1))
        assert a != cache.path_for(("DTCP1-18d", 1, "1.0", 1))
        assert a != cache.path_for(("DTCP1-18d", 0, "0.5", 1))
        assert a != cache.path_for(("DTCP1-18d", 0, "1.0", 2))  # generator bump
        assert a == cache.path_for(("DTCP1-18d", 0, "1.0", 1))
        assert a.name.startswith("DTCP1-18d-")

    def test_atomic_write_and_stats(self, tmp_path, generated_records):
        cache = TraceCache(root=tmp_path / "nested" / "cache")
        key = (DATASET, SEED, "1.0", 1)
        assert cache.lookup(key) is None
        pending = cache.begin_write(key)
        write_trace(pending.tmp_path, generated_records)
        # Not visible until committed.
        assert not cache.path_for(key).exists()
        final = pending.commit()
        assert final == cache.path_for(key)
        assert cache.lookup(key) == final
        assert read_trace(final) == generated_records
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_abort_removes_partial(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        pending = cache.begin_write(("x", 0, "1.0", 1))
        pending.tmp_path.write_bytes(b"partial")
        pending.abort()
        assert not pending.tmp_path.exists()
        pending.abort()  # idempotent

    def test_entries_and_clear(self, tmp_path, generated_records):
        cache = TraceCache(root=tmp_path)
        for seed in (1, 2):
            pending = cache.begin_write(("x", seed, "1.0", 1))
            write_trace(pending.tmp_path, generated_records[:seed * 5])
            pending.commit()
        assert len(cache.entries()) == 2
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_default_cache_tracks_env_changes(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "a"))
        first = default_trace_cache()
        assert first is default_trace_cache()
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "b"))
        assert default_trace_cache().root == tmp_path / "b"

    def test_replay_stats_accumulate(self, monkeypatch, tmp_path, dataset):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "stats-cache"))
        cache = default_trace_cache()
        dataset.replay(PassiveServiceTable(is_campus=dataset.is_campus))
        assert cache.stats.misses == 1
        dataset.replay(PassiveServiceTable(is_campus=dataset.is_campus))
        assert cache.stats.hits == 1
        assert cache.stats.records_replayed > 0
        assert cache.stats.replay_seconds > 0
        assert cache.stats.records_per_sec > 0

    def test_corrupt_entry_treated_as_miss(self, monkeypatch, tmp_path, dataset):
        """A truncated cached trace is evicted and replay regenerates."""
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "corrupt-cache"))
        cache = default_trace_cache()
        reference_table, reference_detector = standard_observers(dataset)
        dataset.replay(reference_table, reference_detector)
        path = cache.path_for(dataset.trace_cache_key)
        path.write_bytes(path.read_bytes()[:-13])

        assert cache.lookup(dataset.trace_cache_key) is None
        assert not path.exists()

        table, detector = standard_observers(dataset)
        dataset.replay(table, detector)
        assert_same_analysis(reference_table, table, reference_detector, detector)
        # The re-recorded entry is intact again.
        assert cache.lookup(dataset.trace_cache_key) == path

    def test_truncated_entry_lookup_is_miss_and_evicts(
        self, tmp_path, generated_records
    ):
        """lookup() on a half-written entry must evict, not serve it."""
        cache = TraceCache(root=tmp_path)
        key = (DATASET, SEED, "1.0", 1)
        pending = cache.begin_write(key)
        write_trace(pending.tmp_path, generated_records)
        path = pending.commit()
        # Chop the entry roughly in half, as a crashed writer or the
        # fault injector's cache_corruption_rate would.
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.lookup(key) is None
        assert not path.exists()
        assert cache.stats.misses == 1

    def test_disabled_cache_replay_still_works(
        self, monkeypatch, tmp_path, dataset
    ):
        # A disabled cache keeps the default root (~/.cache/repro); point
        # it at an empty home so traces the user recorded there cannot
        # leak into the check.  Drop the memoised default (and the value
        # it was built for) so it is rebuilt under that home.
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setattr("repro.trace.cache._default", None)
        monkeypatch.setattr("repro.trace.cache._default_env", None)
        monkeypatch.setenv(ENV_VAR, "off")
        table = PassiveServiceTable(
            is_campus=dataset.is_campus, tcp_ports=dataset.tcp_ports
        )
        count = dataset.replay(table)
        assert count > 0
        cache = default_trace_cache()
        assert cache.root == tmp_path / ".cache" / "repro"
        assert cache.entries() == []


class TestConcurrentWriters:
    """Racing ``--jobs N`` workers recording the same dataset.

    Every writer produces identical bytes and publishes with an atomic
    rename, so whichever commit lands last, the entry must be intact
    and serve the full record stream.
    """

    KEY = (DATASET, SEED, "1.0", 1)

    @staticmethod
    def _race_write(root, key, records, barrier):
        cache = TraceCache(root=root)
        pending = cache.begin_write(key)
        write_trace(pending.tmp_path, records)
        barrier.wait(timeout=30)  # line everyone up, then commit at once
        pending.commit()
        os._exit(0)

    def test_processes_racing_same_key(self, tmp_path, generated_records):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        workers = 4
        barrier = ctx.Barrier(workers)
        processes = [
            ctx.Process(
                target=self._race_write,
                args=(tmp_path, self.KEY, generated_records, barrier),
            )
            for _ in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0
        cache = TraceCache(root=tmp_path)
        path = cache.lookup(self.KEY)
        assert path is not None
        assert read_trace(path) == generated_records
        # No stray tmp files left behind by the losing writers.
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_distinct_pids_get_distinct_tmp_paths(self, tmp_path):
        """The tmp name embeds the pid, so racing processes never
        clobber each other's partial writes."""
        cache = TraceCache(root=tmp_path)
        pending = cache.begin_write(self.KEY)
        assert str(os.getpid()) in pending.tmp_path.name
        assert pending.tmp_path != pending.final_path

    def test_reader_racing_writer_sees_old_or_new_never_partial(
        self, tmp_path, generated_records
    ):
        """While a rewrite is pending, lookups serve the committed entry."""
        cache = TraceCache(root=tmp_path)
        first = cache.begin_write(self.KEY)
        write_trace(first.tmp_path, generated_records[:50])
        first.commit()
        rewrite = cache.begin_write(self.KEY)
        write_trace(rewrite.tmp_path, generated_records)
        # Mid-write: the old entry is still what readers get.
        assert read_trace(cache.lookup(self.KEY)) == generated_records[:50]
        rewrite.commit()
        assert read_trace(cache.lookup(self.KEY)) == generated_records


def _columns_of(batches) -> dict:
    """Concatenate column batches field by field."""
    import numpy as np

    from repro.trace.columnar import COLUMN_FIELDS

    batches = list(batches)
    return {
        name: np.concatenate([getattr(b, name) for b in batches])
        if batches else np.empty(0, dtype=dtype)
        for name, dtype in COLUMN_FIELDS
    }


def _assert_same_columns(got: dict, expected: dict) -> None:
    for name, column in expected.items():
        assert got[name].tolist() == column.tolist(), name


class TestRecordSource:
    """``BuiltDataset.record_batches``: the one source every pass reads."""

    @pytest.fixture()
    def reference(self, generated_records):
        return _columns_of([RecordColumns.from_records(generated_records)])

    def _sliced(self, reference: dict, skip: int) -> dict:
        return {name: column[skip:] for name, column in reference.items()}

    @pytest.mark.parametrize("batch_records,skip", [
        (1000, 0), (8192, 8191), (8192, 8192), (8192, 8193),
    ])
    def test_regenerated_equals_generator(
        self, monkeypatch, dataset, reference, batch_records, skip
    ):
        monkeypatch.setenv(ENV_VAR, "off")
        batches = list(dataset.record_batches(
            skip=skip, batch_records=batch_records
        ))
        assert all(len(b) == batch_records for b in batches[:-1])
        _assert_same_columns(_columns_of(batches), self._sliced(reference, skip))

    def test_cached_equals_generator(
        self, monkeypatch, tmp_path, dataset, reference, generated_records
    ):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        dataset.replay()
        assert default_trace_cache().lookup(dataset.trace_cache_key)
        total = len(generated_records)
        for batch_records in (1000, 8192, 65536, 100_000):
            for skip in (0, 999, 1000, 1001, 65535, 65536, 65537,
                         total - 1, total, total + 5):
                batches = list(dataset.record_batches(
                    skip=skip, batch_records=batch_records
                ))
                assert all(len(b) <= batch_records for b in batches)
                _assert_same_columns(
                    _columns_of(batches), self._sliced(reference, skip)
                )

    def test_partial_pass_regenerates_truncated(self, dataset):
        end = dataset.duration / 4
        expected = list(dataset._generate_stream(end))
        got = [
            r for b in dataset.record_batches(end, skip=5, batch_records=777)
            for r in b.to_records()
        ]
        assert got == expected[5:]

    def test_first_replay_records_byte_identical_trace(
        self, monkeypatch, tmp_path, dataset, generated_records
    ):
        from repro.trace.columnar import ColumnarTraceWriter

        monkeypatch.setenv(ENV_VAR, str(tmp_path / "cache"))
        dataset.replay()
        recorded = default_trace_cache().lookup(dataset.trace_cache_key)
        one_by_one = tmp_path / "one-by-one.rprt"
        with ColumnarTraceWriter.open(one_by_one) as writer:
            for record in generated_records:
                writer.write(record)
        assert recorded.read_bytes() == one_by_one.read_bytes()

    def test_abandoned_recording_leaves_no_entry(
        self, monkeypatch, tmp_path, dataset, generated_records
    ):
        from repro.trace.columnar import DEFAULT_CHUNK_RECORDS

        root = tmp_path / "cache"
        monkeypatch.setenv(ENV_VAR, str(root))

        class Exploding:
            def __init__(self):
                self.batches = 0

            def observe_columns(self, cols):
                self.batches += 1
                if self.batches == 2:
                    raise RuntimeError("observer failed mid-pass")

        with pytest.raises(RuntimeError):
            dataset.replay(Exploding())
        assert [p.name for p in root.iterdir() if p.suffix == ".rprt"] == []
        assert not any(".tmp." in p.name for p in root.iterdir())

        origin, batches = dataset._open_pass(
            None, 0, DEFAULT_CHUNK_RECORDS, record=True
        )
        assert origin == "recorded"
        next(batches)
        batches.close()
        assert [p.name for p in root.iterdir() if p.suffix == ".rprt"] == []
        assert not any(".tmp." in p.name for p in root.iterdir())

        # The next pass records cleanly.
        assert dataset.replay() == len(generated_records)
        recorded = default_trace_cache().lookup(dataset.trace_cache_key)
        assert recorded is not None
        assert read_trace(recorded) == generated_records

    def test_cached_stream_honours_batch_records(
        self, monkeypatch, tmp_path, dataset
    ):
        from repro.stream import StreamConfig, StreamEngine
        from repro.stream.ingest import StreamIngestor

        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        dataset.replay()
        assert default_trace_cache().lookup(dataset.trace_cache_key)
        dispatched = []
        original = StreamIngestor.dispatch

        def spy(self, parts):
            dispatched.append(sum(len(part) for part in parts))
            return original(self, parts)

        def run(**overrides):
            config = StreamConfig(
                dataset=DATASET, seed=SEED, scale=1.0, shards=2, **overrides
            )
            return StreamEngine(config, dataset=dataset).run()

        default = run()
        monkeypatch.setattr(StreamIngestor, "dispatch", spy)
        small = run(batch_records=1000)
        assert dispatched and max(dispatched) <= 1000
        assert small.report == default.report
        assert small.records_delivered == default.records_delivered
