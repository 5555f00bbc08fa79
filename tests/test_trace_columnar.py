"""Tests for the columnar trace format (v2) and the vectorised paths.

The acceptance bar mirrors the trace-cache suite: every columnar path
-- conversion, zero-copy reads, vectorised replay, columnar streaming
-- must be *bit-identical* to the scalar v1 path it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultPlan
from repro.net.packet import (
    ICMP_PORT_UNREACHABLE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PacketRecord,
    TcpFlags,
)
from repro.passive.monitor import PassiveServiceTable, replay
from repro.passive.scandetect import ExternalScanDetector
from repro.passive.taps import MultiLinkMonitor
from repro.passive.windows import WindowActivityObserver
from repro.trace.cache import ENV_VAR, TraceCache, default_trace_cache
from repro.trace.columnar import (
    ColumnarTraceWriter,
    RecordColumns,
    columnar_is_intact,
    columnar_record_count,
    convert_trace,
    read_trace_columns,
)
from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    TraceReader,
    read_trace,
    trace_is_intact,
    trace_version,
    write_trace,
)

_LINK_CHOICES = ("", "commercial1", "commercial2", "internet2")

#: (kind, link) rows covering every protocol, flag combination the
#: format stores, every link index, and the ICMP marker.
_ROWS = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e7, allow_nan=False),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
        st.sampled_from(["syn", "synack", "rst", "ack", "udp", "icmp"]),
        st.sampled_from(_LINK_CHOICES),
    ),
    max_size=50,
)


def _make_record(row) -> PacketRecord:
    time, src, dst, sport, dport, kind, link = row
    if kind == "udp":
        return PacketRecord(
            time=time, src=src, dst=dst, sport=sport, dport=dport,
            proto=PROTO_UDP, flags=TcpFlags.NONE, link=link,
        )
    if kind == "icmp":
        return PacketRecord(
            time=time, src=src, dst=dst, sport=sport, dport=dport,
            proto=PROTO_ICMP, flags=TcpFlags.NONE,
            icmp=ICMP_PORT_UNREACHABLE, link=link,
        )
    flags = {
        "syn": TcpFlags.SYN,
        "synack": TcpFlags.SYN | TcpFlags.ACK,
        "rst": TcpFlags.RST,
        "ack": TcpFlags.ACK,
    }[kind]
    return PacketRecord(
        time=time, src=src, dst=dst, sport=sport, dport=dport,
        proto=PROTO_TCP, flags=flags, link=link,
    )


class TestConvert:
    @settings(deadline=None, max_examples=40)
    @given(rows=_ROWS)
    def test_property_v1_to_v2_roundtrip(self, rows, tmp_path_factory):
        """v1 -> v2 -> v1 preserves the record sequence exactly."""
        tmp = tmp_path_factory.mktemp("convert")
        records = [_make_record(row) for row in rows]
        v1 = tmp / "a.rprt"
        v2 = tmp / "b.rprt"
        back = tmp / "c.rprt"
        write_trace(v1, records)
        assert convert_trace(v1, v2, to_version=2) == len(records)
        assert trace_version(v2) == 2
        assert read_trace(v2) == records
        assert convert_trace(v2, back, to_version=1) == len(records)
        # v2 -> v1 reproduces the original v1 file byte for byte.
        assert back.read_bytes() == v1.read_bytes()

    def test_convert_small_chunks(self, tmp_path):
        records = [_make_record((float(i), i, i + 1, 80, 90, "ack", ""))
                   for i in range(25)]
        v1 = tmp_path / "a.rprt"
        v2 = tmp_path / "b.rprt"
        write_trace(v1, records)
        convert_trace(v1, v2, to_version=2, chunk_records=4)
        assert read_trace(v2) == records
        batches = list(read_trace_columns(v2))
        assert [len(b) for b in batches] == [4, 4, 4, 4, 4, 4, 1]

    def test_cli_trace_convert(self, tmp_path, capsys):
        from repro.cli import main

        records = [_make_record((1.0, 1, 2, 3, 4, "synack", "commercial1"))]
        v1 = tmp_path / "a.rprt"
        v2 = tmp_path / "b.rprt"
        write_trace(v1, records)
        assert main(["trace", "convert", str(v1), str(v2)]) == 0
        out = capsys.readouterr().out
        assert "converted 1 records" in out
        assert trace_version(v2) == 2
        assert read_trace(v2) == records


class TestColumnarFormat:
    def test_chunked_writer_roundtrip(self, tmp_path):
        records = [_make_record((float(i), i, i ^ 1, i % 100, 80,
                                 "synack" if i % 3 else "udp",
                                 _LINK_CHOICES[i % 4]))
                   for i in range(100)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path, chunk_records=16) as writer:
            for record in records:
                writer.write(record)
        assert read_trace(path) == records
        with TraceReader.open(path) as reader:
            assert reader.declared_count == 100
            assert reader.version == 2
            assert list(reader) == records

    def test_zero_copy_views(self, tmp_path):
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(10)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path) as writer:
            for record in records:
                writer.write(record)
        (batch,) = read_trace_columns(path)
        # Views into the mapping, not copies.
        assert not batch.time.flags.owndata
        assert batch.time.dtype == np.dtype("<f8")
        assert batch.time.tolist() == [r.time for r in records]

    def test_skip_records(self, tmp_path):
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(20)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path, chunk_records=6) as writer:
            for record in records:
                writer.write(record)
        for skip in (0, 3, 6, 13, 20):
            batches = list(read_trace_columns(path, 4, skip_records=skip))
            assert all(len(b) <= 4 for b in batches)
            got = [r for b in batches for r in b.to_records()]
            assert got == records[skip:], f"skip={skip}"

    def test_truncation_detected(self, tmp_path):
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(50)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path, chunk_records=8) as writer:
            for record in records:
                writer.write(record)
        assert trace_is_intact(path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        assert not trace_is_intact(path)

    def test_zero_count_header_v2(self, tmp_path):
        """A killed v2 writer leaves count=0: readers walk the chunks."""
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(30)]
        path = tmp_path / "t.rprt"
        with ColumnarTraceWriter.open(path, chunk_records=8) as writer:
            for record in records:
                writer.write(record)
        data = bytearray(path.read_bytes())
        data[8:16] = b"\x00" * 8  # erase the stamped count
        path.write_bytes(bytes(data))
        assert columnar_record_count(path) == 30
        assert not columnar_is_intact(path)  # zero count + body = unclean
        with TraceReader.open(path) as reader:
            assert reader.declared_count == 30
            assert list(reader) == records

    def test_zero_count_header_v1_takes_batched_path(self, tmp_path):
        """Satellite: a v1 zero-count trace still reports its true count
        (computed from the file size), so chunked reads batch properly."""
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(30)]
        path = tmp_path / "t.rprt"
        write_trace(path, records)
        data = bytearray(path.read_bytes())
        data[8:16] = b"\x00" * 8
        path.write_bytes(bytes(data))
        with TraceReader.open(path) as reader:
            assert reader.declared_count == 30
        assert not trace_is_intact(path)
        got = list(read_trace_columns(path, 7))
        assert [len(b) for b in got] == [7, 7, 7, 7, 2]
        assert [r for b in got for r in b.to_records()] == records


class TestCacheKeyVersion:
    def test_path_embeds_format_version(self, tmp_path):
        """Satellite regression: the cache key covers the trace format
        version, so v1 and v2 artifacts of one trace can never collide."""
        cache = TraceCache(root=tmp_path)
        key = ("DTCP1-18d", 7, "0.04", 3)
        p1 = cache.path_for(key, format_version=1)
        p2 = cache.path_for(key, format_version=2)
        assert p1 != p2
        assert "-v1-" in p1.name and "-v2-" in p2.name
        # Different digests, not just different stems.
        assert p1.name.split("-v1-")[1] != p2.name.split("-v2-")[1]
        # The default is the version new recordings are written in.
        assert cache.path_for(key) == cache.path_for(
            key, format_version=TRACE_FORMAT_VERSION
        )

    def test_lookup_ignores_other_version_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        cache = default_trace_cache()
        key = ("X", 1, "1.0", 1)
        old = cache.path_for(key, format_version=1)
        old.parent.mkdir(parents=True, exist_ok=True)
        write_trace(old, [_make_record((1.0, 1, 2, 3, 4, "ack", ""))])
        assert trace_is_intact(old)
        # A v1-era entry is invisible to the current-version lookup.
        assert cache.lookup(key) is None
        assert old.exists()


def _observe_each(records, observers, faults=None) -> int:
    """The per-record reference pass: every kept record, in order, to
    every observer's ``observe``; returns the kept count."""
    count = 0
    for record in records:
        if faults is not None and not faults.keep(record):
            continue
        for observer in observers:
            observer.observe(record)
        count += 1
    return count


def _faulty_plan() -> FaultPlan:
    return FaultPlan(
        seed=13, capture_loss_rate=0.02, burst_loss_rate=0.001,
        burst_mean_length=5, outage_fraction=0.01, outage_count=2,
    )


class TestColumnarReplayEquivalence:
    """Columnar replay == scalar replay, observer state for observer state."""

    @pytest.fixture()
    def cached_trace(self, allports_dataset, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        dataset = allports_dataset
        dataset.replay()  # first pass records the v2 trace
        cached = default_trace_cache().lookup(dataset.trace_cache_key)
        assert cached is not None
        assert trace_version(cached) == 2
        return dataset, cached

    def _observers(self, dataset):
        table = PassiveServiceTable(
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        monitor = MultiLinkMonitor(
            links=dataset.spec.monitored_links,
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        detector = ExternalScanDetector(is_campus=dataset.is_campus)
        windows = WindowActivityObserver(
            windows=tuple(dataset.scan_windows()),
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        return table, monitor, detector, windows

    def _assert_equal_state(self, a, b):
        table_a, monitor_a, detector_a, windows_a = a
        table_b, monitor_b, detector_b, windows_b = b
        assert table_a.first_seen == table_b.first_seen
        assert table_a.flow_counts == table_b.flow_counts
        assert table_a.clients == table_b.clients
        assert monitor_a.total_servers() == monitor_b.total_servers()
        for link, tap in monitor_a.taps.items():
            assert (
                tap.table.first_seen == monitor_b.taps[link].table.first_seen
            ), link
        assert detector_a._targets == detector_b._targets
        assert detector_a._rst_sources == detector_b._rst_sources
        assert windows_a.hits == windows_b.hits

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
    def test_columnar_matches_scalar(self, cached_trace, faulted):
        dataset, cached = cached_trace
        plan = _faulty_plan() if faulted else None

        columnar = self._observers(dataset)
        faults_c = plan.capture_filter(dataset.duration) if plan else None
        count_c = replay(
            read_trace_columns(cached), *columnar, faults=faults_c
        )

        scalar = self._observers(dataset)
        faults_s = plan.capture_filter(dataset.duration) if plan else None
        count_s = _observe_each(read_trace(cached), scalar, faults_s)

        assert count_c == count_s
        self._assert_equal_state(columnar, scalar)
        if plan:
            assert faults_c.stats.kept == faults_s.stats.kept
            assert faults_c.stats.dropped == faults_s.stats.dropped

    def test_scalar_fallback_contract(self, cached_trace):
        """An observer without observe_columns sees identical records."""
        dataset, cached = cached_trace

        class RecordingObserver:
            def __init__(self):
                self.seen = []

            def observe(self, record):
                self.seen.append(record)

        plain = RecordingObserver()
        table = PassiveServiceTable(
            is_campus=dataset.is_campus,
            tcp_ports=dataset.tcp_ports,
            udp_ports=dataset.udp_ports,
        )
        replay(read_trace_columns(cached), table, plain)
        assert plain.seen == read_trace(cached)

    def test_survey_report_identical(self, cached_trace):
        """Satellite: the rendered survey report is byte-identical when
        the pass is served columnar vs scalar, with and without faults."""
        from repro.active.results import union_open_endpoints
        from repro.core.completeness import summarize_overlap
        from repro.core.report import survey_table

        dataset, cached = cached_trace

        def render(columnar: bool, plan) -> str:
            table = PassiveServiceTable(
                is_campus=dataset.is_campus,
                tcp_ports=dataset.tcp_ports,
                udp_ports=dataset.udp_ports,
            )
            faults = plan.capture_filter(dataset.duration) if plan else None
            if columnar:
                count = replay(
                    read_trace_columns(cached), table, faults=faults
                )
            else:
                count = _observe_each(read_trace(cached), [table], faults)
            active = {
                address
                for address, _ in union_open_endpoints(dataset.scan_reports)
            }
            summary = summarize_overlap(table.server_addresses(), active)
            return survey_table(
                dataset.spec.name, dataset.scale, dataset.seed,
                count, len(dataset.scan_reports), summary,
            ).render()

        assert render(True, None) == render(False, None)
        plan = _faulty_plan()
        assert render(True, plan) == render(False, plan)


class TestColumnarStreamEquivalence:
    def test_stream_cached_matches_regenerated(
        self, allports_dataset, tmp_path, monkeypatch
    ):
        from repro.stream.engine import StreamConfig, StreamEngine

        dataset = allports_dataset
        config = StreamConfig(
            dataset=dataset.spec.name, seed=dataset.seed,
            scale=dataset.scale, shards=4,
        )
        monkeypatch.setenv(ENV_VAR, "off")
        regenerated = StreamEngine(config, dataset=dataset).run()
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        dataset.replay()  # warm the v2 cache
        cached = StreamEngine(config, dataset=dataset).run()
        assert cached.report == regenerated.report
        assert cached.last_seen == regenerated.last_seen
        assert cached.records_delivered == regenerated.records_delivered
        assert cached.watermarks == regenerated.watermarks


class TestRecordColumns:
    def test_roundtrip_from_records(self):
        records = [
            _make_record((float(i), i, i + 1, i % 7, 80,
                          ["syn", "synack", "udp", "icmp"][i % 4],
                          _LINK_CHOICES[i % 4]))
            for i in range(16)
        ]
        cols = RecordColumns.from_records(records)
        assert cols.to_records() == records
        assert len(cols) == 16

    def test_selection_preserves_records(self):
        records = [_make_record((float(i), i, i, 1, 2, "ack", ""))
                   for i in range(10)]
        cols = RecordColumns.from_records(records)
        mask = np.array([i % 2 == 0 for i in range(10)])
        assert cols.compress(mask).to_records() == records[::2]
        assert cols.slice(3, 7).to_records() == records[3:7]
        assert cols.take(np.array([9, 0])).to_records() == [
            records[9], records[0]
        ]
