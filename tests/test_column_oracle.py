"""Oracle property test: the column path equals the per-record path.

Every observer keeps ``observe(record)`` as its reference state machine;
the pipeline only ever calls ``observe_columns``.  Over small random
record streams cut into random batches, :func:`repro.passive.monitor.replay`
must leave every observer in exactly the state a per-record ``observe``
loop reaches -- across evidence rules, samplers, link sets, excluded
sources, prefix and opaque campus predicates, and capture faults at the
replay, the tap, and the monitor.
"""

from __future__ import annotations

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
from repro.passive.monitor import (
    PassiveServiceTable,
    ServiceSignal,
    UdpSignal,
    replay,
)
from repro.passive.scandetect import ExternalScanDetector, ScanDetectorConfig
from repro.passive.taps import LinkTap, MultiLinkMonitor
from repro.passive.windows import WindowActivityObserver
from repro.stream.shard import ShardState
from repro.telemetry.tap import ReplayTap
from repro.trace.columnar import RecordColumns

CAMPUS_NETWORK = 0x0A000000
CAMPUS_MASK = 0xFF000000
SERVERS = (0x0A000001, 0x0A000002, 0x0A000003)
CLIENTS = (0xC0A80001, 0xC0A80002, 0xC0A80003)
SERVICE_PORTS = (53, 80, 443)
CLIENT_PORTS = (1024, 40000)
LINKS = ("", "commercial1", "commercial2", "internet2")
DURATION = 1000.0
WINDOWS = ((0.0, 100.0), (200.0, 300.0), (500.0, 900.0))
KINDS = ("syn", "synack", "ack", "rst", "rstack", "udp", "icmp")
FLAGS = {
    "syn": TcpFlags.SYN,
    "synack": TcpFlags.SYN | TcpFlags.ACK,
    "ack": TcpFlags.ACK,
    "rst": TcpFlags.RST,
    "rstack": TcpFlags.RST | TcpFlags.ACK,
}


def prefix_is_campus(address: int) -> bool:
    return (address & CAMPUS_MASK) == CAMPUS_NETWORK


prefix_is_campus.campus_network = CAMPUS_NETWORK
prefix_is_campus.campus_mask = CAMPUS_MASK


def opaque_is_campus(address: int) -> bool:
    return (address & CAMPUS_MASK) == CAMPUS_NETWORK


def half_hour_sampler(t: float) -> bool:
    return t % 100.0 < 50.0


def _record(row) -> PacketRecord:
    """One record of a conversation between a campus server and an
    outside client; *flip* reverses its direction."""
    time, server, client, service, cport, kind, flip, link = row
    src, dst, sport, dport = client, server, cport, service
    if kind in ("synack", "rst", "rstack", "icmp"):
        src, dst, sport, dport = server, client, service, cport
    if flip:
        src, dst, sport, dport = dst, src, dport, sport
    if kind == "udp":
        return PacketRecord(time=time, src=src, dst=dst, sport=sport,
                            dport=dport, proto=PROTO_UDP, link=link)
    if kind == "icmp":
        return PacketRecord(time=time, src=src, dst=dst, sport=sport,
                            dport=dport, proto=PROTO_ICMP,
                            icmp=ICMP_PORT_UNREACHABLE, link=link)
    return PacketRecord(time=time, src=src, dst=dst, sport=sport,
                        dport=dport, proto=PROTO_TCP, flags=FLAGS[kind],
                        link=link)


RECORDS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9999).map(lambda t: t / 10.0),
        st.sampled_from(SERVERS),
        st.sampled_from(CLIENTS),
        st.sampled_from(SERVICE_PORTS),
        st.sampled_from(CLIENT_PORTS),
        st.sampled_from(KINDS),
        st.booleans(),
        st.sampled_from(LINKS),
    ).map(_record),
    max_size=60,
)

CONFIGS = st.fixed_dictionaries({
    "signal": st.sampled_from(list(ServiceSignal)),
    "udp_signal": st.sampled_from(list(UdpSignal)),
    "sampler": st.sampled_from([None, half_hour_sampler]),
    "links": st.one_of(
        st.none(), st.frozensets(st.sampled_from(LINKS[1:]), min_size=1)
    ),
    "exclude_sources": st.frozensets(st.sampled_from(CLIENTS), max_size=2),
    "is_campus": st.sampled_from([prefix_is_campus, opaque_is_campus]),
    "tcp_ports": st.one_of(
        st.none(), st.frozensets(st.sampled_from(SERVICE_PORTS), min_size=1)
    ),
    "udp_ports": st.frozensets(st.sampled_from(SERVICE_PORTS), max_size=3),
})

FAULTS = FaultPlan(
    seed=5, capture_loss_rate=0.2, burst_loss_rate=0.05,
    burst_mean_length=3, outage_fraction=0.2, outage_count=1,
)


def _observers(config: dict, tap_link: str) -> list:
    """One of every observer, each a fresh instance."""

    def table(**overrides) -> PassiveServiceTable:
        return PassiveServiceTable(**{**config, **overrides})

    is_campus = config["is_campus"]
    monitored = ("commercial1", "internet2")

    def monitor(faults):
        return MultiLinkMonitor(
            links=monitored, is_campus=is_campus,
            tcp_ports=config["tcp_ports"], udp_ports=config["udp_ports"],
            faults=faults,
        )

    return [
        table(),
        LinkTap(tap_link, table(links=frozenset({tap_link}))),
        LinkTap(tap_link, table(links=frozenset({tap_link})),
                faults=FAULTS.capture_filter(DURATION)),
        monitor(None),
        monitor(FAULTS.capture_filter(DURATION)),
        ShardState(0, table()),
        WindowActivityObserver(
            windows=WINDOWS, is_campus=is_campus,
            tcp_ports=config["tcp_ports"], udp_ports=config["udp_ports"],
        ),
        ExternalScanDetector(
            is_campus=is_campus,
            config=ScanDetectorConfig(window_seconds=250.0),
        ),
        ReplayTap(),
    ]


def _table_state(table: PassiveServiceTable) -> tuple:
    return (
        table.first_seen, table.flow_counts, table.clients,
        table._pending_handshake, table._udp_requests,
    )


def _state(observer) -> tuple:
    if isinstance(observer, PassiveServiceTable):
        return _table_state(observer)
    if isinstance(observer, LinkTap):
        stats = observer.faults.stats if observer.faults else None
        return _table_state(observer.table), stats
    if isinstance(observer, MultiLinkMonitor):
        stats = observer.faults.stats if observer.faults else None
        taps = {link: _table_state(tap.table) for link, tap in observer.taps.items()}
        return _table_state(observer.combined), taps, stats
    if isinstance(observer, ShardState):
        return _table_state(observer.table), observer.last_seen, observer.records
    if isinstance(observer, WindowActivityObserver):
        return observer.hits
    if isinstance(observer, ExternalScanDetector):
        return observer._targets, observer._rst_sources
    return observer.records, observer.synacks, observer.by_link, observer.by_proto


def _batches(records: list, sizes: list[int]) -> list[RecordColumns]:
    """*records* cut into consecutive batches, cycling through *sizes*."""
    out = []
    start = 0
    index = 0
    while start < len(records):
        size = sizes[index % len(sizes)]
        out.append(RecordColumns.from_records(records[start:start + size]))
        start += size
        index += 1
    return out


@settings(deadline=None, max_examples=300)
@given(
    records=RECORDS,
    config=CONFIGS,
    sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
    replay_faults=st.booleans(),
    tap_link=st.sampled_from(LINKS[1:]),
)
def test_column_replay_equals_per_record_observe(
    records, config, sizes, replay_faults, tap_link
):
    reference = _observers(config, tap_link)
    reference_filter = FAULTS.capture_filter(DURATION) if replay_faults else None
    kept = 0
    for record in records:
        if reference_filter is not None and not reference_filter.keep(record):
            continue
        for observer in reference:
            observer.observe(record)
        kept += 1

    columnar = _observers(config, tap_link)
    column_filter = FAULTS.capture_filter(DURATION) if replay_faults else None
    count = replay(
        _batches(records, sizes), *columnar, faults=column_filter
    )

    assert count == kept
    if replay_faults:
        assert column_filter.stats == reference_filter.stats
    for ours, theirs in zip(columnar, reference):
        assert _state(ours) == _state(theirs), type(ours).__name__
