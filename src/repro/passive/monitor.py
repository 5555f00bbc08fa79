"""The passive service table and the observer framework.

The paper's rule (Section 3.2): "we assume that any host sending a
SYN-ACK is running a service"; for UDP, "any host which sends UDP
traffic from a well known server port is running a UDP service on that
port".  :class:`PassiveServiceTable` implements both, plus the
flow/client accumulators behind the weighted-completeness metrics and
an optional stricter handshake-confirmation signal used as an ablation.

Observers are deliberately order-insensitive: the generator's packet
stream is only approximately time-ordered (see
:mod:`repro.traffic.generator`), and first-seen times are maintained
with ``min`` rather than by assuming monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Callable, Iterable, Protocol

import numpy as np

from repro.net.packet import PROTO_TCP, PROTO_UDP, PacketRecord
from repro.telemetry.metrics import registry as _telemetry_registry

#: A service endpoint as the passive table keys it.
Endpoint = tuple[int, int, int]  # (address, port, proto)


class PacketObserver(Protocol):
    """Anything that can consume captured packet records.

    Two methods, one contract.  ``observe(record)`` is the scalar state
    machine: the reference semantics, and the oracle the tests compare
    against.  ``observe_columns(cols)`` (optional) consumes one
    :class:`repro.trace.columnar.RecordColumns` batch and is the only
    entry the pipeline uses; it must leave the observer in exactly the
    state ``observe`` reaches on each row of the batch in order.  An
    observer without ``observe_columns`` gets ``observe`` per record
    from :func:`replay`.
    """

    def observe(self, record: PacketRecord) -> None:  # pragma: no cover
        ...


def campus_mask(is_campus: Callable[[int], bool], addresses: np.ndarray) -> np.ndarray:
    """``is_campus`` over an address column, as a boolean mask.

    :meth:`repro.campus.topology.CampusTopology.campus_predicate`
    stamps its prefix parameters onto the closure, which makes the
    mask one compare; any other predicate (tests hand in arbitrary
    lambdas) is called once per address.
    """
    network = getattr(is_campus, "campus_network", None)
    mask = getattr(is_campus, "campus_mask", None)
    if network is None or mask is None:
        return np.fromiter(
            map(is_campus, addresses.tolist()), dtype=bool, count=len(addresses)
        )
    return (addresses & mask) == network


def _link_lut(link_names: tuple[str, ...], links: frozenset[str]) -> np.ndarray:
    """Boolean lookup table over link indices for a watched-links set."""
    lut = np.zeros(len(link_names), dtype=bool)
    for index, name in enumerate(link_names):
        if name in links:
            lut[index] = True
    return lut


def _feed_rows(cols, rows: np.ndarray, observe: Callable[[PacketRecord], None]) -> None:
    """Feed the *rows* mask's records, in stream order, to *observe*."""
    index = np.flatnonzero(rows)
    if index.size:
        for record in cols.take(index).to_records():
            observe(record)


def _group_min_into(
    keys: np.ndarray, times: np.ndarray, proto: int,
    first_seen: dict[Endpoint, float],
) -> None:
    """Fold per-key minimum times into *first_seen* (keys = addr<<16|port).

    Sorting by (key, time) makes each group's first element its
    minimum; only the unique keys reach Python, so the dict work is
    proportional to distinct endpoints per batch, not records.
    """
    order = np.lexsort((times, keys))
    sorted_keys = keys[order]
    sorted_times = times[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    )
    for key, seen in zip(
        sorted_keys[starts].tolist(), sorted_times[starts].tolist()
    ):
        endpoint = (key >> 16, key & 0xFFFF, proto)
        previous = first_seen.get(endpoint)
        if previous is None or seen < previous:
            first_seen[endpoint] = seen


def replay(batches: Iterable, *observers: PacketObserver, faults=None) -> int:
    """Feed :class:`~repro.trace.columnar.RecordColumns` *batches* into
    all *observers*; return the record count.

    The one pass loop: a single traversal of the stream feeds any
    number of observers, so analyses that need several views (per-link
    tables, sampled tables, scan detection) share one pass.  Observers
    with ``observe_columns`` consume each batch whole; the rest get
    ``observe`` per record, materialised once per batch for all of
    them.

    *faults* (a :class:`repro.faults.capture.CaptureFilter`) injects
    capture loss and monitor outages: dropped records are invisible to
    *every* observer of the pass, exactly as a packet lost at the tap
    is lost for all analyses of the stored trace.  The filter decides
    record by record in stream order, so the drop pattern does not
    depend on the batching.  The returned count is the number of
    records the observers actually saw.

    With telemetry enabled, each batch's wall time lands in a
    histogram; with it off, the cost is a ``None`` test around each
    batch.
    """
    dispatch = []
    for observer in observers:
        method = getattr(observer, "observe_columns", None)
        dispatch.append((method, True) if method else (observer.observe, False))
    reg = _telemetry_registry()
    chunk_seconds = chunks = None
    if reg.enabled:
        chunk_seconds = reg.histogram(
            "repro_replay_chunk_seconds",
            "Wall time to dispatch one decoded chunk to all observers.",
        )
        chunks = reg.counter(
            "repro_replay_chunks_total",
            "Decoded chunks dispatched by batched replay.",
        )
    count = 0
    for cols in batches:
        if chunks is not None:
            chunk_start = perf_counter()
        if faults is not None:
            cols = faults.keep_rows(cols)
        if len(cols):
            records = None
            for method, columnar in dispatch:
                if columnar:
                    method(cols)
                    continue
                if records is None:
                    records = cols.to_records()
                for record in records:
                    method(record)
            count += len(cols)
        if chunks is not None:
            chunk_seconds.observe(perf_counter() - chunk_start)
            chunks.inc()
    return count


class ServiceSignal(str, Enum):
    """What counts as evidence of a TCP service."""

    SYNACK = "synack"          # the paper's choice: any SYN-ACK from campus
    HANDSHAKE = "handshake"    # ablation: SYN-ACK followed by the client's ACK


class UdpSignal(str, Enum):
    """What counts as evidence of a UDP service.

    The paper notes (Section 2.2) that "while bi-directional traffic
    positively indicates a UDP service, unidirectional traffic may
    also indicate a service ... but may also indicate unsolicited
    probe traffic".  ``SPORT`` is the paper's operational rule (any
    campus datagram sourced at a watched port); ``BIDIRECTIONAL`` is
    the stricter alternative requiring a preceding inbound request.
    """

    SPORT = "sport"
    BIDIRECTIONAL = "bidirectional"


@dataclass
class PassiveServiceTable:
    """Passive discovery state built from captured headers.

    Parameters
    ----------
    is_campus:
        Predicate deciding whether an address belongs to the monitored
        network (direction filter).
    tcp_ports:
        TCP server ports tracked; ``None`` tracks every port (the
        DTCPall study).
    udp_ports:
        UDP server ports tracked (empty for TCP-only studies).
    links:
        Peering links monitored; ``None`` monitors all.
    signal:
        TCP evidence rule (:class:`ServiceSignal`).
    exclude_sources:
        External addresses whose conversations are ignored entirely --
        the scan-removal filter of Section 4.3.
    sampler:
        Optional time filter (``keep(t) -> bool``); used for the
        fixed-period sampling study.
    """

    is_campus: Callable[[int], bool]
    tcp_ports: frozenset[int] | None = None
    udp_ports: frozenset[int] = frozenset()
    links: frozenset[str] | None = None
    signal: ServiceSignal = ServiceSignal.SYNACK
    udp_signal: UdpSignal = UdpSignal.SPORT
    exclude_sources: frozenset[int] = frozenset()
    sampler: Callable[[float], bool] | None = None

    #: endpoint -> earliest evidence time.
    first_seen: dict[Endpoint, float] = field(default_factory=dict)
    #: endpoint -> number of positive responses (flow weighting).
    flow_counts: dict[Endpoint, int] = field(default_factory=dict)
    #: endpoint -> distinct client addresses served (client weighting).
    clients: dict[Endpoint, set[int]] = field(default_factory=dict)
    #: (server, client, cport, sport) pairs awaiting the handshake ACK.
    _pending_handshake: dict[tuple[int, int, int, int], float] = field(
        default_factory=dict
    )
    #: (server, port, client) triples with an inbound UDP request seen
    #: (BIDIRECTIONAL udp_signal only).
    _udp_requests: set[tuple[int, int, int]] = field(default_factory=set)

    def observe(self, record: PacketRecord) -> None:
        """Feed one captured header into the table."""
        if self.links is not None and record.link not in self.links:
            return
        if self.sampler is not None and not self.sampler(record.time):
            return
        if record.proto == PROTO_TCP:
            self._observe_tcp(record)
        elif record.proto == PROTO_UDP:
            self._observe_udp(record)

    def observe_batch(self, records: list[PacketRecord]) -> None:
        """:meth:`observe` over a record list.

        Nothing in the pipeline calls it; it is kept because
        ``perfbench/layers.py`` wraps it by name.
        """
        for record in records:
            self.observe(record)

    # ---- columnar path ------------------------------------------------

    def _ports_array(self, cache_attr: str, ports) -> np.ndarray:
        cached = self.__dict__.get(cache_attr)
        if cached is None:
            cached = np.array(sorted(ports), dtype=np.uint16)
            self.__dict__[cache_attr] = cached
        return cached

    def observe_columns(self, cols) -> None:
        """:meth:`observe` over a batch, by whole-array selection masks.

        Consumes a :class:`repro.trace.columnar.RecordColumns` batch.
        Link and sampler filters, SYN-ACK bits, campus membership and
        port sets are mask algebra over the field arrays; the SYNACK
        and SPORT rules update the dicts over the batch's *distinct*
        endpoints via sorted group reductions.  The HANDSHAKE and
        BIDIRECTIONAL rules are order-dependent state machines: the
        rows their masks select go, in stream order, to the per-record
        rules.
        """
        proto = cols.proto
        base = None
        if self.links is not None:
            base = _link_lut(cols.link_names, self.links)[cols.link]
        if self.sampler is not None:
            times = cols.time if base is None else cols.time[base]
            kept = np.fromiter(
                map(self.sampler, times.tolist()), dtype=bool, count=len(times)
            )
            if base is None:
                base = kept
            else:
                base[base] = kept
        if base is not None and not base.any():
            return
        flags = cols.flags
        src = cols.src
        dst = cols.dst
        time = cols.time
        src_campus = campus_mask(self.is_campus, src)
        dst_campus = campus_mask(self.is_campus, dst)
        tcp = proto == PROTO_TCP
        if base is not None:
            tcp &= base
        exclude = None
        if self.exclude_sources:
            exclude = np.fromiter(
                self.exclude_sources, dtype=np.uint32,
                count=len(self.exclude_sources),
            )

        # SYN-ACK from a campus server to an outside client: the
        # service-evidence signal.
        synack = tcp & ((flags & 0x12) == 0x12)
        synack &= src_campus & ~dst_campus
        if exclude is not None:
            synack &= ~np.isin(dst, exclude)
        if self.tcp_ports is not None:
            synack &= np.isin(
                cols.sport, self._ports_array("_tcp_ports_cache", self.tcp_ports)
            )
        # Bare ACK from an outside client to a campus server: the
        # flow/client popularity accounting.
        ack = tcp & ((flags & 0x12) == 0x10)
        ack &= ~src_campus & dst_campus
        if exclude is not None:
            ack &= ~np.isin(src, exclude)
        if self.tcp_ports is not None:
            ack &= np.isin(
                cols.dport, self._ports_array("_tcp_ports_cache", self.tcp_ports)
            )
        if self.signal is ServiceSignal.SYNACK:
            index = np.flatnonzero(synack)
            if index.size:
                keys = (
                    src[index].astype(np.uint64) << np.uint64(16)
                ) | cols.sport[index]
                _group_min_into(keys, time[index], PROTO_TCP, self.first_seen)
            index = np.flatnonzero(ack)
            if index.size:
                keys = (
                    dst[index].astype(np.uint64) << np.uint64(16)
                ) | cols.dport[index]
                self._count_columns(keys, src[index], PROTO_TCP)
        else:
            _feed_rows(cols, synack | ack, self._observe_tcp)

        if not self.udp_ports:
            return
        udp_ports = self._ports_array("_udp_ports_cache", self.udp_ports)
        udp = proto == PROTO_UDP
        if base is not None:
            udp &= base
        # Outbound datagram from a watched UDP server port.
        outbound = udp & src_campus & ~dst_campus
        outbound &= np.isin(cols.sport, udp_ports)
        if exclude is not None:
            outbound &= ~np.isin(dst, exclude)
        if self.udp_signal is UdpSignal.SPORT:
            index = np.flatnonzero(outbound)
            if index.size:
                keys = (
                    src[index].astype(np.uint64) << np.uint64(16)
                ) | cols.sport[index]
                _group_min_into(keys, time[index], PROTO_UDP, self.first_seen)
                self._count_columns(keys, dst[index], PROTO_UDP)
            return
        # Inbound request to a watched port: what BIDIRECTIONAL needs
        # to have seen before a response counts.
        inbound = udp & ~src_campus & dst_campus
        inbound &= np.isin(cols.dport, udp_ports)
        if exclude is not None:
            inbound &= ~np.isin(src, exclude)
        _feed_rows(cols, outbound | inbound, self._observe_udp)

    def _count_columns(
        self, keys: np.ndarray, clients: np.ndarray, proto: int
    ) -> None:
        """Vectorised :meth:`_count` over (addr<<16|port) keys.

        Flow counts come from one ``np.unique`` with counts; client
        sets from the distinct (key, client) pairs of a lexsort -- the
        Python loops run over deduplicated pairs only.
        """
        unique_keys, counts = np.unique(keys, return_counts=True)
        flow_counts = self.flow_counts
        for key, count in zip(unique_keys.tolist(), counts.tolist()):
            endpoint = (key >> 16, key & 0xFFFF, proto)
            flow_counts[endpoint] = flow_counts.get(endpoint, 0) + count
        order = np.lexsort((clients, keys))
        sorted_keys = keys[order]
        sorted_clients = clients[order]
        fresh = np.r_[
            True,
            (sorted_keys[1:] != sorted_keys[:-1])
            | (sorted_clients[1:] != sorted_clients[:-1]),
        ]
        table = self.clients
        for key, client in zip(
            sorted_keys[fresh].tolist(), sorted_clients[fresh].tolist()
        ):
            endpoint = (key >> 16, key & 0xFFFF, proto)
            served = table.get(endpoint)
            if served is None:
                served = table[endpoint] = set()
            served.add(client)

    # ---- TCP --------------------------------------------------------

    def _observe_tcp(self, record: PacketRecord) -> None:
        flags = record.flags
        if flags.is_synack:
            if not self.is_campus(record.src) or self.is_campus(record.dst):
                return  # not a campus server answering an outside client
            if record.dst in self.exclude_sources:
                return
            if self.tcp_ports is not None and record.sport not in self.tcp_ports:
                return
            if self.signal is ServiceSignal.SYNACK:
                endpoint = (record.src, record.sport, PROTO_TCP)
                previous = self.first_seen.get(endpoint)
                if previous is None or record.time < previous:
                    self.first_seen[endpoint] = record.time
            else:
                self._pending_handshake[
                    (record.src, record.dst, record.dport, record.sport)
                ] = record.time
            return
        if flags & 0x10 and not flags.is_synack and not flags.is_syn:
            # A bare ACK from an outside client completes a handshake:
            # the flow/client weighting signal.  Half-open scanners
            # never send it, so scans do not inflate popularity.
            if self.is_campus(record.src) or not self.is_campus(record.dst):
                return
            if record.src in self.exclude_sources:
                return
            if self.tcp_ports is not None and record.dport not in self.tcp_ports:
                return
            self._count(record.dst, record.dport, PROTO_TCP, record.src)
            if self.signal is ServiceSignal.HANDSHAKE:
                key = (record.dst, record.src, record.sport, record.dport)
                seen = self._pending_handshake.pop(key, None)
                if seen is not None:
                    endpoint = (record.dst, record.dport, PROTO_TCP)
                    previous = self.first_seen.get(endpoint)
                    when = min(seen, record.time)
                    if previous is None or when < previous:
                        self.first_seen[endpoint] = when

    # ---- UDP --------------------------------------------------------

    def _observe_udp(self, record: PacketRecord) -> None:
        if not self.udp_ports:
            return
        outbound = self.is_campus(record.src) and not self.is_campus(record.dst)
        inbound = not self.is_campus(record.src) and self.is_campus(record.dst)
        if (
            self.udp_signal is UdpSignal.BIDIRECTIONAL
            and inbound
            and record.dport in self.udp_ports
            and record.src not in self.exclude_sources
        ):
            self._udp_requests.add((record.dst, record.dport, record.src))
            return
        if not outbound:
            return
        if record.dst in self.exclude_sources:
            return
        if record.sport not in self.udp_ports:
            return
        if self.udp_signal is UdpSignal.BIDIRECTIONAL:
            key = (record.src, record.sport, record.dst)
            if key not in self._udp_requests:
                return  # unsolicited datagram: may be probe traffic
        self._record(record.src, record.sport, PROTO_UDP, record)

    # ---- state updates ----------------------------------------------

    def _record(self, address: int, port: int, proto: int, record: PacketRecord) -> None:
        endpoint = (address, port, proto)
        previous = self.first_seen.get(endpoint)
        if previous is None or record.time < previous:
            self.first_seen[endpoint] = record.time
        self._count(address, port, proto, record.dst)

    def _count(self, address: int, port: int, proto: int, client: int) -> None:
        endpoint = (address, port, proto)
        self.flow_counts[endpoint] = self.flow_counts.get(endpoint, 0) + 1
        self.clients.setdefault(endpoint, set()).add(client)

    # ---- results ----------------------------------------------------

    def endpoints(self) -> set[Endpoint]:
        """All (address, port, proto) endpoints with recorded evidence."""
        return set(self.first_seen)

    def server_addresses(self) -> set[int]:
        """Addresses with at least one discovered service."""
        return {address for address, _, _ in self.first_seen}

    def discovery_events(self) -> list[tuple[float, Endpoint]]:
        """(first_seen, endpoint) pairs, sorted by time."""
        return sorted((t, e) for e, t in self.first_seen.items())

    def address_discovery_events(self) -> list[tuple[float, int]]:
        """(first_seen, address) pairs, address-level, sorted by time."""
        best: dict[int, float] = {}
        for (address, _, _), t in self.first_seen.items():
            if address not in best or t < best[address]:
                best[address] = t
        return sorted((t, a) for a, t in best.items())

    def unique_clients(self, endpoint: Endpoint) -> int:
        """Number of distinct clients that got a positive response."""
        return len(self.clients.get(endpoint, ()))

    def flows(self, endpoint: Endpoint) -> int:
        """Number of positive responses sent by the endpoint."""
        return self.flow_counts.get(endpoint, 0)
