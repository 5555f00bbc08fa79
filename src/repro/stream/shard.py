"""Per-shard discovery state and the shard routing function.

The streaming engine partitions the record stream by *campus server
address*: every record is routed to the shard that owns whatever
passive-table state the record could touch.  The passive rules
(Section 3.2) key all evidence by the campus side of a conversation:

* a TCP SYN-ACK is evidence about its **source** (the campus server
  answering), and seeds handshake-confirmation state under the source;
* a bare TCP ACK updates flow/client accounting (and completes a
  pending handshake) for its **destination**;
* a UDP datagram leaving campus is evidence about its **source**; an
  inbound datagram feeds request tracking for its **destination**.

Because the owning address is a pure function of the record, shard
states are disjoint and merging them is a dict union -- results are
identical at any shard count, which the equivalence tests assert at
1, 2, and 8 shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.net.packet import PROTO_TCP, PROTO_UDP, PacketRecord
from repro.passive.monitor import Endpoint, PassiveServiceTable, campus_mask

#: Fibonacci-style multiplier spreading contiguous campus addresses
#: across shards (addresses within one /24 would otherwise all land on
#: the same few shards under plain modulo).
_HASH_MULTIPLIER = 0x9E3779B1


def owning_address(record: PacketRecord, is_campus: Callable[[int], bool]) -> int:
    """The address whose shard owns any state this record can touch."""
    proto = record.proto
    if proto == PROTO_TCP:
        flags = record.flags._value_
        if flags & 0x02 and flags & 0x10:  # SYN-ACK: about the sender
            return record.src
        return record.dst
    if proto == PROTO_UDP:
        return record.src if is_campus(record.src) else record.dst
    return record.dst


def shard_of(address: int, shards: int) -> int:
    """Deterministic shard index for an owning address."""
    if shards <= 1:
        return 0
    return ((address * _HASH_MULTIPLIER) & 0xFFFFFFFF) % shards


def split_columns(cols, is_campus: Callable[[int], bool], shards: int) -> list:
    """Partition one batch into per-shard sub-batches (in order).

    The :func:`owning_address` rule is evaluated with ``np.where`` over
    the whole batch, hashed like :func:`shard_of`, and the batch is
    permuted once with a *stable* argsort so each shard's sub-batch
    preserves stream order -- the invariant the per-link fault and
    handshake state machines rely on.
    """
    if shards <= 1:
        return [cols]
    src = cols.src
    dst = cols.dst
    proto = cols.proto
    src_campus = campus_mask(is_campus, src)
    tcp = proto == PROTO_TCP
    synack = tcp & ((cols.flags & 0x12) == 0x12)
    udp_out = (proto == PROTO_UDP) & src_campus
    owning = np.where(synack | udp_out, src, dst)
    shard_index = (
        (owning.astype(np.uint64) * np.uint64(_HASH_MULTIPLIER))
        & np.uint64(0xFFFFFFFF)
    ) % np.uint64(shards)
    order = np.argsort(shard_index, kind="stable")
    routed = cols.take(order)
    counts = np.bincount(shard_index, minlength=shards)
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    return [
        routed.slice(bounds[index], bounds[index + 1])
        for index in range(shards)
    ]


def split_batch(
    records: list[PacketRecord],
    is_campus: Callable[[int], bool],
    shards: int,
) -> list[list[PacketRecord]]:
    """Partition a record list by :func:`owning_address` (in order).

    The pipeline routes columns with :func:`split_columns`; this is
    kept because ``perfbench/layers.py`` wraps it by name.
    """
    if shards <= 1:
        return [records]
    parts: list[list[PacketRecord]] = [[] for _ in range(shards)]
    appends = [part.append for part in parts]
    for record in records:
        appends[shard_of(owning_address(record, is_campus), shards)](record)
    return parts


@dataclass
class ShardState:
    """One shard's long-lived discovery state.

    Wraps a real :class:`PassiveServiceTable` (so folding a batch is
    exactly the batch-replay code path) plus the streaming extras: a
    per-endpoint *last-seen* timeline and a processed-record counter.
    """

    index: int
    table: PassiveServiceTable
    #: endpoint -> latest evidence time (first_seen lives in the table).
    last_seen: dict[Endpoint, float] = field(default_factory=dict)
    records: int = 0

    def observe(self, record: PacketRecord) -> None:
        """Fold one record into the shard state.

        Last-seen maintenance mirrors the table's evidence filter for
        the two signals that stamp first_seen on the default rules
        (SYN-ACK, UDP source port); it is supplementary state and
        never feeds the completeness report.
        """
        table = self.table
        table.observe(record)
        self.records += 1
        proto = record.proto
        if proto == PROTO_TCP:
            flags = record.flags._value_
            if not (flags & 0x02 and flags & 0x10):
                return
            port = record.sport
            if table.tcp_ports is not None and port not in table.tcp_ports:
                return
        elif proto == PROTO_UDP:
            port = record.sport
            if port not in table.udp_ports:
                return
        else:
            return
        if not table.is_campus(record.src) or table.is_campus(record.dst):
            return
        if record.dst in table.exclude_sources:
            return
        endpoint = (record.src, port, proto)
        previous = self.last_seen.get(endpoint)
        if previous is None or record.time > previous:
            self.last_seen[endpoint] = record.time

    def observe_batch(self, records: list[PacketRecord]) -> None:
        """:meth:`observe` over a record list.

        Nothing in the pipeline folds record lists; this is kept
        because ``perfbench/layers.py`` wraps it by name.
        """
        for record in records:
            self.observe(record)

    def observe_columns(self, cols) -> None:
        """Columnar :meth:`observe`: the table's column path plus a
        group-max update of the last-seen timeline."""
        table = self.table
        table.observe_columns(cols)
        self.records += len(cols)
        proto = cols.proto
        sport = cols.sport
        evidence = (proto == PROTO_TCP) & ((cols.flags & 0x12) == 0x12)
        if table.tcp_ports is not None:
            tcp_ports = np.array(sorted(table.tcp_ports), dtype=np.uint16)
            evidence &= np.isin(sport, tcp_ports)
        if table.udp_ports:
            udp_ports = np.array(sorted(table.udp_ports), dtype=np.uint16)
            evidence |= (proto == PROTO_UDP) & np.isin(sport, udp_ports)
        exclude = table.exclude_sources
        if exclude:
            evidence &= ~np.isin(cols.dst, np.fromiter(exclude, dtype=np.uint32))
        index = np.flatnonzero(evidence)
        src_e = cols.src[index]
        inside = campus_mask(table.is_campus, src_e)
        inside &= ~campus_mask(table.is_campus, cols.dst[index])
        index = index[inside]
        if not index.size:
            return
        src_e = src_e[inside]
        sport_e = sport[index]
        proto_e = proto[index]
        times = cols.time[index]
        keys = (
            (src_e.astype(np.uint64) << np.uint64(24))
            | (sport_e.astype(np.uint64) << np.uint64(8))
            | proto_e
        )
        order = np.lexsort((times, keys))
        sorted_keys = keys[order]
        group_last = order[np.r_[sorted_keys[1:] != sorted_keys[:-1], True]]
        last_seen = self.last_seen
        for address, port, proto_value, time in zip(
            src_e[group_last].tolist(),
            sport_e[group_last].tolist(),
            proto_e[group_last].tolist(),
            times[group_last].tolist(),
        ):
            endpoint = (address, port, proto_value)
            previous = last_seen.get(endpoint)
            if previous is None or time > previous:
                last_seen[endpoint] = time

    # ---- checkpointing ------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-data snapshot of every mutable field (picklable)."""
        table = self.table
        return {
            "index": self.index,
            "records": self.records,
            "first_seen": dict(table.first_seen),
            "flow_counts": dict(table.flow_counts),
            "clients": {k: set(v) for k, v in table.clients.items()},
            "pending_handshake": dict(table._pending_handshake),
            "udp_requests": set(table._udp_requests),
            "last_seen": dict(self.last_seen),
        }

    def restore_state(self, payload: dict) -> None:
        """Load a :meth:`state_dict` snapshot (table config unchanged)."""
        table = self.table
        table.first_seen = dict(payload["first_seen"])
        table.flow_counts = dict(payload["flow_counts"])
        table.clients = {k: set(v) for k, v in payload["clients"].items()}
        table._pending_handshake = dict(payload["pending_handshake"])
        table._udp_requests = set(payload["udp_requests"])
        self.last_seen = dict(payload["last_seen"])
        self.records = int(payload["records"])


def merge_shards(
    states: list[ShardState], merged: PassiveServiceTable
) -> PassiveServiceTable:
    """Union every shard's table state into *merged* (a fresh table).

    Shard key spaces are disjoint by construction, so the union is a
    plain dict update per field -- the merged table is indistinguishable
    from one that observed the whole stream itself, which is what makes
    streamed reports byte-identical to batch reports.
    """
    for state in states:
        table = state.table
        merged.first_seen.update(table.first_seen)
        merged.flow_counts.update(table.flow_counts)
        merged.clients.update(table.clients)
        merged._pending_handshake.update(table._pending_handshake)
        merged._udp_requests.update(table._udp_requests)
    return merged


def merged_last_seen(states: list[ShardState]) -> dict[Endpoint, float]:
    """Union of every shard's last-seen timeline (disjoint keys)."""
    out: dict[Endpoint, float] = {}
    for state in states:
        out.update(state.last_seen)
    return out
