"""Window-scoped passive activity tracking.

Two analyses need to know not just *when a server was first seen* but
whether passive evidence existed inside specific time windows:

* Table 4's "seen passively later" bit (any evidence after the first
  12 hours, even for servers first seen earlier);
* firewall confirmation method 2 (evidence *during* a scan whose probes
  the server ignored).

:class:`WindowActivityObserver` records, per campus address, which of a
fixed set of windows contained SYN-ACK (or watched-UDP) evidence.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.net.packet import PROTO_TCP, PROTO_UDP, PacketRecord
from repro.passive.monitor import campus_mask


@dataclass
class WindowActivityObserver:
    """Marks (address, window) pairs with passive service evidence.

    Parameters
    ----------
    windows:
        Sorted, disjoint ``(start, end)`` windows of interest (e.g. the
        35 scan intervals, or a single "after 12 h" window).
    is_campus:
        Direction predicate.
    tcp_ports / udp_ports:
        Service ports considered evidence (same semantics as the
        passive table).
    """

    windows: Sequence[tuple[float, float]]
    is_campus: Callable[[int], bool]
    tcp_ports: frozenset[int] | None = None
    udp_ports: frozenset[int] = frozenset()

    #: address -> set of window indices with evidence.
    hits: dict[int, set[int]] = field(default_factory=dict)
    _starts: list[float] = field(init=False)

    def __post_init__(self) -> None:
        ordered = sorted(self.windows)
        if list(self.windows) != ordered:
            raise ValueError("windows must be sorted")
        for (s1, e1), (s2, _) in zip(ordered, ordered[1:]):
            if e1 > s2:
                raise ValueError("windows must be disjoint")
        self._starts = [start for start, _ in self.windows]

    def _window_of(self, t: float) -> int | None:
        index = bisect.bisect_right(self._starts, t) - 1
        if index < 0:
            return None
        start, end = self.windows[index]
        return index if start <= t < end else None

    def observe(self, record: PacketRecord) -> None:
        if record.proto == PROTO_TCP:
            if not record.flags.is_synack:
                return
            port = record.sport
            if self.tcp_ports is not None and port not in self.tcp_ports:
                return
        elif record.proto == PROTO_UDP:
            if record.sport not in self.udp_ports:
                return
        else:
            return
        if not self.is_campus(record.src) or self.is_campus(record.dst):
            return
        window = self._window_of(record.time)
        if window is None:
            return
        self.hits.setdefault(record.src, set()).add(window)

    def observe_columns(self, cols) -> None:
        """Columnar :meth:`observe`: vectorised evidence masks and
        ``searchsorted`` window assignment; only the batch's distinct
        (address, window) pairs reach Python."""
        proto = cols.proto
        sport = cols.sport
        evidence = (proto == PROTO_TCP) & ((cols.flags & 0x12) == 0x12)
        if self.tcp_ports is not None:
            tcp_ports = np.array(sorted(self.tcp_ports), dtype=np.uint16)
            evidence &= np.isin(sport, tcp_ports)
        if self.udp_ports:
            udp_ports = np.array(sorted(self.udp_ports), dtype=np.uint16)
            evidence |= (proto == PROTO_UDP) & np.isin(sport, udp_ports)
        index = np.flatnonzero(evidence)
        src = cols.src[index]
        inside = campus_mask(self.is_campus, src)
        inside &= ~campus_mask(self.is_campus, cols.dst[index])
        index = index[inside]
        if not index.size:
            return
        times = cols.time[index]
        starts = np.array(self._starts, dtype=np.float64)
        ends = np.array([end for _, end in self.windows], dtype=np.float64)
        window = np.searchsorted(starts, times, side="right") - 1
        valid = window >= 0
        clipped = np.where(valid, window, 0)
        valid &= (starts[clipped] <= times) & (times < ends[clipped])
        addresses = src[inside][valid]
        window = window[valid]
        if not addresses.size:
            return
        pairs = (
            addresses.astype(np.uint64) << np.uint64(32)
        ) | window.astype(np.uint64)
        hits = self.hits
        for pair in np.unique(pairs).tolist():
            hits.setdefault(pair >> 32, set()).add(pair & 0xFFFFFFFF)

    def addresses_active_in(self, window_index: int) -> set[int]:
        """Addresses with evidence inside the given window."""
        return {
            address
            for address, indices in self.hits.items()
            if window_index in indices
        }

    def addresses_with_any_activity(self) -> set[int]:
        """Addresses with evidence in any window."""
        return set(self.hits)
