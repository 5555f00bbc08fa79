"""Campus address topology.

The paper's main datasets cover 16,130 IP addresses drawn from 38 of
the most densely populated subnets at USC, of which 2,296 belong to
transient blocks: "one /22 campus DHCP; two /23s, DHCP and wireless;
and one /24 subnet, for VPNs" (Section 4.4.2), plus PPP dial-up space.

We reproduce those counts exactly with the block table below; the
``reserved`` field carves infrastructure addresses out of each CIDR
block so the usable totals match the paper (16,130 total, 2,296
transient).  The number of distinct blocks differs slightly from the
paper's "38 subnets" because the paper aggregates; the analyses only
ever depend on the class and total size of the space, never on subnet
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from repro.net.addr import AddressBlock, AddressClass, AddressSpace, parse_cidr

#: The monitored campus prefix (USC's real allocation is 128.125/16; we
#: use the same prefix purely as a familiar stand-in).
CAMPUS_PREFIX = "128.125.0.0/16"

#: Totals the topology is calibrated to (paper Table 1 / Section 4.4.2).
TOTAL_ADDRESSES = 16_130
TRANSIENT_ADDRESSES = 2_296


def _transient_blocks() -> list[AddressBlock]:
    """The transient allocation, usable counts calibrated to 2,296."""
    return [
        # one /22 of campus DHCP (Residence Halls; near-static leases)
        AddressBlock("dhcp-resnet", "128.125.32.0/22", AddressClass.DHCP, reserved=4),
        # one /23 of general campus DHCP
        AddressBlock("dhcp-labs", "128.125.36.0/23", AddressClass.DHCP, reserved=6),
        # one /23 wireless (the paper could not probe this range and saw
        # no passive services there; we keep it small and quiet)
        AddressBlock("wireless", "128.125.38.0/23", AddressClass.WIRELESS, reserved=252),
        # PPP dial-up pool
        AddressBlock("ppp", "128.125.40.0/24", AddressClass.PPP, reserved=0),
        # one /24 of VPN addresses
        AddressBlock("vpn", "128.125.41.0/24", AddressClass.VPN, reserved=2),
    ]


def _static_blocks() -> list[AddressBlock]:
    """Static departmental space, usable counts calibrated to 13,834."""
    blocks: list[AddressBlock] = []
    base = parse_cidr("128.125.64.0/23")[0]
    # 26 /23 blocks of 510 usable addresses each (13,260)...
    for i in range(26):
        network = base + i * 512
        a, b, c = (network >> 16) & 0xFF, (network >> 8) & 0xFF, network & 0xFF
        blocks.append(
            AddressBlock(
                f"static-{i:02d}", f"128.{a}.{b}.{c}/23", AddressClass.STATIC, reserved=2
            )
        )
    # ...one full /23 (512) and one partial /24 (62), for 13,834 total.
    # The 26 /23 blocks above end at 128.125.116.0, so these follow them.
    blocks.append(
        AddressBlock("static-26", "128.125.116.0/23", AddressClass.STATIC, reserved=0)
    )
    blocks.append(
        AddressBlock("static-27", "128.125.118.0/24", AddressClass.STATIC, reserved=194)
    )
    return blocks


def _allports_block() -> AddressBlock:
    """The single /24 of student-lab machines used by DTCPall."""
    return AddressBlock("lab-allports", "128.125.119.0/24", AddressClass.STATIC, reserved=0)


@dataclass(frozen=True)
class CampusTopology:
    """The monitored address space, partitioned by allocation class."""

    space: AddressSpace
    campus_prefix: str = CAMPUS_PREFIX

    @property
    def total_addresses(self) -> int:
        return self.space.size

    @property
    def transient_addresses(self) -> int:
        return sum(b.size for b in self.space.blocks if b.is_transient)

    @property
    def static_addresses(self) -> int:
        return self.total_addresses - self.transient_addresses

    def block(self, name: str) -> AddressBlock:
        """Return the block with the given *name*.

        Raises
        ------
        KeyError
            If no block has that name.
        """
        for candidate in self.space.blocks:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no address block named {name!r}")

    def blocks_of_class(self, address_class: AddressClass) -> list[AddressBlock]:
        return self.space.blocks_of_class(address_class)

    @cached_property
    def _prefix_network_mask(self) -> tuple[int, int]:
        """Parsed ``(network, mask)`` of the campus prefix (hot path)."""
        network, prefix = parse_cidr(self.campus_prefix)
        mask = ~((1 << (32 - prefix)) - 1) & 0xFFFFFFFF
        return network, mask

    def contains(self, address: int) -> bool:
        """True when *address* is inside the monitored campus prefix."""
        network, mask = self._prefix_network_mask
        return (address & mask) == network

    def campus_predicate(self) -> "Callable[[int], bool]":
        """A closure form of :meth:`contains` for per-packet filters.

        Observers call the campus-membership test one to three times per
        captured record; the closure binds the network/mask as locals
        and skips the attribute walk of a bound method.
        """
        network, mask = self._prefix_network_mask

        def is_campus(address: int) -> bool:
            return (address & mask) == network

        # Columnar observers read these to vectorise the membership
        # test over whole address arrays; a predicate without them is
        # called once per address (repro.passive.monitor.campus_mask).
        is_campus.campus_network = network
        is_campus.campus_mask = mask
        return is_campus


def build_topology(include_allports_subnet: bool = False) -> CampusTopology:
    """Build the calibrated campus topology.

    Parameters
    ----------
    include_allports_subnet:
        Also include the /24 lab subnet that DTCPall studies.  Kept out
        of the main 16,130 by default so the headline totals match the
        paper exactly.
    """
    blocks = _transient_blocks() + _static_blocks()
    if include_allports_subnet:
        blocks.append(_allports_block())
    return CampusTopology(space=AddressSpace(blocks))


def build_allports_topology() -> CampusTopology:
    """Topology for the DTCPall study: just the one lab /24."""
    return CampusTopology(space=AddressSpace([_allports_block()]))
