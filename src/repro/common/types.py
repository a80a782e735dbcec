"""Fundamental value types shared by every subsystem.

The simulators in this package operate at *block granularity*: an access
names a 64-bit byte address, and each cache model masks it down to the
block size it manages (64 B for L1, 128 B for the L2 designs, matching
the paper's Section 4 configuration).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AccessType(enum.Enum):
    """Kind of memory reference issued by a core."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE


class MissClass(enum.Enum):
    """Paper's L2 access taxonomy (Section 5.1.1, Figure 5).

    * ``HIT`` — the access hit in the L2 design under study.
    * ``ROS`` — read-only-sharing miss: another on-chip copy existed in a
      clean/shared state when the miss occurred.
    * ``RWS`` — read-write-sharing miss: a *dirty* on-chip copy existed
      when the miss occurred (a coherence miss in private caches).
    * ``CAPACITY`` — no on-chip copy existed; the block comes from
      off-chip memory.
    """

    HIT = "hit"
    ROS = "ros_miss"
    RWS = "rws_miss"
    CAPACITY = "capacity_miss"

    @property
    def is_miss(self) -> bool:
        return self is not MissClass.HIT


class SharingClass(enum.Enum):
    """Workload-level classification of a block's usage pattern."""

    PRIVATE = "private"
    READ_ONLY_SHARED = "read_only_shared"
    READ_WRITE_SHARED = "read_write_shared"


class Access:
    """One memory reference in a trace.

    Attributes:
        core: index of the issuing core (0-based).
        address: byte address; block-aligned addresses are fine since all
            simulators mask to their own block size.
        type: read or write.
        sharing: optional ground-truth sharing class assigned by the
            workload generator.  Cache models never read it for
            *functional* decisions; it exists so experiments can report
            per-class statistics the way the paper does.

    A plain slotted class (not a dataclass): traces contain millions of
    these and construction cost dominates the generator's hot path.
    """

    __slots__ = ("core", "address", "type", "sharing")

    def __init__(
        self,
        core: int,
        address: int,
        type: AccessType,  # noqa: A002 - matches the trace-format field name
        sharing: SharingClass = SharingClass.PRIVATE,
    ) -> None:
        self.core = core
        self.address = address
        self.type = type
        self.sharing = sharing

    @property
    def is_write(self) -> bool:
        return self.type is AccessType.WRITE

    def __repr__(self) -> str:
        return (
            f"Access(core={self.core}, address={self.address:#x}, "
            f"type={self.type}, sharing={self.sharing})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Access):
            return NotImplemented
        return (
            self.core == other.core
            and self.address == other.address
            and self.type == other.type
            and self.sharing == other.sharing
        )

    def __hash__(self) -> int:
        return hash((self.core, self.address, self.type, self.sharing))


@dataclass(frozen=True)
class AccessResult:
    """Outcome of presenting one access to an L2 design.

    Attributes:
        miss_class: hit or one of the paper's three miss classes.
        latency: total L2-and-beyond latency in cycles (tag + data +
            any bus / remote / memory components).  Excludes L1 latency,
            which the CPU model adds.
        dgroup_distance: for distance-associative designs, 0 if the data
            was served from the requesting core's closest d-group,
            1+ for farther d-groups, and ``None`` for designs without
            d-groups or for misses served from memory.
        write_through: True when the L1 above must keep this block
            write-through — every store must be sent down to the L2.
            CMP-NuRAPID sets this for C-state blocks (Section 3.2).
    """

    miss_class: MissClass
    latency: int
    dgroup_distance: "int | None" = None
    write_through: bool = False

    @property
    def is_hit(self) -> bool:
        return self.miss_class is MissClass.HIT


def block_address(address: int, block_size: int) -> int:
    """Mask ``address`` down to the start of its ``block_size`` block."""
    if block_size <= 0 or block_size & (block_size - 1):
        raise ValueError(f"block_size must be a power of two, got {block_size}")
    return address & ~(block_size - 1)


def log2_exact(value: int) -> int:
    """Return log2 of a power-of-two ``value``, raising otherwise."""
    if value <= 0 or value & (value - 1):
        raise ValueError(f"expected a power of two, got {value}")
    return value.bit_length() - 1
