"""Configuration dataclasses for every simulated design.

Defaults reproduce Section 4 of the paper: a 4-core CMP at 70 nm /
5 GHz, 64 KB 2-way L1s with 64 B blocks and 3-cycle latency, an 8 MB L2
budget with 128 B blocks, a 32-cycle pipelined split-transaction bus,
and 300-cycle memory.  Latency constants mirror Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import log2_exact

KB = 1024
MB = 1024 * KB

#: Number of cores in the paper's evaluated CMP.
DEFAULT_NUM_CORES = 4

#: Table 1 — pipelined split-transaction bus latency (cycles).
BUS_LATENCY = 32

#: Section 4.1 — main-memory latency (cycles).
MEMORY_LATENCY = 300


def _check_power_of_two(name: str, value: int) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one set-associative cache (or tag) array."""

    capacity_bytes: int
    associativity: int
    block_size: int

    def __post_init__(self) -> None:
        _check_power_of_two("capacity_bytes", self.capacity_bytes)
        _check_power_of_two("block_size", self.block_size)
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.num_blocks % self.associativity:
            raise ValueError(
                "capacity/block_size must be divisible by associativity"
            )

    @property
    def num_blocks(self) -> int:
        return self.capacity_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity

    @property
    def offset_bits(self) -> int:
        return log2_exact(self.block_size)

    @property
    def index_bits(self) -> int:
        return log2_exact(self.num_sets)

    def set_index(self, address: int) -> int:
        return (address >> self.offset_bits) & (self.num_sets - 1)

    def tag(self, address: int) -> int:
        return address >> (self.offset_bits + self.index_bits)


@dataclass(frozen=True)
class L1Params:
    """Per-core L1 cache (Section 4.1: 64 KB, 2-way, 64 B, 3 cycles)."""

    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(64 * KB, 2, 64)
    )
    latency: int = 3


@dataclass(frozen=True)
class SharedCacheParams:
    """Uniform-shared L2 (Table 1: 8 MB 32-way; tag 26 + data 33)."""

    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(8 * MB, 32, 128)
    )
    tag_latency: int = 26
    data_latency: int = 33

    @property
    def hit_latency(self) -> int:
        return self.tag_latency + self.data_latency


@dataclass(frozen=True)
class PrivateCacheParams:
    """Per-core private L2 (Table 1: 2 MB 8-way; tag 4 + data 6)."""

    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(2 * MB, 8, 128)
    )
    tag_latency: int = 4
    data_latency: int = 6

    @property
    def hit_latency(self) -> int:
        return self.tag_latency + self.data_latency


@dataclass(frozen=True)
class SnucaParams:
    """CMP-SNUCA banked shared cache ([6]'s design, Section 4.2).

    The 8 MB array is statically banked; a block's bank is a hash of its
    address.  Latency from a core to a bank grows with on-die distance.
    ``bank_latencies[c][b]`` gives the round-trip access latency from
    core ``c`` to bank ``b`` including the (distributed) tag lookup.
    The default 16-bank latency matrix is derived in
    :mod:`repro.latency.tables` from the same wire-delay assumptions as
    Table 1 and cross-checked against the average SNUCA hit latencies
    reported by [14] and [6] (roughly 24-26 cycles for 8 MB at 70 nm).
    """

    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(8 * MB, 16, 128)
    )
    num_banks: int = 16
    bank_latencies: "tuple[tuple[int, ...], ...]" = ()

    def __post_init__(self) -> None:
        _check_power_of_two("num_banks", self.num_banks)
        if not self.bank_latencies:
            from repro.latency.tables import snuca_bank_latencies

            object.__setattr__(
                self,
                "bank_latencies",
                snuca_bank_latencies(DEFAULT_NUM_CORES, self.num_banks),
            )


@dataclass(frozen=True)
class IdealCacheParams:
    """Ideal cache: shared capacity at private latency (Section 5.1.1)."""

    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(8 * MB, 32, 128)
    )
    hit_latency: int = 10


@dataclass(frozen=True)
class NurapidParams:
    """CMP-NuRAPID (Section 2.2, Table 1).

    * Four 2 MB single-ported d-groups form the shared data array.
    * Each core has a private tag array with **twice** the entries
      needed to cover one d-group (Section 2.2.2's 2x compromise):
      the number of sets is doubled at the same associativity.
    * ``dgroup_latencies[c][g]`` is the data latency from core ``c`` to
      d-group ``g``; from any core's perspective the sorted latencies
      are (6, 20, 20, 33) per Table 1.
    * ``tag_latency`` (5 cycles) includes the extra tag space.
    """

    num_cores: int = DEFAULT_NUM_CORES
    num_dgroups: int = DEFAULT_NUM_CORES
    dgroup_capacity_bytes: int = 2 * MB
    block_size: int = 128
    tag_associativity: int = 8
    tag_capacity_factor: int = 2
    tag_latency: int = 5
    dgroup_latencies: "tuple[tuple[int, ...], ...]" = ()
    #: Promotion policy for private blocks: "fastest" (paper's choice for
    #: CMPs) or "next-fastest" (NuRAPID's uniprocessor choice).
    promotion_policy: str = "fastest"
    #: Number of uses after which CR replicates data into the closest
    #: d-group (paper: replicate on the *second* use).
    replicate_on_use: int = 2
    #: Extension (the paper's Section 3.2 future work): a C-state block
    #: "stuck" far from an active reader migrates to that reader after
    #: this many consecutive remote reads.  0 disables migration — the
    #: paper's simple no-exits-from-C policy.
    c_migration_threshold: int = 0

    def __post_init__(self) -> None:
        _check_power_of_two("dgroup_capacity_bytes", self.dgroup_capacity_bytes)
        _check_power_of_two("block_size", self.block_size)
        if self.promotion_policy not in ("fastest", "next-fastest"):
            raise ValueError(
                f"unknown promotion policy {self.promotion_policy!r}"
            )
        if self.replicate_on_use < 1:
            raise ValueError("replicate_on_use must be >= 1")
        if self.c_migration_threshold < 0:
            raise ValueError("c_migration_threshold must be >= 0")
        if not self.dgroup_latencies:
            from repro.latency.tables import nurapid_dgroup_latencies

            object.__setattr__(
                self,
                "dgroup_latencies",
                nurapid_dgroup_latencies(self.num_cores, self.num_dgroups),
            )

    @property
    def frames_per_dgroup(self) -> int:
        return self.dgroup_capacity_bytes // self.block_size

    @property
    def total_frames(self) -> int:
        return self.frames_per_dgroup * self.num_dgroups

    @property
    def tag_geometry(self) -> CacheGeometry:
        """Geometry of one core's private tag array.

        A private cache covering one d-group would need
        ``dgroup_capacity/block_size`` entries; the paper doubles the
        number of sets while keeping associativity (Section 2.2.2).
        """
        return CacheGeometry(
            self.dgroup_capacity_bytes * self.tag_capacity_factor,
            self.tag_associativity,
            self.block_size,
        )


@dataclass(frozen=True)
class SystemParams:
    """Whole-CMP configuration shared by all L2 designs.

    ``blocking_stores`` controls whether stores that leave the L1 stall
    the core.  The default (False) models a store buffer: stores retire
    immediately while the hierarchy processes them — coherence actions,
    write-through traffic, and statistics still happen; only loads
    stall the in-order core.
    """

    num_cores: int = DEFAULT_NUM_CORES
    l1: L1Params = field(default_factory=L1Params)
    blocking_stores: bool = False
