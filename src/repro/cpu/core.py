"""In-order core timing model (Section 4.1).

The paper simulates in-order x86 cores with 3-cycle L1s and one
outstanding miss.  This model charges:

* 1 cycle per non-memory instruction;
* the L1 latency (3 cycles) per memory instruction that hits in the L1
  — an in-order core cannot hide load-to-use latency;
* the full L2-and-beyond latency on top when a reference leaves the L1
  — the single outstanding miss blocks the core.

Workload events carry *co-located* memory accesses — the extra word
accesses that fall on the same cache line as the event's reference
(spatial locality).  They are guaranteed L1 hits, so the core charges
them the L1 latency without simulating them through the hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class InOrderCore:
    """Cycle accounting for one core.

    ``instructions``/``cycles`` are monotonic for the core's lifetime —
    they double as the hierarchy's virtual clock, so they must never
    move backwards (e.g. across a warm-up statistics reset).  Measured
    statistics subtract the ``*_at_reset`` baselines recorded by
    :meth:`reset_stats`.
    """

    core_id: int
    l1_latency: int = 3
    instructions: int = 0
    cycles: int = 0
    instructions_at_reset: int = 0
    cycles_at_reset: int = 0

    def reset_stats(self) -> None:
        """Start a measurement window; the clock itself keeps running."""
        self.instructions_at_reset = self.instructions
        self.cycles_at_reset = self.cycles

    @property
    def measured_instructions(self) -> int:
        return self.instructions - self.instructions_at_reset

    @property
    def measured_cycles(self) -> int:
        return self.cycles - self.cycles_at_reset

    def execute_gap(self, instructions: int) -> None:
        """Run ``instructions`` non-memory instructions."""
        self.instructions += instructions
        self.cycles += instructions

    def execute_colocated(self, accesses: int) -> None:
        """Run memory instructions hitting the line just referenced."""
        self.instructions += accesses
        self.cycles += accesses * self.l1_latency

    def execute_memory(self, stall_cycles: int) -> None:
        """Run one memory instruction that stalled ``stall_cycles``
        beyond the L1 (0 for an L1 hit)."""
        self.instructions += 1
        self.cycles += self.l1_latency + stall_cycles

    @property
    def ipc(self) -> float:
        cycles = self.measured_cycles
        return self.measured_instructions / cycles if cycles else 0.0

    def state_dict(self) -> dict:
        from repro.common import serialization

        return serialization.scalar_fields_state(self)

    def load_state_dict(self, state: dict, path: str = "core") -> None:
        from repro.common import serialization

        serialization.load_scalar_fields(self, state, path)
