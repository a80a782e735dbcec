"""Crossbar between private tag arrays and the shared d-groups.

Figure 2: tag arrays reach the data d-groups through a crossbar "as used
in conventional banked caches and acceptable due to the small number of
d-groups".  Each tag array and d-group is single-ported and unpipelined
(Section 3.3.2), so aggregate bandwidth matches a single-ported private
cache / n-banked shared cache.

Because the trace-driven simulators present one access at a time, the
crossbar never actually arbitrates; it exists to (a) account traffic per
(core, d-group) link for the Figure 9 locality reports and the paper's
bandwidth claim, and (b) centralize the latency lookup from a core to a
d-group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.interconnect.eventq import EventQueue


@dataclass
class Crossbar:
    """Contention-free core-to-d-group interconnect with traffic counts."""

    dgroup_latencies: "tuple[tuple[int, ...], ...]"
    traffic: "Counter[tuple[int, int]]" = field(default_factory=Counter)
    #: Extra cycles per access, armed by the harness's ``delay-xbar``
    #: fault to model a degraded interconnect (0 in normal operation).
    fault_extra_latency: int = 0
    #: Event queue holding the race faults' deferred deliveries (the
    #: design's; a crossbar built alone gets a fresh one).  Each access
    #: runs it up to the data's return, so a delivery due by then fires
    #: first.
    queue: EventQueue = field(default_factory=EventQueue)

    @property
    def num_cores(self) -> int:
        return len(self.dgroup_latencies)

    @property
    def num_dgroups(self) -> int:
        return len(self.dgroup_latencies[0]) if self.dgroup_latencies else 0

    def access(self, core: int, dgroup: int, now: int = 0) -> int:
        """Record one data access and return its latency in cycles."""
        if not 0 <= core < self.num_cores:
            raise IndexError(f"core {core} out of range")
        if not 0 <= dgroup < self.num_dgroups:
            raise IndexError(f"d-group {dgroup} out of range")
        self.traffic[(core, dgroup)] += 1
        latency = self.dgroup_latencies[core][dgroup] + self.fault_extra_latency
        queue = self.queue
        # A conditional, not max(): this runs on every d-group access.
        queue.run_until((now if now > queue.now else queue.now) + latency)
        return latency

    def state_dict(self) -> dict:
        from repro.common import serialization

        return {
            "dgroup_latencies": tuple(
                tuple(row) for row in self.dgroup_latencies
            ),
            "traffic": serialization.counter_state(
                self.traffic, lambda key: tuple(key)
            ),
            "fault_extra_latency": self.fault_extra_latency,
        }

    def load_state_dict(self, state: dict, path: str = "crossbar") -> None:
        from repro.common import serialization

        latencies = serialization.require(state, "dgroup_latencies", path)
        self.dgroup_latencies = tuple(tuple(row) for row in latencies)
        serialization.load_counter(
            self.traffic,
            serialization.require(state, "traffic", path),
            f"{path}.traffic",
            lambda key: (int(key[0]), int(key[1])),
        )
        self.fault_extra_latency = int(
            serialization.require(state, "fault_extra_latency", path)
        )

    def link_traffic(self, core: int, dgroup: int) -> int:
        return self.traffic[(core, dgroup)]

    def dgroup_traffic(self, dgroup: int) -> int:
        """Total accesses presented to one (single-ported) d-group."""
        return sum(
            count for (_, group), count in self.traffic.items() if group == dgroup
        )
