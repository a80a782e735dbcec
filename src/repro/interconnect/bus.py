"""Transaction-level model of the snoopy split-transaction bus.

CMP-NuRAPID's private tag arrays snoop on a bus exactly like SMP private
caches (Section 2.2.2).  The bus carries *addresses* and — new in
CMP-NuRAPID — *pointers*, so that controlled replication can return a
forward pointer instead of a whole data block (Section 3.1).  Alongside
MESI's shared signal, a **dirty signal** tells a missing reader/writer
that an M or C copy exists so it can transition to C (Section 3.2).

All designs that use the bus charge Table 1's 32-cycle latency per
transaction; per the paper we ignore additional arbitration overheads,
which is conservative *against* CMP-NuRAPID's competitors.

A transaction runs inline on every backend: ``issue`` snoops every
other agent in attach order and returns the aggregated reply.  With an
event queue attached (``queue`` set, normally via
:func:`repro.interconnect.eventq.attach_eventq`), the snoops apply at
the transaction's grant cycle, after the queue fires every deferred
delivery due by then, and the queue runs up to the completion cycle
before ``issue`` returns.  The harness's protocol *race* faults need
that queue: ``race-reorder`` defers the victim's snoop past
completion onto it, and ``race-stale-snoop`` drops the victim's reply
from the aggregation — corruptions of event ordering, not of state.
With a tracer attached and non-zero occupancy, the queue-backed bus
also records the ``grant`` and ``complete`` phases of each
transaction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.common.stats import BusStats
from repro.obs import events as ev
from repro.obs.tracer import NO_TRACE


class BusOp(enum.Enum):
    """Bus transaction kinds (Figure 4 plus Section 3.1's BusRepl)."""

    BUS_RD = "BusRd"
    BUS_RDX = "BusRdX"
    BUS_UPG = "BusUpg"
    BUS_REPL = "BusRepl"
    WR_THRU = "WrThru"


@dataclass(frozen=True)
class BusTransaction:
    """One broadcast on the bus."""

    op: BusOp
    address: int
    issuer: int


@dataclass
class SnoopReply:
    """One snooper's response to an observed transaction.

    Attributes:
        shared: asserts the shared signal (a clean copy exists here).
        dirty: asserts the dirty signal (an M or C copy exists here).
        supplies_data: this snooper will source the block
            (cache-to-cache transfer / flush).
        pointer: forward pointer returned on the pointer wires instead
            of data (controlled replication's pointer return).
    """

    shared: bool = False
    dirty: bool = False
    supplies_data: bool = False
    pointer: "Optional[object]" = None


@dataclass
class BusResult:
    """Aggregate of all snoop replies for one transaction."""

    shared: bool = False
    dirty: bool = False
    supplier: "Optional[int]" = None
    pointer: "Optional[object]" = None
    latency: int = 0


class Snooper(Protocol):
    """Anything attached to the bus: typically an L2 controller."""

    def snoop(self, txn: BusTransaction) -> SnoopReply:  # pragma: no cover
        ...


#: Race fault kinds the bus can realize as schedule perturbations.
BUS_RACE_KINDS = ("race-reorder", "race-stale-snoop")


@dataclass
class SnoopBus:
    """Pipelined split-transaction snoopy bus.

    ``occupancy`` optionally enables a contention model: each
    transaction holds the (single) address bus for that many cycles, and
    a transaction issued at virtual time ``now`` while the bus is still
    busy queues behind it.  The paper assumes an uncontended bus
    ("ignoring overheads in bus latency helps private caches"), so the
    default occupancy of 0 reproduces that; the bus-contention ablation
    turns it on.
    """

    latency: int
    occupancy: int = 0
    stats: BusStats = field(default_factory=BusStats)
    #: One-shot fault armed by the harness's fault injector: ``"drop"``
    #: skips snooping the next transaction (a lost invalidation),
    #: ``"dup"`` snoops it twice (double-counted work), ``"delay"``
    #: multiplies its latency.  Cleared after one transaction.
    fault_next: "Optional[str]" = None
    #: Structured event tracer (disabled by default); the system routes
    #: its tracer here so bus broadcasts appear in recorded traces.
    tracer: "object" = NO_TRACE
    #: Event queue holding the race faults' deferred deliveries (None
    #: on the atomic backend).
    queue: "Optional[object]" = None
    #: Armed race fault (one of :data:`BUS_RACE_KINDS`); *sticky* — it
    #: stays armed until an eligible transaction consumes it, so a race
    #: scheduled at an arbitrary event index still lands.  Requires the
    #: eventq backend.
    race_pending: "Optional[str]" = None
    #: Human-readable description of the last race actually applied.
    last_race: "Optional[str]" = None
    _snoopers: "list[tuple[int, Snooper]]" = field(default_factory=list)
    _busy_until: int = 0

    def attach(self, core: int, snooper: Snooper) -> None:
        """Attach ``snooper`` as core ``core``'s bus agent."""
        if any(existing == core for existing, _ in self._snoopers):
            raise ValueError(f"core {core} already attached")
        self._snoopers.append((core, snooper))

    @property
    def num_agents(self) -> int:
        return len(self._snoopers)

    def issue(self, txn: BusTransaction, now: int = 0) -> BusResult:
        """Broadcast ``txn``; every *other* agent snoops it.

        Returns the wired-OR of the shared and dirty signals, the
        identity of the (unique) data/pointer supplier if any, and the
        bus latency to charge the issuer — including any queueing delay
        when the contention model is enabled and the bus is busy at
        virtual time ``now``.
        """
        self.stats.record(txn.op.value)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.BUS, cycle=now, core=txn.issuer, address=txn.address,
                op=txn.op.value,
            )
        fault, self.fault_next = self.fault_next, None
        wait = 0
        if self.occupancy:
            wait = max(0, self._busy_until - now)
            self._busy_until = max(now, self._busy_until) + self.occupancy
        latency = self.latency + wait
        if fault == "delay":
            latency += 10 * self.latency
        result = BusResult(latency=latency)
        if fault == "drop":
            # Injected fault: the broadcast is lost before any snooper
            # sees it — shared/dirty signals stay deasserted and no
            # invalidation happens, which the invariant checker must
            # flag as an exclusivity violation downstream.
            return result
        queue = self.queue
        victim = None
        if queue is not None:
            # Snoops apply at the grant, after every deferred delivery
            # due by then; the transaction completes at ``done``.
            start = max(now, queue.now)
            grant = start + wait
            done = start + latency
            victim = self._race_victim(txn) if self.race_pending else None
            trace_phases = self.tracer.enabled and self.occupancy
            if trace_phases:
                # The grant record precedes deliveries due at its cycle.
                queue.run_until(grant - 1)
                self._trace_phase(self.tracer, txn, "grant", grant)
            queue.run_until(grant)
        for core, snooper in self._snoopers:
            if core == txn.issuer:
                continue
            if victim is not None and core == victim[1]:
                if victim[0] == "race-reorder":
                    # The victim's snoop is reordered after the
                    # completion: its reply is lost and its state
                    # transition fires late, from the queue.
                    queue.at(
                        done + 2 * self.latency + 1, self._snoop_apply,
                        (snooper, txn), label="bus-snoop-late",
                    )
                else:
                    # race-stale-snoop: the victim transitions on time
                    # but its reply is stale and never reaches the
                    # issuer's aggregation.
                    snooper.snoop(txn)
                continue
            self._collect(result, core, snooper.snoop(txn))
        if fault == "dup":
            # The duplicated broadcast re-runs the snoopers (their
            # state transitions apply twice) but takes the second
            # round's replies, so a flushed supplier is not
            # double-claimed as two data sources.
            result.supplier = None
            for core, snooper in self._snoopers:
                if core != txn.issuer:
                    self._collect(result, core, snooper.snoop(txn))
        if queue is not None:
            queue.run_until(done)
            if trace_phases:
                self._trace_phase(self.tracer, txn, "complete", done)
        return result

    # ------------------------------------------------------------------
    # Reply aggregation and phase records

    @staticmethod
    def _collect(result: BusResult, core: int, reply: SnoopReply) -> None:
        result.shared = result.shared or reply.shared
        result.dirty = result.dirty or reply.dirty
        if reply.supplies_data or reply.pointer is not None:
            if result.supplier is not None and reply.supplies_data:
                raise RuntimeError(
                    "two agents supplied data for "
                    f"{'this transaction' if result.supplier == core else hex(0)}"
                )
            if reply.supplies_data:
                result.supplier = core
            if reply.pointer is not None:
                result.pointer = reply.pointer

    @staticmethod
    def _snoop_apply(snooper: Snooper, txn: BusTransaction) -> None:
        """Apply a snoop whose reply is lost (the late race delivery)."""
        snooper.snoop(txn)

    @staticmethod
    def _trace_phase(tracer, txn: BusTransaction, phase: str, cycle: int) -> None:
        tracer.emit(
            ev.BUS, cycle=cycle, core=txn.issuer, address=txn.address,
            op=txn.op.value, phase=phase,
        )

    # ------------------------------------------------------------------
    # Versioned checkpointing

    def state_dict(self) -> dict:
        """Snapshot everything but the wiring (snoopers, queue, tracer).

        Sticky fault arms (``fault_next``/``race_pending``) are part of
        the model state: a checkpoint taken between arming and landing
        must resume with the race still pending.
        """
        return {
            "latency": self.latency,
            "occupancy": self.occupancy,
            "stats": self.stats.state_dict(),
            "fault_next": self.fault_next,
            "race_pending": self.race_pending,
            "last_race": self.last_race,
            "busy_until": self._busy_until,
        }

    def load_state_dict(self, state: dict, path: str = "bus") -> None:
        from repro.common import serialization

        self.latency = int(serialization.require(state, "latency", path))
        self.occupancy = int(serialization.require(state, "occupancy", path))
        self.stats.load_state_dict(
            serialization.require(state, "stats", path), f"{path}.stats"
        )
        self.fault_next = state.get("fault_next")
        self.race_pending = state.get("race_pending")
        self.last_race = state.get("last_race")
        self._busy_until = int(serialization.require(state, "busy_until", path))

    # ------------------------------------------------------------------
    # Race fault eligibility

    def _holders(self, txn: BusTransaction) -> "list[int]":
        """Non-issuer agents holding the block (via optional ``probe``)."""
        holders = []
        for core, snooper in self._snoopers:
            if core == txn.issuer:
                continue
            probe = getattr(snooper, "probe", None)
            if probe is not None and probe(txn.address) is not None:
                holders.append(core)
        return holders

    def _race_victim(self, txn: BusTransaction) -> "Optional[tuple[str, int]]":
        """Consume the armed race if ``txn`` is eligible; pick a victim.

        * ``race-reorder`` needs an invalidating transaction (BusRdX /
          BusUpg) with at least one non-issuer holder — deferring that
          holder's snoop leaves its copy alive alongside the issuer's
          fresh M copy until the late delivery.
        * ``race-stale-snoop`` needs a BusRd whose *only* non-issuer
          holder's reply goes stale — the issuer then fills E while the
          victim (downgraded on time) keeps its copy.
        """
        kind = self.race_pending
        if kind not in BUS_RACE_KINDS or self.queue is None:
            return None
        holders = self._holders(txn)
        if not holders:
            return None
        if kind == "race-stale-snoop":
            if txn.op is not BusOp.BUS_RD or len(holders) != 1:
                return None
            chosen = holders[0]
        else:  # race-reorder
            if txn.op not in (BusOp.BUS_RDX, BusOp.BUS_UPG):
                return None
            chosen = holders[int(self.queue.rng.integers(0, len(holders)))]
        self.race_pending = None
        self.last_race = (
            f"{kind}: {txn.op.value} @{txn.address:#x} issued by core "
            f"{txn.issuer}, victim core {chosen}"
        )
        return (kind, chosen)
