"""Deterministic fault injection: prove the invariant checker works.

Each fault class corrupts one structural contract of the model —
exactly the corruptions :mod:`repro.harness.invariants` exists to
catch — or perturbs an interconnect (dropped/duplicated/delayed bus
transactions, a slowed crossbar).  Faults are injected at a precise
event index, and any random choice (which tag entry, which frame)
draws from a named :mod:`repro.common.rng` stream, so a fault run is
exactly reproducible from its spec string and seed.

Spec syntax: ``<kind>@<event-index>``, e.g. ``flip-pointer@1000``.

Structural faults (detected by the checker, one invariant each):

===============  =====================================================
``flip-pointer``  point a valid tag entry at the wrong frame
                  (``tag-pointer`` / ``frame-ownership``)
``flip-reverse``  rewrite an occupied frame's reverse pointer
                  (``frame-ownership``)
``evict-frame``   free an occupied frame behind the protocol's back
                  (``tag-pointer``)
``corrupt-state`` force one sharer of a shared block into M
                  (``exclusivity``)
``dirty-desync``  mark a clean shared copy dirty (``dirty-copy``)
``l1-orphan``     fill an L1 with a block absent from the L2
                  (``l1-inclusion``)
``drop-bus``      suppress snooping of the next bus transaction, so an
                  invalidation is lost (``exclusivity``)
===============  =====================================================

Perturbation faults (visible in statistics, not state):

``dup-bus`` snoops the next transaction twice; ``delay-bus`` multiplies
its latency; ``delay-xbar`` adds a constant penalty to every crossbar
access.  These model the paper's "random perturbations in memory
system timing" and double-counting bugs; they leave the model legal,
so detection is by comparing statistics against a fault-free run.

Protocol race faults (require the ``eventq`` bus model, whose event
queue holds the deferred deliveries; perturb the event *schedule*,
never state directly):

=====================  ================================================
``race-reorder``        a bus grant is reordered: one holder's snoop of
                        an invalidating BusRdX/BusUpg is deferred past
                        completion, so two M/E-vs-other copies coexist
                        until the late delivery (``exclusivity``)
``race-delay-repl``     a BusRepl's invalidations deliver after its
                        frame is freed, leaving sharers' forward
                        pointers dangling (``tag-pointer``)
``race-stale-snoop``    a BusRd holder's snoop reply goes stale: the
                        holder downgrades on time but the issuer never
                        sees the shared signal and fills E beside the
                        surviving copy (``exclusivity``)
=====================  ================================================

Race faults are *sticky*: arming happens at the scheduled event index,
and the perturbation applies to the next eligible transaction.  The
victim choice draws from the event queue's seeded stream, so a race run
reproduces exactly from (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.caches.private import PrivateCaches
from repro.coherence.states import CoherenceState
from repro.common.rng import DEFAULT_SEED, stream
from repro.core.nurapid import NurapidCache
from repro.core.pointers import FramePtr, TagPtr
from repro.harness.invariants import design_contains
from repro.obs import events as ev
from repro.obs.events import TraceEvent

M = CoherenceState.MODIFIED
S = CoherenceState.SHARED
E = CoherenceState.EXCLUSIVE

#: Every recognized fault kind, in documentation order.
FAULT_KINDS = (
    "flip-pointer",
    "flip-reverse",
    "evict-frame",
    "corrupt-state",
    "dirty-desync",
    "l1-orphan",
    "drop-bus",
    "dup-bus",
    "delay-bus",
    "delay-xbar",
    "race-reorder",
    "race-delay-repl",
    "race-stale-snoop",
)

#: The protocol race subset (only valid with the ``eventq`` bus model).
RACE_FAULT_KINDS = ("race-reorder", "race-delay-repl", "race-stale-snoop")


class FaultSpecError(ValueError):
    """A fault spec string could not be parsed."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: corruption class + event index."""

    kind: str
    at_index: int

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        kind, sep, index_text = text.partition("@")
        if not sep:
            raise FaultSpecError(
                f"fault spec {text!r} must look like '<kind>@<event-index>'"
            )
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r}; choose from {', '.join(FAULT_KINDS)}"
            )
        try:
            at_index = int(index_text)
        except ValueError:
            raise FaultSpecError(
                f"fault spec {text!r}: event index must be an integer"
            ) from None
        if at_index < 0:
            raise FaultSpecError(f"fault spec {text!r}: event index must be >= 0")
        return FaultSpec(kind, at_index)


@dataclass
class FaultInjector:
    """Applies scheduled faults to a live :class:`CmpSystem`.

    ``log`` holds one :class:`~repro.obs.events.TraceEvent` of kind
    ``"fault"`` per injection — the same record type the tracer
    streams, so fault history appears in recorded traces and harness
    diagnostics without a parallel ad-hoc format; each is also emitted
    to the system's tracer when one is enabled.  Each record's data
    carries ``fault`` (the kind), ``at_index``, ``applied``, and a
    human-readable ``description`` of what was corrupted.
    """

    specs: "Sequence[FaultSpec]" = ()
    seed: int = DEFAULT_SEED
    log: "List[TraceEvent]" = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = stream("harness.faults", self.seed)
        self._pending = sorted(self.specs, key=lambda spec: spec.at_index)

    @property
    def exhausted(self) -> bool:
        return not self._pending

    def maybe_inject(self, system, index: int) -> None:
        """Apply every fault scheduled at or before event ``index``."""
        while self._pending and self._pending[0].at_index <= index:
            spec = self._pending.pop(0)
            record = self._apply(system, spec)
            self.log.append(record)
            if system.tracer.enabled:
                system.tracer.emit_event(record)

    # ------------------------------------------------------------------

    def _apply(self, system, spec: FaultSpec) -> TraceEvent:
        handler = getattr(self, "_fault_" + spec.kind.replace("-", "_"))
        description = handler(system)
        applied = description is not None
        if applied:
            # A fault's blast radius is unknown by design; escalate the
            # next incremental invariant check to a full rescan.
            dirty = getattr(system.design, "dirty_set", None)
            if dirty is not None:
                dirty.mark_all()
        return TraceEvent(
            ev.FAULT,
            cycle=max(
                (core.cycles for core in getattr(system, "cores", ())), default=0
            ),
            data={
                "fault": spec.kind,
                "at_index": spec.at_index,
                "applied": applied,
                "description": description or "no eligible target; fault skipped",
            },
        )

    def _choose(self, candidates: list):
        if not candidates:
            return None
        return candidates[int(self._rng.integers(0, len(candidates)))]

    def _nurapid(self, system) -> "Optional[NurapidCache]":
        design = system.design
        return design if isinstance(design, NurapidCache) else None

    def _valid_tag_entries(self, cache: NurapidCache) -> list:
        out = []
        for core, tag_array in enumerate(cache.tags):
            for set_index, _way, entry in tag_array.array.valid_entries():
                address = tag_array.array.block_address(set_index, entry)
                out.append((core, address, entry))
        return out

    def _occupied_frames(self, cache: NurapidCache) -> "list[FramePtr]":
        return [
            FramePtr(dgroup.index, index)
            for dgroup in cache.data.dgroups
            for index, frame in enumerate(dgroup.frames)
            if frame.valid
        ]

    # -- structural faults ---------------------------------------------

    def _fault_flip_pointer(self, system) -> "Optional[str]":
        cache = self._nurapid(system)
        if cache is None:
            return None
        target = self._choose(self._valid_tag_entries(cache))
        if target is None:
            return None
        core, address, entry = target
        old = entry.fwd
        frames = cache.params.frames_per_dgroup
        entry.fwd = FramePtr(old.dgroup, (old.frame + 1) % frames)
        return (
            f"core {core} tag @{address:#x}: forward pointer "
            f"{old} -> {entry.fwd}"
        )

    def _fault_flip_reverse(self, system) -> "Optional[str]":
        cache = self._nurapid(system)
        if cache is None:
            return None
        ptr = self._choose(self._occupied_frames(cache))
        if ptr is None:
            return None
        frame = cache.data.frame(ptr)
        old = frame.rev
        frame.rev = TagPtr((old.core + 1) % cache.num_cores, old.set_index, old.way)
        return f"frame {ptr} @{frame.address:#x}: reverse pointer {old} -> {frame.rev}"

    def _fault_evict_frame(self, system) -> "Optional[str]":
        cache = self._nurapid(system)
        if cache is None:
            return None
        ptr = self._choose(self._occupied_frames(cache))
        if ptr is None:
            return None
        address = cache.data.frame(ptr).address
        cache.data.free(ptr)
        return f"rogue eviction of frame {ptr} @{address:#x}"

    def _shared_holders(self, system) -> list:
        """(core, address, entry) of blocks with >= 2 tag copies."""
        design = system.design
        per_address: "dict[int, list]" = {}
        if isinstance(design, NurapidCache):
            for core, address, entry in self._valid_tag_entries(design):
                per_address.setdefault(address, []).append((core, address, entry))
        elif isinstance(design, PrivateCaches):
            for core, controller in enumerate(design.controllers):
                for set_index, _way, entry in controller.array.valid_entries():
                    address = controller.array.block_address(set_index, entry)
                    per_address.setdefault(address, []).append(
                        (core, address, entry)
                    )
        return [
            holder
            for holders in per_address.values()
            if len(holders) >= 2
            for holder in holders
        ]

    def _fault_corrupt_state(self, system) -> "Optional[str]":
        target = self._choose(self._shared_holders(system))
        if target is None:
            return None
        core, address, entry = target
        old = entry.state
        entry.state = M
        return f"core {core} tag @{address:#x}: state {old.value} -> M"

    def _fault_dirty_desync(self, system) -> "Optional[str]":
        cache = self._nurapid(system)
        if cache is None:
            return None
        candidates = []
        for ptr in self._occupied_frames(cache):
            frame = cache.data.frame(ptr)
            if frame.dirty:
                continue
            owner = cache.tags[frame.rev.core].entry_at(frame.rev)
            if owner.valid and owner.state in (S, E):
                candidates.append((ptr, frame))
        target = self._choose(candidates)
        if target is None:
            return None
        ptr, frame = target
        frame.dirty = True
        return f"frame {ptr} @{frame.address:#x}: clean copy marked dirty"

    def _fault_l1_orphan(self, system) -> "Optional[str]":
        core = int(self._rng.integers(0, len(system.l1s)))
        address = 0x7F000000
        # Walk forward until the block is genuinely absent from the L2.
        for _ in range(64):
            if design_contains(system.design, core, address) is False:
                break
            address += system.design.block_size
        else:
            return None
        system.l1s[core].fill(address)
        return f"core {core} L1 filled with orphan block {address:#x}"

    # -- interconnect perturbations ------------------------------------

    def _bus(self, system):
        return getattr(system.design, "bus", None)

    def _fault_drop_bus(self, system) -> "Optional[str]":
        bus = self._bus(system)
        if bus is None:
            return None
        bus.fault_next = "drop"
        return "next bus transaction will not be snooped (lost invalidation)"

    def _fault_dup_bus(self, system) -> "Optional[str]":
        bus = self._bus(system)
        if bus is None:
            return None
        bus.fault_next = "dup"
        return "next bus transaction will be snooped twice"

    def _fault_delay_bus(self, system) -> "Optional[str]":
        bus = self._bus(system)
        if bus is None:
            return None
        bus.fault_next = "delay"
        return "next bus transaction pays a 10x latency penalty"

    def _fault_delay_xbar(self, system) -> "Optional[str]":
        crossbar = getattr(system.design, "crossbar", None)
        if crossbar is None:
            return None
        crossbar.fault_extra_latency += 100
        return "crossbar accesses now pay a +100-cycle penalty"

    # -- protocol races (event-queue schedule perturbations) -----------

    def _arm_bus_race(self, system, kind: str) -> "Optional[str]":
        bus = self._bus(system)
        if bus is None or getattr(bus, "queue", None) is None:
            return None
        bus.race_pending = kind
        return (
            f"{kind} armed: next eligible bus transaction's schedule "
            "will be perturbed"
        )

    def _fault_race_reorder(self, system) -> "Optional[str]":
        return self._arm_bus_race(system, "race-reorder")

    def _fault_race_stale_snoop(self, system) -> "Optional[str]":
        return self._arm_bus_race(system, "race-stale-snoop")

    def _fault_race_delay_repl(self, system) -> "Optional[str]":
        cache = self._nurapid(system)
        if cache is None or cache.queue is None:
            return None
        cache.race_delay_repl = True
        return (
            "race-delay-repl armed: next shared-frame BusRepl's "
            "invalidations will deliver late"
        )


def parse_fault_specs(texts: "Sequence[str]") -> "tuple[FaultSpec, ...]":
    """Parse a list of ``kind@index`` spec strings (CLI helper)."""
    return tuple(FaultSpec.parse(text) for text in texts)
