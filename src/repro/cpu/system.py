"""The 4-core CMP: cores, L1s, one L2 design, and the run loop.

:class:`CmpSystem` wires per-core L1s above any :class:`~repro.caches.
design.L2Design` and keeps the hierarchy coherent at the granularity
the trace-driven model needs:

* **inclusion** — L2 evictions/invalidations invalidate the covered L1
  blocks via the design's L1-invalidate hook;
* **write-invalidate at L1** — a store that reaches the L2 invalidates
  other cores' L1 copies of the block;
* **read-downgrade** — a load that reaches the L2 revokes other cores'
  L1 write permission, so their next store must re-request it from the
  L2 (this is how L2-level coherence observes writes after reads, as a
  MESI L1 hierarchy would);
* **write-through blocks** — when the L2 marks a block write-through
  (CMP-NuRAPID's C state), L1 write permission is withheld and every
  store is sent down.

Workload events come in two shapes: :class:`EventChunk`, numpy columns
of many events (what the workload generators emit and
:meth:`CmpSystem.run_chunks` consumes), and :class:`TimedAccess`, one
object per event (trace files, the harness, hand-built streams, and
:meth:`CmpSystem.run`).  :func:`run_workload` drives a system from a
stream of timed accesses and returns the
:class:`~repro.common.stats.SimulationStats` the experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.caches.design import L2Design
from repro.caches.l1 import L1Cache
from repro.common.params import SystemParams
from repro.common.stats import CoreTiming, SimulationStats
from repro.common.types import Access, AccessResult, AccessType, SharingClass
from repro.cpu.core import InOrderCore
from repro.obs import events as ev
from repro.obs.metrics import MetricsCollector
from repro.obs.tracer import NO_TRACE, NullTracer, Tracer


class TimedAccess:
    """One workload event: a cache-line touch with its instruction context.

    Attributes:
        access: the memory reference presented to the hierarchy.
        gap: non-memory instructions executed before it.
        colocated: additional memory instructions that hit the same
            cache line (spatial locality) — guaranteed L1 hits, charged
            the L1 latency without being simulated individually.

    A plain slotted class: traces contain millions of these and
    construction cost dominates the generator's hot path.
    """

    __slots__ = ("access", "gap", "colocated")

    def __init__(self, access: Access, gap: int = 0, colocated: int = 0) -> None:
        self.access = access
        self.gap = gap
        self.colocated = colocated

    def __repr__(self) -> str:
        return (
            f"TimedAccess({self.access!r}, gap={self.gap}, "
            f"colocated={self.colocated})"
        )


class DeferredEventError(RuntimeError):
    """An interconnect event outlived its transaction in the columnar loop.

    Only the harness's race faults defer an event past its transaction,
    and only :meth:`CmpSystem.step` drains one, by the cores' virtual
    clocks.
    """

    def __init__(self, pending: int) -> None:
        super().__init__(
            f"{pending} interconnect event(s) pending after an L2 access "
            "in the columnar loop; deferred events (race faults) need the "
            "per-event loop, CmpSystem.step"
        )


#: Sharing class of each :attr:`EventChunk.sharing` code.
SHARING_CLASSES = (
    SharingClass.PRIVATE,
    SharingClass.READ_ONLY_SHARED,
    SharingClass.READ_WRITE_SHARED,
)
# Object columns that turn a chunk's codes into enum members in one
# fancy index.
_SHARING_OBJECTS = np.array(SHARING_CLASSES, dtype=object)
_TYPES = np.array((AccessType.READ, AccessType.WRITE), dtype=object)


@dataclass(eq=False, slots=True)
class EventChunk:
    """A run of workload events as numpy columns, one row per event.

    Attributes:
        core: issuing core.
        address: byte address.
        is_write: True for a store.
        sharing: ground-truth sharing class, an index into
            :data:`SHARING_CLASSES`.
        gap, colocated: the event's :class:`TimedAccess` instruction
            counts.

    Workload generators emit their streams as chunks, and
    :meth:`CmpSystem.run_chunks` reads the columns directly;
    :meth:`timed` is the same events as :class:`TimedAccess` objects.
    """

    core: np.ndarray
    address: np.ndarray
    is_write: np.ndarray
    sharing: np.ndarray
    gap: np.ndarray
    colocated: np.ndarray

    def columns(self) -> "tuple[np.ndarray, ...]":
        return (
            self.core, self.address, self.is_write,
            self.sharing, self.gap, self.colocated,
        )

    def __len__(self) -> int:
        return len(self.core)

    def __getitem__(self, index: slice) -> "EventChunk":
        return EventChunk(*(column[index] for column in self.columns()))

    def timed(self) -> "Iterator[TimedAccess]":
        """The chunk's events, one :class:`TimedAccess` each."""
        accesses = map(
            Access,
            self.core.tolist(),
            self.address.tolist(),
            _TYPES[self.is_write.astype(np.int8)].tolist(),
            _SHARING_OBJECTS[self.sharing].tolist(),
        )
        return map(TimedAccess, accesses, self.gap.tolist(), self.colocated.tolist())


def timed_events(chunks: "Iterable[EventChunk]") -> "Iterator[TimedAccess]":
    """Every event of ``chunks``, one :class:`TimedAccess` each."""
    return chain.from_iterable(map(EventChunk.timed, chunks))


def _chunk_clocks(
    chunk: EventChunk, latencies: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Per-event and per-core cycle accounting for one chunk, stalls aside.

    Returns each event's core clock at its L2 access (its gap and
    colocated cycles included, relative to the core's clock at the
    chunk's start), and each core's cycles and instructions over the
    chunk.
    """
    latency = latencies[chunk.core]
    ahead = chunk.gap + chunk.colocated * latency
    step = ahead + latency
    executed = chunk.gap + chunk.colocated + 1
    clocks = np.empty_like(step)
    cycles = np.zeros(latencies.size, dtype=np.int64)
    instructions = np.zeros(latencies.size, dtype=np.int64)
    for core in range(latencies.size):
        mine = chunk.core == core
        steps = step[mine]
        elapsed = np.cumsum(steps)
        clocks[mine] = elapsed - steps + ahead[mine]
        if elapsed.size:
            cycles[core] = elapsed[-1]
            instructions[core] = executed[mine].sum()
    return clocks, cycles, instructions


def split_chunks(
    chunks: "Iterable[EventChunk]", index: int
) -> "tuple[Iterator[EventChunk], Iterator[EventChunk]]":
    """Split a chunk stream at event ``index``: (head, tail), both lazy.

    The head yields the events before ``index``; the chunk that
    straddles it is sliced.  The tail yields the events from ``index``
    on, first discarding whatever the head has not yet yielded, so a
    tail alone skips ``index`` events a whole chunk at a time.
    """
    iterator = iter(chunks)
    rest: "list[EventChunk]" = []

    def head() -> "Iterator[EventChunk]":
        remaining = index
        while remaining > 0:
            chunk = next(iterator, None)
            if chunk is None:
                return
            if len(chunk) > remaining:
                yield chunk[:remaining]
                rest.append(chunk[remaining:])
                return
            remaining -= len(chunk)
            yield chunk

    before = head()

    def tail() -> "Iterator[EventChunk]":
        for _ in before:
            pass
        yield from rest
        yield from iterator

    return before, tail()


class CmpSystem:
    """A CMP with per-core L1s above one L2 design."""

    def __init__(
        self,
        design: L2Design,
        params: "Optional[SystemParams]" = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: "Optional[MetricsCollector]" = None,
    ) -> None:
        if params is None:
            # Size the CMP from the design: an 8/16/64-core design gets
            # matching cores and L1s without callers threading params.
            params = SystemParams()
            design_cores = getattr(design, "num_cores", 0) or 0
            if design_cores and design_cores != params.num_cores:
                params = replace(params, num_cores=design_cores)
        self.params = params
        self.design = design
        self.l1s = [L1Cache(self.params.l1) for _ in range(self.params.num_cores)]
        self.cores = [
            InOrderCore(i, self.params.l1.latency)
            for i in range(self.params.num_cores)
        ]
        design.set_l1_invalidate_hook(self._on_l2_invalidate)
        # Peer-core index tuples, precomputed: the access path visits
        # "every core but the issuer" on each L2-reaching reference, and
        # building a generator there costs an allocation per access.
        self._peers = tuple(
            tuple(c for c in range(self.params.num_cores) if c != i)
            for i in range(self.params.num_cores)
        )
        self.tracer = NO_TRACE
        self.attach_tracer(tracer if tracer is not None else NO_TRACE)
        self.metrics: "Optional[MetricsCollector]" = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_tracer(self, tracer: "Tracer | NullTracer") -> None:
        """Route this system's (and its design's) events to ``tracer``."""
        self.tracer = tracer
        self.design.tracer = tracer
        bus = getattr(self.design, "bus", None)
        if bus is not None and hasattr(bus, "tracer"):
            bus.tracer = tracer

    def attach_metrics(self, metrics: MetricsCollector) -> "MetricsCollector":
        """Bind an interval-sampling metrics collector to this system."""
        self.metrics = metrics.bind(self)
        return metrics

    def _on_l2_invalidate(self, core: int, l2_block_address: int) -> None:
        self.l1s[core].invalidate_l2_block(l2_block_address, self.design.block_size)

    def access(self, access: Access) -> int:
        """Run one memory reference; returns its stall cycles (0 on L1 hit)."""
        l1 = self.l1s[access.core]
        if access.type is AccessType.WRITE:
            if l1.store(access.address):
                return 0
            return self._store_miss(access)
        if l1.load(access.address):
            return 0
        return self._load_miss(access)

    # The L1-missing halves of ``access`` are separate methods so the
    # specialized run loop can probe the L1 directly and only pay a
    # call into the L2 path on a miss.

    def _store_miss(self, access: Access) -> int:
        core = access.core
        l1s = self.l1s
        address = access.address
        result = self.design.access(access, now=self.cores[core].cycles)
        if self.metrics is not None:
            self.metrics.observe_l2(result)
        l1s[core].fill(address, writable=not result.write_through, dirty=True)
        for other in self._peers[core]:
            l1s[other].invalidate(address)
        # Stores retire through a store buffer by default: the
        # hierarchy has processed the write (coherence, traffic,
        # statistics) but the in-order core does not stall on it.
        return result.latency if self.params.blocking_stores else 0

    def _load_miss(self, access: Access) -> int:
        core = access.core
        l1s = self.l1s
        address = access.address
        result = self.design.access(access, now=self.cores[core].cycles)
        if self.metrics is not None:
            self.metrics.observe_l2(result)
        l1s[core].fill(address, writable=False)
        for other in self._peers[core]:
            l1s[other].revoke_writable(address)
        return result.latency

    def reset_stats(self) -> None:
        """Clear all statistics after a warm-up phase; state is kept.

        Core cycle counters are *preserved* (only their measurement
        baselines move): they double as the hierarchy's virtual clock
        (the ``now`` passed to the L2), so recreating cores here would
        send post-warm-up timestamps backwards relative to pre-warm-up
        fills — the harness's ``timestamp-monotonic`` invariant.
        """
        self.design.reset_stats()
        for core in self.cores:
            core.reset_stats()
        for l1 in self.l1s:
            l1.stats = type(l1.stats)()
        if self.metrics is not None:
            self.metrics.reset()

    def step(self, event: TimedAccess) -> None:
        """Execute one timed access: the per-event loop's unit of work.

        Interconnect events deferred past their transaction (the race
        faults' late deliveries) fire first, by the cores' virtual
        clocks, so the harness's invariant check — which runs after
        each step — observes the open race window.  In normal
        operation the queue is already empty here: transactions run
        inline and schedule nothing.  The ``step`` record is
        emitted before execution, so a trace already holds an access
        that blows up mid-protocol.
        """
        queue = getattr(self.design, "queue", None)
        if queue is not None and queue.pending:
            queue.run_until(max(core.cycles for core in self.cores))
        access = event.access
        core = self.cores[access.core]
        if self.tracer.enabled:
            self.tracer.emit(
                ev.STEP,
                cycle=core.cycles,
                core=access.core,
                address=access.address,
                type=access.type.value,
                sharing=access.sharing.value,
                gap=event.gap,
                colocated=event.colocated,
            )
        if event.gap:
            core.execute_gap(event.gap)
        if event.colocated:
            core.execute_colocated(event.colocated)
        core.execute_memory(self.access(access))
        if self.metrics is not None:
            self.metrics.on_step()

    def run(self, events: "Iterable[TimedAccess]") -> None:
        """Execute a stream of timed accesses, one :meth:`step` each.

        Workload streams go through :meth:`run_chunks`.
        """
        step = self.step
        for event in events:
            step(event)

    def run_chunks(
        self, chunks: "Iterable[EventChunk]", warmup_events: int = 0
    ) -> None:
        """Execute a workload's event chunks.

        With ``warmup_events``, statistics are reset once that many
        events have run (cache state and core clocks carry over).

        Dispatches on the observers once, not per event: with no
        tracer and no metrics collector, on every interconnect, the
        columns are read in a loop with *zero* instrumentation guards,
        which is where the simulator spends its life.  An attached
        tracer or collector takes :meth:`run` over the chunks' timed
        accesses instead, which is bit-identical.

        The columnar loop never drains the interconnect's event queue
        as :meth:`step` does: transactions run inline, so the queue is
        empty after each L2 access unless a race fault deferred a
        delivery.  Such a pending event raises
        :class:`DeferredEventError` right after the access that left
        it, before a later transaction could fire it at another time
        than :meth:`step` would.
        """
        if warmup_events:
            warmup, chunks = split_chunks(chunks, warmup_events)
            self.run_chunks(warmup)
            self.reset_stats()
        if self.tracer.enabled or self.metrics is not None:
            self.run(timed_events(chunks))
            return
        queue = getattr(self.design, "queue", None)
        if queue is not None and queue.pending:
            raise DeferredEventError(queue.pending)
        # The accounting matches InOrderCore's execute_gap,
        # execute_colocated and execute_memory per event.  Only an L1
        # miss reads a core's clock (the L2's ``now``), so cycles and
        # instructions are summed per chunk and the clock is set just
        # before each miss: an L1 hit touches no core state, and an
        # Access is built only for a miss.
        cores = self.cores
        loads = [l1.load for l1 in self.l1s]
        stores = [l1.store for l1 in self.l1s]
        latencies = np.array([core.l1_latency for core in cores], dtype=np.int64)
        store_miss = self._store_miss
        load_miss = self._load_miss
        classes = SHARING_CLASSES
        read, write = AccessType.READ, AccessType.WRITE
        for chunk in chunks:
            clocks, cycles, instructions = _chunk_clocks(chunk, latencies)
            base = [core.cycles for core in cores]
            stalls = [0] * len(cores)
            for core_id, address, is_write, sharing, clock in zip(
                chunk.core.tolist(),
                chunk.address.tolist(),
                chunk.is_write.tolist(),
                chunk.sharing.tolist(),
                clocks.tolist(),
            ):
                if is_write:
                    if stores[core_id](address):
                        continue
                    cores[core_id].cycles = base[core_id] + clock + stalls[core_id]
                    stall = store_miss(
                        Access(core_id, address, write, classes[sharing])
                    )
                elif loads[core_id](address):
                    continue
                else:
                    cores[core_id].cycles = base[core_id] + clock + stalls[core_id]
                    stall = load_miss(Access(core_id, address, read, classes[sharing]))
                if queue is not None and queue.pending:
                    raise DeferredEventError(queue.pending)
                stalls[core_id] += stall
            for core, start, added, stalled, executed in zip(
                cores, base, cycles.tolist(), stalls, instructions.tolist()
            ):
                core.cycles = start + added + stalled
                core.instructions += executed

    def state_dict(self) -> dict:
        """Full model state as plain dicts of primitives and numpy arrays.

        Observability (tracer/metrics/profiler) is per-process and never
        part of a snapshot; pending event-queue deferrals are encoded
        separately by :mod:`repro.harness.checkpoint`, which knows the
        component graph needed to name their bound actions.
        """
        from repro.common import serialization

        state = {
            "params": serialization.params_state(self.params),
            "cores": [core.state_dict() for core in self.cores],
            "l1s": [l1.state_dict() for l1 in self.l1s],
            "design": self.design.state_dict(),
        }
        queue = getattr(self.design, "queue", None)
        if queue is not None:
            state["eventq"] = queue.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Inject a :meth:`state_dict` snapshot into this fresh system.

        The snapshot's :class:`SystemParams` win over construction-time
        ones (cores and L1s are rebuilt from them), so non-default
        geometries restore onto a default-built system.  The design must
        already be the right one (``build_design`` chose it from the
        checkpoint envelope); its internals are rebuilt by its own
        ``load_state_dict``.
        """
        from repro.common import serialization
        from repro.common.serialization import StateDictError, require

        self.params = serialization.params_from_state(
            SystemParams, require(state, "params", "system"), "system.params"
        )
        cores = require(state, "cores", "system")
        l1s = require(state, "l1s", "system")
        if len(cores) != self.params.num_cores:
            raise StateDictError(
                "system.cores",
                f"{len(cores)} cores in snapshot, params say {self.params.num_cores}",
            )
        if len(l1s) != self.params.num_cores:
            raise StateDictError(
                "system.l1s",
                f"{len(l1s)} L1s in snapshot, params say {self.params.num_cores}",
            )
        self.l1s = [L1Cache(self.params.l1) for _ in range(self.params.num_cores)]
        self.cores = [
            InOrderCore(i, self.params.l1.latency)
            for i in range(self.params.num_cores)
        ]
        self._peers = tuple(
            tuple(c for c in range(self.params.num_cores) if c != i)
            for i in range(self.params.num_cores)
        )
        for i, (core, core_state) in enumerate(zip(self.cores, cores)):
            core.load_state_dict(core_state, f"system.cores[{i}]")
        for i, (l1, l1_state) in enumerate(zip(self.l1s, l1s)):
            l1.load_state_dict(l1_state, f"system.l1s[{i}]")
        self.design.load_state_dict(require(state, "design", "system"), "design")
        self.design.set_l1_invalidate_hook(self._on_l2_invalidate)
        queue = getattr(self.design, "queue", None)
        if "eventq" in state:
            if queue is None:
                raise StateDictError(
                    "system.eventq",
                    "snapshot carries event-queue state but this system was "
                    "built with the atomic bus model",
                )
            queue.load_state_dict(state["eventq"], "system.eventq")
        elif queue is not None and queue.pending:
            raise StateDictError(
                "system.eventq", "fresh queue is not empty before restore"
            )

    def stats(self) -> SimulationStats:
        """Collect the run's statistics from every component."""
        stats = SimulationStats(accesses=self.design.stats)
        stats.per_core = [
            CoreTiming(core.measured_instructions, core.measured_cycles)
            for core in self.cores
        ]
        reuse = getattr(self.design, "reuse", None)
        if reuse is not None:
            stats.reuse = reuse
        dgroups = getattr(self.design, "dgroup_stats", None)
        if dgroups is not None:
            stats.dgroups = dgroups
        bus = getattr(self.design, "bus", None)
        if bus is not None:
            stats.bus = bus.stats
        bus_stats = getattr(self.design, "bus_stats", None)
        if bus_stats is not None:
            stats.bus = bus_stats
        return stats


def run_workload(design: L2Design, events: "Iterable[TimedAccess]",
                 params: "Optional[SystemParams]" = None) -> SimulationStats:
    """Convenience wrapper: build a system, run, return statistics."""
    system = CmpSystem(design, params)
    system.run(events)
    return system.stats()


__all__ = [
    "SHARING_CLASSES",
    "AccessResult",
    "AccessType",
    "CmpSystem",
    "DeferredEventError",
    "EventChunk",
    "TimedAccess",
    "run_workload",
    "split_chunks",
    "timed_events",
]
