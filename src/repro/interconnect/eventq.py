"""Deterministic event queue for the interconnect's deferred deliveries.

Every L2 design owns one :class:`EventQueue` (``design.queue``, created
by :class:`~repro.caches.design.L2Design`), shared by its bus, crossbar
and mesh NoC.  Interconnect transactions run inline: a bus snoop, a
mesh forward, a crossbar data phase or a NuRAPID invalidation applies
inside the call that issues it.  The queue holds only what outlives
that call — the harness's race faults' two deferred deliveries
(``race-reorder``'s late snoop and ``race-delay-repl``'s late
``BusRepl``), so it stays empty unless a race fault is armed.
Transactions still call :meth:`EventQueue.run_until` before each
delivery due at cycle ``t``, so a pending deferral fires at its place
in simulated time, and :attr:`EventQueue.now` follows the
transactions' cycles.

Events fire in ``(time, seq)`` order: by time, and in schedule order
among equal times.  An event scheduled in the past (component virtual
clocks are not globally ordered) is clamped forward to the queue's
current time.  :meth:`~repro.cpu.system.CmpSystem.step` drains what is
due as the cores' virtual clocks advance.  Actions must be picklable
(bound methods plus argument tuples, never closures) so a checkpoint
taken with a pending deferred event resumes exactly.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.common.rng import DEFAULT_SEED, stream


class ScheduledEvent:
    """One queued action: fire ``action(*args)`` at ``time``."""

    __slots__ = ("time", "seq", "action", "args", "label")

    def __init__(
        self,
        time: int,
        seq: int,
        action: "Callable[..., Any]",
        args: "Tuple[Any, ...]",
        label: str,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.args = args
        self.label = label

    def __repr__(self) -> str:
        return f"ScheduledEvent(t={self.time}, seq={self.seq}, label={self.label!r})"


class EventQueue:
    """Deterministic ``(time, seq)`` scheduler for deferred deliveries.

    Args:
        seed: seeds :attr:`rng`, the stream race faults draw victim
            choices from.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed
        self.now = 0
        self.fired = 0
        #: Events scheduled but not yet fired (an attribute, not a
        #: property: the columnar run loop reads it after every L2 access).
        self.pending = 0
        self._rng: "Optional[np.random.Generator]" = None
        self._seq = 0
        self._heap: "List[Tuple[int, int, ScheduledEvent]]" = []

    @property
    def rng(self) -> "np.random.Generator":
        """The race faults' victim stream, seeded on first use (every
        design builds a queue; only race faults draw from it)."""
        if self._rng is None:
            self._rng = stream("interconnect.eventq", self.seed)
        return self._rng

    def at(
        self,
        time: int,
        action: "Callable[..., Any]",
        args: "Tuple[Any, ...]" = (),
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``action(*args)`` at absolute ``time``.

        A past ``time`` is clamped to :attr:`now` — component virtual
        clocks (per-core cycle counts) are not globally ordered, so the
        queue enforces monotonicity instead of rejecting stragglers.
        """
        seq = self._seq
        self._seq = seq + 1
        return self.restore_event(max(time, self.now), seq, action, args, label)

    def run_until(self, time: int) -> int:
        """Fire every event due at or before ``time``; returns the count.

        Actions may schedule further events; those also fire now if due.
        ``now`` never moves backwards.
        """
        count = 0
        heap = self._heap
        while heap and heap[0][0] <= time:
            event = heapq.heappop(heap)[2]
            self.pending -= 1
            if event.time > self.now:
                self.now = event.time
            self.fired += 1
            count += 1
            event.action(*event.args)
        if time > self.now:
            self.now = time
        return count

    # ------------------------------------------------------------------
    # Versioned checkpointing

    def state_dict(self) -> dict:
        """Scheduler scalars and RNG state — *not* the pending events.

        Pending events hold bound actions into the component graph; the
        checkpoint layer encodes them by owner/name (see
        ``repro.harness.checkpoint``) and replays them through
        :meth:`restore_event`.
        """
        from repro.common import serialization

        return {
            "seed": self.seed,
            "now": self.now,
            "fired": self.fired,
            "seq": self._seq,
            "rng": serialization.rng_state(self.rng),
        }

    def load_state_dict(self, state: dict, path: str = "eventq") -> None:
        from repro.common import serialization
        from repro.common.serialization import require

        self.seed = int(require(state, "seed", path))
        self.now = int(require(state, "now", path))
        self.fired = int(require(state, "fired", path))
        self._seq = int(require(state, "seq", path))
        serialization.load_rng(self.rng, require(state, "rng", path), f"{path}.rng")

    def restore_event(
        self,
        time: int,
        seq: int,
        action: "Callable[..., Any]",
        args: "Tuple[Any, ...]" = (),
        label: str = "",
    ) -> ScheduledEvent:
        """Enqueue an event under a given ``seq`` (checkpoint restore).

        Unlike :meth:`at`, the sequence number is *restored*, not newly
        allocated, so the heap order reproduces the pre-checkpoint
        schedule exactly.
        """
        event = ScheduledEvent(time, seq, action, args, label)
        heapq.heappush(self._heap, (time, seq, event))
        self.pending += 1
        return event

    def pending_events(self) -> "List[ScheduledEvent]":
        """Pending events in firing order (for checkpointing)."""
        return [item[2] for item in sorted(self._heap)]


__all__ = ["EventQueue", "ScheduledEvent"]
