"""Harness runner: paranoid mode, checkpoints, watchdog, crash dumps.

:class:`HarnessRunner` drives a :class:`~repro.cpu.system.CmpSystem`
through an event stream like :meth:`CmpSystem.run`, adding the
robustness machinery long simulations need:

* **paranoid mode** — run the full-system invariant checker every N
  accesses (``check_every``), so a silent model corruption is caught at
  the access where it happens, not as a wrong figure-level number;
* **timestamp monotonicity** — per-core cycle counts must never move
  backwards (the invariant that catches the historical ``reset_stats``
  core-recreation bug);
* **fault injection** — scheduled corruptions applied between events,
  for checker validation and chaos runs;
* **checkpointing** — a full-state snapshot every K events, enabling
  bit-identical resume of a killed run;
* **watchdog** — a wall-clock budget; a hung or runaway run raises
  :class:`WatchdogTimeout` instead of blocking a sweep forever;
* **event-window dump** — the runner keeps the last
  :data:`WINDOW_EVENTS` events it stepped; on an unrecoverable error it
  writes them as a replayable trace file (the minimal repro input),
  its path attached to the raised exception.

The runner attaches no observer of its own.  Fault injections and
invariant violations are typed trace events: they reach whatever
tracer the caller attached to the system, and the injector's ``log``
keeps the fault records either way.  An optional
:class:`~repro.obs.profiler.Profiler` times the invariant checker.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.common.dirty import DirtySet
from repro.common.rng import DEFAULT_SEED
from repro.cpu.system import EventChunk, TimedAccess, split_chunks, timed_events
from repro.harness.checkpoint import bus_model_of, save_checkpoint
from repro.harness.faults import FaultInjector, FaultSpec
from repro.harness.invariants import (
    InvariantViolation,
    check_system,
    check_system_incremental,
)
from repro.obs import events as ev
from repro.obs.profiler import Profiler

#: Events the crash window keeps: the replayable tail written on error.
WINDOW_EVENTS = 64


class WatchdogTimeout(RuntimeError):
    """The run exceeded its wall-clock budget."""

    def __init__(self, message: str, event_index: int) -> None:
        super().__init__(message)
        self.event_index = event_index
        self.dump_path: "Optional[str]" = None


@dataclass(frozen=True)
class HarnessConfig:
    """Knobs for one harnessed run.

    ``check_every=1`` is full paranoid mode (checker after every
    access); 0 disables checking.  ``checkpoint_every`` is in events
    and only takes effect with a ``checkpoint_path``.  A
    ``timeout_seconds`` of 0 disables the watchdog.  ``dump_path``
    overrides where the event-window trace is written on error
    (default: next to the checkpoint, or ``harness-window.trace``).
    """

    check_every: int = 0
    checkpoint_path: "Optional[str]" = None
    checkpoint_every: int = 50_000
    timeout_seconds: float = 0.0
    faults: "Tuple[FaultSpec, ...]" = ()
    seed: int = DEFAULT_SEED
    dump_path: "Optional[str]" = None
    #: Force full-state rescans on every check (``--check-invariants
    #: full``).  Default is incremental: designs mark mutated entries in
    #: a dirty set and only those are rescanned (faults escalate the
    #: next check to a full scan automatically).
    check_full: bool = False


class HarnessRunner:
    """Drives one system with the robustness machinery enabled."""

    def __init__(
        self,
        system,
        config: "Optional[HarnessConfig]" = None,
        meta: "Optional[Dict[str, Any]]" = None,
        profiler: "Optional[Profiler]" = None,
    ) -> None:
        self.system = system
        self.config = config or HarnessConfig()
        self.meta = dict(meta or {})
        self.event_index = 0
        self.stats_reset = False
        self.profiler = profiler
        # The crash window: the most recent events stepped, oldest first.
        self._window: "deque[TimedAccess]" = deque(maxlen=WINDOW_EVENTS)
        self.injector = (
            FaultInjector(self.config.faults, self.config.seed)
            if self.config.faults
            else None
        )
        self._deadline: "Optional[float]" = None
        self._cycle_watermarks = [core.cycles for core in system.cores]
        # Incremental checking: designs mark mutated entries; the check
        # rescans only those.  ``check_full`` keeps the old behaviour.
        self._dirty: "Optional[DirtySet]" = None
        if self.config.check_every and not self.config.check_full:
            self._dirty = getattr(system.design, "dirty_set", None) or DirtySet()
            system.design.dirty_set = self._dirty
            # The first check has no marking history for pre-existing
            # state (warm caches, resumed checkpoints): scan fully once.
            self._dirty.mark_all()

    # ------------------------------------------------------------------

    def run(self, events: "Iterable") -> None:
        """Execute ``events``, applying the configured machinery.

        Raises :class:`InvariantViolation` on a failed check (with the
        event-window dump path attached), :class:`WatchdogTimeout` on
        an exceeded wall-clock budget.
        """
        config = self.config
        if config.timeout_seconds and self._deadline is None:
            self._deadline = time.monotonic() + config.timeout_seconds
        system = self.system
        check_every = config.check_every
        checkpoint_every = (
            config.checkpoint_every if config.checkpoint_path else 0
        )
        index = self.event_index
        profiler = self.profiler
        window = self._window
        try:
            for event in events:
                if self.injector is not None:
                    self.injector.maybe_inject(system, index)
                window.append(event)
                system.step(event)
                index += 1
                self.event_index = index
                self._check_monotonic(index)
                if check_every and index % check_every == 0:
                    if profiler is not None:
                        with profiler.section("invariant-check"):
                            self._check(index)
                    else:
                        self._check(index)
                if checkpoint_every and index % checkpoint_every == 0:
                    self.checkpoint()
                if self._deadline is not None and time.monotonic() > self._deadline:
                    raise WatchdogTimeout(
                        f"run exceeded {config.timeout_seconds:g}s "
                        f"wall-clock budget at event {index}",
                        event_index=index,
                    )
        except (InvariantViolation, WatchdogTimeout) as error:
            error.dump_path = self.dump_window()
            if isinstance(error, InvariantViolation):
                if error.access_index is None:
                    error.access_index = index
                if system.tracer.enabled:
                    system.tracer.emit(
                        ev.VIOLATION,
                        cycle=max(core.cycles for core in system.cores),
                        address=error.address,
                        invariant=error.invariant,
                        access_index=error.access_index,
                        detail=str(error),
                        dump_path=error.dump_path,
                    )
            raise

    def _check(self, index: int) -> None:
        """One paranoid-mode invariant check (incremental by default)."""
        if self._dirty is not None:
            check_system_incremental(self.system, self._dirty, access_index=index)
        else:
            check_system(self.system, access_index=index)

    def _check_monotonic(self, index: int) -> None:
        """Per-core cycle counts form the model's clock; enforce order."""
        for core_id, core in enumerate(self.system.cores):
            if core.cycles < self._cycle_watermarks[core_id]:
                raise InvariantViolation(
                    "timestamp-monotonic",
                    f"core {core_id} cycles went backwards "
                    f"({self._cycle_watermarks[core_id]} -> {core.cycles})",
                    access_index=index,
                    cores=(core_id,),
                )
            self._cycle_watermarks[core_id] = core.cycles

    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Write a snapshot now (also called on the periodic schedule)."""
        if not self.config.checkpoint_path:
            return
        meta = dict(self.meta)
        meta["stats_reset"] = self.stats_reset
        save_checkpoint(
            self.system, self.event_index, self.config.checkpoint_path, meta
        )

    def window_events(self) -> "list[TimedAccess]":
        """The last :data:`WINDOW_EVENTS` events stepped, oldest first."""
        return list(self._window)

    def dump_window(self) -> "Optional[str]":
        """Write the recent-event window as a replayable trace file.

        Its machine line names the core count and bus model, so
        ``repro trace run`` replays it on the same machine.
        """
        if not self._window:
            return None
        from repro.workloads import tracefile

        path = self.config.dump_path
        if path is None:
            if self.config.checkpoint_path:
                checkpoint = Path(self.config.checkpoint_path)
                path = str(checkpoint.with_name(checkpoint.name + ".window"))
            else:
                path = "harness-window.trace"
        machine = (len(self.system.cores), bus_model_of(self.system.design))
        try:
            tracefile.write_trace(self._window, path, machine)
        except OSError:  # pragma: no cover - dump is best-effort
            return None
        return path


def run_events(
    system,
    chunks: "Iterable[EventChunk]",
    warmup_events: int,
    config: "Optional[HarnessConfig]" = None,
    start_index: int = 0,
    meta: "Optional[Dict[str, Any]]" = None,
    stats_reset: bool = False,
    profiler: "Optional[Profiler]" = None,
) -> HarnessRunner:
    """Warm up, reset statistics, and measure a workload's event chunks
    under the harness.

    ``start_index``/``stats_reset`` support resume: the deterministic
    ``chunks`` stream is rebuilt by the caller, the already-consumed
    prefix is skipped here (whole chunks at a time; only the one that
    straddles ``start_index`` is sliced), and the warm-up boundary
    reset is re-applied only if the checkpoint predates it.  Returns
    the runner (its ``system`` holds the final state).
    """
    _, chunks = split_chunks(chunks, start_index)
    runner = HarnessRunner(system, config, meta, profiler=profiler)
    runner.event_index = start_index
    runner.stats_reset = stats_reset
    if start_index < warmup_events or (
        start_index == warmup_events and not stats_reset
    ):
        if start_index < warmup_events:
            warmup, chunks = split_chunks(chunks, warmup_events - start_index)
            runner.run(timed_events(warmup))
        system.reset_stats()
        runner.stats_reset = True
    runner.run(timed_events(chunks))
    return runner
