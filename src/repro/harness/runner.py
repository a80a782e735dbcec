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

Workload chunks (:meth:`HarnessRunner.run_chunks`, and so
:func:`run_events`) run in *pieces* through
:meth:`CmpSystem.run_chunks`' columnar loop, cut at every check and
checkpoint boundary, so each check, checkpoint and clock comparison
happens at the same event index, on the same model state, as in the
per-event loop (:meth:`HarnessRunner.run`).  Runs that a fault can
reach, systems with a tracer or metrics collector, and check
intervals shorter than :data:`MIN_SEGMENT` keep the per-event loop
(:meth:`HarnessRunner.takes_pieces`).

:func:`run_events` runs every warm-up-then-measure run in the
simulator, and a plain run is ``run_events`` with the default
:class:`HarnessConfig` (no check, checkpoint or watchdog).  It still
keeps the crash window, so a plain run that raises an
:class:`InvariantViolation` dumps its last events like any other.

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
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.common.dirty import DirtySet
from repro.common.rng import DEFAULT_SEED
from repro.cpu.system import EventChunk, TimedAccess, split_chunks, timed_events
from repro.harness.checkpoint import bus_model_of, save_checkpoint
from repro.harness.faults import FaultInjector, FaultSpec
from repro.harness.invariants import (
    CheckPlan,
    InvariantViolation,
    check_system,
    check_system_incremental,
)
from repro.obs import events as ev
from repro.obs.profiler import Profiler

#: Events the crash window keeps: the replayable tail written on error.
WINDOW_EVENTS = 64

#: Shortest check interval that runs in pieces.  Each piece pays about
#: 100 us whatever its length (its clock columns, the columnar loop's
#: setup, the crash window's objects), on 4 cores and on 16, so at
#: shorter intervals stepping one event at a time is cheaper.  Measured
#: on cmp-nurapid over oltp, pieces tie at 32 and win at 64 on both
#: (DESIGN.md §10).
MIN_SEGMENT = 64


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
        self._checkpoint_every = (
            self.config.checkpoint_every if self.config.checkpoint_path else 0
        )
        self._cycle_watermarks = [core.cycles for core in system.cores]
        # Incremental checking: designs mark mutated entries; the check
        # rescans only those.  ``check_full`` keeps the old behaviour.
        self._dirty: "Optional[DirtySet]" = None
        self._plan: "Optional[CheckPlan]" = None
        if self.config.check_every and not self.config.check_full:
            self._dirty = getattr(system.design, "dirty_set", None) or DirtySet()
            system.design.dirty_set = self._dirty
            # The first check has no marking history for pre-existing
            # state (warm caches, resumed checkpoints): scan fully once.
            self._dirty.mark_all()
            self._plan = CheckPlan(system)

    # ------------------------------------------------------------------

    def run(self, events: "Iterable[TimedAccess]") -> None:
        """Execute ``events`` one at a time, applying the configured
        machinery after each.

        Raises :class:`InvariantViolation` on a failed check (with the
        event-window dump path attached), :class:`WatchdogTimeout` on
        an exceeded wall-clock budget.
        """
        self._arm_deadline()
        system = self.system
        index = self.event_index
        window = self._window
        injector = self.injector
        # A step moves only its own core's clock.  Every clock is
        # compared after the first event (it may have moved between
        # runs) and after a fault; _boundary adds each check boundary.
        every_clock = True
        try:
            for event in events:
                if injector is not None and injector.maybe_inject(system, index):
                    every_clock = True
                window.append(event)
                system.step(event)
                index += 1
                self._boundary(index, None if every_clock else event.access.core)
                every_clock = False
        except (InvariantViolation, WatchdogTimeout) as error:
            self._report(error, index)
            raise

    def run_chunks(self, chunks: "Iterable[EventChunk]") -> None:
        """Execute workload chunks, like :meth:`run` over their events.

        Each chunk runs in pieces through :meth:`CmpSystem.run_chunks`,
        cut at every event index that is a multiple of ``check_every``
        or of the checkpoint interval; after each piece come the steps
        :meth:`run` takes after each event.  The watchdog is read once
        per piece, so it fires at most one piece (at most a chunk)
        late.  The choice of loop is made once per call: see
        :meth:`takes_pieces`.
        """
        if not self.takes_pieces():
            self.run(timed_events(chunks))
            return
        self._arm_deadline()
        index = self.event_index
        try:
            for chunk in chunks:
                start = 0
                for end in self._piece_ends(index, len(chunk)):
                    self._run_piece(chunk[start:end], index)
                    index += end - start
                    start = end
                    self._boundary(index)
        except (InvariantViolation, WatchdogTimeout) as error:
            self._report(error, index)
            raise

    def takes_pieces(self) -> bool:
        """Whether :meth:`run_chunks` runs pieces, not the per-event loop.

        The per-event loop stays for runs a fault can reach (a fault
        lands before one particular event, and a race fault's deferred
        delivery drains only in :meth:`CmpSystem.step`: an injector, or
        a restored snapshot with a race armed or a delivery pending),
        for check intervals below :data:`MIN_SEGMENT`, and for systems
        with a tracer or metrics collector, which
        :meth:`CmpSystem.run_chunks` steps one event at a time anyway.
        """
        system = self.system
        design = system.design
        race = (
            design.queue.pending
            or getattr(getattr(design, "bus", None), "race_pending", None)
            or getattr(design, "race_delay_repl", False)
        )
        check_every = self.config.check_every
        return not (
            self.injector is not None
            or race
            or 0 < check_every < MIN_SEGMENT
            or system.tracer.enabled
            or system.metrics is not None
        )

    def _piece_ends(self, index: int, length: int) -> "Iterator[int]":
        """Where the pieces of a chunk of ``length`` events that starts
        at event ``index`` end, as offsets into the chunk: each check or
        checkpoint boundary inside it, then its end."""
        intervals = [
            every for every in (self.config.check_every, self._checkpoint_every)
            if every
        ]
        offset = 0
        while offset < length:
            here = index + offset
            offset = min(
                [length] + [(here // every + 1) * every - index for every in intervals]
            )
            yield offset

    def _run_piece(self, piece: EventChunk, index: int) -> None:
        """Run ``piece``, which starts at event ``index``, in the
        columnar loop and add its tail to the crash window.

        Inside a piece a core's clock can fall only through a negative
        gap or colocated count, rejected here before the piece runs, or
        a negative stall, which :meth:`CmpSystem.run_chunks` raises at
        its L1 miss.  Either reports the ``access_index`` the per-event
        loop would, and a stall's window ends at its event.
        """
        if piece.gap.min() < 0 or piece.colocated.min() < 0:
            at = index + 1 + int(((piece.gap < 0) | (piece.colocated < 0)).argmax())
            raise InvariantViolation(
                "timestamp-monotonic",
                f"event {at} has a negative gap or colocated count",
                access_index=at,
            )
        try:
            self.system.run_chunks((piece,))
        except InvariantViolation as error:
            offset = error.access_index
            self._window.extend(piece[: offset + 1][-WINDOW_EVENTS:].timed())
            error.access_index = index + offset + 1
            raise
        self._window.extend(piece[-WINDOW_EVENTS:].timed())

    def _boundary(self, index: int, core: "Optional[int]" = None) -> None:
        """The harness's work once ``index`` events have run, in order:
        advance the index, compare clocks with their watermarks (only
        ``core``'s, if given and no check is due), run the check and the
        checkpoint due at ``index``, then read the watchdog deadline."""
        self.event_index = index
        check_every = self.config.check_every
        checking = check_every and index % check_every == 0
        self._check_monotonic(index, None if checking else core)
        if checking:
            if self.profiler is not None:
                with self.profiler.section("invariant-check"):
                    self._check(index)
            else:
                self._check(index)
        if self._checkpoint_every and index % self._checkpoint_every == 0:
            self.checkpoint()
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise WatchdogTimeout(
                f"run exceeded {self.config.timeout_seconds:g}s "
                f"wall-clock budget at event {index}",
                event_index=index,
            )

    def _arm_deadline(self) -> None:
        """Start the watchdog's clock at the first run of this runner."""
        if self.config.timeout_seconds and self._deadline is None:
            self._deadline = time.monotonic() + self.config.timeout_seconds

    def _report(
        self, error: "InvariantViolation | WatchdogTimeout", index: int
    ) -> None:
        """Dump the crash window for ``error``; a violation also gets its
        ``access_index`` (``index`` if unset) and a trace record."""
        error.dump_path = self.dump_window()
        if isinstance(error, InvariantViolation):
            if error.access_index is None:
                error.access_index = index
            system = self.system
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

    def _check(self, index: int) -> None:
        """One paranoid-mode invariant check (incremental by default)."""
        if self._dirty is not None:
            check_system_incremental(
                self.system, self._dirty, access_index=index, plan=self._plan
            )
        else:
            check_system(self.system, access_index=index)

    def _check_monotonic(self, index: int, core: "Optional[int]" = None) -> None:
        """Per-core cycle counts form the model's clock; enforce order
        for ``core``'s clock, or every core's when None."""
        cores = self.system.cores
        watermarks = self._cycle_watermarks
        for core_id in range(len(cores)) if core is None else (core,):
            cycles = cores[core_id].cycles
            if cycles < watermarks[core_id]:
                raise InvariantViolation(
                    "timestamp-monotonic",
                    f"core {core_id} cycles went backwards "
                    f"({watermarks[core_id]} -> {cycles})",
                    access_index=index,
                    cores=(core_id,),
                )
            watermarks[core_id] = cycles

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

    Statistics are reset once ``warmup_events`` events have run (cache
    state and core clocks carry over).  ``config`` None is a plain run.

    ``start_index``/``stats_reset`` support resume: the deterministic
    ``chunks`` stream is rebuilt by the caller (from the checkpoint's
    metadata, :func:`repro.experiments.runner.run_stream`), the
    already-consumed prefix is skipped here (whole chunks at a time;
    only the one that straddles ``start_index`` is sliced), and the
    warm-up boundary reset is re-applied only if the checkpoint
    predates it.  Returns the runner (its ``system`` holds the final
    state).
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
            runner.run_chunks(warmup)
        system.reset_stats()
        runner.stats_reset = True
    runner.run_chunks(chunks)
    return runner
