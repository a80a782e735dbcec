"""Supervised parallel sweep executor: fan (workload, design) cells
over worker processes.

A sweep is a grid of independent *cells* — one (workload, design,
multiprogrammed) simulation each.  This module runs the uncached cells
of a sweep (or of the whole experiment suite) across a supervised fleet
of worker processes and records the results in the sweep's shared
:class:`~repro.experiments.runner.StatsCache`.

**Determinism.**  Parallel results are bit-identical to the serial
path.  Every random draw in a cell flows through a named substream
keyed on ``(config.seed, crc32(name))`` (:func:`repro.common.rng.
stream`), where the names embed the cell's own workload/mix and core —
``"workload.oltp.core2"``, ``"hot.oltp.ro"`` — so a cell's sequence is
a pure function of the config and the cell identity.  Nothing depends
on scheduling order, pool size, retries, or which other cells run; the
differential tests pin serial and ``--jobs 4`` fingerprints against
each other for every design and both bus models.

**Supervision.**  Each cell runs in its own worker process, watched by
the parent:

* a *cell timeout* (``--cell-timeout``) bounds any one attempt's wall
  clock — a hung worker is SIGKILLed and the cell is retried in a
  fresh process;
* every worker sends a *heartbeat* message over its pipe from a
  daemon thread, so the parent can tell a frozen process (silent for
  longer than the heartbeat grace — killed promptly) from one that is
  merely slow (still beating — left alone until the cell timeout, if
  any, expires);
* failures retry with bounded exponential backoff, up to
  ``--max-retries`` extra attempts per cell.

One :class:`SupervisorConfig` carries these knobs; ``repro`` checks
``--jobs``, ``--cell-timeout`` and ``--max-retries`` when it parses
them, so a bad value stops the command before any cell runs.

**Poison-cell quarantine.**  A cell that exhausts its retries is
*quarantined*: recorded (with every attempt's failure kind and the
worker's traceback, if it raised) in a ``<cache>.quarantine`` JSONL
journal and skipped, so one pathological cell cannot sink a 1000-cell
sweep.  The sweep finishes every other cell and reports the quarantine
in its :class:`ParallelReport`; the CLI exits with the distinct code
:data:`QUARANTINE_EXIT`.  A later run re-attempts quarantined cells —
the journal is a log for inspection (``repro quarantine``), not a
blocklist.

**Persistence.**  Each worker reports to the parent over its own
pipe: heartbeats, then the cell's stats or its failure.  The parent
is the journal's only writer: it appends each result to the sweep's
:class:`~repro.experiments.runner.StatsCache` the moment it arrives,
so a sweep killed mid-flight keeps every cell the parent received;
re-running it re-runs only cells absent from the journal.  A cell
whose worker finished but whose result the parent had not yet read is
re-simulated, bit-identically.

**One cell function.**  A cell runs through :func:`_simulate_cell`
wherever it runs: serially, in a worker, or in the parent after the
pool failed it.  So a scaled cell runs under the harness on every
path, with invariant checks and, beside a persistent journal,
snapshots under ``<cache>.scale-ckpt/`` that a retried attempt
resumes.

**Crash containment.**  A worker that dies without sending a result
or a failure (OOM kill, segfault in a native extension, ``os._exit``)
is retried in fresh workers; if every attempt dies the same way, the
cell is re-run serially in the parent — degraded, never dropped.
(Cells that *raise* or *time out* on every attempt are quarantined
instead: re-raising a deterministic exception, or hanging, in the
parent would sink the sweep the supervision exists to protect.)

**Graceful degradation.**  When worker processes cannot be spawned at
all (sandboxed environments without fork/exec), the executor falls
back to the serial path and says so in the report, instead of
crashing.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.stats import SimulationStats
from repro.experiments import scale
from repro.experiments.runner import (
    ExperimentConfig,
    StatsCache,
    build_design,
    resolve_bus_model,
    run_mix,
    run_multithreaded,
)
from repro.obs.metrics import (
    SWEEP_FALLBACK,
    SWEEP_QUARANTINE,
    SWEEP_RETRY,
    SWEEP_TIMEOUT,
    SWEEP_WORKER_DEATH,
    MetricsRegistry,
)

# Chaos hooks (see repro.harness.chaos).  Each names a cell label; the
# worker injects the fault at the start of that cell.  With
# CHAOS_MARK_DIR_ENV set, kill/hang/freeze fire only on the cell's
# first attempt (a marker file arms them once), so the retry converges;
# without it they fire on every attempt, so a killed cell ends in the
# parent's serial rescue.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL"
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG"
CHAOS_FREEZE_ENV = "REPRO_CHAOS_FREEZE"
CHAOS_POISON_ENV = "REPRO_CHAOS_POISON"
CHAOS_MARK_DIR_ENV = "REPRO_CHAOS_MARK_DIR"

#: CLI exit code for a sweep that completed but quarantined cells.
QUARANTINE_EXIT = 6

#: Worker exit code for "the cell raised; its failure was sent".
_EXIT_CELL_FAILED = 21


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a single (workload, design) simulation.

    ``num_cores`` != 0 scales the cell to an N-core machine (the scale
    experiment's 8/16/64-core mesh grid); 0 is the paper's 4-core
    configuration and leaves keys and labels exactly as before.  A
    multiprogrammed mix is 4-core by construction, so a scaled mix is
    refused here, before any worker starts.
    """

    workload: str
    design: str
    multiprogrammed: bool = False
    num_cores: int = 0

    def __post_init__(self) -> None:
        if self.multiprogrammed and self.num_cores:
            raise ValueError(
                "multiprogrammed mixes are 4-core by construction; "
                "num_cores only scales multithreaded workloads"
            )

    @property
    def label(self) -> str:
        base = f"{self.workload}/{self.design}"
        return f"{base}@c{self.num_cores}" if self.num_cores else base

    def key(self, config: ExperimentConfig) -> tuple:
        """The cell's :class:`StatsCache` key under ``config``."""
        return StatsCache.scaled_key(
            self.workload, self.design, config,
            self.multiprogrammed, self.num_cores,
        )


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for the worker supervision loop."""

    #: Wall-clock budget per cell attempt, seconds (0 = unbounded).
    cell_timeout: float = 0.0
    #: Extra attempts per cell after the first, before quarantine.
    max_retries: int = 2
    #: First retry delay; doubles per attempt (bounded exponential).
    backoff_base: float = 0.05
    #: Ceiling on any one backoff delay.
    backoff_cap: float = 2.0
    #: Seconds between a worker's heartbeat messages.
    heartbeat_interval: float = 0.5
    #: Seconds since a worker's last message after which it counts as
    #: frozen (not merely slow) and is SIGKILLed without waiting for
    #: the cell timeout.
    heartbeat_grace: float = 15.0
    #: Longest the parent waits on the workers' pipes before it
    #: re-checks deadlines and launches backed-off retries, seconds.
    poll_interval: float = 0.02

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))


@dataclass
class Failure:
    """One failed attempt at a cell."""

    #: ``crash`` (process died, no result or failure), ``timeout`` (cell
    #: budget exceeded, SIGKILLed), ``frozen`` (heartbeat went stale,
    #: SIGKILLed), or ``exception`` (the cell raised in the worker).
    kind: str
    detail: str
    #: Worker-side traceback, for ``exception`` failures.
    traceback: "Optional[str]" = None


@dataclass
class QuarantineRecord:
    """A poisoned cell: every attempt failed; the sweep skipped it."""

    cell: Cell
    failures: "List[Failure]"

    @property
    def attempts(self) -> int:
        return len(self.failures)

    def to_dict(self) -> dict:
        return {
            "label": self.cell.label,
            "workload": self.cell.workload,
            "design": self.cell.design,
            "multiprogrammed": self.cell.multiprogrammed,
            "num_cores": self.cell.num_cores,
            "attempts": self.attempts,
            "failures": [
                {
                    "kind": failure.kind,
                    "detail": failure.detail,
                    "traceback": failure.traceback,
                }
                for failure in self.failures
            ],
        }


def quarantine_path(cache_path: str) -> str:
    """The quarantine journal that rides along with ``cache_path``."""
    return f"{cache_path}.quarantine"


def append_quarantine(path: str, record: QuarantineRecord) -> None:
    """Append one quarantine record (JSONL) under an advisory lock."""
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        fcntl = None
    with open(path, "a", encoding="utf-8") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            handle.write(json.dumps(record.to_dict(), sort_keys=True))
            handle.write("\n")
            handle.flush()
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def load_quarantine(path: str) -> "List[dict]":
    """Read a quarantine journal; tolerates a truncated final line."""
    records: "List[dict]" = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue  # half-written tail from a killed parent
                if isinstance(payload, dict):
                    records.append(payload)
    except OSError:
        return []
    return records


class QuarantinedCellError(RuntimeError):
    """A sweep finished, but some of its cells were quarantined.

    Raised by :meth:`ParallelReport.raise_quarantined` *after* every
    healthy cell has run and been journaled, so a rerun resumes from
    the journal and re-attempts only the quarantined cells.  The CLI
    maps this to exit code :data:`QUARANTINE_EXIT`.
    """

    def __init__(self, records: "Sequence[QuarantineRecord]",
                 journal: "Optional[str]" = None) -> None:
        self.records = list(records)
        self.journal = journal
        labels = ", ".join(record.cell.label for record in self.records)
        text = (
            f"{len(self.records)} cell(s) quarantined after repeated "
            f"failures: {labels}"
        )
        if journal:
            text += f" (details: {journal}; inspect with 'repro quarantine')"
        super().__init__(text)


@dataclass
class ParallelReport:
    """What :func:`run_cells` did, cell by cell."""

    jobs: int
    #: Cells simulated this invocation (workers or serial).
    ran: "List[Cell]" = field(default_factory=list)
    #: Cells already present in the cache (not re-simulated).
    cached: "List[Cell]" = field(default_factory=list)
    #: Cells whose every worker attempt crashed and which were re-run
    #: serially in the parent (the degraded-never-dropped path).
    retried: "List[Cell]" = field(default_factory=list)
    #: Cells that finished in a worker after at least one retry.
    recovered: "List[Cell]" = field(default_factory=list)
    #: Cells that exhausted their retries and were skipped.
    quarantined: "List[QuarantineRecord]" = field(default_factory=list)
    #: Why the executor fell back to the serial path, if it did.
    fallback_reason: "Optional[str]" = None
    #: Supervision counters (``sweep.retry``, ``sweep.quarantine``,
    #: ``sweep.timeout``, ``sweep.worker_death``, ``sweep.fallback_serial``).
    counters: "Dict[str, int]" = field(default_factory=dict)
    #: The quarantine journal beside a persistent cache, else None.
    journal: "Optional[str]" = None

    def raise_quarantined(self) -> None:
        """Raise :class:`QuarantinedCellError` if any cell was quarantined."""
        if self.quarantined:
            raise QuarantinedCellError(self.quarantined, self.journal)

    def summary(self) -> str:
        text = (
            f"{len(self.ran)} cell(s) in {self.jobs} worker(s), "
            f"{len(self.cached)} cached"
        )
        if self.retried:
            labels = ", ".join(cell.label for cell in self.retried)
            text += f"; {len(self.retried)} retried serially after a worker crash: {labels}"
        if self.recovered:
            labels = ", ".join(cell.label for cell in self.recovered)
            text += f"; {len(self.recovered)} recovered after worker retries: {labels}"
        if self.quarantined:
            labels = ", ".join(
                f"{record.cell.label} ({record.attempts} attempts, "
                f"last: {record.failures[-1].kind})"
                for record in self.quarantined
            )
            text += f"; {len(self.quarantined)} quarantined: {labels}"
        if self.fallback_reason:
            text += f"; serial fallback: {self.fallback_reason}"
        return text


# -- worker side ------------------------------------------------------


def _chaos_once(kind: str, label: str) -> bool:
    """Arm a chaos fault: True if it should fire on this attempt."""
    mark_dir = os.environ.get(CHAOS_MARK_DIR_ENV)
    if not mark_dir:
        return True
    marker = os.path.join(mark_dir, f"{kind}-{label.replace('/', '_')}")
    if os.path.exists(marker):
        return False
    with open(marker, "w", encoding="utf-8"):
        pass
    return True


def _inject_chaos(cell: Cell) -> None:
    """Fire any orchestration-level chaos hook aimed at this cell."""
    label = cell.label
    if os.environ.get(CHAOS_KILL_ENV) == label and _chaos_once("kill", label):
        os.kill(os.getpid(), signal.SIGKILL)
    if os.environ.get(CHAOS_FREEZE_ENV) == label and _chaos_once("freeze", label):
        os.kill(os.getpid(), signal.SIGSTOP)
    if os.environ.get(CHAOS_HANG_ENV) == label and _chaos_once("hang", label):
        time.sleep(3600)  # the parent's cell timeout SIGKILLs us
    if os.environ.get(CHAOS_POISON_ENV) == label:
        raise RuntimeError(f"chaos poison injected for cell {label}")


def _simulate_cell(
    cell: Cell, config: ExperimentConfig, bus_model: str,
    cache_path: "Optional[str]",
) -> SimulationStats:
    """Run one cell and return its stats: the only code that simulates
    a sweep cell, in the parent and in every worker.

    A 4-core cell is a plain run of its design on ``bus_model``.  A
    scaled cell is a harnessed mesh run
    (:func:`~repro.experiments.scale.run_scaled_cell`, whatever
    ``bus_model``) that snapshots next to the stats journal at
    ``cache_path``, if the cache has one, and resumes a matching
    snapshot.  Module-level (picklable) and self-contained: the parent
    resolves the bus model before submitting, so a worker's result
    cannot depend on environment differences between fork and spawn
    start methods.
    """
    if cell.num_cores:
        return scale.run_scaled_cell(
            cell.design, cell.workload, cell.num_cores, config,
            checkpoint_path=scale.snapshot_path(
                cache_path, cell.workload, cell.design, cell.num_cores
            ),
        )
    design = build_design(cell.design, bus_model=bus_model)
    if cell.multiprogrammed:
        _, stats = run_mix(design, cell.workload, config)
    else:
        _, stats = run_multithreaded(design, cell.workload, config)
    return stats


def _worker_main(
    cell: Cell,
    config: ExperimentConfig,
    bus_model: str,
    cache_path: "Optional[str]",
    conn,
    heartbeat_interval: float,
) -> None:
    """Worker process entry point: one cell, reported over ``conn``.

    A daemon thread sends ``("beat",)`` every ``heartbeat_interval``;
    the cell ends with ``("result", stats)``, or with ``("failure",
    error, traceback)`` and the exit code :data:`_EXIT_CELL_FAILED`.
    One lock orders the two threads' sends, so a beat never lands in
    the middle of the result.
    """
    lock = threading.Lock()

    def send(message: tuple) -> None:
        with lock:
            conn.send(message)

    def beat() -> None:
        while True:
            time.sleep(heartbeat_interval)
            try:
                send(("beat",))
            except (OSError, ValueError):  # parent gone; stop quietly
                return

    threading.Thread(target=beat, daemon=True).start()
    try:
        _inject_chaos(cell)
        stats = _simulate_cell(cell, config, bus_model, cache_path)
    except BaseException as error:  # noqa: BLE001 - transported to parent
        try:
            send(("failure", f"{type(error).__name__}: {error}",
                  traceback_module.format_exc()))
        except (OSError, ValueError):
            pass
        os._exit(_EXIT_CELL_FAILED)
    send(("result", stats))
    os._exit(0)


# -- the supervisor ---------------------------------------------------


@dataclass
class _Attempt:
    """One in-flight worker process and the read end of its pipe."""

    cell: Cell
    attempt: int  # 0-based
    process: object
    conn: object
    started: float
    #: Monotonic time of the worker's last message (its start, before one).
    last_message: float
    #: The ``("result", ...)`` or ``("failure", ...)`` message, once read.
    outcome: "Optional[tuple]" = None
    #: The pipe reached EOF: every copy of the write end is closed.
    eof: bool = False


class _PoolUnavailable(Exception):
    """Worker processes cannot be created in this environment."""


class _Supervisor:
    """Runs cells in supervised worker processes, one cell per worker.

    The parent waits on the workers' pipes and appends each result to
    the cache as it arrives; a worker that crashes, hangs past the cell
    timeout, or freezes (silent past the heartbeat grace) is SIGKILLed
    and its cell retried with bounded exponential backoff in a fresh
    process.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        cache: StatsCache,
        bus_model: str,
        jobs: int,
        supervision: SupervisorConfig,
        tracer=None,
        registry: "Optional[MetricsRegistry]" = None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.bus_model = bus_model
        self.jobs = jobs
        self.supervision = supervision
        self.tracer = tracer
        self.registry = registry if registry is not None else MetricsRegistry()
        #: (cell, attempt, earliest launch time) queue.
        self.pending: "deque[Tuple[Cell, int, float]]" = deque()
        self.running: "List[_Attempt]" = []
        self.failures: "Dict[Cell, List[Failure]]" = {}
        self.completed: "List[Cell]" = []
        self.needs_parent_rescue: "List[Cell]" = []
        self.quarantined: "List[QuarantineRecord]" = []
        self.pool_broken: "Optional[str]" = None

    # -- event/counter plumbing ---------------------------------------

    def _emit(self, kind: str, **data) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(kind, **data)

    def _count(self, name: str) -> None:
        self.registry.counter(name).inc()

    # -- lifecycle ----------------------------------------------------

    def run(self, cells: "Sequence[Cell]") -> None:
        from multiprocessing.connection import wait

        for cell in cells:
            self.pending.append((cell, 0, 0.0))
        try:
            while self.pending or self.running:
                if self.pool_broken is None:
                    self._launch_ready()
                elif not self.running:
                    break  # remaining cells fall back to the caller
                if self.running:
                    wait([attempt.conn for attempt in self.running],
                         timeout=self.supervision.poll_interval)
                elif self.pending:
                    time.sleep(self.supervision.poll_interval)  # backoff
                self._poll_running()
        finally:
            for attempt in self.running:
                self._kill(attempt)

    def unfinished(self) -> "List[Cell]":
        """Cells still pending after a broken pool (serial fallback)."""
        return [cell for cell, _, _ in self.pending]

    def _launch_ready(self) -> None:
        now = time.monotonic()
        launchable = len(self.pending)
        while launchable and len(self.running) < self.jobs:
            launchable -= 1
            cell, attempt, not_before = self.pending.popleft()
            if now < not_before:  # still backing off; rotate to the back
                self.pending.append((cell, attempt, not_before))
                continue
            try:
                self._launch(cell, attempt)
            except _PoolUnavailable as error:
                self.pending.appendleft((cell, attempt, 0.0))
                self.pool_broken = str(error)
                self._count(SWEEP_FALLBACK)
                return

    def _launch(self, cell: Cell, attempt: int) -> None:
        import multiprocessing

        try:
            reader, writer = multiprocessing.Pipe(duplex=False)
        except OSError as error:
            raise _PoolUnavailable(
                f"cannot open a worker pipe ({error})"
            ) from error
        process = multiprocessing.Process(
            target=_worker_main,
            args=(
                cell,
                self.config,
                self.bus_model,
                self.cache.path,
                writer,
                self.supervision.heartbeat_interval,
            ),
            daemon=True,
        )
        try:
            process.start()
        except (OSError, ValueError, ImportError) as error:
            reader.close()
            raise _PoolUnavailable(
                f"cannot start worker processes ({error})"
            ) from error
        finally:
            # The worker holds the only write end now, so its death
            # reads as EOF instead of silence.
            writer.close()
        started = time.monotonic()
        self.running.append(_Attempt(cell, attempt, process, reader,
                                     started, started))

    # -- polling ------------------------------------------------------

    def _drain(self, attempt: _Attempt) -> None:
        """Read ``attempt``'s waiting messages, up to its result or failure.

        A result goes straight into the cache, which journals it.
        """
        try:
            while attempt.conn.poll():
                message = attempt.conn.recv()
                attempt.last_message = time.monotonic()
                if message[0] != "beat":
                    attempt.outcome = message
                    break
        except (EOFError, OSError):
            attempt.eof = True
        if attempt.outcome is not None and attempt.outcome[0] == "result":
            self.cache.insert(attempt.cell.key(self.config), attempt.outcome[1])

    def _poll_running(self) -> None:
        # Drain every pipe first, whether or not its worker still runs:
        # a full pipe blocks the worker's sends, and a result that has
        # already arrived beats any deadline below.
        for attempt in self.running:
            self._drain(attempt)
        now = time.monotonic()
        timeout = self.supervision.cell_timeout
        grace = self.supervision.heartbeat_grace
        still_running: "List[_Attempt]" = []
        for attempt in self.running:
            if attempt.outcome is not None or attempt.eof:
                self._reap(attempt)
                continue
            if timeout and now - attempt.started > timeout:
                self._kill(attempt)
                self._count(SWEEP_TIMEOUT)
                failure = Failure(
                    "timeout",
                    f"exceeded the {timeout:g}s cell timeout "
                    f"(attempt {attempt.attempt + 1}); worker SIGKILLed",
                )
            elif grace and now - attempt.last_message > grace:
                self._kill(attempt)
                failure = Failure(
                    "frozen",
                    f"heartbeat stale for more than {grace:g}s "
                    f"(attempt {attempt.attempt + 1}); worker SIGKILLed",
                )
            else:
                still_running.append(attempt)
                continue
            self._worker_death(attempt, reason=failure.kind)
            self._record_failure(attempt, failure)
        self.running = still_running

    @staticmethod
    def _kill(attempt: _Attempt) -> None:
        try:
            attempt.process.kill()
        except (OSError, AttributeError, ValueError):
            pass
        try:
            attempt.process.join(timeout=5)
        except (OSError, ValueError, AssertionError):
            pass
        attempt.conn.close()

    def _reap(self, attempt: _Attempt) -> None:
        """End an attempt whose worker reported or closed its pipe."""
        attempt.process.join()
        attempt.conn.close()
        outcome = attempt.outcome
        if outcome is None:
            exitcode = attempt.process.exitcode
            self._worker_death(attempt, exitcode=exitcode)
            self._record_failure(attempt, Failure(
                "crash",
                f"worker died with exit code {exitcode} and no result "
                f"(attempt {attempt.attempt + 1})",
            ))
        elif outcome[0] == "result":
            self.completed.append(attempt.cell)
        else:
            _, error, traceback = outcome
            self._record_failure(attempt, Failure("exception", error, traceback))

    def _worker_death(self, attempt: _Attempt, **detail) -> None:
        self._count(SWEEP_WORKER_DEATH)
        self._emit("worker-death", cell=attempt.cell.label, **detail,
                   attempt=attempt.attempt + 1)

    def _record_failure(self, attempt: _Attempt, failure: Failure) -> None:
        cell = attempt.cell
        history = self.failures.setdefault(cell, [])
        history.append(failure)
        if attempt.attempt < self.supervision.max_retries:
            retry = attempt.attempt + 1
            delay = self.supervision.backoff(retry)
            self._count(SWEEP_RETRY)
            self._emit(
                "retry",
                cell=cell.label,
                attempt=retry + 1,
                backoff_seconds=delay,
                after=failure.kind,
            )
            self.pending.append((cell, retry, time.monotonic() + delay))
            return
        # Retry budget exhausted.  A cell whose workers only ever
        # *died* (crash/frozen) gets one last serial run in the parent
        # — the PR-5 degradation contract for environment-level worker
        # loss.  Deterministic exceptions and timeouts are quarantined:
        # re-raising or hanging in the parent would sink the sweep.
        kinds = {record.kind for record in history}
        if kinds <= {"crash", "frozen"}:
            self.needs_parent_rescue.append(cell)
        else:
            self.quarantine(cell)

    def quarantine(self, cell: Cell) -> None:
        record = QuarantineRecord(cell, self.failures.get(cell, []))
        self.quarantined.append(record)
        self._count(SWEEP_QUARANTINE)
        self._emit(
            "quarantine",
            cell=cell.label,
            attempts=record.attempts,
            last_failure=record.failures[-1].kind if record.failures else None,
        )
        if self.cache.path is not None:
            append_quarantine(quarantine_path(self.cache.path), record)


# -- public entry point -----------------------------------------------


def run_cells(
    cells: "Sequence[Cell]",
    config: ExperimentConfig,
    cache: StatsCache,
    jobs: int = 1,
    bus_model: "Optional[str]" = None,
    supervision: "Optional[SupervisorConfig]" = None,
    tracer=None,
) -> ParallelReport:
    """Ensure every cell's stats are in ``cache``, using ``jobs`` workers
    supervised by ``supervision`` (default :class:`SupervisorConfig`):
    the one code that fills a sweep grid.

    The cache is the rendezvous: callers (the suite, the perf lab's
    sweep leg, the chaos scenarios) read their results back out of it
    with :meth:`StatsCache.peek`.  Every cell runs through
    :func:`_simulate_cell` — serially at one job, in a worker, in the
    serial fallback of a pool that cannot start, or in the parent's
    rescue — and is recorded with :meth:`StatsCache.insert`.  At one
    job a cell that raises raises here; a pooled cell that fails every
    supervised attempt is quarantined and reported, not raised: callers
    that must stop call :meth:`ParallelReport.raise_quarantined`.
    """
    bus_model = resolve_bus_model(bus_model)
    registry = MetricsRegistry()
    report = ParallelReport(
        jobs=jobs,
        journal=quarantine_path(cache.path) if cache.path is not None else None,
    )
    pending: "List[Cell]" = []
    for cell in dict.fromkeys(cells):
        if cell.key(config) in cache:
            report.cached.append(cell)
        else:
            pending.append(cell)
    supervisor = _Supervisor(
        config, cache, bus_model, jobs, supervision or SupervisorConfig(),
        tracer=tracer, registry=registry,
    )
    if jobs > 1:
        supervisor.run(pending)
        report.fallback_reason = supervisor.pool_broken
        pending = supervisor.unfinished()
    for cell in pending:
        cache.insert(cell.key(config),
                     _simulate_cell(cell, config, bus_model, cache.path))
        report.ran.append(cell)
    for cell in supervisor.needs_parent_rescue:
        try:
            cache.insert(cell.key(config),
                         _simulate_cell(cell, config, bus_model, cache.path))
        except Exception as error:  # noqa: BLE001 - quarantined
            supervisor.failures.setdefault(cell, []).append(
                Failure(
                    "exception",
                    f"{type(error).__name__}: {error} (parent rescue)",
                    traceback_module.format_exc(),
                )
            )
            supervisor.quarantine(cell)
            continue
        report.retried.append(cell)
    report.quarantined = supervisor.quarantined
    for cell in supervisor.completed:
        report.ran.append(cell)
        if supervisor.failures.get(cell):
            report.recovered.append(cell)
    report.counters = _snapshot_counters(registry)
    return report


def _snapshot_counters(registry: MetricsRegistry) -> "Dict[str, int]":
    return {name: value for name, value in registry.snapshot().items()
            if isinstance(value, int)}

