"""Supervised parallel sweep executor: fan (workload, design) cells
over worker processes.

A sweep is a grid of independent *cells* — one (workload, design,
multiprogrammed) simulation each.  This module runs the uncached cells
of a sweep (or of the whole experiment suite) across a supervised fleet
of worker processes and merges the results into the sweep's shared
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

* a *cell timeout* (``--cell-timeout`` / ``REPRO_CELL_TIMEOUT``)
  bounds any one attempt's wall clock — a hung worker is SIGKILLed and
  the cell is retried in a fresh process;
* every worker beats a *heartbeat file* from a daemon thread, so the
  parent can tell a frozen process (stale heartbeat — killed promptly)
  from one that is merely slow (fresh heartbeat — left alone until the
  cell timeout, if any, expires);
* failures retry with bounded exponential backoff, up to
  ``--max-retries`` / ``REPRO_MAX_RETRIES`` extra attempts per cell.

**Poison-cell quarantine.**  A cell that exhausts its retries is
*quarantined*: recorded (with every attempt's failure kind and the
worker's traceback, if it raised) in a ``<cache>.quarantine`` JSONL
journal and skipped, so one pathological cell cannot sink a 1000-cell
sweep.  The sweep finishes every other cell and reports the quarantine
in its :class:`ParallelReport`; the CLI exits with the distinct code
:data:`QUARANTINE_EXIT`.  A later run re-attempts quarantined cells —
the journal is a log for inspection (``repro quarantine``), not a
blocklist.

**Persistence.**  Workers deliver results by appending finished runs
to a private per-PID *shard* journal (``<base>.shard.<pid>``) in the
CRC-checked, flock-guarded record format (a throwaway temporary
directory hosts the shards when the cache is in-memory).  The parent
merges shards as workers finish — adopt-then-delete, atomic per shard
— and rescues shards orphaned by a parent killed before its merge, so
a sweep killed mid-flight never loses completed cells; re-running it
re-runs only cells absent from the merged journal.  A shard whose
content cannot be read is renamed ``<shard>.corrupt`` and skipped, so
corruption costs a re-simulation, never a crash.

**Crash containment.**  A worker that dies without writing a failure
record (OOM kill, segfault in a native extension, ``os._exit``) is
retried in fresh workers; if every attempt dies the same way, the cell
is re-run serially in the parent — degraded, never dropped.  (Cells
that *raise* or *time out* on every attempt are quarantined instead:
re-raising a deterministic exception, or hanging, in the parent would
sink the sweep the supervision exists to protect.)

**Graceful degradation.**  When worker processes cannot be spawned at
all (sandboxed environments without fork/exec), the executor falls
back to the serial path and says so in the report, instead of
crashing.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import tempfile
import threading
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.stats import SimulationStats
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
    SWEEP_SHARD_CORRUPT,
    SWEEP_TIMEOUT,
    SWEEP_WORKER_DEATH,
    MetricsRegistry,
)

#: Environment knob for the default worker count (``--jobs`` overrides).
JOBS_ENV = "REPRO_JOBS"

#: Environment knob for the per-cell wall-clock timeout in seconds
#: (``--cell-timeout`` overrides; 0 disables).
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: Environment knob for the per-cell retry budget (``--max-retries``
#: overrides): extra attempts after the first before quarantine.
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"

#: Test hook: a worker whose cell label equals this variable's value
#: exits hard (as a segfault or OOM kill would) on *every* attempt,
#: exercising the crash-retry-and-parent-rescue path without a real
#: crash.
CRASH_ENV = "REPRO_PARALLEL_CRASH"

# Chaos hooks (see repro.harness.chaos).  Each names a cell label; the
# worker injects the fault at the start of that cell.  With
# CHAOS_MARK_DIR_ENV set, kill/hang/freeze fire only on the cell's
# first attempt (a marker file arms them once), so the retry converges.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL"
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG"
CHAOS_FREEZE_ENV = "REPRO_CHAOS_FREEZE"
CHAOS_POISON_ENV = "REPRO_CHAOS_POISON"
CHAOS_MARK_DIR_ENV = "REPRO_CHAOS_MARK_DIR"

#: CLI exit code for a sweep that completed but quarantined cells.
QUARANTINE_EXIT = 6

#: Suffix given to shard files whose content could not be read.
CORRUPT_SUFFIX = ".corrupt"

#: Worker exit code for "the cell raised; a failure record was written".
_EXIT_CELL_FAILED = 21


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a single (workload, design) simulation.

    ``num_cores`` != 0 scales the cell to an N-core machine (the scale
    experiment's 8/16/64-core mesh grid); 0 is the paper's 4-core
    configuration and leaves keys and labels exactly as before.
    """

    workload: str
    design: str
    multiprogrammed: bool = False
    num_cores: int = 0

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


def resolve_jobs(jobs: "Optional[int]" = None) -> int:
    """Worker count: explicit argument, ``REPRO_JOBS``, or 1 (serial)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_cell_timeout(cell_timeout: "Optional[float]" = None) -> float:
    """Per-cell timeout: explicit argument, env var, or 0 (disabled)."""
    if cell_timeout is None:
        raw = os.environ.get(CELL_TIMEOUT_ENV, "").strip()
        if not raw:
            return 0.0
        try:
            cell_timeout = float(raw)
        except ValueError:
            raise ValueError(
                f"{CELL_TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
            ) from None
    if cell_timeout < 0:
        raise ValueError(f"cell timeout must be >= 0, got {cell_timeout}")
    return float(cell_timeout)


def resolve_max_retries(max_retries: "Optional[int]" = None) -> int:
    """Retry budget: explicit argument, env var, or 2 extra attempts."""
    if max_retries is None:
        raw = os.environ.get(MAX_RETRIES_ENV, "").strip()
        if not raw:
            return 2
        try:
            max_retries = int(raw)
        except ValueError:
            raise ValueError(
                f"{MAX_RETRIES_ENV} must be an integer, got {raw!r}"
            ) from None
    if max_retries < 0:
        raise ValueError(f"max retries must be >= 0, got {max_retries}")
    return max_retries


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
    #: Seconds between worker heartbeat-file touches.
    heartbeat_interval: float = 0.5
    #: Heartbeat staleness, seconds, after which a worker counts as
    #: frozen (not merely slow) and is SIGKILLed without waiting for
    #: the cell timeout.
    heartbeat_grace: float = 15.0
    #: Parent poll cadence, seconds.
    poll_interval: float = 0.02

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))


@dataclass
class Failure:
    """One failed attempt at a cell."""

    #: ``crash`` (process died, no failure record), ``timeout`` (cell
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
            "num_cores": getattr(self.cell, "num_cores", 0),
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

    Raised by :func:`~repro.experiments.runner.sweep` (and the suite
    prewarm) *after* every healthy cell has run and been journaled, so
    a rerun resumes from the journal and re-attempts only the
    quarantined cells.  The CLI maps this to exit code
    :data:`QUARANTINE_EXIT`.
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
    #: ``sweep.timeout``, ``sweep.worker_death``, ``sweep.shard_corrupt``,
    #: ``sweep.fallback_serial``).
    counters: "Dict[str, int]" = field(default_factory=dict)

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


def _touch(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(str(time.time()))


def _start_heartbeat(path: str, interval: float) -> None:
    """Beat ``path`` from a daemon thread until the process exits."""
    _touch(path)

    def beat() -> None:
        while True:
            time.sleep(interval)
            try:
                _touch(path)
            except OSError:  # parent cleaned up already; stop quietly
                return

    threading.Thread(target=beat, daemon=True).start()


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
    if os.environ.get(CRASH_ENV) == label:
        os._exit(17)
    if os.environ.get(CHAOS_KILL_ENV) == label and _chaos_once("kill", label):
        os.kill(os.getpid(), signal.SIGKILL)
    if os.environ.get(CHAOS_FREEZE_ENV) == label and _chaos_once("freeze", label):
        os.kill(os.getpid(), signal.SIGSTOP)
    if os.environ.get(CHAOS_HANG_ENV) == label and _chaos_once("hang", label):
        time.sleep(3600)  # the parent's cell timeout SIGKILLs us
    if os.environ.get(CHAOS_POISON_ENV) == label:
        raise RuntimeError(f"chaos poison injected for cell {label}")


def _simulate_cell(
    cell: Cell,
    config: ExperimentConfig,
    bus_model: str,
    shard_base: "Optional[str]",
) -> "Tuple[Cell, SimulationStats]":
    """Run one cell from scratch; optionally journal it to a shard.

    Module-level (picklable) and self-contained: the parent resolves
    the bus model before submitting, so a worker's result cannot depend
    on environment differences between fork and spawn start methods.
    """
    design = build_design(
        cell.design, bus_model=bus_model,
        num_cores=cell.num_cores or None,
    )
    if cell.multiprogrammed:
        _, stats = run_mix(design, cell.workload, config)
    else:
        _, stats = run_multithreaded(
            design, cell.workload, config,
            num_cores=cell.num_cores or None,
        )
    if shard_base is not None:
        StatsCache.append_record(
            f"{shard_base}.shard.{os.getpid()}", cell.key(config), stats
        )
    return cell, stats


def _worker_main(
    cell: Cell,
    config: ExperimentConfig,
    bus_model: str,
    shard_base: str,
    heartbeat_file: str,
    heartbeat_interval: float,
    failure_file: str,
) -> None:
    """Worker process entry point: one cell, heartbeat, failure record.

    Results travel through the shard journal (the one channel that also
    survives a killed parent); failures are written to ``failure_file``
    atomically (tmp + rename) so the parent never reads a half-written
    traceback, and signalled with a distinct exit code.
    """
    _start_heartbeat(heartbeat_file, heartbeat_interval)
    try:
        _inject_chaos(cell)
        _simulate_cell(cell, config, bus_model, shard_base)
    except BaseException as error:  # noqa: BLE001 - transported to parent
        payload = {
            "label": cell.label,
            "error": f"{type(error).__name__}: {error}",
            "traceback": traceback_module.format_exc(),
        }
        tmp = f"{failure_file}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, failure_file)
        except OSError:
            pass
        os._exit(_EXIT_CELL_FAILED)
    os._exit(0)


# -- shard merging ----------------------------------------------------


def _flock(handle, exclusive: bool = True) -> None:
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        return
    fcntl.flock(handle.fileno(),
                fcntl.LOCK_EX if exclusive else fcntl.LOCK_UN)


def _funlock(handle) -> None:
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _same_inode(path: str, handle) -> bool:
    """Whether ``path`` still names the file ``handle`` has open."""
    try:
        on_disk = os.stat(path)
    except OSError:
        return False
    open_file = os.fstat(handle.fileno())
    return (on_disk.st_ino, on_disk.st_dev) == (
        open_file.st_ino, open_file.st_dev,
    )


def merge_shards(
    cache: StatsCache,
    base: "Optional[str]" = None,
    tracer=None,
    registry: "Optional[MetricsRegistry]" = None,
) -> int:
    """Fold worker shard journals under ``base`` into ``cache``.

    Returns the number of records adopted.  Also rescues shards left
    behind by a parent killed before its merge.  Adoption is atomic per
    shard — a shard is deleted only after *every* salvageable record in
    it has landed in the cache (and its journal, when persistent) — and
    concurrency-safe: the per-shard flock plus an inode check keep two
    parents merging the same directory from double-adopting or losing
    records.  A shard whose content cannot be read at all is renamed
    ``<shard>.corrupt`` and skipped instead of crashing the sweep.
    """
    base = base if base is not None else cache.path
    if base is None:
        return 0
    adopted = 0
    for shard in sorted(glob.glob(f"{base}.shard.*")):
        if shard.endswith(CORRUPT_SUFFIX) or shard.endswith(".tmp"):
            continue
        adopted += _merge_one_shard(cache, shard, tracer, registry)
    return adopted


def _merge_one_shard(
    cache: StatsCache, shard: str, tracer, registry,
) -> int:
    try:
        handle = open(shard, "rb")
    except OSError:
        return 0  # a concurrent parent already adopted and removed it
    with handle:
        _flock(handle)
        try:
            if not _same_inode(shard, handle):
                # Unlinked while we waited for the lock: the parent
                # holding it adopted these records; ours would be
                # double-adoption.
                return 0
            try:
                records, _ = StatsCache._load_handle(handle)
                readable = True
            except Exception:  # noqa: BLE001 - quarantined below
                records, readable = {}, False
            if not records and (
                not readable or os.fstat(handle.fileno()).st_size > 0
            ):
                # Nothing salvageable from a non-empty shard: keep the
                # evidence, skip the shard, let the cells re-simulate.
                corrupt = f"{shard}{CORRUPT_SUFFIX}"
                os.replace(shard, corrupt)
                if registry is not None:
                    registry.counter(SWEEP_SHARD_CORRUPT).inc()
                if tracer is not None and tracer.enabled:
                    from repro.obs import events as ev

                    tracer.emit(ev.SHARD_CORRUPT, shard=shard,
                                quarantined_to=corrupt)
                return 0
            count = 0
            for key, stats in records.items():
                if cache.insert(key, stats):
                    count += 1
            # Adopt-then-delete: every record above reached the cache
            # (and its journal) before the shard goes away.
            os.remove(shard)
            return count
        finally:
            _funlock(handle)


# -- the supervisor ---------------------------------------------------


@dataclass
class _Attempt:
    """One in-flight worker process."""

    cell: Cell
    attempt: int  # 0-based
    process: object
    started: float
    heartbeat_file: str
    failure_file: str


class _PoolUnavailable(Exception):
    """Worker processes cannot be created in this environment."""


class _Supervisor:
    """Runs cells in supervised worker processes, one cell per worker.

    The parent polls worker exit codes, per-cell deadlines, and
    heartbeat files; a worker that crashes, hangs past the cell
    timeout, or freezes (stale heartbeat) is SIGKILLed and its cell
    retried with bounded exponential backoff in a fresh process.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        cache: StatsCache,
        bus_model: str,
        shard_base: str,
        jobs: int,
        supervision: SupervisorConfig,
        tracer=None,
        registry: "Optional[MetricsRegistry]" = None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.bus_model = bus_model
        self.shard_base = shard_base
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
        self._seq = 0

    # -- event/counter plumbing ---------------------------------------

    def _emit(self, kind: str, **data) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(kind, **data)

    def _count(self, name: str) -> None:
        self.registry.counter(name).inc()

    # -- lifecycle ----------------------------------------------------

    def run(self, cells: "Sequence[Cell]") -> None:
        for cell in cells:
            self.pending.append((cell, 0, 0.0))
        try:
            while self.pending or self.running:
                if self.pool_broken is None:
                    self._launch_ready()
                elif not self.running:
                    break  # remaining cells fall back to the caller
                self._poll_running()
                if self.running or self.pending:
                    time.sleep(self.supervision.poll_interval)
        finally:
            for attempt in self.running:
                self._kill(attempt.process)
            self._cleanup_files()

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

        self._seq += 1
        token = f"{os.getpid()}.{self._seq}"
        heartbeat_file = f"{self.shard_base}.hb.{token}"
        failure_file = f"{self.shard_base}.fail.{token}"
        process = multiprocessing.Process(
            target=_worker_main,
            args=(
                cell,
                self.config,
                self.bus_model,
                self.shard_base,
                heartbeat_file,
                self.supervision.heartbeat_interval,
                failure_file,
            ),
            daemon=True,
        )
        try:
            process.start()
        except (OSError, ValueError, ImportError) as error:
            raise _PoolUnavailable(
                f"cannot start worker processes ({error})"
            ) from error
        self.running.append(
            _Attempt(cell, attempt, process, time.monotonic(),
                     heartbeat_file, failure_file)
        )

    # -- polling ------------------------------------------------------

    def _poll_running(self) -> None:
        now = time.monotonic()
        timeout = self.supervision.cell_timeout
        still_running: "List[_Attempt]" = []
        for attempt in self.running:
            exitcode = attempt.process.exitcode
            if exitcode is not None:
                self._reap(attempt, exitcode)
                continue
            if timeout and now - attempt.started > timeout:
                self._kill(attempt.process)
                self._count(SWEEP_TIMEOUT)
                self._record_failure(
                    attempt,
                    Failure(
                        "timeout",
                        f"exceeded the {timeout:g}s cell timeout "
                        f"(attempt {attempt.attempt + 1}); worker SIGKILLed",
                    ),
                )
                continue
            if self._heartbeat_stale(attempt, now):
                self._kill(attempt.process)
                self._record_failure(
                    attempt,
                    Failure(
                        "frozen",
                        f"heartbeat stale for more than "
                        f"{self.supervision.heartbeat_grace:g}s "
                        f"(attempt {attempt.attempt + 1}); worker SIGKILLed",
                    ),
                )
                continue
            still_running.append(attempt)
        self.running = still_running

    def _heartbeat_stale(self, attempt: _Attempt, now: float) -> bool:
        grace = self.supervision.heartbeat_grace
        if not grace:
            return False
        try:
            beat_age = time.time() - os.path.getmtime(attempt.heartbeat_file)
        except OSError:
            # No heartbeat yet: judge from the process start instead.
            return now - attempt.started > grace
        return beat_age > grace

    @staticmethod
    def _kill(process) -> None:
        try:
            process.kill()
        except (OSError, AttributeError, ValueError):
            pass
        try:
            process.join(timeout=5)
        except (OSError, ValueError, AssertionError):
            pass

    def _reap(self, attempt: _Attempt, exitcode: int) -> None:
        attempt.process.join()
        # Adopt whatever the worker journaled, success or not: a worker
        # killed *after* appending its record still delivered it.
        merge_shards(self.cache, self.shard_base, self.tracer, self.registry)
        if attempt.cell.key(self.config) in self.cache:
            self.completed.append(attempt.cell)
            self._remove(attempt.failure_file)
            self._remove(attempt.heartbeat_file)
            return
        if os.path.exists(attempt.failure_file):
            try:
                with open(attempt.failure_file, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                payload = {}
            self._remove(attempt.failure_file)
            failure = Failure(
                "exception",
                payload.get("error", f"worker exited {exitcode}"),
                payload.get("traceback"),
            )
        else:
            failure = Failure(
                "crash",
                f"worker died with exit code {exitcode} and no result "
                f"(attempt {attempt.attempt + 1})",
            )
            self._count(SWEEP_WORKER_DEATH)
            self._emit(
                "worker-death",
                cell=attempt.cell.label,
                exitcode=exitcode,
                attempt=attempt.attempt + 1,
            )
        self._remove(attempt.heartbeat_file)
        self._record_failure(attempt, failure, reaped=True)

    def _record_failure(self, attempt: _Attempt, failure: Failure,
                        reaped: bool = False) -> None:
        if not reaped:
            self._remove(attempt.failure_file)
            self._remove(attempt.heartbeat_file)
            self._count(SWEEP_WORKER_DEATH)
            self._emit(
                "worker-death",
                cell=attempt.cell.label,
                reason=failure.kind,
                attempt=attempt.attempt + 1,
            )
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

    # -- cleanup ------------------------------------------------------

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _cleanup_files(self) -> None:
        for pattern in (f"{self.shard_base}.hb.*", f"{self.shard_base}.fail.*"):
            for path in glob.glob(pattern):
                self._remove(path)


# -- public entry point -----------------------------------------------


def _dedup(cells: "Iterable[Cell]") -> "List[Cell]":
    seen = set()
    out = []
    for cell in cells:
        if cell not in seen:
            seen.add(cell)
            out.append(cell)
    return out


def _run_serially(cell: Cell, config: ExperimentConfig,
                  cache: StatsCache, bus_model: str) -> None:
    cache.get(
        cell.workload,
        cell.design,
        lambda: build_design(cell.design, bus_model=bus_model,
                             num_cores=cell.num_cores or None),
        config,
        cell.multiprogrammed,
        num_cores=cell.num_cores,
    )


def run_cells(
    cells: "Sequence[Cell]",
    config: ExperimentConfig,
    cache: StatsCache,
    jobs: "Optional[int]" = None,
    bus_model: "Optional[str]" = None,
    cell_timeout: "Optional[float]" = None,
    max_retries: "Optional[int]" = None,
    supervision: "Optional[SupervisorConfig]" = None,
    tracer=None,
) -> ParallelReport:
    """Ensure every cell's stats are in ``cache``, using ``jobs`` workers.

    The cache is the rendezvous: callers (``sweep``, the figure
    modules) read their results back out of it afterwards, exactly as
    they do on the serial path.  Cells that fail every supervised
    attempt are quarantined and reported, not raised — check
    ``report.quarantined`` (or use :func:`~repro.experiments.runner.
    sweep`, which raises :class:`QuarantinedCellError` for you).
    """
    jobs = resolve_jobs(jobs)
    bus_model = resolve_bus_model(bus_model)
    if supervision is None:
        supervision = SupervisorConfig(
            cell_timeout=resolve_cell_timeout(cell_timeout),
            max_retries=resolve_max_retries(max_retries),
        )
    registry = MetricsRegistry()
    merge_shards(cache, tracer=tracer, registry=registry)  # adopt orphans
    report = ParallelReport(jobs=jobs)
    pending: "List[Cell]" = []
    for cell in _dedup(cells):
        if cell.key(config) in cache:
            report.cached.append(cell)
        else:
            pending.append(cell)
    if not pending:
        report.counters = _snapshot_counters(registry)
        return report
    if jobs == 1:
        for cell in pending:
            _run_serially(cell, config, cache, bus_model)
            report.ran.append(cell)
        report.counters = _snapshot_counters(registry)
        return report

    # Shards are the result channel even for in-memory caches: a
    # temporary directory hosts them so the merge path is identical.
    scratch = None
    if cache.path is not None:
        shard_base = cache.path
    else:
        scratch = tempfile.TemporaryDirectory(prefix="repro-sweep-")
        shard_base = os.path.join(scratch.name, "results")
    try:
        supervisor = _Supervisor(
            config, cache, bus_model, shard_base, jobs, supervision,
            tracer=tracer, registry=registry,
        )
        supervisor.run(pending)
        if supervisor.pool_broken is not None:
            report.fallback_reason = supervisor.pool_broken
            for cell in supervisor.unfinished():
                _run_serially(cell, config, cache, bus_model)
                report.ran.append(cell)
        for cell in supervisor.needs_parent_rescue:
            try:
                _run_serially(cell, config, cache, bus_model)
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
        merge_shards(cache, shard_base, tracer, registry)
    finally:
        if scratch is not None:
            scratch.cleanup()
    report.counters = _snapshot_counters(registry)
    return report


def _snapshot_counters(registry: MetricsRegistry) -> "Dict[str, int]":
    return {name: value for name, value in registry.snapshot().items()
            if isinstance(value, int)}


# -- suite cell registry ---------------------------------------------
#
# The figure modules declare their grids as WORKLOADS x DESIGNS
# constants; this registry enumerates them so one pool can prewarm the
# union of an entire suite before any report renders.


def experiment_cells(name: str) -> "List[Cell]":
    """The sweep cells experiment ``name`` will request, in order."""
    from repro.experiments import (
        fig5_access_distribution,
        fig6_opportunity,
        fig7_reuse,
        fig8_tag_distribution,
        fig9_data_distribution,
        fig10_performance,
        fig11_mp_distribution,
        fig12_mp_performance,
    )

    grids: "Dict[str, tuple]" = {
        "fig5": (fig5_access_distribution, False),
        "fig6": (fig6_opportunity, False),
        "fig7": (fig7_reuse, False),
        "fig8": (fig8_tag_distribution, False),
        "fig9": (fig9_data_distribution, False),
        "fig10": (fig10_performance, False),
        "fig11": (fig11_mp_distribution, True),
        "fig12": (fig12_mp_performance, True),
    }
    if name not in grids:
        return []
    module, multiprogrammed = grids[name]
    return [
        Cell(workload, design, multiprogrammed)
        for workload in module.WORKLOADS
        for design in module.DESIGNS
    ]


def suite_cells() -> "List[Cell]":
    """Union of every suite experiment's cells, first-use order."""
    cells: "List[Cell]" = []
    for name in ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                 "fig11", "fig12"):
        cells.extend(experiment_cells(name))
    return _dedup(cells)
