"""Chaos harness: deterministic orchestration-level fault injection.

The supervised sweep executor (:mod:`repro.experiments.parallel`)
claims a sweep survives worker death, hangs, freezes, journal
corruption, and poisoned cells without losing or corrupting results.
This module *proves* it, scenario by scenario: each scenario injects
one orchestration fault into a small (workload, design) grid and
asserts the sweep still converges to statistics **bit-identical** (by
:meth:`SimulationStats.fingerprint`) to a fault-free serial run —
except the poison scenario, which instead asserts the bad cell lands
in the quarantine journal with its traceback while every healthy cell
stays bit-identical.

Fault classes (``repro chaos --list``):

* ``worker-kill``  — SIGKILL a worker mid-cell (first attempt only);
* ``worker-hang``  — a worker sleeps forever; the cell timeout must
  SIGKILL it and the parent must not hang past the budget;
* ``worker-freeze`` — a worker SIGSTOPs itself; the stale heartbeat
  must out it as frozen (not merely slow) and SIGKILL it;
* ``shard-truncate`` — the journal loses its tail mid-record (a
  mid-write kill); the valid prefix must be salvaged and only the
  missing cells re-run;
* ``shard-bitflip`` — one journal byte is flipped; the CRC frame must
  drop exactly the damaged record, never serve corrupt stats;
* ``poison-cell``  — a cell raises on every attempt; it must be
  quarantined with its traceback, not retried forever or crash the
  sweep.

Faults are injected through environment hooks the worker entry point
honors (``REPRO_CHAOS_KILL`` et al.), armed *once* per cell via marker
files so retries converge deterministically.  Pass a
:class:`~repro.obs.tracer.Tracer` to stream the supervision events
(``retry``, ``worker-death``, ``quarantine``) to JSONL for Perfetto
inspection (``repro chaos --trace``).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.stats import SimulationStats
from repro.experiments.parallel import (
    CHAOS_FREEZE_ENV,
    CHAOS_HANG_ENV,
    CHAOS_KILL_ENV,
    CHAOS_MARK_DIR_ENV,
    CHAOS_POISON_ENV,
    Cell,
    SupervisorConfig,
    load_quarantine,
    quarantine_path,
    run_cells,
)
from repro.experiments.runner import ExperimentConfig, StatsCache
from repro.obs.metrics import (
    SWEEP_QUARANTINE,
    SWEEP_TIMEOUT,
    SWEEP_WORKER_DEATH,
)

#: The grid every scenario sweeps: small, but covering two workloads
#: and two designs so a lost or corrupted cell is distinguishable.
CELLS: "Tuple[Cell, ...]" = (
    Cell("oltp", "private"),
    Cell("oltp", "uniform-shared"),
    Cell("ocean", "private"),
)

#: The cell each fault targets.
VICTIM: Cell = CELLS[0]

#: Sized so a scenario's sweep takes seconds, not minutes, while still
#: exercising every miss class.
DEFAULT_CONFIG = ExperimentConfig(warmup_per_core=600, measure_per_core=600)

#: Parent must never outlive a hang by more than this (seconds).
HANG_BUDGET = 60.0


@dataclass
class ScenarioResult:
    """One scenario's verdict."""

    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<16} ({self.elapsed:5.1f}s)  {self.detail}"


@dataclass
class ChaosReport:
    """Every scenario's verdict, in run order."""

    results: "List[ScenarioResult]" = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def render(self) -> str:
        lines = [result.render() for result in self.results]
        failed = sum(1 for result in self.results if not result.passed)
        lines.append(
            f"{len(self.results)} scenario(s), {failed} failed"
            if failed
            else f"{len(self.results)} scenario(s), all converged bit-identically"
        )
        return "\n".join(lines)


@dataclass
class ChaosSettings:
    """Knobs shared by every scenario in one chaos run."""

    config: ExperimentConfig = DEFAULT_CONFIG
    jobs: int = 2
    tracer: object = None


# -- plumbing ---------------------------------------------------------


@contextlib.contextmanager
def _env(pairs: "Dict[str, str]") -> "Iterator[None]":
    """Set environment hooks for one scenario; always restore."""
    saved = {name: os.environ.get(name) for name in pairs}
    os.environ.update(pairs)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _supervision(cell_timeout: float = 0.0,
                 heartbeat_grace: float = 30.0) -> SupervisorConfig:
    """Fast supervision knobs sized for chaos scenarios."""
    return SupervisorConfig(
        cell_timeout=cell_timeout,
        max_retries=2,
        backoff_base=0.01,
        backoff_cap=0.05,
        heartbeat_interval=0.1,
        heartbeat_grace=heartbeat_grace,
        poll_interval=0.01,
    )


_BASELINES: "Dict[ExperimentConfig, Dict[str, SimulationStats]]" = {}


def baseline_stats(config: ExperimentConfig) -> "Dict[str, SimulationStats]":
    """Fault-free serial stats per cell label (memoized per config)."""
    if config not in _BASELINES:
        cache = StatsCache()
        run_cells(list(CELLS), config, cache, jobs=1)
        _BASELINES[config] = {
            cell.label: cache._cache[cell.key(config)] for cell in CELLS
        }
    return _BASELINES[config]


def _faulted_sweep(
    settings: ChaosSettings,
    tmp: str,
    hooks: "Dict[str, str]",
    supervision: SupervisorConfig,
    cache: "Optional[StatsCache]" = None,
):
    """Run the grid with ``hooks`` armed; return (cache, report)."""
    if cache is None:
        cache = StatsCache(path=os.path.join(tmp, "stats.cache"))
    marks = os.path.join(tmp, "marks")
    os.makedirs(marks, exist_ok=True)
    pairs = dict(hooks)
    pairs[CHAOS_MARK_DIR_ENV] = marks
    with _env(pairs):
        report = run_cells(
            list(CELLS),
            settings.config,
            cache,
            jobs=settings.jobs,
            supervision=supervision,
            tracer=settings.tracer,
        )
    return cache, report


def _diverged(settings: ChaosSettings, cache: StatsCache,
              cells: "Sequence[Cell]" = CELLS) -> "List[str]":
    """Labels whose stats are missing or differ from the baseline."""
    baseline = baseline_stats(settings.config)
    problems = []
    for cell in cells:
        key = cell.key(settings.config)
        if key not in cache:
            problems.append(f"{cell.label}: missing")
        elif cache._cache[key].fingerprint() != baseline[cell.label].fingerprint():
            problems.append(f"{cell.label}: fingerprint diverged")
    return problems


def _verdict(name: str, started: float, problems: "List[str]",
             detail: str) -> ScenarioResult:
    elapsed = time.monotonic() - started
    if problems:
        return ScenarioResult(name, False, "; ".join(problems), elapsed)
    return ScenarioResult(name, True, detail, elapsed)


# -- scenarios --------------------------------------------------------


def scenario_worker_kill(settings: ChaosSettings) -> ScenarioResult:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="chaos-kill-") as tmp:
        cache, report = _faulted_sweep(
            settings, tmp, {CHAOS_KILL_ENV: VICTIM.label}, _supervision()
        )
        problems = _diverged(settings, cache)
        if not report.counters.get(SWEEP_WORKER_DEATH):
            problems.append("no worker-death was recorded")
        if report.quarantined:
            problems.append("cell was quarantined instead of retried")
    return _verdict(
        "worker-kill", started, problems,
        f"SIGKILLed worker retried; stats bit-identical "
        f"({report.counters.get(SWEEP_WORKER_DEATH, 0)} death(s))",
    )


def scenario_worker_hang(settings: ChaosSettings) -> ScenarioResult:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="chaos-hang-") as tmp:
        cache, report = _faulted_sweep(
            settings, tmp, {CHAOS_HANG_ENV: VICTIM.label},
            _supervision(cell_timeout=2.0),
        )
        elapsed = time.monotonic() - started
        problems = _diverged(settings, cache)
        if not report.counters.get(SWEEP_TIMEOUT):
            problems.append("no cell timeout was recorded")
        if elapsed > HANG_BUDGET:
            problems.append(
                f"parent hung {elapsed:.0f}s (budget {HANG_BUDGET:.0f}s)"
            )
        if report.quarantined:
            problems.append("cell was quarantined instead of retried")
    return _verdict(
        "worker-hang", started, problems,
        "hung worker SIGKILLed at the cell timeout; retry converged",
    )


def scenario_worker_freeze(settings: ChaosSettings) -> ScenarioResult:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="chaos-freeze-") as tmp:
        cache, report = _faulted_sweep(
            settings, tmp, {CHAOS_FREEZE_ENV: VICTIM.label},
            _supervision(heartbeat_grace=1.5),
        )
        problems = _diverged(settings, cache)
        if not report.counters.get(SWEEP_WORKER_DEATH):
            problems.append("stale heartbeat did not kill the frozen worker")
    return _verdict(
        "worker-freeze", started, problems,
        "frozen worker outed by its stale heartbeat; retry converged",
    )


def scenario_poison_cell(settings: ChaosSettings) -> ScenarioResult:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="chaos-poison-") as tmp:
        cache, report = _faulted_sweep(
            settings, tmp, {CHAOS_POISON_ENV: VICTIM.label}, _supervision()
        )
        healthy = [cell for cell in CELLS if cell != VICTIM]
        problems = _diverged(settings, cache, healthy)
        if VICTIM.key(settings.config) in cache:
            problems.append("poisoned cell produced stats anyway")
        labels = [record.cell.label for record in report.quarantined]
        if labels != [VICTIM.label]:
            problems.append(f"quarantined {labels}, wanted [{VICTIM.label!r}]")
        elif "RuntimeError" not in (report.quarantined[0].failures[-1].traceback or ""):
            problems.append("quarantine record lost the worker traceback")
        journal = load_quarantine(quarantine_path(cache.path))
        if len(journal) != 1 or journal[0].get("label") != VICTIM.label:
            problems.append("quarantine journal missing the poisoned cell")
        if not report.counters.get(SWEEP_QUARANTINE):
            problems.append("quarantine counter not incremented")
    return _verdict(
        "poison-cell", started, problems,
        "poisoned cell quarantined with traceback; healthy cells bit-identical",
    )


def _rerun_after_damage(settings: ChaosSettings, tmp: str,
                        damage: "Callable[[str], None]") -> "Tuple[StatsCache, object]":
    """Fault-free sweep, damage the journal, then resume on a fresh cache."""
    path = os.path.join(tmp, "stats.cache")
    first = StatsCache(path=path)
    run_cells(list(CELLS), settings.config, first, jobs=settings.jobs,
              supervision=_supervision(), tracer=settings.tracer)
    damage(path)
    resumed = StatsCache(path=path)  # salvages the valid prefix
    report = run_cells(list(CELLS), settings.config, resumed,
                       jobs=settings.jobs, supervision=_supervision(),
                       tracer=settings.tracer)
    return resumed, report


def scenario_shard_truncate(settings: ChaosSettings) -> ScenarioResult:
    started = time.monotonic()

    def truncate(path: str) -> None:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(size - 40, 1))

    with tempfile.TemporaryDirectory(prefix="chaos-trunc-") as tmp:
        cache, report = _rerun_after_damage(settings, tmp, truncate)
        problems = _diverged(settings, cache)
        if not report.ran:
            problems.append("truncation destroyed no record, so the "
                            "scenario proved nothing")
    return _verdict(
        "shard-truncate", started, problems,
        f"valid prefix salvaged; {len(report.ran)} lost cell(s) re-run",
    )


def scenario_shard_bitflip(settings: ChaosSettings) -> ScenarioResult:
    started = time.monotonic()

    def bitflip(path: str) -> None:
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            data[len(data) // 2] ^= 0xFF
            handle.seek(0)
            handle.write(data)

    with tempfile.TemporaryDirectory(prefix="chaos-flip-") as tmp:
        cache, report = _rerun_after_damage(settings, tmp, bitflip)
        problems = _diverged(settings, cache)
    return _verdict(
        "shard-bitflip", started, problems,
        f"CRC dropped the damaged record; {len(report.ran)} cell(s) "
        "re-run, stats bit-identical",
    )


#: Scenario registry: name -> (description, callable), in run order.
SCENARIOS: "Dict[str, Tuple[str, Callable[[ChaosSettings], ScenarioResult]]]" = {
    "worker-kill": ("SIGKILL a worker mid-cell", scenario_worker_kill),
    "worker-hang": ("worker sleeps forever; cell timeout must fire",
                    scenario_worker_hang),
    "worker-freeze": ("worker SIGSTOPs; stale heartbeat must out it",
                      scenario_worker_freeze),
    "shard-truncate": ("journal loses its tail mid-record",
                       scenario_shard_truncate),
    "shard-bitflip": ("one journal byte flipped; CRC must catch it",
                      scenario_shard_bitflip),
    "poison-cell": ("cell raises on every attempt; must quarantine",
                    scenario_poison_cell),
}


def run_chaos(
    names: "Optional[Sequence[str]]" = None,
    config: "Optional[ExperimentConfig]" = None,
    jobs: int = 2,
    tracer: object = None,
    out: "Optional[Callable[[str], None]]" = None,
) -> ChaosReport:
    """Run chaos scenarios (all, or just ``names``) and report verdicts."""
    settings = ChaosSettings(config=config or DEFAULT_CONFIG, jobs=jobs,
                             tracer=tracer)
    if names is None:
        names = list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown chaos scenario(s) {unknown}; choose from "
            f"{sorted(SCENARIOS)}"
        )
    report = ChaosReport()
    for name in names:
        _, scenario = SCENARIOS[name]
        result = scenario(settings)
        report.results.append(result)
        if out is not None:
            out(result.render())
    return report


__all__ = [
    "CELLS",
    "ChaosReport",
    "ChaosSettings",
    "DEFAULT_CONFIG",
    "SCENARIOS",
    "ScenarioResult",
    "VICTIM",
    "baseline_stats",
    "run_chaos",
]
