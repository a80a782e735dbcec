"""Shared experiment machinery: design registry, warm-up, and runs.

Every figure/table module runs the same loop: build a workload, warm the
hierarchy (the paper warms each benchmark before its measurement run,
Section 4.3), reset statistics, measure, and report.  The design
registry maps the paper's design names to factories so experiments can
enumerate exactly the bars each figure shows.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.caches.design import L2Design
from repro.caches.ideal import IdealCache
from repro.caches.private import PrivateCaches
from repro.caches.shared import SharedCache
from repro.caches.snuca import SnucaCache
from repro.common.rng import DEFAULT_SEED
from repro.common.stats import SimulationStats
from repro.core.nurapid import NurapidCache
from repro.cpu.system import CmpSystem, TimedAccess
from repro.workloads.multiprogrammed import MultiprogrammedWorkload, make_mix
from repro.workloads.multithreaded import make_workload


@dataclass(frozen=True)
class ExperimentConfig:
    """Run lengths and seed for one experiment invocation.

    The defaults are sized for meaningful statistics (hundreds of
    thousands of L2 accesses); ``quick()`` returns a config small
    enough for benchmarks and CI.
    """

    warmup_per_core: int = 400_000
    measure_per_core: int = 400_000
    seed: int = DEFAULT_SEED

    @staticmethod
    def quick() -> "ExperimentConfig":
        return ExperimentConfig(warmup_per_core=60_000, measure_per_core=60_000)


#: Paper design names -> factories, in the paper's presentation order.
#: The ``-cr`` and ``-isc`` variants isolate one optimization each, as
#: Figures 8 and 9 do.
DESIGN_FACTORIES: "Dict[str, Callable[[], L2Design]]" = {
    "uniform-shared": SharedCache,
    "non-uniform-shared": SnucaCache,
    "private": PrivateCaches,
    "ideal": IdealCache,
    "cmp-nurapid": NurapidCache,
    "cmp-nurapid-cr": lambda: NurapidCache(enable_cr=True, enable_isc=False),
    "cmp-nurapid-isc": lambda: NurapidCache(enable_cr=False, enable_isc=True),
    "cmp-nurapid-cs": lambda: NurapidCache(enable_cr=False, enable_isc=False),
}

#: Which CR/ISC flags each CMP-NuRAPID registry variant isolates.
_NURAPID_VARIANTS = {
    "cmp-nurapid": (True, True),
    "cmp-nurapid-cr": (True, False),
    "cmp-nurapid-isc": (False, True),
    "cmp-nurapid-cs": (False, False),
}


#: Recognized interconnect backends (``--bus-model`` / REPRO_BUS_MODEL).
BUS_MODELS = ("atomic", "eventq", "mesh")


def resolve_bus_model(bus_model: "Optional[str]" = None) -> str:
    """Pick the interconnect backend: explicit arg, env, or atomic."""
    if bus_model is None:
        bus_model = os.environ.get("REPRO_BUS_MODEL") or "atomic"
    if bus_model not in BUS_MODELS:
        raise ValueError(
            f"unknown bus model {bus_model!r}; choose from {BUS_MODELS}"
        )
    return bus_model


def _build_scaled(name: str, num_cores: int, bus_model: str) -> L2Design:
    """Instantiate ``name`` for an ``num_cores``-tile machine.

    The registry factories bake in the paper's 4-core configuration;
    scaling rebuilds the parameterized designs with one core, one L2
    bank/d-group, and (under the mesh) one directory bank per tile.
    Per-core capacity is held constant, so the machine grows the way
    the private baseline does.  CMP-SNUCA's bank latency model is
    4-core-specific and refuses to scale rather than extrapolate.
    """
    if name == "private":
        return PrivateCaches(num_cores=num_cores)
    if name in _NURAPID_VARIANTS:
        from repro.common.params import NurapidParams
        from repro.latency.tables import (
            mesh_dgroup_latencies,
            mesh_dgroup_preferences,
        )

        enable_cr, enable_isc = _NURAPID_VARIANTS[name]
        if bus_model == "mesh":
            params = NurapidParams(
                num_cores=num_cores,
                num_dgroups=num_cores,
                dgroup_latencies=mesh_dgroup_latencies(num_cores),
            )
            preferences = mesh_dgroup_preferences(num_cores)
        else:
            params = NurapidParams(num_cores=num_cores, num_dgroups=num_cores)
            preferences = None
        return NurapidCache(
            params=params, enable_cr=enable_cr, enable_isc=enable_isc,
            preferences=preferences,
        )
    if name in ("uniform-shared", "ideal"):
        # Core count lives in the system, not these designs.
        return DESIGN_FACTORIES[name]()
    raise ValueError(
        f"design {name!r} does not support num_cores={num_cores}; "
        "scalable designs: private, uniform-shared, ideal, and the "
        "cmp-nurapid family"
    )


def build_design(
    name: str,
    bus_model: "Optional[str]" = None,
    num_cores: "Optional[int]" = None,
    **kwargs,
) -> L2Design:
    """Instantiate a design by its paper name.

    ``bus_model`` selects the interconnect backend: ``"atomic"`` (the
    default), ``"eventq"`` (the same inline transactions with an event
    queue attached for the race faults' deferred deliveries —
    bit-identical to atomic), or ``"mesh"`` (2D mesh NoC + directory
    coherence, bit-identical to the bus at 4 cores and zero occupancy —
    the backend that scales).  None defers to the ``REPRO_BUS_MODEL``
    environment variable, so CI can run whole suites under an alternate
    backend unchanged.

    ``num_cores`` scales the parameterized designs to an N-tile machine
    (4/8/16/64 for square-ish meshes); None keeps the paper's 4-core
    configuration.  Pair with ``SystemParams(num_cores=N)`` when
    building the system.
    """
    resolved = resolve_bus_model(bus_model)
    if name not in DESIGN_FACTORIES:
        raise KeyError(
            f"unknown design {name!r}; choose from {sorted(DESIGN_FACTORIES)}"
        )
    from repro.common.params import DEFAULT_NUM_CORES

    if num_cores is not None and num_cores != DEFAULT_NUM_CORES:
        design = _build_scaled(name, num_cores, resolved)
    else:
        design = DESIGN_FACTORIES[name](**kwargs)
    if resolved == "eventq":
        from repro.interconnect.eventq import attach_eventq

        attach_eventq(design)
    elif resolved == "mesh":
        from repro.interconnect.mesh import attach_mesh

        attach_mesh(design)
    return design


def run_design_on_events(
    design: L2Design,
    events: "Iterable[TimedAccess]",
    warmup_events: int,
) -> "tuple[CmpSystem, SimulationStats]":
    """Warm up, reset statistics, measure; return (system, stats).

    For a stream of :class:`TimedAccess` objects (trace replay,
    hand-built streams); workload runs pass chunks to
    :meth:`CmpSystem.run_chunks`.
    """
    system = CmpSystem(design)
    iterator = iter(events)
    if warmup_events:
        system.run(itertools.islice(iterator, warmup_events))
        system.reset_stats()
    system.run(iterator)
    return system, system.stats()


def _warm_and_measure(
    design: L2Design, workload, config: ExperimentConfig
) -> "tuple[CmpSystem, SimulationStats]":
    """Warm up, reset statistics and measure ``design`` on ``workload``."""
    system = CmpSystem(design)
    total = config.warmup_per_core + config.measure_per_core
    system.run_chunks(
        workload.chunks(accesses_per_core=total),
        config.warmup_per_core * workload.num_cores,
    )
    return system, system.stats()


def run_multithreaded(
    design: L2Design,
    workload_name: str,
    config: "ExperimentConfig | None" = None,
    num_cores: "Optional[int]" = None,
) -> "tuple[CmpSystem, SimulationStats]":
    """Run one design on one Table 3 workload.

    ``num_cores`` scales the workload to an N-core machine (the design
    must have been built with the matching ``build_design(...,
    num_cores=N)``); None keeps the paper's 4 cores.
    """
    config = config or ExperimentConfig()
    if num_cores is not None:
        workload = make_workload(workload_name, num_cores=num_cores,
                                 seed=config.seed)
    else:
        workload = make_workload(workload_name, seed=config.seed)
    return _warm_and_measure(design, workload, config)


def run_mix(
    design: L2Design,
    mix_name: str,
    config: "ExperimentConfig | None" = None,
) -> "tuple[CmpSystem, SimulationStats]":
    """Run one design on one Table 2 multiprogrammed mix."""
    config = config or ExperimentConfig()
    workload: MultiprogrammedWorkload = make_mix(mix_name, seed=config.seed)
    return _warm_and_measure(design, workload, config)


@dataclass
class SweepResult:
    """Results of a (workloads x designs) sweep."""

    #: ``stats[workload][design]`` -> SimulationStats.
    stats: "Dict[str, Dict[str, SimulationStats]]" = field(default_factory=dict)

    def relative_performance(
        self, baseline: str = "uniform-shared", metric: str = "throughput"
    ) -> "Dict[str, Dict[str, float]]":
        """Each design's performance normalized to ``baseline``.

        ``metric`` selects the paper's measure: ``"throughput"``
        (transactions/second proxy — instructions over the slowest
        core's cycles) for multithreaded runs, ``"aggregate_ipc"``
        (sum of per-core IPCs) for multiprogrammed runs (Section 5.2.2).
        """
        out: "Dict[str, Dict[str, float]]" = {}
        for workload, by_design in self.stats.items():
            base = getattr(by_design[baseline], metric)
            out[workload] = {
                design: getattr(stats, metric) / base if base else 0.0
                for design, stats in by_design.items()
            }
        return out

    def average_relative(
        self,
        workloads: "Sequence[str]",
        baseline: str = "uniform-shared",
        metric: str = "throughput",
    ) -> "Dict[str, float]":
        """Arithmetic mean of relative performance over ``workloads``."""
        rel = self.relative_performance(baseline, metric)
        designs = next(iter(rel.values())).keys()
        return {
            design: sum(rel[w][design] for w in workloads) / len(workloads)
            for design in designs
        }

    def merged(
        self, design: str, workloads: "Optional[Sequence[str]]" = None
    ) -> SimulationStats:
        """Pool one design's raw counters across ``workloads``.

        Uses :meth:`SimulationStats.merge`, so derived ratios (miss
        rate, d-group distribution, reuse fractions) come out
        access-weighted over the pooled runs — the right aggregate for
        "across all workloads" report lines, unlike a mean of per-run
        ratios which over-weights short runs.
        """
        names = list(workloads) if workloads is not None else list(self.stats)
        pooled = SimulationStats()
        for workload in names:
            pooled.merge(self.stats[workload][design])
        return pooled


def sweep(
    workload_names: "Sequence[str]",
    design_names: "Sequence[str]",
    config: "ExperimentConfig | None" = None,
    multiprogrammed: bool = False,
    cache: "Optional[StatsCache]" = None,
    jobs: "Optional[int]" = None,
    cell_timeout: "Optional[float]" = None,
    max_retries: "Optional[int]" = None,
) -> SweepResult:
    """Run every design on every workload; the core of each figure.

    ``jobs`` > 1 fans the uncached cells across a supervised worker
    pool first (bit-identical to the serial path — every cell's
    randomness is keyed on the config seed and the cell's own names,
    never on execution order).  None defers to the ``REPRO_JOBS``
    environment variable, so figure modules parallelize without
    signature changes; ``cell_timeout`` and ``max_retries`` likewise
    default to ``REPRO_CELL_TIMEOUT`` / ``REPRO_MAX_RETRIES``.

    Raises :class:`~repro.experiments.parallel.QuarantinedCellError`
    if any requested cell exhausted its retries — after every healthy
    cell has run and been journaled, so a rerun resumes instead of
    restarting.
    """
    config = config or ExperimentConfig()
    cache = cache if cache is not None else StatsCache()
    from repro.experiments import parallel

    if parallel.resolve_jobs(jobs) > 1:
        cells = [
            parallel.Cell(workload, design, multiprogrammed)
            for workload in workload_names
            for design in design_names
        ]
        report = parallel.run_cells(
            cells, config, cache, jobs=jobs,
            cell_timeout=cell_timeout, max_retries=max_retries,
        )
        if report.quarantined:
            journal = (
                parallel.quarantine_path(cache.path)
                if cache.path is not None else None
            )
            raise parallel.QuarantinedCellError(report.quarantined, journal)
    result = SweepResult()
    for workload in workload_names:
        result.stats[workload] = {}
        for design_name in design_names:
            result.stats[workload][design_name] = cache.get(
                workload,
                design_name,
                lambda name=design_name: build_design(name),
                config,
                multiprogrammed,
            )
    return result


class StatsCache:
    """Memoizes (workload, design-key) runs across experiment modules.

    Figures 5-10 share most of their underlying simulations; a suite run
    passes one cache to every experiment so each (workload, design)
    pair is simulated exactly once.

    With a ``path``, the cache also persists as an **append-only
    journal**: each completed run appends one pickled record, so
    persisting run *N* costs O(1) instead of rewriting the whole cache
    (the previous design re-pickled every accumulated result after
    every run — O(N²) over a long sweep).  Records are **CRC-framed**
    — ``("run2", crc32(blob), blob)`` where ``blob`` pickles ``(key,
    stats)`` — so silent corruption (a flipped bit that still
    unpickles) is detected and the damaged record dropped, instead of
    poisoning a merged sweep.  A sweep killed halfway resumes where it
    stopped: loading tolerates a truncated final record (the crash
    case), skips checksum-failed and unrecognized records, and keeps
    the last record for a duplicated key.  Loading **compacts** when it
    has something to fix — a truncated tail, or corrupt, unrecognized
    or duplicate records — by atomically rewriting the journal (tmp
    file + rename).  A missing file starts empty; an unreadable one is
    ignored (the sweep re-simulates).
    """

    def __init__(self, path: "Optional[str]" = None) -> None:
        self.path = path
        self._cache: "Dict[tuple, SimulationStats]" = {}
        if path is not None:
            self._cache, dirty = self._load(path)
            if dirty:
                self._compact()

    @staticmethod
    def _load(path: str) -> "tuple[Dict[tuple, SimulationStats], bool]":
        """Read a journal from ``path``.

        Returns ``(cache, dirty)`` where ``dirty`` means the on-disk
        form should be compacted (truncated tail, corrupt, unrecognized
        or duplicate records).
        """
        try:
            with open(path, "rb") as handle:
                return StatsCache._load_handle(handle)
        except OSError:
            return {}, False

    @staticmethod
    def _load_handle(handle) -> "tuple[Dict[tuple, SimulationStats], bool]":
        """Read journal records from an open binary handle (see _load)."""
        import pickle
        import zlib

        cache: "Dict[tuple, SimulationStats]" = {}
        dirty = False
        while True:
            try:
                payload = pickle.load(handle)
            except EOFError:
                break
            except (pickle.UnpicklingError, AttributeError,
                    ImportError, IndexError, ValueError):
                # Truncated mid-record (killed run), corrupt framing,
                # or stale classes: keep what was read, drop the tail.
                dirty = True
                break
            if (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == "run2"
            ):
                # CRC-framed record: the frame keeps the pickle stream
                # aligned, so a corrupt blob costs one record, not the
                # whole tail.
                _, crc, blob = payload
                if not isinstance(blob, bytes) or zlib.crc32(blob) != crc:
                    dirty = True  # bit-flipped record: drop it
                    continue
                try:
                    key, stats = pickle.loads(blob)
                except (pickle.UnpicklingError, AttributeError,
                        ImportError, IndexError, ValueError, EOFError):
                    dirty = True
                    continue
                if key in cache:
                    dirty = True  # duplicate: last record wins
                cache[key] = stats
            else:
                dirty = True  # unrecognized record: skip it
        return cache, dirty

    @staticmethod
    def _pack_record(key: tuple, stats: SimulationStats) -> bytes:
        """One CRC-framed journal record as bytes."""
        import pickle
        import zlib

        blob = pickle.dumps((key, stats), protocol=pickle.HIGHEST_PROTOCOL)
        return pickle.dumps(("run2", zlib.crc32(blob), blob),
                            protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def append_record(path: str, key: tuple, stats: SimulationStats) -> None:
        """Append one journal record to ``path`` under an advisory lock.

        ``flock`` keeps concurrent appenders (the parallel executor's
        workers, or two suites pointed at one cache file) from
        interleaving records mid-pickle; on platforms without ``fcntl``
        the O_APPEND write is the only guarantee, which per-PID shard
        files make sufficient.
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            fcntl = None
        record = StatsCache._pack_record(key, stats)
        with open(path, "ab") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                handle.write(record)
                handle.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _append(self, key: tuple, stats: SimulationStats) -> None:
        if self.path is None:
            return
        self.append_record(self.path, key, stats)

    def _compact(self) -> None:
        """Atomically rewrite the journal with exactly one record per key."""
        if self.path is None:
            return
        import os

        tmp = f"{self.path}.tmp"
        with open(tmp, "wb") as handle:
            for key, stats in self._cache.items():
                handle.write(self._pack_record(key, stats))
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: tuple) -> bool:
        return key in self._cache

    def peek(self, key: tuple) -> "Optional[SimulationStats]":
        """The cached stats for ``key``, or None — never simulates.

        Callers that run cells through their own machinery (the scale
        experiment's harnessed path) read with ``peek`` and record with
        :meth:`insert`, so ``get``'s plain-runner fallback never fires
        for them.
        """
        return self._cache.get(key)

    def insert(self, key: tuple, stats: SimulationStats) -> bool:
        """Record an externally computed run (the parallel merge path).

        Returns False (and keeps the existing record) if ``key`` is
        already cached.  Duplicate inserts can only carry identical
        stats — every path to a cell's result is deterministic — so
        which record wins is immaterial; skipping keeps the journal
        free of redundant appends.
        """
        if key in self._cache:
            return False
        self._cache[key] = stats
        self._append(key, stats)
        return True

    @staticmethod
    def scaled_key(
        workload: str,
        design_key: str,
        config: ExperimentConfig,
        multiprogrammed: bool = False,
        num_cores: int = 0,
    ) -> tuple:
        """The journal key for one run, core-count qualified.

        Scaled runs embed the core count in the workload slot
        (``"oltp@c16"``) so the key keeps the 4-tuple shape every
        journal record and shard merger already uses — 4-core keys are
        unchanged.
        """
        label = f"{workload}@c{num_cores}" if num_cores else workload
        return (label, design_key, config, multiprogrammed)

    def get(
        self,
        workload: str,
        design_key: str,
        factory: "Callable[[], L2Design]",
        config: ExperimentConfig,
        multiprogrammed: bool = False,
        num_cores: int = 0,
    ) -> SimulationStats:
        key = self.scaled_key(
            workload, design_key, config, multiprogrammed, num_cores
        )
        if key not in self._cache:
            if multiprogrammed:
                if num_cores:
                    raise ValueError(
                        "multiprogrammed mixes are 4-core by construction; "
                        "num_cores only scales multithreaded workloads"
                    )
                _, stats = run_mix(factory(), workload, config)
            else:
                _, stats = run_multithreaded(
                    factory(), workload, config,
                    num_cores=num_cores or None,
                )
            self._cache[key] = stats
            self._append(key, stats)
        return self._cache[key]
