"""Metrics registry with interval sampling into a time-series.

Two metric primitives — :class:`Counter` and :class:`Histogram` —
live in a :class:`MetricsRegistry`.  A :class:`MetricsCollector` binds
the registry to a running :class:`~repro.cpu.system.CmpSystem`: the
system's hot loop calls :meth:`MetricsCollector.on_step` once per
event (one ``is not None`` check when collection is off),
per-L2-access observations update the access counters and the latency
histogram, and every ``sample_every`` events the collector snapshots
the registry plus sampled model state (per-d-group occupancy and
average hit latency, C-block count, bus transactions, per-core IPC)
into a :class:`MetricsSeries`.

Samples are **cumulative** (each snapshot is the state so far, like
Prometheus counters): the final sample reproduces the run's aggregate
:class:`~repro.common.stats.SimulationStats`, and per-interval rates
are first differences (:meth:`MetricsSeries.deltas`).  The series
exports as JSON or CSV for experiments and dashboards.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.types import AccessResult

#: Latency histogram bucket upper bounds (cycles); the last bucket is
#: unbounded.  Chosen around Table 1's latencies: tag (~4), d-group
#: (8-24), bus (32), memory (300+).
DEFAULT_LATENCY_BOUNDS = (8, 16, 32, 64, 128, 256, 512)

# Sweep-supervision counter names (the parallel executor's registry;
# surfaced in ParallelReport.counters and the chaos harness).
SWEEP_RETRY = "sweep.retry"
SWEEP_QUARANTINE = "sweep.quarantine"
SWEEP_TIMEOUT = "sweep.timeout"
SWEEP_WORKER_DEATH = "sweep.worker_death"
SWEEP_FALLBACK = "sweep.fallback_serial"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Histogram:
    """A bucketed distribution with running count and sum.

    ``bounds`` are inclusive upper bucket edges; one extra unbounded
    bucket catches everything above the last edge.
    """

    __slots__ = ("bounds", "buckets", "count", "total")

    def __init__(self, bounds: "Sequence[float]" = DEFAULT_LATENCY_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def record(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.buckets[index] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation within the bucket the rank lands in,
        assuming values spread uniformly across it (the Prometheus
        ``histogram_quantile`` model); the first bucket interpolates
        from 0, and a rank landing in the unbounded overflow bucket
        reports the last finite edge — the tightest claim the buckets
        support.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            if cumulative + bucket_count >= target:
                if index >= len(self.bounds):  # overflow bucket
                    return float(self.bounds[-1]) if self.bounds else 0.0
                lo = float(self.bounds[index - 1]) if index else 0.0
                hi = float(self.bounds[index])
                if not bucket_count:
                    return hi
                return lo + (hi - lo) * (target - cumulative) / bucket_count
            cumulative += bucket_count
        return float(self.bounds[-1]) if self.bounds else 0.0

    def snapshot(self) -> "Dict[str, Any]":
        labels = [f"<={bound:g}" for bound in self.bounds] + [
            f">{self.bounds[-1]:g}" if self.bounds else "all"
        ]
        return {
            "buckets": dict(zip(labels, self.buckets)),
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named metrics with get-or-create accessors and one-call snapshot."""

    def __init__(self) -> None:
        self._metrics: "Dict[str, Any]" = {}

    def _get(self, name: str, factory, kind: type):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def histogram(
        self, name: str, bounds: "Sequence[float]" = DEFAULT_LATENCY_BOUNDS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(bounds), Histogram)

    def snapshot(self) -> "Dict[str, Any]":
        return {name: metric.snapshot() for name, metric in sorted(self._metrics.items())}


# ----------------------------------------------------------------------


def _flatten(prefix: str, value: object, out: "Dict[str, Any]") -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    elif isinstance(value, (list, tuple)):
        for index, sub in enumerate(value):
            _flatten(f"{prefix}.{index}", sub, out)
    else:
        out[prefix] = value


class MetricsSeries:
    """The time-series of interval snapshots one collector produced."""

    def __init__(self, sample_every: int) -> None:
        self.sample_every = sample_every
        self.samples: "List[Dict[str, Any]]" = []

    def __len__(self) -> int:
        return len(self.samples)

    def append(self, sample: "Dict[str, Any]") -> None:
        self.samples.append(sample)

    def flat_samples(self) -> "List[Dict[str, Any]]":
        """Samples with nested keys flattened to dotted column names."""
        out = []
        for sample in self.samples:
            flat: "Dict[str, Any]" = {}
            _flatten("", sample, flat)
            out.append(flat)
        return out

    def deltas(self, key: str) -> "List[float]":
        """First differences of one flattened cumulative column."""
        values = [sample.get(key, 0) or 0 for sample in self.flat_samples()]
        previous = 0.0
        out = []
        for value in values:
            out.append(value - previous)
            previous = value
        return out

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"sample_every": self.sample_every, "samples": self.samples},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")

    def to_csv(self, path: str) -> None:
        flat = self.flat_samples()
        columns: "List[str]" = []
        seen = set()
        for sample in flat:
            for key in sample:
                if key not in seen:
                    seen.add(key)
                    columns.append(key)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns, restval="")
            writer.writeheader()
            for sample in flat:
                writer.writerow(sample)


# ----------------------------------------------------------------------


class MetricsCollector:
    """Samples a live system into a :class:`MetricsSeries`.

    Bound to a system by :class:`~repro.cpu.system.CmpSystem` (pass it
    as the ``metrics`` argument, or call :meth:`bind`).  The system
    calls :meth:`on_step` per event and :meth:`observe_l2` per
    L2-reaching access; everything else happens at sample boundaries.
    """

    def __init__(self, sample_every: int = 10_000) -> None:
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.sample_every = sample_every
        self.registry = MetricsRegistry()
        self.series = MetricsSeries(sample_every)
        self.events = 0
        self._design = None
        self._cores: "Sequence[Any]" = ()
        # Hot-path metric objects, resolved once.
        self._latency = self.registry.histogram("l2.latency")
        self._by_class: "Dict[object, Counter]" = {}

    def bind(self, system) -> "MetricsCollector":
        """Sample ``system``'s design and cores from now on.

        The collector keeps those parts, not the system: the system
        holds the collector, so a reference back would make a cycle
        only a full collection frees, and the parts outlive the system
        for :meth:`finish`'s last sample.
        """
        self._design = system.design
        self._cores = system.cores
        return self

    # -- hot-path hooks -------------------------------------------------

    def on_step(self) -> None:
        """Called once per executed workload event."""
        self.events += 1
        if self.events % self.sample_every == 0:
            self.sample()

    def observe_l2(self, result: AccessResult) -> None:
        """Called once per access that reached the L2 design."""
        counter = self._by_class.get(result.miss_class)
        if counter is None:
            counter = self.registry.counter(f"l2.{result.miss_class.value}")
            self._by_class[result.miss_class] = counter
        counter.inc()
        self._latency.record(result.latency)

    # -- sampling -------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh measurement window (after warm-up).

        Counters and the latency histogram restart from zero — mirroring
        :meth:`CmpSystem.reset_stats`, so the series reproduces the
        post-warm-up aggregates — and already-taken warm-up samples are
        dropped.
        """
        self.registry = MetricsRegistry()
        self._latency = self.registry.histogram("l2.latency")
        self._by_class = {}
        self.series = MetricsSeries(self.sample_every)

    def sample(self) -> "Dict[str, Any]":
        """Take one snapshot now and append it to the series."""
        snapshot: "Dict[str, Any]" = {
            "event_index": self.events,
            "metrics": self.registry.snapshot(),
        }
        if self._design is not None:
            snapshot.update(self._system_state(self._design, self._cores))
        self.series.append(snapshot)
        return snapshot

    def finish(self) -> MetricsSeries:
        """Take a final snapshot (unless one just happened) and return
        the series."""
        if not self.series.samples or (
            self.series.samples[-1]["event_index"] != self.events
        ):
            self.sample()
        return self.series

    # -- model-state sampling (duck-typed across designs) ---------------

    @staticmethod
    def _system_state(design, cores) -> "Dict[str, Any]":
        state: "Dict[str, Any]" = {
            "cycle": max((core.cycles for core in cores), default=0),
            "accesses": {
                miss_class.value: count
                for miss_class, count in sorted(
                    design.stats.counts.items(), key=lambda item: item[0].value
                )
            },
            "miss_rate": design.stats.miss_rate,
            "per_core": [
                {
                    "instructions": core.measured_instructions,
                    "cycles": core.measured_cycles,
                    "ipc": core.ipc,
                }
                for core in cores
            ],
        }
        bus_stats = getattr(design, "bus_stats", None)
        if bus_stats is None:
            bus = getattr(design, "bus", None)
            bus_stats = bus.stats if bus is not None else None
        if bus_stats is not None:
            state["bus"] = {
                "total": bus_stats.total,
                "by_op": dict(sorted(bus_stats.transactions.items())),
            }
        data = getattr(design, "data", None)
        if data is not None and hasattr(data, "dgroups"):
            state["dgroups"] = MetricsCollector._dgroup_state(design)
        tags = getattr(design, "tags", None)
        if tags is not None:
            state["c_blocks"] = MetricsCollector._count_c_blocks(tags)
        return state

    @staticmethod
    def _dgroup_state(design) -> "Dict[str, Any]":
        occupancy = {}
        for group in design.data.dgroups:
            occupancy[str(group.index)] = group.occupied_count
        crossbar = getattr(design, "crossbar", None)
        hit_latency = {}
        if crossbar is not None:
            totals: "Dict[int, Tuple[int, int]]" = {}
            for (core, dgroup), count in crossbar.traffic.items():
                accesses, cycles = totals.get(dgroup, (0, 0))
                totals[dgroup] = (
                    accesses + count,
                    cycles + count * crossbar.dgroup_latencies[core][dgroup],
                )
            for dgroup, (accesses, cycles) in sorted(totals.items()):
                hit_latency[str(dgroup)] = cycles / accesses if accesses else 0.0
        return {"occupancy": occupancy, "avg_hit_latency": hit_latency}

    @staticmethod
    def _count_c_blocks(tags) -> int:
        from repro.coherence.states import CoherenceState

        count = 0
        for tag_array in tags:
            for _set, _way, entry in tag_array.array.valid_entries():
                if entry.state is CoherenceState.COMMUNICATION:
                    count += 1
        return count


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Histogram",
    "MetricsCollector",
    "MetricsRegistry",
    "MetricsSeries",
    "SWEEP_FALLBACK",
    "SWEEP_QUARANTINE",
    "SWEEP_RETRY",
    "SWEEP_TIMEOUT",
    "SWEEP_WORKER_DEATH",
]
