"""Host-time accounting for benchmark passes, installed from outside the simulator.

Two probes share one interface (``span``, ``events``, ``kernel_counters``
and ``install``):

* :class:`Timer` serves untraced passes.  It times each cell and the
  machine construction inside it (the ``build``, ``system`` and
  ``kernel_init`` spans, a few calls per cell), and leaves every hot path
  untouched.
* :class:`Tracer` serves traced passes.  It also records the coarse spans
  individually (start, end, parent, cell) and, while :meth:`Tracer.install`
  is active, wraps the simulator's hot public methods so that their calls
  are aggregated per (cell, layer) into calls, total and self seconds.

Calls the simulator makes inside its own sweep functions are timed by
patching the names those functions look up: ``CmpSystem`` in
``repro.experiments.runner`` and ``repro.experiments.scale``,
``build_design`` and ``make_workload`` in ``repro.experiments.scale``,
``make_workload``/``make_mix`` in ``repro.experiments.runner``, and
``check_system_incremental``/``save_checkpoint`` in
``repro.harness.runner``.

Self time is a span's duration minus the part covered by its children:
every timed call pushes a child-time accumulator and adds its duration
to its parent's on exit, so self times telescope to the root span.
"""

from __future__ import annotations

import importlib
import signal
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

perf_counter = time.perf_counter

#: Coarse span name -> the layer its self time belongs to (None: none).
SPAN_LAYERS = {
    "workload": None,
    "cell": None,
    "generate": "workloads.gen",
    "build": "experiments.build",
    "system": "cpu.init",
    "run": "cpu.run",
    "tape": "kernel.tape",
    "kernel_init": "kernel.init",
    "kernel_run": "kernel.run",
    "check": "harness.check",
    "checkpoint": "harness.checkpoint",
    "cache_insert": "experiments.cache_insert",
}

#: Spans that construct the machine; their sum is ``setup_s``.
SETUP_SPANS = frozenset(("build", "system", "kernel_init"))

#: (module, name, span) for the machine constructors the sweep functions
#: call themselves; every probe times these.
SETUP_PATCHES = (
    ("repro.experiments.runner", "CmpSystem", "system"),
    ("repro.experiments.scale", "CmpSystem", "system"),
    ("repro.experiments.scale", "build_design", "build"),
)

#: (module, name) for the workload factories the sweep functions call;
#: a traced pass times the streams of the workloads they return.
WORKLOAD_PATCHES = (
    ("repro.experiments.runner", "make_workload"),
    ("repro.experiments.runner", "make_mix"),
    ("repro.experiments.scale", "make_workload"),
)

#: (module, name, span) for the harness calls a traced pass times.
HARNESS_PATCHES = (
    ("repro.harness.runner", "check_system_incremental", "check"),
    ("repro.harness.runner", "save_checkpoint", "checkpoint"),
)

#: Batch-kernel counters read after each ``kernel.run``.
KERNEL_COUNTERS = ("pure_commits", "fast_l2_commits", "scalar_events", "windows")


def _hot_targets():
    """(layer, owner, attribute) for every hot call a traced pass wraps."""
    from repro.caches.private import PrivateCaches
    from repro.caches.shared import SharedCache
    from repro.caches.snuca import SnucaCache
    from repro.coherence.directory import Directory
    from repro.core.nurapid import NurapidCache
    from repro.interconnect.bus import SnoopBus
    from repro.interconnect.crossbar import Crossbar
    from repro.interconnect.eventq import EventQueue
    from repro.interconnect.mesh import MeshNoC

    targets = [("caches.l2", cls, "access") for cls in (SharedCache, SnucaCache, PrivateCaches)]
    targets += [
        ("core.nurapid", NurapidCache, "access"),
        ("interconnect.bus", SnoopBus, "issue"),
        ("interconnect.bus", MeshNoC, "issue"),
        ("interconnect.crossbar", Crossbar, "access"),
        ("interconnect.eventq", EventQueue, "run_until"),
        ("interconnect.mesh", MeshNoC, "record_protocol_message"),
        ("interconnect.mesh", MeshNoC, "note_eviction"),
    ]
    targets += [
        ("coherence.directory", Directory, name)
        for name in ("holders", "add", "discard", "apply", "home")
    ]
    return targets


@contextmanager
def _patched(patches):
    """Set each (owner, attribute, replacement); restore them on exit."""
    saved = []
    for owner, attribute, replacement in patches:
        saved.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


#: Iterations of :func:`reference_work`, and its duration on the host
#: the bounds were set on (2-vCPU Linux VM, Python 3.11, fast phase).
REFERENCE_ITERATIONS = 10_000
REFERENCE_S = 1.5e-3


def reference_work() -> None:
    """A fixed pure-Python loop whose duration samples the host's speed."""
    table = dict.fromkeys(range(64), 0)
    for i in range(REFERENCE_ITERATIONS):
        table[i & 63] = table[i & 63] + (i >> 3)


class Timer:
    """The untraced probe: times cells and machine construction, nothing else.

    With ``sample_every`` set, :meth:`install` also samples the host's
    speed: a timer signal runs :func:`reference_work` every
    ``sample_every`` seconds, and each sample's duration is recorded
    against the cell it interrupted.  Span times exclude the samples.
    """

    def __init__(self, sample_every: "Optional[float]" = None) -> None:
        self.cell: "Optional[str]" = None
        #: cell id -> wall seconds of its ``cell`` span.
        self.cell_s: "Dict[str, float]" = {}
        #: cell id -> seconds in its setup spans.
        self.setup_s: "Dict[str, float]" = {}
        #: cell id -> durations of the reference samples taken in it.
        self.reference_s: "Dict[Optional[str], List[float]]" = {}
        self.sample_every = sample_every
        self._sampling = False
        self._sampled_s = 0.0

    def clock(self) -> float:
        """Host seconds, less the time spent in reference samples."""
        return perf_counter() - self._sampled_s

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_work()
        duration = perf_counter() - start
        self._sampled_s += duration
        self.reference_s.setdefault(self.cell, []).append(duration)
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, self.sample_every)

    @contextmanager
    def _sampler(self):
        if self.sample_every is None:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(signal.SIGALRM, None)  # every pass gets at least one
        self._sampling = True
        signal.setitimer(signal.ITIMER_REAL, self.sample_every)
        try:
            yield
        finally:
            # A sample already pending sees _sampling off and re-arms nothing.
            self._sampling = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _enter(self, cell: "Optional[str]") -> "Optional[str]":
        outer = self.cell
        if cell is not None:
            self.cell = cell
        return outer

    def _exit(self, name: str, duration: float, outer: "Optional[str]") -> None:
        if name == "cell":
            self.cell_s[self.cell] = duration
        elif name in SETUP_SPANS:
            self.setup_s[self.cell] = self.setup_s.get(self.cell, 0.0) + duration
        self.cell = outer

    @contextmanager
    def span(self, name: str, cell: "Optional[str]" = None):
        if name != "cell" and name not in SETUP_SPANS:
            yield
            return
        outer = self._enter(cell)
        start = self.clock()
        try:
            yield
        finally:
            self._exit(name, self.clock() - start, outer)

    def _span_wrapper(self, function, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper

    def events(self, iterable: Iterable) -> Iterable:
        return iterable

    def kernel_counters(self, kernel) -> None:
        pass

    def _patches(self) -> list:
        """(owner, attribute, replacement) for everything this probe times."""
        patches = []
        for module_name, attribute, name in SETUP_PATCHES:
            module = importlib.import_module(module_name)
            patches.append(
                (module, attribute, self._span_wrapper(getattr(module, attribute), name))
            )
        return patches

    @contextmanager
    def install(self):
        # Every replacement is built before any is set, so a class that
        # inherits a wrapped method is never wrapped twice.
        with _patched(self._patches()), self._sampler():
            yield self


class _TimedWorkload:
    """A workload whose event streams a :class:`Tracer` times."""

    def __init__(self, workload, tracer: "Tracer") -> None:
        self._workload = workload
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(self._workload, name)

    def events(self, *args, **kwargs):
        with self._tracer.span("generate"):
            events = self._workload.events(*args, **kwargs)
        return self._tracer.events(events)


class Tracer(Timer):
    """The traced probe: coarse spans plus per-(cell, layer) aggregates."""

    def __init__(self) -> None:
        super().__init__()
        #: Coarse spans as [id, name, cell, parent id, start, end, self_s].
        self.spans: "List[list]" = []
        #: (cell, layer) -> [calls, total_s, self_s] for the hot layers.
        self.aggregates: "Dict[tuple, list]" = {}
        self.counters: "Dict[str, int]" = dict.fromkeys(KERNEL_COUNTERS, 0)
        self._open: "List[Optional[list]]" = [None]
        # Child-time accumulators; the bottom one collects top-level spans.
        self._child: "List[float]" = [0.0]

    # -- coarse spans --------------------------------------------------

    @contextmanager
    def span(self, name: str, cell: "Optional[str]" = None):
        outer = self._enter(cell)
        parent = self._open[-1]
        record = [len(self.spans), name, self.cell,
                  None if parent is None else parent[0], 0.0, 0.0, 0.0]
        self.spans.append(record)
        self._open.append(record)
        self._child.append(0.0)
        record[4] = start = perf_counter()
        try:
            yield
        finally:
            record[5] = end = perf_counter()
            child = self._child.pop()
            self._open.pop()
            duration = end - start
            record[6] = duration - child
            self._child[-1] += duration
            self._exit(name, duration, outer)

    # -- aggregated hot layers -----------------------------------------

    def _aggregate(self, layer: str) -> list:
        key = (self.cell, layer)
        record = self.aggregates.get(key)
        if record is None:
            record = self.aggregates[key] = [0, 0.0, 0.0]
        return record

    def _call_wrapper(self, function, layer: str):
        stack = self._child

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                stack[-1] += duration
                record = self._aggregate(layer)
                record[0] += 1
                record[1] += duration
                record[2] += duration - child

        return wrapper

    def events(self, iterable: Iterable) -> Iterable:
        """Time each ``next()`` on the workload's generator as it is consumed."""
        return self._timed_events(iter(iterable), self._aggregate("workloads.gen"))

    def _timed_events(self, iterator, record: list):
        step = iterator.__next__
        stack = self._child
        calls = 0
        total = 0.0
        try:
            while True:
                start = perf_counter()
                try:
                    event = step()
                except StopIteration:
                    return
                duration = perf_counter() - start
                calls += 1
                total += duration
                stack[-1] += duration
                yield event
        finally:
            record[0] += calls
            record[1] += total
            record[2] += total

    def kernel_counters(self, kernel) -> None:
        for name in KERNEL_COUNTERS:
            self.counters[name] += int(getattr(kernel, name, 0))

    def _timed_factory(self, factory):
        def make(*args, **kwargs):
            return _TimedWorkload(factory(*args, **kwargs), self)

        return make

    def _patches(self) -> list:
        patches = super()._patches()
        for module_name, attribute in WORKLOAD_PATCHES:
            module = importlib.import_module(module_name)
            patches.append(
                (module, attribute, self._timed_factory(getattr(module, attribute)))
            )
        for module_name, attribute, name in HARNESS_PATCHES:
            module = importlib.import_module(module_name)
            patches.append(
                (module, attribute, self._span_wrapper(getattr(module, attribute), name))
            )
        for layer, owner, attribute in _hot_targets():
            patches.append(
                (owner, attribute, self._call_wrapper(getattr(owner, attribute), layer))
            )
        return patches

    # -- results -------------------------------------------------------

    def layer_totals(self) -> "Dict[str, list]":
        """layer -> [calls, self_s], summed over cells."""
        totals: "Dict[str, list]" = {}
        for _, name, _, _, _, _, self_s in self.spans:
            layer = SPAN_LAYERS[name]
            if layer is not None:
                entry = totals.setdefault(layer, [0, 0.0])
                entry[0] += 1
                entry[1] += self_s
        for (_, layer), (calls, _, self_s) in self.aggregates.items():
            entry = totals.setdefault(layer, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return totals

    def unattributed_s(self, wall_s: float) -> float:
        """Wall time outside every layer span, measured on its own:
        the self time of the non-layer spans plus time outside the root."""
        inside = sum(s[6] for s in self.spans if SPAN_LAYERS[s[1]] is None)
        roots = sum(s[5] - s[4] for s in self.spans if s[3] is None)
        return inside + (wall_s - roots)

    def export(self) -> dict:
        """The pass's spans, plus its hot-layer aggregates keyed by cell."""
        cells: "Dict[str, dict]" = {}
        for (cell, layer), (calls, total_s, self_s) in self.aggregates.items():
            cells.setdefault(cell, {})[layer] = {
                "calls": calls, "total_us": total_s * 1e6, "self_us": self_s * 1e6
            }
        return {"spans": self.spans, "cells": cells}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS = {
    "workloads.gen_s": "s",
    "workloads.gen_share": "ratio",
    "cpu.init_s": "s",
    "cpu.run_self_s": "s",
    "cpu.run_share": "ratio",
    "cpu.ns_per_access": "ns",
    "cpu.l2_reach_share": "ratio",
    "caches.l2_calls": "count",
    "caches.l2_self_s": "s",
    "caches.l2_ns_per_call": "ns",
    "core.nurapid_calls": "count",
    "core.nurapid_self_s": "s",
    "core.nurapid_ns_per_call": "ns",
    "interconnect.bus_calls": "count",
    "interconnect.bus_self_s": "s",
    "interconnect.crossbar_calls": "count",
    "interconnect.crossbar_self_s": "s",
    "interconnect.eventq_calls": "count",
    "interconnect.eventq_self_s": "s",
    "interconnect.mesh_calls": "count",
    "interconnect.mesh_self_s": "s",
    "coherence.directory_calls": "count",
    "coherence.directory_self_s": "s",
    "kernel.init_s": "s",
    "kernel.tape_s": "s",
    "kernel.run_self_s": "s",
    "kernel.run_share": "ratio",
    "kernel.pure_commits": "count",
    "kernel.fast_l2_commits": "count",
    "kernel.scalar_events": "count",
    "kernel.windows": "count",
    "kernel.vector_share": "ratio",
    "harness.check_calls": "count",
    "harness.check_s": "s",
    "harness.check_share": "ratio",
    "harness.checkpoint_calls": "count",
    "harness.checkpoint_s": "s",
    "harness.checkpoint_share": "ratio",
    "experiments.build_s": "s",
    "experiments.cache_insert_s": "s",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


def per_layer_metrics(tracer: Tracer, wall_s: float, accesses: int,
                      cpu_accesses: int) -> "Dict[str, float]":
    """One traced pass's per-layer metrics (``trace.overhead_share`` aside:
    it needs the untraced passes and is filled in by the caller).

    ``accesses`` counts every simulated access (each batch lane
    separately); ``cpu_accesses`` only those run through ``CmpSystem``.
    """
    totals = tracer.layer_totals()

    def calls(layer: str) -> int:
        return totals.get(layer, (0, 0.0))[0]

    def self_s(layer: str) -> float:
        return totals.get(layer, (0, 0.0))[1]

    def share(layer: str) -> float:
        return _ratio(self_s(layer), wall_s)

    l2_calls = calls("caches.l2") + calls("core.nurapid")
    counters = tracer.counters
    metrics = {
        "workloads.gen_s": self_s("workloads.gen"),
        "workloads.gen_share": share("workloads.gen"),
        "cpu.init_s": self_s("cpu.init"),
        "cpu.run_self_s": self_s("cpu.run"),
        "cpu.run_share": share("cpu.run"),
        "cpu.ns_per_access": _ratio(self_s("cpu.run") * 1e9, cpu_accesses),
        "cpu.l2_reach_share": _ratio(l2_calls, accesses),
        "caches.l2_calls": calls("caches.l2"),
        "caches.l2_self_s": self_s("caches.l2"),
        "caches.l2_ns_per_call": _ratio(self_s("caches.l2") * 1e9, calls("caches.l2")),
        "core.nurapid_calls": calls("core.nurapid"),
        "core.nurapid_self_s": self_s("core.nurapid"),
        "core.nurapid_ns_per_call": _ratio(
            self_s("core.nurapid") * 1e9, calls("core.nurapid")
        ),
    }
    for part in ("bus", "crossbar", "eventq", "mesh"):
        metrics[f"interconnect.{part}_calls"] = calls(f"interconnect.{part}")
        metrics[f"interconnect.{part}_self_s"] = self_s(f"interconnect.{part}")
    metrics.update({
        "coherence.directory_calls": calls("coherence.directory"),
        "coherence.directory_self_s": self_s("coherence.directory"),
        "kernel.init_s": self_s("kernel.init"),
        "kernel.tape_s": self_s("kernel.tape"),
        "kernel.run_self_s": self_s("kernel.run"),
        "kernel.run_share": share("kernel.run"),
        **{f"kernel.{name}": counters[name] for name in KERNEL_COUNTERS},
        "kernel.vector_share": _ratio(
            counters["pure_commits"] + counters["fast_l2_commits"],
            accesses - cpu_accesses,
        ),
        "harness.check_calls": calls("harness.check"),
        "harness.check_s": self_s("harness.check"),
        "harness.check_share": share("harness.check"),
        "harness.checkpoint_calls": calls("harness.checkpoint"),
        "harness.checkpoint_s": self_s("harness.checkpoint"),
        "harness.checkpoint_share": share("harness.checkpoint"),
        "experiments.build_s": self_s("experiments.build"),
        "experiments.cache_insert_s": self_s("experiments.cache_insert"),
        "trace.unattributed_share": _ratio(tracer.unattributed_s(wall_s), wall_s),
    })
    return metrics


def chrome_trace(tracks: "Dict[str, dict]") -> dict:
    """Coarse spans as Chrome trace-event JSON, one thread per workload.

    ``tracks`` maps a workload name to a :meth:`Tracer.export`.  Each cell
    span carries that cell's hot-layer aggregates in its args.
    Timestamps are host microseconds from the track's first span.
    """
    events: "List[dict]" = [
        {"ph": "M", "name": "process_name", "pid": 1, "args": {"name": "bench"}}
    ]
    for tid, (workload, track) in enumerate(tracks.items(), start=1):
        events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                       "args": {"name": workload}})
        spans = track["spans"]
        base = min((s[4] for s in spans), default=0.0)
        for span_id, name, cell, parent, start, end, self_s in spans:
            args = {"id": span_id, "parent": parent, "cell": cell,
                    "layer": SPAN_LAYERS[name], "self_us": self_s * 1e6}
            if name == "cell":
                args["layers"] = track["cells"].get(cell, {})
            events.append({
                "ph": "X", "name": name, "pid": 1, "tid": tid,
                "ts": (start - base) * 1e6, "dur": (end - start) * 1e6, "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
