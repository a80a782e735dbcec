#!/usr/bin/env python3
"""Quickstart: compare all five L2 designs on one workload.

Runs the paper's five cache organizations (uniform-shared, CMP-SNUCA,
private MESI, ideal, and CMP-NuRAPID) on the synthetic OLTP workload
and prints each design's access mix and performance relative to the
uniform-shared baseline — a miniature of the paper's Figure 10.

Usage::

    python examples/quickstart.py [accesses_per_core]

The default trace is short so the script finishes in under a minute;
expect the relative numbers to sharpen with longer traces.

Set ``REPRO_CHECK_INVARIANTS=N`` to run the model invariant checker
every N accesses (paranoid mode) — CI uses this as a smoke test that
every design stays structurally legal under real traffic.  Set
``REPRO_BUS_MODEL=eventq`` to attach an event queue to every design's
interconnect (bit-identical results by construction).

Observability (applied to the cmp-nurapid run only, so the other
designs stay untouched baselines):

* ``REPRO_TRACE=out.jsonl`` — stream its structured events as JSONL;
* ``REPRO_METRICS=m.json`` (and ``REPRO_METRICS_EVERY=N``, default
  10000) — write interval metric samples (CSV if the path ends .csv);
* ``REPRO_PROFILE=1`` — print wall-clock timings of the hot paths.
"""

import os
import sys

from repro import CmpSystem, MetricsCollector, MissClass, Profiler, Tracer, make_workload
from repro.experiments import format_table
from repro.experiments.runner import build_design

CHECK_EVERY = int(os.environ.get("REPRO_CHECK_INVARIANTS", "0"))
TRACE_PATH = os.environ.get("REPRO_TRACE")
METRICS_PATH = os.environ.get("REPRO_METRICS")
METRICS_EVERY = int(os.environ.get("REPRO_METRICS_EVERY", "10000"))
PROFILE = bool(int(os.environ.get("REPRO_PROFILE", "0") or "0"))

#: The design the observability env vars instrument.
OBSERVED_DESIGN = "cmp-nurapid"


def run_design(name, accesses_per_core):
    """Warm up and measure one design; return its stats."""
    design = build_design(name)  # honors REPRO_BUS_MODEL
    observed = name == OBSERVED_DESIGN
    tracer = Tracer(sink=TRACE_PATH) if observed and TRACE_PATH else None
    metrics = (
        MetricsCollector(sample_every=METRICS_EVERY)
        if observed and METRICS_PATH
        else None
    )
    system = CmpSystem(design, tracer=tracer, metrics=metrics)
    profiler = Profiler() if observed and PROFILE else None
    if profiler is not None:
        profiler.instrument(system)
    workload = make_workload("oltp")
    chunks = workload.chunks(accesses_per_core=2 * accesses_per_core)
    warmup_events = accesses_per_core * workload.num_cores
    if CHECK_EVERY:
        from repro.harness import HarnessConfig, run_events

        run_events(
            system, chunks, warmup_events,
            HarnessConfig(check_every=CHECK_EVERY),
            profiler=profiler,
        )
    else:
        system.run_chunks(chunks, warmup_events)
    if metrics is not None:
        series = metrics.finish()
        if METRICS_PATH.endswith(".csv"):
            series.to_csv(METRICS_PATH)
        else:
            series.to_json(METRICS_PATH)
        print(f"[{name}] metrics: {len(series)} sample(s) -> {METRICS_PATH}")
    if tracer is not None:
        tracer.close()
        print(f"[{name}] trace: {tracer.emitted} event(s) -> {TRACE_PATH}")
    if profiler is not None:
        print(profiler.report())
    return system.stats()


def main():
    accesses_per_core = int(sys.argv[1]) if len(sys.argv) > 1 else 60_000
    names = [
        "uniform-shared",
        "non-uniform-shared",
        "private",
        "ideal",
        "cmp-nurapid",
    ]
    rows = []
    baseline = None
    for name in names:
        stats = run_design(name, accesses_per_core)
        if baseline is None:
            baseline = stats.throughput
        acc = stats.accesses
        rows.append(
            [
                name,
                f"{100 * acc.fraction(MissClass.HIT):.1f}%",
                f"{100 * acc.fraction(MissClass.ROS):.1f}%",
                f"{100 * acc.fraction(MissClass.RWS):.1f}%",
                f"{100 * acc.fraction(MissClass.CAPACITY):.1f}%",
                f"{stats.throughput / baseline:.3f}",
            ]
        )
    print("OLTP workload, 4-core CMP, 8 MB L2 budget")
    print()
    print(
        format_table(
            ["design", "hits", "ROS", "RWS", "capacity", "rel. perf"], rows
        )
    )
    print()
    print(
        "Expected shape (paper Figure 10): cmp-nurapid beats both the "
        "shared and private baselines; ideal is the upper bound."
    )


if __name__ == "__main__":
    main()
