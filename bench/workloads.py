"""The benchmark's four workloads: design x workload sweeps of simulator cells.

A workload runs in *passes*.  One pass simulates every cell of the
workload once and returns each cell's
:class:`~repro.common.stats.SimulationStats` keyed by a cell id
(``"<workload>/<design>"``).  Cells run through the same public
functions the experiments use: ``build_design`` with
``run_multithreaded``, ``run_mix`` or ``run_scaled_cell``, or the batch
kernel.  Every pass takes a *probe* (:class:`tracer.Timer` or
:class:`tracer.Tracer`): the pass opens named spans around each cell and
around its own calls into the simulator, and the probe's ``install``
times the calls those functions make inside.

Why these workloads:

* ``fig10-scalar`` - the paper's Figure 10 grid on the default (scalar)
  engine.  Workload generation, the CPU run loop, L1 and every L2 design
  do the work; the batch kernel, event queue, mesh and harness do none.
* ``fig10-batch`` - the same twelve cells through the batch kernel.  The
  kernel does most of the work and generation is paid once per workload
  (three tapes) instead of once per cell.  Its digests must equal
  ``fig10-scalar``'s, cell for cell.
* ``mix-cold-eventq`` - Figure 12's multiprogrammed mixes, cold (no
  warm-up) on the event-queue interconnect: miss- and eviction-heavy
  private data (capacity stealing, demotion chains) where ``fig10`` is
  sharing- and hit-heavy.  It takes the instrumented run loop and the
  event queue, and each result goes through ``StatsCache.insert`` on a
  file-backed cache.
* ``scale16-mesh`` - 16-core cells on the mesh NoC with directory
  coherence, run by ``run_scaled_cell`` as ``repro experiment scale``
  runs them: under the harness, with its default invariant-check and
  checkpoint cadences.  The only workload for the mesh, the directory
  and the harness; it bypasses the kernel and the atomic bus.

Run lengths (per-core warm-up and measured accesses, :attr:`Workload.length`)
are a quarter of the full-size cells (40k + 40k, 80k and 10k + 10k).  A
full-size pass takes 26-38 s on a 2-vCPU host, so one run of a workload,
with the reference pass an unknown seed needs, would take over a minute;
at a quarter it takes about 26 s with one to three passes.  Every
workload still reaches each of its layers: the mesh cells run 80,000
events each, past the 50,000-event periodic checkpoint.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.common.stats import SimulationStats
from repro.experiments.runner import (
    ExperimentConfig,
    StatsCache,
    build_design,
    run_mix,
    run_multithreaded,
)
from repro.experiments.scale import run_scaled_cell
from repro.kernel import BatchKernel, EventTape
from repro.workloads.multithreaded import make_workload

FIG10_WORKLOADS = ("oltp", "apache", "ocean")
FIG10_DESIGNS = ("uniform-shared", "non-uniform-shared", "private", "cmp-nurapid")
MIXES = ("MIX1", "MIX2", "MIX3", "MIX4")
MIX_DESIGNS = ("private", "cmp-nurapid")
MESH_DESIGNS = ("private", "cmp-nurapid")
CORES = 4
MESH_CORES = 16


@dataclass
class PassResult:
    """One pass: per-cell stats, or the error a cell raised."""

    stats: "Dict[str, SimulationStats]"
    errors: "Dict[str, str]"
    #: Simulated accesses, summed over cells (each batch lane separately).
    accesses: int = 0
    #: The part of ``accesses`` run through ``CmpSystem`` (not the kernel).
    cpu_accesses: int = 0


#: ``run(seed, length, probe, scratch_dir) -> PassResult``: one pass.
PassFunction = Callable[[int, "tuple[int, int]", object, str], PassResult]


@dataclass(frozen=True)
class Workload:
    name: str
    cells: "tuple[str, ...]"
    #: Per-core (warm-up, measured) accesses of every cell.
    length: "tuple[int, int]"
    run: PassFunction
    #: A pass that takes a different code path to the same digests, run
    #: when no committed digest exists for the seed; None if there is none.
    reference: "Optional[PassFunction]" = None


def _config(seed: int, length: "tuple[int, int]") -> ExperimentConfig:
    warm, measure = length
    return ExperimentConfig(warmup_per_core=warm, measure_per_core=measure, seed=seed)


def _run_cell(result: PassResult, cell_id: str, cells, probe, body,
              on_cpu: bool = True) -> None:
    """Run ``body`` (-> per-cell stats, accesses) as one ``cell`` span.

    A raising body fails every cell it covers; the pass goes on.
    """
    try:
        with probe.span("cell", cell=cell_id):
            stats, accesses = body()
    except Exception as error:  # noqa: BLE001 - counted as failed cells
        for cell in cells:
            result.errors[cell] = f"{type(error).__name__}: {error}"
        return
    result.stats.update(stats)
    result.accesses += accesses
    if on_cpu:
        result.cpu_accesses += accesses


def fig10_scalar_pass(seed: int, length, probe, scratch: str) -> PassResult:
    config = _config(seed, length)
    result = PassResult({}, {})
    for workload_name in FIG10_WORKLOADS:
        for design_name in FIG10_DESIGNS:
            cell = f"{workload_name}/{design_name}"

            def body(workload_name=workload_name, design_name=design_name, cell=cell):
                with probe.span("build"):
                    design = build_design(design_name, bus_model="atomic")
                with probe.span("run"):
                    _, stats = run_multithreaded(design, workload_name, config)
                return {cell: stats}, sum(length) * CORES

            _run_cell(result, cell, (cell,), probe, body)
    return result


def fig10_batch_pass(seed: int, length, probe, scratch: str) -> PassResult:
    warm, measure = length
    result = PassResult({}, {})
    for workload_name in FIG10_WORKLOADS:
        cells = [f"{workload_name}/{d}" for d in FIG10_DESIGNS]

        def body(workload_name=workload_name, cells=cells):
            designs = []
            for design_name in FIG10_DESIGNS:
                with probe.span("build"):
                    designs.append(build_design(design_name, bus_model="atomic"))
            with probe.span("kernel_init"):
                kernel = BatchKernel(designs)
            workload = make_workload(workload_name, seed=seed)
            with probe.span("generate"):
                events = workload.events(accesses_per_core=warm + measure)
            with probe.span("tape"):
                tape = EventTape.from_events(probe.events(events))
            with probe.span("kernel_run"):
                kernel.run(tape, warm * workload.num_cores)
                lanes = [kernel.lane_stats(i) for i in range(len(designs))]
            probe.kernel_counters(kernel)
            return dict(zip(cells, lanes)), tape.n * len(designs)

        _run_cell(result, f"{workload_name}/*", cells, probe, body, on_cpu=False)
    return result


def _mix_pass(bus_model: str, seed: int, length, probe, scratch: str) -> PassResult:
    config = _config(seed, length)
    cache = StatsCache(os.path.join(scratch, "stats.journal"))
    result = PassResult({}, {})
    for mix in MIXES:
        for design_name in MIX_DESIGNS:
            cell = f"{mix}/{design_name}"

            def body(mix=mix, design_name=design_name, cell=cell):
                with probe.span("build"):
                    design = build_design(design_name, bus_model=bus_model)
                with probe.span("run"):
                    _, stats = run_mix(design, mix, config)
                with probe.span("cache_insert"):
                    cache.insert(StatsCache.scaled_key(mix, design_name, config, True), stats)
                return {cell: stats}, sum(length) * CORES

            _run_cell(result, cell, (cell,), probe, body)
    return result


def mix_cold_eventq_pass(seed: int, length, probe, scratch: str) -> PassResult:
    return _mix_pass("eventq", seed, length, probe, scratch)


def mix_cold_atomic_pass(seed: int, length, probe, scratch: str) -> PassResult:
    """``mix-cold-eventq``'s reference: the atomic bus and the specialized
    run loop, bit-identical to the event queue at zero occupancy."""
    return _mix_pass("atomic", seed, length, probe, scratch)


def scale16_mesh_pass(seed: int, length, probe, scratch: str) -> PassResult:
    config = _config(seed, length)
    result = PassResult({}, {})
    for design_name in MESH_DESIGNS:
        cell = f"oltp@c{MESH_CORES}/{design_name}"

        def body(design_name=design_name, cell=cell):
            # A fresh checkpoint path: an existing snapshot would be resumed.
            path = os.path.join(scratch, f"{design_name}.ckpt")
            with probe.span("run"):
                stats = run_scaled_cell(design_name, "oltp", MESH_CORES, config,
                                        checkpoint_path=path)
            return {cell: stats}, sum(length) * MESH_CORES

        _run_cell(result, cell, (cell,), probe, body)
    return result


_FIG10_CELLS = tuple(f"{w}/{d}" for w in FIG10_WORKLOADS for d in FIG10_DESIGNS)

WORKLOADS: "Dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload("fig10-scalar", _FIG10_CELLS, (10_000, 10_000), fig10_scalar_pass,
                 reference=fig10_batch_pass),
        Workload("fig10-batch", _FIG10_CELLS, (10_000, 10_000), fig10_batch_pass,
                 reference=fig10_scalar_pass),
        Workload("mix-cold-eventq", tuple(f"{m}/{d}" for m in MIXES for d in MIX_DESIGNS),
                 (0, 20_000), mix_cold_eventq_pass, reference=mix_cold_atomic_pass),
        Workload("scale16-mesh", tuple(f"oltp@c{MESH_CORES}/{d}" for d in MESH_DESIGNS),
                 (2_500, 2_500), scale16_mesh_pass),
    )
}
