"""The experiment registry, and the suite that runs any list of it.

Every ``repro experiment`` name is one :class:`Experiment` in
:data:`EXPERIMENTS`: how it runs, the full table it renders after its
report, and the registry-design cells it reads from the stats cache.
:data:`GROUPS` names lists of entries: ``all`` is the paper's Table 1
and Figures 5-12 (the driver behind EXPERIMENTS.md), ``ablations`` and
``sensitivity`` their modules' studies.  :func:`run_suite` fills the
union of its entries' cells with one
:func:`~repro.experiments.parallel.run_cells` call, so each (workload,
design) pair is simulated once, then renders every report; the entries
only read the filled cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import (
    ablations,
    energy_report,
    fig5_access_distribution,
    fig6_opportunity,
    fig7_reuse,
    fig8_tag_distribution,
    fig9_data_distribution,
    fig10_performance,
    fig11_mp_distribution,
    fig12_mp_performance,
    scale,
    sensitivity,
    smp_contrast,
    table1_latencies,
)
from repro.experiments.parallel import (
    Cell,
    ParallelReport,
    SupervisorConfig,
    run_cells,
)
from repro.experiments.runner import ExperimentConfig, StatsCache
from repro.workloads.multiprogrammed import MIXES


@dataclass(frozen=True)
class Experiment:
    """One ``repro experiment`` name.

    An entry with ``cells`` runs as ``run(config, cache=cache)`` and
    only reads them from the stats cache, which :func:`run_suite`
    fills first.  An entry without cells builds designs the registry
    does not name (ablations, sensitivities, the SMP contrast) or
    simulates nothing (Table 1), and runs as ``run(config)``.
    """

    run: Callable
    render_full: "Optional[Callable]" = None
    cells: "Tuple[Cell, ...]" = ()

    def render(self, config: ExperimentConfig, cache: StatsCache) -> str:
        """Run on ``cache``; the report, then the full table if any."""
        result = self.run(config, cache=cache) if self.cells else self.run(config)
        text = result.report.render()
        if self.render_full is not None:
            text += "\n\n" + self.render_full(result)
        return text


def _grid(module) -> "Tuple[Cell, ...]":
    """A module's ``WORKLOADS`` x ``DESIGNS`` cells; a mix runs
    multiprogrammed."""
    return tuple(
        Cell(workload, design, workload in MIXES)
        for workload in module.WORKLOADS
        for design in module.DESIGNS
    )


def _figure(module) -> Experiment:
    return Experiment(module.run, module.render_full, _grid(module))


def scale_experiment(cores: "Sequence[int]" = scale.DEFAULT_CORES) -> Experiment:
    """The scale study over ``cores``-tile mesh machines; ValueError
    names a count the mesh does not support."""
    cores = tuple(cores)
    return Experiment(
        partial(scale.run, cores=cores), scale.render_full,
        tuple(scale.grid(cores)),
    )


EXPERIMENTS: "Dict[str, Experiment]" = {
    "table1": Experiment(table1_latencies.run),
    "fig5": _figure(fig5_access_distribution),
    "fig6": _figure(fig6_opportunity),
    "fig7": _figure(fig7_reuse),
    "fig8": _figure(fig8_tag_distribution),
    "fig9": _figure(fig9_data_distribution),
    "fig10": _figure(fig10_performance),
    "fig11": _figure(fig11_mp_distribution),
    "fig12": _figure(fig12_mp_performance),
    "energy": Experiment(energy_report.run, cells=_grid(energy_report)),
    "smp-contrast": Experiment(smp_contrast.run),
    "scale": scale_experiment(),
    **{name: Experiment(run) for name, run in ablations.ALL_ABLATIONS.items()},
    **{name: Experiment(run) for name, run in sensitivity.ALL_SENSITIVITIES.items()},
}

#: Names that run a list of entries, in report order.
GROUPS: "Dict[str, Tuple[str, ...]]" = {
    "all": ("table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12"),
    "ablations": tuple(ablations.ALL_ABLATIONS),
    "sensitivity": tuple(sensitivity.ALL_SENSITIVITIES),
}


def select(name: str) -> "Dict[str, Experiment]":
    """The entries ``name`` runs: a group's, or its own.  KeyError if
    the registry has neither."""
    return {member: EXPERIMENTS[member] for member in GROUPS.get(name, (name,))}


def cells(experiments: "Mapping[str, Experiment]") -> "List[Cell]":
    """The union of the entries' cells, in first-use order."""
    return list(dict.fromkeys(
        cell for experiment in experiments.values() for cell in experiment.cells
    ))


@dataclass
class SuiteResult:
    """Rendered reports, in order, and what filling their cells did."""

    sections: "Dict[str, str]"
    sweep: ParallelReport

    def render(self) -> str:
        return "\n\n\n".join(self.sections.values())


def run_suite(
    experiments: "Optional[Mapping[str, Experiment]]" = None,
    config: "Optional[ExperimentConfig]" = None,
    cache_path: "Optional[str]" = None,
    jobs: int = 1,
    supervision: "Optional[SupervisorConfig]" = None,
) -> SuiteResult:
    """Run ``experiments`` (default: the ``all`` group) on one cache.

    With ``cache_path`` the cache persists to disk after every completed
    (workload, design) run, so a killed suite resumes instead of
    re-simulating (see :class:`~repro.experiments.runner.StatsCache`).

    :func:`~repro.experiments.parallel.run_cells` fills the union of
    the entries' cells before any report renders, serially or (``jobs``
    > 1) through one process pool whose workers ``supervision`` tunes;
    results are bit-identical either way.  This is the only fill: each
    entry then reads its cells from the cache.  Raises
    :class:`~repro.experiments.parallel.QuarantinedCellError` if any
    cell exhausted its retries — after every healthy cell has been
    journaled, so a rerun resumes instead of re-simulating.
    """
    if experiments is None:
        experiments = select("all")
    config = config or ExperimentConfig()
    cache = StatsCache(path=cache_path or None)
    sweep = run_cells(
        cells(experiments), config, cache, jobs=jobs, supervision=supervision
    )
    sweep.raise_quarantined()
    sections = {
        name: experiment.render(config, cache)
        for name, experiment in experiments.items()
    }
    return SuiteResult(sections=sections, sweep=sweep)
