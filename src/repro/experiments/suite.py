"""Run every experiment with one shared simulation cache.

Figures 5-10 share most of their (workload, design) simulations; this
module runs each pair exactly once and renders every report — the
driver behind EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.experiments import (
    fig5_access_distribution,
    fig6_opportunity,
    fig7_reuse,
    fig8_tag_distribution,
    fig9_data_distribution,
    fig10_performance,
    fig11_mp_distribution,
    fig12_mp_performance,
    table1_latencies,
)
from repro.experiments.runner import ExperimentConfig, StatsCache

#: Experiment id -> (module run(), module full-table renderer or None).
EXPERIMENTS: "dict[str, tuple[Callable, Optional[Callable]]]" = {
    "table1": (table1_latencies.run, None),
    "fig5": (fig5_access_distribution.run, fig5_access_distribution.render_full),
    "fig6": (fig6_opportunity.run, fig6_opportunity.render_full),
    "fig7": (fig7_reuse.run, fig7_reuse.render_full),
    "fig8": (fig8_tag_distribution.run, fig8_tag_distribution.render_full),
    "fig9": (fig9_data_distribution.run, fig9_data_distribution.render_full),
    "fig10": (fig10_performance.run, fig10_performance.render_full),
    "fig11": (fig11_mp_distribution.run, fig11_mp_distribution.render_full),
    "fig12": (fig12_mp_performance.run, fig12_mp_performance.render_full),
}


@dataclass
class SuiteResult:
    """Rendered reports for every experiment, in paper order."""

    sections: "dict[str, str]"

    def render(self) -> str:
        return "\n\n\n".join(self.sections.values())


def run_suite(
    config: "Optional[ExperimentConfig]" = None,
    cache_path: "Optional[str]" = None,
    jobs: "Optional[int]" = None,
    cell_timeout: "Optional[float]" = None,
    max_retries: "Optional[int]" = None,
) -> SuiteResult:
    """Run all experiments, sharing simulations through one cache.

    With ``cache_path`` the cache persists to disk after every completed
    (workload, design) run, so a killed suite resumes instead of
    re-simulating (see :class:`~repro.experiments.runner.StatsCache`).

    :func:`~repro.experiments.parallel.run_cells` fills the union of
    every experiment's cells before any report renders, serially or
    (``jobs`` > 1, or ``REPRO_JOBS``) through one process pool; results
    are bit-identical either way.  ``cell_timeout``/``max_retries`` tune
    the pool's worker supervision (see
    :class:`~repro.experiments.parallel.SupervisorConfig`).  Raises
    :class:`~repro.experiments.parallel.QuarantinedCellError` if any
    cell exhausted its retries — after every healthy cell has been
    journaled, so a rerun resumes instead of re-simulating.
    """
    from repro.experiments import parallel

    config = config or ExperimentConfig()
    cache = StatsCache(path=cache_path)
    parallel.run_cells(
        parallel.suite_cells(), config, cache, jobs=jobs,
        cell_timeout=cell_timeout, max_retries=max_retries,
    ).raise_quarantined()
    sections: "dict[str, str]" = {}
    for name, (run_fn, render_full) in EXPERIMENTS.items():
        if name == "table1":
            result = run_fn()
        else:
            result = run_fn(config, cache=cache)
        text = result.report.render()
        if render_full is not None:
            text += "\n\n" + render_full(result)
        sections[name] = text
    return SuiteResult(sections=sections)


def main() -> None:  # pragma: no cover - CLI convenience
    import sys

    config = ExperimentConfig.quick() if "--quick" in sys.argv else None
    print(run_suite(config).render())


if __name__ == "__main__":  # pragma: no cover
    main()
