"""Experiment harnesses reproducing every table and figure.

One module per paper artifact (``table1_latencies``, ``fig5`` ... ``fig12``),
plus ``ablations`` for the design-choice studies and ``suite``, the
registry of every ``repro experiment`` name, which runs any list of
them with shared simulations.
"""

from repro.experiments import (
    ablations,
    charts,
    energy_report,
    fig5_access_distribution,
    fig6_opportunity,
    fig7_reuse,
    fig8_tag_distribution,
    fig9_data_distribution,
    fig10_performance,
    fig11_mp_distribution,
    fig12_mp_performance,
    sensitivity,
    smp_contrast,
    table1_latencies,
)
from repro.experiments.report import ExperimentReport, format_table
from repro.experiments.runner import (
    DESIGN_FACTORIES,
    ExperimentConfig,
    StatsCache,
    SweepResult,
    build_design,
    read_sweep,
    run_mix,
    run_multithreaded,
)

__all__ = [
    "DESIGN_FACTORIES",
    "ExperimentConfig",
    "ExperimentReport",
    "StatsCache",
    "SweepResult",
    "ablations",
    "build_design",
    "charts",
    "energy_report",
    "fig10_performance",
    "fig11_mp_distribution",
    "fig12_mp_performance",
    "fig5_access_distribution",
    "fig6_opportunity",
    "fig7_reuse",
    "fig8_tag_distribution",
    "fig9_data_distribution",
    "format_table",
    "read_sweep",
    "run_mix",
    "run_multithreaded",
    "sensitivity",
    "smp_contrast",
    "table1_latencies",
]
