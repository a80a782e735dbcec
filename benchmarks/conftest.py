"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  The
benchmarked callable runs the full simulation pipeline (for a figure:
filling its cells, then reading them); shape checks against the paper
run on the result.  ``BENCH_CONFIG`` controls trace length: the
default is sized so the whole harness finishes in a few minutes while
still showing the paper's qualitative shape — set
``REPRO_BENCH_SCALE`` (e.g. to ``4``) for longer, sharper runs like the
ones recorded in EXPERIMENTS.md.
"""

import os

import pytest

from repro.experiments import parallel, suite
from repro.experiments.runner import ExperimentConfig, StatsCache

_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))

#: Trace length used by every benchmark.
BENCH_CONFIG = ExperimentConfig(
    warmup_per_core=int(40_000 * _SCALE),
    measure_per_core=int(40_000 * _SCALE),
)


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help="fill each benchmarked figure's cells across N worker "
        "processes (default: 1); results are bit-identical either way",
    )


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def run_experiment(request):
    """``run_experiment(name, config)``: fill registry entry ``name``'s
    cells into a fresh cache, as ``repro experiment`` does, then return
    what its ``run`` reads from it — a figure benchmark times both."""
    jobs = request.config.getoption("--jobs")

    def run(name: str, config: ExperimentConfig):
        experiment = suite.EXPERIMENTS[name]
        cache = StatsCache()
        parallel.run_cells(experiment.cells, config, cache, jobs=jobs)
        return experiment.run(config, cache)

    return run
