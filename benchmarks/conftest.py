"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  The
benchmarked callable runs the full simulation pipeline; shape checks
against the paper run on the result.  ``BENCH_CONFIG`` controls trace
length: the default is sized so the whole harness finishes in a few
minutes while still showing the paper's qualitative shape — set
``REPRO_BENCH_SCALE`` (e.g. to ``4``) for longer, sharper runs like the
ones recorded in EXPERIMENTS.md.
"""

import os

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.experiments.runner import StatsCache

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
        default=None,
        help="prewarm the benchmarked sweeps across N worker processes "
        "(default: the REPRO_JOBS environment variable, else serial); "
        "results are bit-identical either way",
    )


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def stats_cache(request) -> StatsCache:
    """One cache for the whole benchmark session: figures sharing the
    same (workload, design) simulations reuse them.

    With ``--jobs N`` (or ``REPRO_JOBS``) the suite's cell union is
    prewarmed through the parallel executor first, so the per-figure
    benchmarks below mostly measure rendering over cache hits.
    """
    from repro.experiments import parallel, suite

    cache = StatsCache()
    jobs = parallel.resolve_jobs(request.config.getoption("--jobs"))
    if jobs > 1:
        parallel.run_cells(
            suite.cells(suite.select("all")), BENCH_CONFIG, cache, jobs=jobs
        )
    return cache
