"""Benchmark: Figure 5 — L2 access mix, shared vs private."""

from repro.common.types import MissClass  # noqa: F401 - documentation aid
from repro.experiments import fig5_access_distribution as fig5


def test_bench_fig5(benchmark, bench_config, run_experiment):
    result = benchmark.pedantic(
        run_experiment, args=("fig5", bench_config), rounds=1,
        iterations=1,
    )
    commercial = ("oltp", "apache", "specjbb")
    for workload in fig5.WORKLOADS:
        shared = result.distributions[workload]["uniform-shared"]
        private = result.distributions[workload]["private"]
        # Shape: shared caches have only hits and capacity misses.
        assert shared["ros"] == 0.0 and shared["rws"] == 0.0
        # Shape: private caches pay sharing misses wherever sharing exists.
        if workload in commercial:
            assert private["ros"] > 0.0
            assert private["rws"] > 0.0
    # Shape: commercial workloads share more than scientific ones.
    def sharing_misses(workload):
        dist = result.distributions[workload]["private"]
        return dist["ros"] + dist["rws"]

    commercial_avg = sum(sharing_misses(w) for w in commercial) / 3
    scientific_avg = (sharing_misses("ocean") + sharing_misses("barnes")) / 2
    assert commercial_avg > scientific_avg
    print()
    print(result.report.render())
    print()
    print(fig5.render_full(result))
