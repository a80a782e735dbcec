"""Benchmark: Figure 10 — multithreaded performance (the headline)."""

from repro.experiments import fig10_performance as fig10


def test_bench_fig10(benchmark, bench_config, run_experiment):
    result = benchmark.pedantic(
        run_experiment, args=("fig10", bench_config), rounds=1,
        iterations=1,
    )
    averages = result.averages
    # Shape: CMP-NuRAPID beats the uniform-shared baseline…
    assert averages["cmp-nurapid"] > 1.0
    # …and the non-uniform-shared cache…
    assert averages["cmp-nurapid"] > averages["non-uniform-shared"]
    # …and stays below (or at) the ideal upper bound.
    assert averages["cmp-nurapid"] <= averages["ideal"] + 0.02
    # Shape: on commercial workloads CMP-NuRAPID at least matches the
    # private caches it shares Table 1 latencies with.
    assert averages["cmp-nurapid"] >= averages["private"] - 0.02
    print()
    print(result.report.render())
    print()
    print(fig10.render_full(result))
