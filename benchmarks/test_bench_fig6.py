"""Benchmark: Figure 6 — performance opportunity."""

from repro.experiments import fig6_opportunity as fig6


def test_bench_fig6(benchmark, bench_config, run_experiment):
    result = benchmark.pedantic(
        run_experiment, args=("fig6", bench_config), rounds=1,
        iterations=1,
    )
    for workload, by_design in result.relative.items():
        # Shape: the ideal cache is the upper bound everywhere.
        assert by_design["ideal"] >= by_design["non-uniform-shared"] - 0.01
        assert by_design["ideal"] >= by_design["private"] - 0.01
        # Shape: every alternative at least matches uniform-shared.
        for design in ("non-uniform-shared", "private", "ideal"):
            assert by_design[design] > 0.97
    print()
    print(result.report.render())
    print()
    print(fig6.render_full(result))
