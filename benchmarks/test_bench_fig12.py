"""Benchmark: Figure 12 — multiprogrammed performance."""

from repro.experiments import fig12_mp_performance as fig12


def test_bench_fig12(benchmark, bench_config, run_experiment):
    result = benchmark.pedantic(
        run_experiment, args=("fig12", bench_config), rounds=1,
        iterations=1,
    )
    averages = result.averages
    # Shape: cmp-nurapid > private > non-uniform-shared > shared on
    # average — Figure 12's ordering.
    assert averages["cmp-nurapid"] > 1.0
    assert averages["private"] > averages["non-uniform-shared"] - 0.02
    assert averages["cmp-nurapid"] >= averages["private"] - 0.02
    print()
    print(result.report.render())
    print()
    print(fig12.render_full(result))
