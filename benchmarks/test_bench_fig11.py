"""Benchmark: Figure 11 — multiprogrammed cache access distribution."""

from repro.experiments import fig11_mp_distribution as fig11


def test_bench_fig11(benchmark, bench_config, run_experiment):
    result = benchmark.pedantic(
        run_experiment, args=("fig11", bench_config), rounds=1,
        iterations=1,
    )

    def avg(design):
        return sum(result.miss_rates[m][design] for m in fig11.WORKLOADS) / len(
            fig11.WORKLOADS
        )

    # Shape: private caches miss the most (no capacity sharing);
    # CMP-NuRAPID lands near the shared cache.
    assert avg("private") >= avg("cmp-nurapid") - 0.005
    assert avg("cmp-nurapid") <= avg("uniform-shared") + 0.03
    # Shape: capacity stealing keeps most hits in the closest d-group.
    assert result.closest_of_hits > 0.8
    print()
    print(result.report.render())
    print()
    print(fig11.render_full(result))
