"""Benchmark: Figure 9 — data-array access distributions for CR and ISC."""

from repro.experiments import fig9_data_distribution as fig9


def test_bench_fig9(benchmark, bench_config, run_experiment):
    result = benchmark.pedantic(
        run_experiment, args=("fig9", bench_config), rounds=1,
        iterations=1,
    )
    commercial = ("oltp", "apache", "specjbb")

    def closest(design):
        return sum(
            result.distributions[w][design]["closest"] for w in commercial
        ) / len(commercial)

    def farther(design):
        return sum(
            result.distributions[w][design]["farther"] for w in commercial
        ) / len(commercial)

    # Shape: both serve most accesses from the closest d-group…
    assert closest("cmp-nurapid-cr") > 0.5
    assert closest("cmp-nurapid-isc") > 0.4
    # …but ISC reaches into farther d-groups more (writers access the
    # copy kept close to the readers on every write).
    assert farther("cmp-nurapid-isc") > farther("cmp-nurapid-cr")
    print()
    print(result.report.render())
    print()
    print(fig9.render_full(result))
