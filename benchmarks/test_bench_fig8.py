"""Benchmark: Figure 8 — tag-array access distributions for CR and ISC."""

from repro.experiments import fig8_tag_distribution as fig8


def test_bench_fig8(benchmark, bench_config, run_experiment):
    result = benchmark.pedantic(
        run_experiment, args=("fig8", bench_config), rounds=1,
        iterations=1,
    )
    commercial = ("oltp", "apache", "specjbb")

    def avg(design, key):
        return sum(
            result.distributions[w][design][key] for w in commercial
        ) / len(commercial)

    # Shape: CR never pays more ROS or capacity misses than private
    # caches.  (The strict reduction — the paper's -50% ROS / -40%
    # capacity — needs steady-state capacity pressure and shows up in
    # the full-length runs recorded in EXPERIMENTS.md; at the default
    # benchmark scale the cold first-touch misses every design shares
    # dominate and the two converge.)
    assert avg("cmp-nurapid-cr", "ros") <= avg("private", "ros") + 0.002
    assert avg("cmp-nurapid-cr", "capacity") <= avg("private", "capacity") + 0.005
    # Shape: ISC slashes RWS misses relative to private caches — this
    # is invalidation-driven and shows at any scale.  At the default
    # benchmark scale each sharer's one-time C-join still counts as an
    # RWS miss, so the reduction is smaller than the paper's
    # steady-state -80% (reached in the EXPERIMENTS.md runs).
    assert avg("cmp-nurapid-isc", "rws") < 0.8 * avg("private", "rws")
    print()
    print(result.report.render())
    print()
    print(fig8.render_full(result))
