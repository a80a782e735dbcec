"""Benchmark: Figure 7 — block reuse patterns in private caches."""

from repro.experiments import fig7_reuse as fig7


def test_bench_fig7(benchmark, bench_config, run_experiment):
    result = benchmark.pedantic(
        run_experiment, args=("fig7", bench_config), rounds=1,
        iterations=1,
    )
    for workload in ("oltp", "apache", "specjbb"):
        ros = result.ros[workload]
        rws = result.rws[workload]
        if sum(v for v in ros.values()):
            # Shape: some ROS blocks are replaced without any reuse —
            # the waste controlled replication's first-use policy
            # avoids.  At the default benchmark scale the caches are
            # only lightly pressured, so the fraction is far below the
            # paper's steady-state 42%; the full-length runs recorded
            # in EXPERIMENTS.md are the quantitative comparison.
            assert ros["0"] > 0.0
        if sum(v for v in rws.values()):
            # Shape (Section 5.1.2, verbatim): "most of the blocks are
            # invalidated before five or fewer reuses" — long-lived
            # dirty blocks are rare, so keeping the single copy next to
            # the readers is safe.  (Our L1's recency layer absorbs
            # re-reads the paper's thrashier L1s sent to the L2, which
            # shifts mass from the 2-5 bucket toward 0-1; see
            # EXPERIMENTS.md.)
            assert rws[">5"] < 0.25
            assert rws["0"] + rws["1"] + rws["2-5"] > 0.75
    print()
    print(result.report.render())
    print()
    print(fig7.render_full(result))
