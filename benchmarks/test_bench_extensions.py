"""Benchmarks: extension studies beyond the paper's figures.

The SMP-contrast experiment quantifies the paper's Section 1 argument;
the sensitivity sweeps probe robustness to machine parameters; the
energy report prices each design's measured access mix.
"""

from repro.experiments import sensitivity, smp_contrast


def test_bench_smp_contrast(benchmark, bench_config):
    result = benchmark.pedantic(
        smp_contrast.run, args=(bench_config,), rounds=1, iterations=1
    )
    # Shape (Section 1): controlled replication's benefit shrinks when
    # remote accesses cost like off-chip SMP transfers.
    assert result.cr_benefit_smp < result.cr_benefit_cmp + 0.02
    print()
    print(result.report.render())


def test_bench_capacity_sensitivity(benchmark, bench_config):
    result = benchmark.pedantic(
        sensitivity.run_capacity_sweep, args=(bench_config,), rounds=1, iterations=1
    )
    # Shape: private caches' extra misses over shared never shrink as
    # capacity drops from 16 MB to 4 MB.
    def extra_misses(budget):
        stats = result.raw[budget]
        return (
            stats["private"].accesses.miss_rate
            - stats["uniform-shared"].accesses.miss_rate
        )

    assert extra_misses("4MB") >= extra_misses("16MB") - 0.01
    print()
    print(result.report.render())


def test_bench_core_scaling(benchmark, bench_config):
    result = benchmark.pedantic(
        sensitivity.run_core_scaling, args=(bench_config,), rounds=1, iterations=1
    )
    # Shape: capacity stealing keeps most accesses local at both scales.
    for stats in result.raw.values():
        assert stats.dgroups.distribution()["closest"] > 0.3
    print()
    print(result.report.render())


def test_bench_bus_contention(benchmark, bench_config):
    result = benchmark.pedantic(
        sensitivity.run_bus_contention, args=(bench_config,), rounds=1, iterations=1
    )
    uncontended = result.raw["uncontended (paper)"].throughput
    contended = result.raw["16-cycle occupancy"].throughput
    assert contended <= uncontended * 1.01
    print()
    print(result.report.render())


def test_bench_energy(benchmark, bench_config, run_experiment):
    result = benchmark.pedantic(
        run_experiment, args=("energy", bench_config), rounds=1,
        iterations=1,
    )
    # Shape: every design's energy is dominated by its off-chip misses,
    # so the miss-rate ordering carries over to energy.
    assert result.per_access_pj["cmp-nurapid"] <= (
        result.per_access_pj["private"] * 1.2
    )
    print()
    print(result.report.render())
