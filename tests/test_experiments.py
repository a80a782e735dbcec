"""Smoke and structure tests for the experiment harnesses.

A module-scoped suite run with a tiny configuration exercises every
figure's pipeline once; individual tests check each report's structure
and basic sanity (fractions in range, baselines normalized to 1.0).
Statistical *shape* assertions against the paper belong to the
benchmark harness, which runs much longer traces.
"""

import pytest

from repro.experiments import (
    ablations,
    fig5_access_distribution,
    fig6_opportunity,
    fig7_reuse,
    fig8_tag_distribution,
    fig9_data_distribution,
    fig10_performance,
    fig11_mp_distribution,
    fig12_mp_performance,
    parallel,
    table1_latencies,
)
from repro.experiments.report import Comparison, ExperimentReport, format_table, pct
from repro.experiments.runner import (
    DESIGN_FACTORIES,
    ExperimentConfig,
    StatsCache,
    build_design,
    run_multithreaded,
    sweep,
)
from repro.harness import check_system

TINY = ExperimentConfig(warmup_per_core=2500, measure_per_core=2500)


@pytest.fixture(scope="module")
def cache():
    return StatsCache()


class TestReportPrimitives:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["x", "y"], ["longer", "z"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_pct(self):
        assert pct(0.1234) == "12.3%"

    def test_comparison_row_with_missing_paper_value(self):
        row = Comparison("m", None, 0.5).row()
        assert row == ["m", "-", "50.0%"]

    def test_report_render_contains_notes(self):
        report = ExperimentReport("T")
        report.add("x", 0.1, 0.2)
        report.notes.append("a note")
        text = report.render()
        assert "T" in text and "note: a note" in text


class TestRunner:
    def test_build_design_known_names(self):
        for name in DESIGN_FACTORIES:
            design = build_design(name)
            assert hasattr(design, "access")

    def test_build_design_unknown_name(self):
        with pytest.raises(KeyError):
            build_design("magic-cache")

    @pytest.mark.parametrize("name", ["uniform-shared", "ideal"])
    def test_scaled_shared_designs_build_every_core(self, name):
        # The shared array's core count sizes the system and the L1s an
        # eviction invalidates, so a 16-core build must carry 16 cores.
        design = build_design(name, num_cores=16)
        assert design.num_cores == 16
        system, stats = run_multithreaded(
            design, "oltp", ExperimentConfig(10, 50), num_cores=16
        )
        assert len(system.cores) == 16
        assert len(stats.per_core) == 16
        check_system(system)

    def test_stats_cache_memoizes(self, monkeypatch):
        """One simulation per key: a second sweep over the same cache
        serves the cell without running it again."""
        simulated = []
        simulate = parallel._simulate_cell

        def counting_cell(cell, *args):
            simulated.append(cell)
            return simulate(cell, *args)

        monkeypatch.setattr(parallel, "_simulate_cell", counting_cell)
        cache = StatsCache()
        first = sweep(["barnes"], ["uniform-shared"], TINY, cache=cache, jobs=1)
        second = sweep(["barnes"], ["uniform-shared"], TINY, cache=cache, jobs=1)
        assert simulated == [parallel.Cell("barnes", "uniform-shared")]
        assert (
            first.stats["barnes"]["uniform-shared"]
            is second.stats["barnes"]["uniform-shared"]
        )

    def test_stats_cache_persists_across_processes(self, tmp_path, monkeypatch):
        """A killed sweep resumes from the on-disk cache, not a re-run."""
        path = str(tmp_path / "stats.cache")
        first = StatsCache(path=path)
        stats = sweep(
            ["barnes"], ["uniform-shared"], TINY, cache=first, jobs=1
        ).stats["barnes"]["uniform-shared"]
        assert len(first) == 1

        def exploding_cell(*args):
            raise AssertionError("resumed sweep must not re-simulate")

        monkeypatch.setattr(parallel, "_simulate_cell", exploding_cell)
        fresh = StatsCache(path=path)  # simulates a new process
        assert len(fresh) == 1
        reloaded = sweep(
            ["barnes"], ["uniform-shared"], TINY, cache=fresh, jobs=1
        ).stats["barnes"]["uniform-shared"]
        assert reloaded.accesses.counts == stats.accesses.counts

    def test_stats_cache_ignores_corrupt_file(self, tmp_path):
        path = tmp_path / "stats.cache"
        path.write_bytes(b"\x00not a pickle")
        assert len(StatsCache(path=str(path))) == 0


class TestTable1:
    def test_report_rows(self):
        result = table1_latencies.run()
        labels = [c.label for c in result.report.comparisons]
        assert "shared 8MB total" in labels
        assert "d-group farthest" in labels

    def test_derivation_check_passes(self):
        table1_latencies.check_derivation(tolerance_cycles=2)

    def test_derivation_check_fails_with_zero_tolerance(self):
        # The model is calibrated to +/-1 cycle on two rows, so a zero
        # tolerance must trip (guarding against a vacuous check).
        with pytest.raises(AssertionError):
            table1_latencies.check_derivation(tolerance_cycles=0)


class TestFigureRuns:
    def test_fig5(self, cache):
        result = fig5_access_distribution.run(TINY, cache=cache)
        for workload, by_design in result.distributions.items():
            for design, dist in by_design.items():
                assert sum(dist.values()) == pytest.approx(1.0)
        assert "oltp" in fig5_access_distribution.render_full(result)

    def test_fig5_shared_has_no_sharing_misses(self, cache):
        result = fig5_access_distribution.run(TINY, cache=cache)
        for workload in result.distributions:
            shared = result.distributions[workload]["uniform-shared"]
            assert shared["ros"] == 0.0
            assert shared["rws"] == 0.0

    def test_fig6(self, cache):
        result = fig6_opportunity.run(TINY, cache=cache)
        for workload, by_design in result.relative.items():
            assert by_design["uniform-shared"] == pytest.approx(1.0)

    def test_fig7(self, cache):
        result = fig7_reuse.run(TINY, cache=cache)
        for workload in result.ros:
            total = sum(result.ros[workload].values())
            assert total == 0.0 or total == pytest.approx(1.0)

    def test_fig8(self, cache):
        result = fig8_tag_distribution.run(TINY, cache=cache)
        for workload, by_design in result.distributions.items():
            assert set(by_design) == {
                "uniform-shared",
                "private",
                "cmp-nurapid-cr",
                "cmp-nurapid-isc",
            }

    def test_fig9(self, cache):
        result = fig9_data_distribution.run(TINY, cache=cache)
        for workload, by_design in result.distributions.items():
            for dist in by_design.values():
                assert sum(dist.values()) == pytest.approx(1.0)

    def test_fig10(self, cache):
        result = fig10_performance.run(TINY, cache=cache)
        assert set(result.averages) == set(fig10_performance.DESIGNS)
        assert result.averages["uniform-shared"] == pytest.approx(1.0)

    def test_fig11(self, cache):
        result = fig11_mp_distribution.run(TINY, cache=cache)
        for mix, rates in result.miss_rates.items():
            for rate in rates.values():
                assert 0.0 <= rate <= 1.0
        assert 0.0 <= result.closest_of_hits <= 1.0

    def test_fig12(self, cache):
        result = fig12_mp_performance.run(TINY, cache=cache)
        for mix, by_design in result.relative.items():
            assert by_design["uniform-shared"] == pytest.approx(1.0)

    def test_reports_render(self, cache):
        for module in (
            fig5_access_distribution,
            fig6_opportunity,
            fig7_reuse,
            fig8_tag_distribution,
            fig9_data_distribution,
            fig10_performance,
            fig11_mp_distribution,
            fig12_mp_performance,
        ):
            result = module.run(TINY, cache=cache)
            text = result.report.render()
            assert "paper" in text and "measured" in text


class TestAblations:
    def test_promotion_ablation(self):
        result = ablations.run_promotion(TINY)
        assert "fastest" in result.raw and "next-fastest" in result.raw

    def test_tag_capacity_ablation(self):
        result = ablations.run_tag_capacity(TINY)
        assert set(result.raw) == {"1x", "2x", "4x"}

    def test_replication_use_ablation(self):
        result = ablations.run_replication_use(TINY)
        assert set(result.raw) == {"use1", "use2", "use3"}

    def test_ranking_ablation(self):
        result = ablations.run_ranking(TINY)
        assert set(result.raw) == {"staggered", "naive"}

    def test_update_protocol_ablation(self):
        result = ablations.run_update_protocol(TINY)
        assert set(result.raw) == {"cmp-nurapid", "private-update"}

    def test_naive_preferences_start_with_own_group(self):
        prefs = ablations._naive_preferences(4)
        for core in range(4):
            assert prefs[core][0] == core
            assert sorted(prefs[core]) == [0, 1, 2, 3]
