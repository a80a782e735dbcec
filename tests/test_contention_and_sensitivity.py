"""Tests for the bus-contention model and the sensitivity/contrast
experiment modules."""

import pytest

from repro.experiments import energy_report, sensitivity, smp_contrast, suite
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentConfig, StatsCache
from repro.interconnect.bus import BusOp, BusTransaction, SnoopBus

TINY = ExperimentConfig(warmup_per_core=2000, measure_per_core=2000)


class TestBusContention:
    def test_no_contention_by_default(self):
        bus = SnoopBus(latency=32)
        first = bus.issue(BusTransaction(BusOp.BUS_RD, 0x100, 0), now=0)
        second = bus.issue(BusTransaction(BusOp.BUS_RD, 0x200, 1), now=0)
        assert first.latency == second.latency == 32

    def test_back_to_back_transactions_queue(self):
        bus = SnoopBus(latency=32, occupancy=8)
        first = bus.issue(BusTransaction(BusOp.BUS_RD, 0x100, 0), now=100)
        assert first.latency == 32  # bus was idle
        second = bus.issue(BusTransaction(BusOp.BUS_RD, 0x200, 1), now=100)
        assert second.latency == 32 + 8  # queued behind the first
        third = bus.issue(BusTransaction(BusOp.BUS_RD, 0x300, 2), now=100)
        assert third.latency == 32 + 16

    def test_spaced_transactions_do_not_queue(self):
        bus = SnoopBus(latency=32, occupancy=8)
        bus.issue(BusTransaction(BusOp.BUS_RD, 0x100, 0), now=100)
        late = bus.issue(BusTransaction(BusOp.BUS_RD, 0x200, 1), now=200)
        assert late.latency == 32

    def test_contention_monotone_in_occupancy(self):
        latencies = []
        for occupancy in (0, 8, 16):
            bus = SnoopBus(latency=32, occupancy=occupancy)
            bus.issue(BusTransaction(BusOp.BUS_RD, 0x100, 0), now=0)
            result = bus.issue(BusTransaction(BusOp.BUS_RD, 0x200, 1), now=0)
            latencies.append(result.latency)
        assert latencies == sorted(latencies)


class TestSmpContrast:
    def test_runs_and_reports_both_regimes(self):
        result = smp_contrast.run(TINY)
        assert ("cmp", "controlled") in result.throughput
        assert ("smp", "eager") in result.throughput
        text = result.report.render()
        assert "on-chip bus" in text and "off-chip" in text

    def test_cr_benefit_shrinks_at_smp_latency(self):
        """The Section 1 claim: trading latency for capacity pays less
        (or negatively) when remote accesses cost like memory."""
        result = smp_contrast.run(
            ExperimentConfig(warmup_per_core=6000, measure_per_core=6000)
        )
        assert result.cr_benefit_smp < result.cr_benefit_cmp + 0.02


class TestSensitivity:
    def test_capacity_sweep_structure(self):
        result = sensitivity.run_capacity_sweep(TINY)
        assert set(result.raw) == {"4MB", "8MB", "16MB"}
        for stats in result.raw.values():
            assert set(stats) == {"uniform-shared", "private", "cmp-nurapid"}

    def test_core_scaling_runs_eight_cores(self):
        result = sensitivity.run_core_scaling(TINY)
        assert set(result.raw) == {"4-core", "8-core"}
        assert result.raw["8-core"].accesses.total > 0

    def test_bus_contention_never_helps_private(self):
        result = sensitivity.run_bus_contention(TINY)
        uncontended = result.raw["uncontended (paper)"].throughput
        contended = result.raw["16-cycle occupancy"].throughput
        assert contended <= uncontended * 1.01


@pytest.fixture(scope="class")
def energy():
    """The energy report over its cells, filled first."""
    cache = StatsCache()
    run_cells(suite.EXPERIMENTS["energy"].cells, TINY, cache)
    return energy_report.run(TINY, cache)


class TestEnergyReport:
    def test_report_prices_three_designs(self, energy):
        assert set(energy.per_access_pj) == {
            "uniform-shared",
            "private",
            "cmp-nurapid",
        }
        for value in energy.per_access_pj.values():
            assert value > 0

    def test_pointer_ratio_reported(self, energy):
        assert "pointer-return" in energy.report.render()
