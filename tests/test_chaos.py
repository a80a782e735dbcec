"""The chaos suite is itself the assertion: every orchestration fault
class must converge to stats bit-identical to a fault-free run (or, for
poison cells, to a quarantine record).  These tests run the real
scenarios end-to-end — no mocks — so they double as the regression net
for the supervision layer.
"""

import pytest

from repro.harness import chaos


class TestRegistry:
    def test_every_fault_class_has_a_scenario(self):
        assert set(chaos.SCENARIOS) == {
            "worker-kill",
            "worker-hang",
            "worker-freeze",
            "shard-truncate",
            "shard-bitflip",
            "poison-cell",
        }

    def test_descriptions_are_present(self):
        for name, (description, scenario) in chaos.SCENARIOS.items():
            assert description, name
            assert callable(scenario), name

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="no-such-fault"):
            chaos.run_chaos(names=["no-such-fault"])


class TestConvergence:
    def test_all_scenarios_converge(self):
        report = chaos.run_chaos()
        assert report.passed, "\n" + report.render()
        assert len(report.results) == len(chaos.SCENARIOS)

    def test_report_render_summarizes(self):
        report = chaos.ChaosReport(
            results=[
                chaos.ScenarioResult("worker-kill", True, "ok", 0.1),
                chaos.ScenarioResult("poison-cell", False, "lost cell", 0.2),
            ]
        )
        assert not report.passed
        text = report.render()
        assert "PASS" in text and "FAIL" in text
        assert "1 failed" in text
