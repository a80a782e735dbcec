"""Golden trace identity: committed traces must keep replaying exactly.

``tests/data/traces/expected.json`` pins, for each traced run of
``tests/data/traces/generate.py``, the sha256 of the full event list,
the event queue's final ``now``, the race that landed and the
statistics fingerprint.  The runs cover the interconnect paths a
refactor can move without moving any statistic: bus phase records at
non-zero occupancy, deferred race deliveries firing inside later
transactions, mesh forwards in arrival order and CMP-NuRAPID's
hop-timed invalidations.  A failure names the runs that drifted;
either fix the regression or regenerate the corpus alongside a
deliberate model change.
"""

import json
from pathlib import Path

import pytest

from tests.data.traces.generate import RUNS, run

DATA = Path(__file__).resolve().parent / "data" / "traces"
EXPECTED = json.loads((DATA / "expected.json").read_text())


def test_corpus_is_complete():
    """Every generator run has a committed entry, and only those."""
    assert EXPECTED, "expected.json is empty — regenerate the corpus"
    assert set(EXPECTED) == set(RUNS)


def test_race_runs_land_their_race():
    """The race entries are not vacuous: each armed race was applied."""
    for name, (_, _, _, arm, _) in RUNS.items():
        assert (EXPECTED[name]["race"] is not None) == (arm is not None), name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden(name):
    assert run(name) == EXPECTED[name]
