"""Golden workload streams: committed per-event digests must keep holding.

``tests/data/workloads/expected.json`` pins every event — core,
address, type, sharing class, gap and colocated count — of each Table 3
workload (4 and 16 cores) and each Table 2 mix, at two seeds and at run
lengths on both sides of the generator's 8192-step random-number batch.
Every fingerprint corpus in the repository rests on these streams, so a
failure here means the workload generator changed what it emits.
Either fix the regression or consciously regenerate with
``tests/data/workloads/generate.py`` alongside the model change.
"""

import json
from pathlib import Path

import pytest

from tests.data.workloads.generate import (
    LENGTHS,
    SEEDS,
    STREAMS,
    digest_events,
    make,
    stream_digest,
    stream_key,
)

DATA = Path(__file__).resolve().parent / "data" / "workloads"
EXPECTED = json.loads((DATA / "expected.json").read_text())


def test_corpus_is_complete():
    """Every generator stream has a committed digest, and only those."""
    assert EXPECTED, "expected.json is empty — regenerate the corpus"
    want = {
        stream_key(name, cores, seed, length)
        for name, cores in STREAMS
        for seed in SEEDS
        for length in LENGTHS
    }
    assert set(EXPECTED) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,cores", STREAMS)
def test_stream_matches_golden_digest(name, cores, seed):
    mismatches = [
        length
        for length in LENGTHS
        if stream_digest(name, cores, seed, length)
        != EXPECTED[stream_key(name, cores, seed, length)]
    ]
    assert not mismatches, f"{name}@c{cores} seed={seed} drifted at lengths {mismatches}"


@pytest.mark.parametrize("name", ["oltp", "MIX4"])
def test_timed_view_matches_golden_digest(name):
    """``events()``, the one-object-per-event view, is the same stream."""
    seed, length = SEEDS[0], 8193
    events = make(name, 4, seed).events(accesses_per_core=length)
    assert digest_events(events) == EXPECTED[stream_key(name, 4, seed, length)]
