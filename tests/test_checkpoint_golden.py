"""Golden checkpoint corpus: committed fixtures must keep loading.

``tests/data/checkpoints/`` holds one small checkpoint per recorded
(design, bus model) pair — every interconnect backend, mesh included —
plus ``expected.json`` with the final statistics fingerprint of each
fixture's *uninterrupted* run.  These tests are the compatibility
contract: every committed fixture must load under the current build
and resume to a bit-identical fingerprint.  A failure here means a
model or serialization change broke existing checkpoints — either fix
the regression or consciously regenerate the corpus with
``tests/data/checkpoints/generate.py``.
"""

import gzip
import itertools
import json
import pickle
from pathlib import Path

import pytest

from repro.harness import check_system, load_checkpoint
from repro.workloads.multithreaded import make_workload

DATA = Path(__file__).resolve().parent / "data" / "checkpoints"
FIXTURES = sorted(DATA.glob("*.ck"))
EXPECTED = json.loads((DATA / "expected.json").read_text())


def _stem(path: Path) -> str:
    """``cmp-nurapid-eventq.v2.ck`` -> ``cmp-nurapid-eventq``."""
    return path.name.rsplit(".", 2)[0]


def test_corpus_is_complete():
    """One v2 fixture committed for every recorded fingerprint."""
    assert EXPECTED, "expected.json is empty — regenerate the corpus"
    assert {path.name for path in FIXTURES} == {
        f"{stem}.v2.ck" for stem in EXPECTED
    }


def test_fixture_encodings_match_their_version():
    """Every fixture is a gzip-compressed envelope."""
    for path in FIXTURES:
        assert path.read_bytes()[:2] == b"\x1f\x8b", f"{path.name} is not gzip"


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_golden_fixture_loads_and_resumes_bit_identically(path):
    checkpoint = load_checkpoint(path)
    # The final fingerprint cannot see a mesh directory left out of
    # sync with the restored tags; the full invariant scan can.
    check_system(checkpoint.system)
    meta = checkpoint.meta
    workload = make_workload(meta["workload"], seed=meta["seed"])
    events = itertools.islice(
        workload.events(accesses_per_core=meta["accesses"]),
        meta["total_events"],
    )
    system = checkpoint.system
    for event in itertools.islice(events, checkpoint.event_index, None):
        system.step(event)
    assert system.stats().fingerprint() == EXPECTED[_stem(path)]


def test_v2_fixture_envelope_fields():
    """The envelope schema documented in DESIGN.md stays stable."""
    for path in FIXTURES:
        payload = pickle.loads(gzip.decompress(path.read_bytes()))
        assert payload["magic"] == "repro-checkpoint"
        assert payload["version"] == 2
        assert payload["design"] == payload["meta"]["design"]
        assert payload["bus_model"] in ("atomic", "eventq", "mesh")
        assert isinstance(payload["event_index"], int)
        assert isinstance(payload["state"], dict)
        assert {"params", "cores", "l1s", "design"} <= payload["state"].keys()
