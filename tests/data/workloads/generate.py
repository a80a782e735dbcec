"""Regenerate the golden workload-stream digests.

Run from the repository root::

    PYTHONPATH=src python tests/data/workloads/generate.py

For every Table 3 workload (at 4 and 16 cores) and every Table 2 mix,
at two seeds and five run lengths per core, the script digests every
event of the generated stream — its (core, address, type, sharing, gap,
colocated) — and records the digests in ``expected.json``.
``tests/test_workload_golden.py`` then asserts that the current
generator still produces every stream event for event.

The lengths straddle the generator's 8192-step random-number batch (one
short of it, exactly one, one past it) and add a single step and a
multi-batch run, so a change in how batches are drawn or carried from
one batch to the next shows up.  Regenerate only for a deliberate
change to the workload model, and commit the refreshed
``expected.json`` with that change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.common.rng import DEFAULT_SEED
from repro.common.types import AccessType, SharingClass
from repro.workloads.multiprogrammed import MIXES, make_mix
from repro.workloads.multithreaded import MULTITHREADED, make_workload

HERE = Path(__file__).resolve().parent

#: (workload or mix name, cores): every Table 3 workload at 4 and 16
#: cores, then every Table 2 mix (4 cores, one application each).
STREAMS = tuple(
    (spec.name, cores) for spec in MULTITHREADED for cores in (4, 16)
) + tuple((mix, 4) for mix in MIXES)

SEEDS = (DEFAULT_SEED, 7)

#: Accesses per core.
LENGTHS = (1, 8191, 8192, 8193, 20000)

#: One digested event, little-endian and unpadded.  ``write`` is 1 for
#: a store; ``sharing`` indexes :data:`SHARING`.
RECORD = np.dtype([
    ("core", "<i8"),
    ("address", "<i8"),
    ("write", "u1"),
    ("sharing", "u1"),
    ("gap", "<i8"),
    ("colocated", "<i8"),
])

SHARING = (
    SharingClass.PRIVATE,
    SharingClass.READ_ONLY_SHARED,
    SharingClass.READ_WRITE_SHARED,
)
_SHARING_CODE = {sharing: code for code, sharing in enumerate(SHARING)}

#: Events per hashed block; the digest does not depend on it.
_BLOCK = 1 << 16


def make(name: str, num_cores: int, seed: int):
    """The workload object generating one stream."""
    if name in MIXES:
        return make_mix(name, seed=seed)
    return make_workload(name, num_cores=num_cores, seed=seed)


def stream_key(name: str, num_cores: int, seed: int, length: int) -> str:
    return f"{name}/c{num_cores}/seed={seed}/n={length}"


def digest_chunks(chunks) -> str:
    """sha256 over every event as a :data:`RECORD`, 16 hex characters."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        record = np.empty(len(chunk), dtype=RECORD)
        for field, column in zip(RECORD.names, chunk.columns()):
            record[field] = column
        hasher.update(record.tobytes())
    return hasher.hexdigest()[:16]


def digest_events(events) -> str:
    """:func:`digest_chunks` of the same stream, one timed access per event."""
    hasher = hashlib.sha256()
    rows = []
    for event in events:
        access = event.access
        rows.append((
            access.core,
            access.address,
            access.type is AccessType.WRITE,
            _SHARING_CODE[access.sharing],
            event.gap,
            event.colocated,
        ))
        if len(rows) == _BLOCK:
            hasher.update(np.array(rows, dtype=RECORD).tobytes())
            rows = []
    if rows:
        hasher.update(np.array(rows, dtype=RECORD).tobytes())
    return hasher.hexdigest()[:16]


def stream_digest(name: str, num_cores: int, seed: int, length: int) -> str:
    workload = make(name, num_cores, seed)
    return digest_chunks(workload.chunks(accesses_per_core=length))


def main() -> None:
    expected = {}
    for name, num_cores in STREAMS:
        for seed in SEEDS:
            for length in LENGTHS:
                expected[stream_key(name, num_cores, seed, length)] = (
                    stream_digest(name, num_cores, seed, length)
                )
    out = HERE / "expected.json"
    out.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(expected)} stream digests)")


if __name__ == "__main__":
    main()
