"""Table 1: cache and bus latencies.

Regenerates the paper's latency table two ways: the published constants
used as simulator defaults, and the values re-derived from the
simplified Cacti-style model (:mod:`repro.latency.cacti`) following the
Section 4.2 methodology.  The derivation cross-check asserts the model
reproduces each row within a small tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import ExperimentReport
from repro.latency import cacti, tables


@dataclass
class Table1Result:
    report: ExperimentReport
    derived: "dict[str, int]"


#: (report label, Table 1 published value, derive_table1 key).
_ROWS = (
    ("shared 8MB tag", tables.SHARED_TAG_LATENCY, "shared_tag"),
    ("shared 8MB data", tables.SHARED_DATA_LATENCY, "shared_data"),
    ("shared 8MB total", tables.SHARED_TOTAL_LATENCY, "shared_total"),
    ("private 2MB tag", tables.PRIVATE_TAG_LATENCY, "private_tag"),
    ("private 2MB data", tables.PRIVATE_DATA_LATENCY, "private_data"),
    ("private 2MB total", tables.PRIVATE_TOTAL_LATENCY, "private_total"),
    ("CMP-NuRAPID tag", tables.NURAPID_TAG_LATENCY, "nurapid_tag"),
    ("d-group closest", 6, "dgroup_closest"),
    ("d-group middle", 20, "dgroup_mid"),
    ("d-group farthest", 33, "dgroup_farthest"),
)


def run(config=None) -> Table1Result:
    """Regenerate Table 1 (``config`` accepted for API uniformity)."""
    derived = cacti.derive_table1()
    report = ExperimentReport("Table 1: 8 MB cache and bus latencies (cycles)")
    for label, paper, key in _ROWS:
        report.add(label, float(paper), float(derived[key]), unit="x")
    report.add("bus latency", float(tables.BUS_LATENCY), float(tables.BUS_LATENCY), unit="x")
    report.notes.append(
        "'measured' = re-derived with the simplified Cacti-style model at "
        "70 nm / 5 GHz; the published Table 1 constants remain the "
        "simulator defaults."
    )
    return Table1Result(report=report, derived=derived)


def check_derivation(tolerance_cycles: int = 2) -> None:
    """Assert each derived row is within ``tolerance_cycles`` of Table 1."""
    derived = cacti.derive_table1()
    for label, paper, key in _ROWS:
        got = derived[key]
        if abs(got - paper) > tolerance_cycles:
            raise AssertionError(
                f"{label}: derived {got} cycles vs Table 1 {paper} "
                f"(tolerance {tolerance_cycles})"
            )

