"""Multiprogrammed workloads: SPEC2K application models and Table 2 mixes.

Each core runs an independent application — "negligible sharing"
(Section 5.2.1) — so the sharing mix is 100% private and what matters
is each application's *capacity demand*.  The per-application models
below encode the well-known SPEC CPU2000 L2 behaviour at the paper's
2 MB/core granularity: art, mcf, and swim stream through multi-MB
working sets; mesa, gzip, vortex, and wupwise fit comfortably; apsi,
equake, and ammp sit in between.  The resulting non-uniform demands are
exactly what capacity stealing exploits (Section 3.3): a core whose hot
set overflows its 2 MB share demotes blocks into a neighbour's
under-used d-group instead of evicting them off-chip.

Footprints are in 128 B blocks: 16384 blocks = 2 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.rng import DEFAULT_SEED, stream
from repro.workloads.base import (
    RegionSpec,
    StreamWorkload,
    WorkloadSpec,
    _build_regions,
    _CoreStream,
)


@dataclass(frozen=True)
class AppModel:
    """Capacity/locality model of one SPEC2K application.

    ``hot_blocks`` is the L2-resident working set; ``rotate_prob``
    models streaming turnover (large for array codes like art/swim/mcf,
    small for pointer-chasing codes with stable footprints).
    """

    name: str
    footprint_blocks: int
    hot_blocks: int
    rotate_prob: float
    mem_ratio: float
    write_fraction: float
    zipf_alpha: float = 0.6
    #: Recent-window reuse probability.  Streaming array codes (art,
    #: swim, mcf) have poor temporal locality — lower values — which is
    #: also what lets their large hot sets actually cycle through the
    #: caches.
    p_recent: float = 0.95

    def region(self) -> RegionSpec:
        return RegionSpec(
            blocks=self.footprint_blocks,
            zipf_alpha=self.zipf_alpha,
            write_fraction=self.write_fraction,
            hot_blocks=self.hot_blocks,
            hot_fraction=0.85,
            rotate_prob=self.rotate_prob,
        )


#: SPEC CPU2000 application models (Section 4.3 / Table 2's 10 apps).
SPEC_APPS = {
    "apsi": AppModel("apsi", 24000, 11000, 0.003, 0.30, 0.20, p_recent=0.92),
    "art": AppModel("art", 55000, 24000, 0.005, 0.35, 0.15, p_recent=0.87),
    "equake": AppModel("equake", 28000, 13000, 0.004, 0.33, 0.15, p_recent=0.91),
    "mesa": AppModel("mesa", 8000, 3000, 0.002, 0.28, 0.25, p_recent=0.94),
    "ammp": AppModel("ammp", 26000, 12000, 0.003, 0.32, 0.20, p_recent=0.91),
    "swim": AppModel("swim", 50000, 22000, 0.005, 0.36, 0.25, p_recent=0.87),
    "vortex": AppModel("vortex", 14000, 6500, 0.002, 0.30, 0.20, p_recent=0.93),
    "mcf": AppModel("mcf", 70000, 30000, 0.005, 0.38, 0.15, p_recent=0.86),
    "gzip": AppModel("gzip", 10000, 4500, 0.002, 0.28, 0.25, p_recent=0.94),
    "wupwise": AppModel("wupwise", 12000, 5500, 0.002, 0.30, 0.20, p_recent=0.93),
}

#: Table 2 verbatim.
MIXES = {
    "MIX1": ("apsi", "art", "equake", "mesa"),
    "MIX2": ("ammp", "swim", "mesa", "vortex"),
    "MIX3": ("apsi", "mcf", "gzip", "mesa"),
    "MIX4": ("ammp", "gzip", "vortex", "wupwise"),
}


def _app_spec(app: AppModel) -> WorkloadSpec:
    """A single-application spec: all references private."""
    return WorkloadSpec(
        name=app.name,
        mem_ratio=app.mem_ratio,
        p_private=1.0,
        p_shared_ro=0.0,
        p_shared_rw=0.0,
        private=app.region(),
        p_recent=app.p_recent,
        recent_window=320,
        # SPEC2K array codes have less within-line reuse than the
        # commercial workloads; a lower spatial factor also matches the
        # paper's larger L2-sensitivity for the mixes (Figure 12's
        # gains exceed Figure 10's).
        spatial_factor=3.0,
    )


class MultiprogrammedWorkload(StreamWorkload):
    """One Table 2 mix: a different application on each core."""

    def __init__(self, mix_name: str, seed: int = DEFAULT_SEED) -> None:
        if mix_name not in MIXES:
            raise KeyError(
                f"unknown mix {mix_name!r}; choose from {sorted(MIXES)}"
            )
        self.name = mix_name
        self.apps = [SPEC_APPS[app] for app in MIXES[mix_name]]
        self.num_cores = len(self.apps)
        self.seed = seed

    def _streams(self) -> "List[_CoreStream]":
        streams = []
        for core, app in enumerate(self.apps):
            spec = _app_spec(app)
            regions, probs = _build_regions(spec, core, {}, app.region(), self.seed)
            rng = stream(f"mix.{self.name}.{app.name}.core{core}", self.seed)
            streams.append(
                _CoreStream(spec, core, self.num_cores, rng, regions, probs)
            )
        return streams


def make_mix(mix_name: str, seed: int = DEFAULT_SEED) -> MultiprogrammedWorkload:
    """Build the trace generator for one Table 2 mix."""
    return MultiprogrammedWorkload(mix_name, seed)
