"""Ablation: on-chip vs. DRAM-resident metadata storage.

Reproduces the paper's *motivating* comparison (Sections 1 and 2.1): early
temporal prefetchers (STMS, Domino) kept correlation metadata in DRAM and
paid for every index probe and history fetch in memory bandwidth; Triage
moved the metadata into LLC ways, and Triangel/Prophet inherit that.  This
experiment runs both generations on the SPEC suite and reports speedup,
normalized DRAM traffic, and the share of traffic that is metadata
movement — the quantity that is ~0 for the on-chip schemes and dominant
for the off-chip ones.

Expected shape: STMS/Domino achieve real coverage (temporal patterns are
there to mine) but their normalized traffic is far above Triangel's and
Prophet's, while their speedup is at or below the on-chip schemes' because
metadata movement contends with demand requests for the channel.  MISB —
the hybrid generation with an on-chip index cache over the off-chip store
— lands between the two: less traffic than STMS, more than the fully
on-chip schemes.
"""

from __future__ import annotations

from typing import Optional

from ..sim.config import SystemConfig
from ..sim.results import format_table
from ..workloads.spec import spec_suite
from .common import (
    NAMED_SCHEMES,
    SuiteResults,
    evaluate_suite,
    spec_labels,
    suite_request,
)
from .registry import ExperimentRequest, register_experiment

SCHEMES = {
    name: NAMED_SCHEMES[name]
    for name in ("stms", "domino", "misb", "triangel", "prophet")
}


def run(n_records: int = 150_000, config: Optional[SystemConfig] = None) -> SuiteResults:
    """Run the four schemes on the seven SPEC workloads."""
    return evaluate_suite(spec_suite(n_records), config, SCHEMES)


def metadata_traffic_share(results: SuiteResults, scheme: str) -> float:
    """Geomean share of DRAM traffic that is metadata movement."""
    shares = []
    for label in results.labels:
        r = results.by_workload[label][scheme]
        if r.dram_traffic:
            shares.append(r.dram_metadata_traffic / r.dram_traffic)
    return sum(shares) / len(shares) if shares else 0.0


def render(results: SuiteResults) -> str:
    """Render speedup, traffic, and metadata-share rows."""
    parts = [
        results.table("speedup", "Ablation: on-chip vs off-chip metadata — speedup"),
        "",
        results.table("traffic", "Normalized DRAM traffic"),
        "",
    ]
    rows = [
        [s, f"{metadata_traffic_share(results, s):.3f}"] for s in results.schemes
    ]
    parts.append(
        format_table(["scheme", "metadata share of DRAM traffic"], rows)
    )
    return "\n".join(parts)


def report(n_records: int = 150_000) -> str:
    return render(run(n_records))


@register_experiment(
    "offchip",
    description="on-chip vs DRAM-resident metadata (STMS/Domino)",
    records=150_000,
    kind="suite",
    metrics=("traffic", "speedup"),
    workloads=spec_labels(),
    schemes=tuple(SCHEMES),
    render=render,
)
def experiment(req: ExperimentRequest) -> SuiteResults:
    return suite_request(req, schemes=SCHEMES)
