"""Ablation: fixed metadata-table size (the resizing-risk claim).

Section 2.1.3 argues that resizing "provides only marginal performance
gains, while incorrect resizing can significantly degrade performance" —
which is why Prophet replaces runtime resizing with a profile-derived
fixed allocation.  This sweep pins the metadata table to 0/2/4/8 LLC ways
(no runtime resizing, no Prophet) and measures each workload at each
size.

Expected shape:

- workloads with large metadata needs (mcf, omnetpp) lose coverage when
  the table is squeezed — their best size is large;
- workloads with small needs (sphinx3) pay LLC-capacity pollution when
  the table is oversized — their best size is small;
- consequently no single fixed size is best for every workload, which is
  exactly the gap Prophet's per-application CSR hint closes.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..runner import SimJob, TraceRef, get_runner
from ..sim.config import SystemConfig, default_config
from ..sim.results import format_table, geomean
from .common import spec_traces, triage4_params
from .registry import ExperimentRequest, register_experiment

WAY_CHOICES = (0, 2, 4, 8)


def sweep(
    n_records: int = 120_000,
    config: Optional[SystemConfig] = None,
    ways: tuple = WAY_CHOICES,
    runner=None,
    workloads: Optional[list] = None,
) -> Dict[str, Dict[int, float]]:
    """workload -> {ways: speedup-over-no-TP-baseline}.

    One SimJob per (workload, table size) plus the shared baselines,
    executed through the runner.
    """
    config = config or default_config()
    runner = runner or get_runner()
    traces = spec_traces(n_records, workloads)
    jobs = []
    slots = []
    for trace in traces:
        ref = TraceRef.from_trace(trace)
        jobs.append(SimJob("baseline", ref, config, label="baseline"))
        slots.append((trace.label, "baseline"))
        for n_ways in ways:
            if n_ways == 0:
                continue  # no table at all == the baseline
            jobs.append(SimJob(
                "triage", ref, config,
                params=triage4_params(config, initial_ways=n_ways),
                label=f"ways{n_ways}",
            ))
            slots.append((trace.label, n_ways))
    by_slot = dict(zip(slots, runner.run(jobs)))

    out: Dict[str, Dict[int, float]] = {}
    for trace in traces:
        base = by_slot[(trace.label, "baseline")]
        row: Dict[int, float] = {}
        for n_ways in ways:
            if n_ways == 0:
                row[0] = 1.0
            else:
                row[n_ways] = by_slot[(trace.label, n_ways)].speedup_over(base)
        out[trace.label] = row
    return out


def best_ways(results: Dict[str, Dict[int, float]]) -> Dict[str, int]:
    """Each workload's best fixed size (what Prophet's CSR would encode)."""
    return {
        label: max(row, key=row.get) for label, row in results.items()
    }


def geomean_by_ways(results: Dict[str, Dict[int, float]]) -> Dict[int, float]:
    ways = sorted(next(iter(results.values())))
    return {
        w: geomean([row[w] for row in results.values()]) for w in ways
    }


def oracle_geomean(results: Dict[str, Dict[int, float]]) -> float:
    """Geomean when every workload gets its own best size — Prophet's
    per-application resizing upper bound."""
    return geomean([max(row.values()) for row in results.values()])


def render(results: Dict[str, Dict[int, float]]) -> str:
    ways = sorted(next(iter(results.values())))
    rows = []
    best = best_ways(results)
    for label, row in results.items():
        rows.append(
            [label]
            + [f"{row[w]:.3f}" for w in ways]
            + [str(best[label])]
        )
    gm = geomean_by_ways(results)
    rows.append(
        ["Geomean"] + [f"{gm[w]:.3f}" for w in ways]
        + [f"oracle {oracle_geomean(results):.3f}"]
    )
    return format_table(
        ["workload"] + [f"ways={w}" for w in ways] + ["best"],
        rows,
        "Fixed metadata-table size sweep (Section 2.1.3)",
    )


def report(n_records: int = 120_000) -> str:
    return render(sweep(n_records))


def _tabulate(results: Dict[str, Dict[int, float]]):
    ways = sorted(next(iter(results.values())))
    rows = [
        [label] + [f"{row[w]:.4f}" for w in ways]
        for label, row in results.items()
    ]
    gm = geomean_by_ways(results)
    rows.append(["geomean"] + [f"{gm[w]:.4f}" for w in ways])
    return ["workload"] + [f"ways={w}" for w in ways], rows


def _from_dict(d: Dict) -> Dict[str, Dict[int, float]]:
    # JSON stringifies the way-count keys; restore them as ints.
    return {
        label: {int(w): float(s) for w, s in row.items()}
        for label, row in d.items()
    }


@register_experiment(
    "ways",
    description="fixed metadata-table size sweep (resizing risk, 2.1.3)",
    records=120_000,
    supports_workloads=True,
    render=render,
    from_dict=_from_dict,
    tabulate=_tabulate,
)
def experiment(req: ExperimentRequest) -> Dict[str, Dict[int, float]]:
    return sweep(req.records, req.configure(), workloads=req.workloads)
