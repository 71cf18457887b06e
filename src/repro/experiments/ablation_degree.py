"""Ablation: prefetch degree (the "aggressive prefetching" claim).

Section 1 of the paper observes that "Triangel's performance gain mostly
comes from aggressive prefetching instead of its metadata table
management": walking the Markov chain to degree 4 buys far more than any
replacement-policy refinement.  This sweep runs the Triage-with-
Triangel-metadata configuration (Fig. 19's base) at degree 1/2/4/8 and
tabulates speedup and traffic.

Expected shape: large gains from degree 1 -> 4 (the step Triangel takes),
with flattening or reversal at 8 on bandwidth-sensitive workloads (astar)
as extra chain depth turns into mispredicted lines and channel pressure —
the same over-aggressiveness trade-off that Fig. 16c shows for MVB
candidates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..runner import SimJob, TraceRef, get_runner
from ..sim.config import SystemConfig, default_config
from ..sim.results import format_table, geomean
from .common import spec_traces, triage4_params
from .registry import ExperimentRequest, register_experiment

DEGREES = (1, 2, 4, 8)


def sweep(
    n_records: int = 120_000,
    config: Optional[SystemConfig] = None,
    degrees: tuple = DEGREES,
    runner=None,
    workloads: Optional[List[str]] = None,
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """degree -> workload -> {"speedup": ..., "traffic": ...}.

    One SimJob per (workload, degree) plus the shared baselines, executed
    through the runner (parallel across the whole sweep, cached on disk).
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
        for degree in degrees:
            jobs.append(SimJob(
                "triage", ref, config, params=triage4_params(config, degree),
                label=f"triage{degree}",
            ))
            slots.append((trace.label, degree))
    by_slot = dict(zip(slots, runner.run(jobs)))

    out: Dict[int, Dict[str, Dict[str, float]]] = {d: {} for d in degrees}
    for trace in traces:
        base = by_slot[(trace.label, "baseline")]
        for degree in degrees:
            res = by_slot[(trace.label, degree)]
            out[degree][trace.label] = {
                "speedup": res.speedup_over(base),
                "traffic": res.traffic_over(base),
            }
    return out


def geomean_by_degree(
    results: Dict[int, Dict[str, Dict[str, float]]], metric: str = "speedup"
) -> Dict[int, float]:
    return {
        degree: geomean([w[metric] for w in rows.values()])
        for degree, rows in results.items()
    }


def render(results: Dict[int, Dict[str, Dict[str, float]]]) -> str:
    degrees = sorted(results)
    labels: List[str] = list(next(iter(results.values())))
    parts = []
    for metric in ("speedup", "traffic"):
        rows = [
            [label] + [f"{results[d][label][metric]:.3f}" for d in degrees]
            for label in labels
        ]
        gm = geomean_by_degree(results, metric)
        rows.append(["Geomean"] + [f"{gm[d]:.3f}" for d in degrees])
        parts.append(
            format_table(
                ["workload"] + [f"degree={d}" for d in degrees],
                rows,
                f"Prefetch-degree ablation — {metric}",
            )
        )
    return "\n\n".join(parts)


def report(n_records: int = 120_000) -> str:
    return render(sweep(n_records))


def _tabulate(results: Dict[int, Dict[str, Dict[str, float]]]):
    degrees = sorted(results)
    labels = list(next(iter(results.values())))
    rows = [
        [label]
        + [f"{results[d][label]['speedup']:.4f}" for d in degrees]
        for label in labels
    ]
    gm = geomean_by_degree(results, "speedup")
    rows.append(["geomean"] + [f"{gm[d]:.4f}" for d in degrees])
    return ["workload"] + [f"degree={d}" for d in degrees], rows


def _from_dict(d: Dict) -> Dict[int, Dict[str, Dict[str, float]]]:
    # JSON stringifies the degree keys; restore them as ints.
    return {int(degree): rows for degree, rows in d.items()}


@register_experiment(
    "degree",
    description="prefetch-degree ablation (aggressiveness claim)",
    records=120_000,
    supports_workloads=True,
    render=render,
    from_dict=_from_dict,
    tabulate=_tabulate,
)
def experiment(req: ExperimentRequest) -> Dict[int, Dict[str, Dict[str, float]]]:
    return sweep(req.records, req.configure(), workloads=req.workloads)
