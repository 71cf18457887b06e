"""Shared experiment infrastructure.

Every figure-reproduction module builds on :func:`evaluate_suite`: run a
set of workloads under a set of schemes (always including the
no-temporal-prefetcher baseline every paper metric normalizes to) and
collect :class:`repro.sim.results.SimResult` per (workload, scheme).

A suite's columns map names to :class:`~repro.runner.schemes.Scheme`
records from the runner's scheme table, and every (workload, scheme)
cell is a :class:`~repro.runner.jobs.SimJob`: parallelizable across a
process pool and cached on disk by content hash.  Each workload gets a
fresh prefetcher, and Prophet its own profiling pass (its hints are
workload-specific, like the recompiled binaries in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..runner import SimJob, TraceRef, get_runner
from ..runner.runner import JobFailure, Runner
from ..runner.schemes import SCHEMES, Scheme
from ..sim.config import SystemConfig, config_digest, default_config
from ..sim.results import SimResult, format_table, geomean
from ..workloads.base import Trace

#: Version stamp written into persisted SuiteResults files.
SUITE_SCHEMA_VERSION = 1


@dataclass
class SuiteResults:
    """Results for one experiment: per-workload, per-scheme SimResults.

    Under a tolerant failure policy (``on_error="skip"``/``"retry:N"``)
    a suite may be *partial*: failed (workload, scheme) cells are absent
    from ``by_workload`` and each carries a structured
    :class:`~repro.runner.runner.JobFailure` in :attr:`failures` —
    nothing is ever silently dropped (architecture invariant 14).
    Metric accessors raise ``KeyError`` on a missing cell;
    :meth:`table` and the geomeans skip incomplete rows instead.
    """

    schemes: List[str]
    by_workload: Dict[str, Dict[str, SimResult]] = field(default_factory=dict)
    failures: List[JobFailure] = field(default_factory=list)

    def to_dict(self) -> Dict:
        """JSON-compatible dict for persisting a whole experiment run."""
        d = {
            "schema_version": SUITE_SCHEMA_VERSION,
            "schemes": list(self.schemes),
            "by_workload": {
                label: {s: r.to_dict() for s, r in per_scheme.items()}
                for label, per_scheme in self.by_workload.items()
            },
        }
        if self.failures:
            # Only present when partial, so a resumed (gap-closing) run
            # serializes byte-identically to a fault-free one.
            d["failures"] = [f.to_dict() for f in self.failures]
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "SuiteResults":
        version = d.get("schema_version", SUITE_SCHEMA_VERSION)
        if version > SUITE_SCHEMA_VERSION:
            raise ValueError(
                f"SuiteResults schema version {version} is newer than "
                f"supported ({SUITE_SCHEMA_VERSION})"
            )
        return cls(
            schemes=list(d["schemes"]),
            by_workload={
                label: {
                    s: SimResult.from_dict(rd) for s, rd in per_scheme.items()
                }
                for label, per_scheme in d["by_workload"].items()
            },
            failures=[
                JobFailure.from_dict(f) for f in d.get("failures", [])
            ],
        )

    def save(self, path) -> None:
        """Write the run to a JSON file."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "SuiteResults":
        """Read a run written by :meth:`save`."""
        import json
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text()))

    def baseline(self, label: str) -> SimResult:
        return self.by_workload[label]["baseline"]

    def speedup(self, label: str, scheme: str) -> float:
        return self.by_workload[label][scheme].speedup_over(self.baseline(label))

    def coverage(self, label: str, scheme: str) -> float:
        return self.by_workload[label][scheme].coverage_over(self.baseline(label))

    def accuracy(self, label: str, scheme: str) -> float:
        return self.by_workload[label][scheme].accuracy

    def traffic(self, label: str, scheme: str) -> float:
        return self.by_workload[label][scheme].traffic_over(self.baseline(label))

    @property
    def labels(self) -> List[str]:
        return list(self.by_workload)

    def has_cell(self, label: str, scheme: str) -> bool:
        """Did (workload, scheme) produce a result (and its baseline)?"""
        per_scheme = self.by_workload.get(label, {})
        return scheme in per_scheme and "baseline" in per_scheme

    def geomean_speedup(self, scheme: str) -> float:
        return self.geomean_metric(scheme, "speedup")

    def geomean_metric(self, scheme: str, metric: str) -> float:
        fn = getattr(self, metric)
        values = [
            fn(label, scheme)
            for label in self.labels
            if self.has_cell(label, scheme)
        ]
        return geomean(values) if values else float("nan")

    def table(self, metric: str = "speedup", title: Optional[str] = None) -> str:
        """Render the figure's rows: one line per workload plus geomean.

        Failed/skipped cells of a partial suite render as ``n/a`` and
        drop out of the geomean; the structured failure records render
        separately (``ExperimentResult.text()``).
        """
        fn = getattr(self, metric)
        rows = []
        for label in self.labels:
            rows.append(
                [label]
                + [
                    f"{fn(label, s):.3f}" if self.has_cell(label, s) else "n/a"
                    for s in self.schemes
                ]
            )
        rows.append(
            ["Geomean"]
            + [f"{self.geomean_metric(s, metric):.3f}" for s in self.schemes]
        )
        return format_table(["workload"] + list(self.schemes), rows, title)


def triage4_params(
    config: SystemConfig, degree: int = 4, initial_ways: Optional[int] = None
) -> tuple:
    """``triage`` job params of Fig. 19's "Triage4 + Triangel Meta" base.

    The degree and ways ablations vary one knob of the same configuration.
    """
    return (
        ("degree", degree),
        ("replacement", "srrip"),
        ("initial_ways", config.l3.assoc // 2 if initial_ways is None else initial_ways),
        ("resize_enabled", False),
    )


#: Columns the Experiment API and serve select by name
#: (``repro.api.run(..., schemes=["prophet"])``).
NAMED_SCHEMES: Dict[str, Scheme] = {
    name: SCHEMES[name]
    for name in ("rpg2", "triangel", "prophet", "stms", "domino", "misb")
}

#: The paper's comparison (Section 5.1): column name -> scheme record.
DEFAULT_SCHEMES: Dict[str, Scheme] = {
    name: NAMED_SCHEMES[name] for name in ("rpg2", "triangel", "prophet")
}


#: Memo for the shared SPEC comparison (Figs. 10, 11, 12 report different
#: metrics of the same runs, exactly like the paper).  Keyed by
#: ``(n_records, config_digest)``: the config's *content* is part of the
#: key, so callers passing different SystemConfigs never share results.
_SPEC_MEMO: Dict[tuple, SuiteResults] = {}


def spec_comparison(
    n_records: int = 300_000,
    config: Optional[SystemConfig] = None,
) -> SuiteResults:
    """RPG2 / Triangel / Prophet on the seven Fig. 10 workloads (memoized)."""
    from ..workloads.spec import spec_suite

    config = config or default_config()
    memo_key = (n_records, config_digest(config))
    if memo_key not in _SPEC_MEMO:
        _SPEC_MEMO[memo_key] = evaluate_suite(spec_suite(n_records), config)
    return _SPEC_MEMO[memo_key]


def spec_labels() -> List[str]:
    """Catalog labels of the seven canonical Fig. 10 workloads."""
    from ..workloads.spec import SPEC_WORKLOADS

    return [f"{app}_{inp}" for app, inp in SPEC_WORKLOADS]


def spec_traces(
    n_records: int, workloads: Optional[Sequence[str]] = None
) -> List[Trace]:
    """Traces for ``workloads`` (catalog labels; default: the Fig. 10 set).

    The shared workload selector for experiments that historically looped
    over ``SPEC_WORKLOADS``: passing ``workloads=None`` reproduces that
    exact suite, while any catalog labels — other SPEC inputs, CRONO
    graphs — slot straight in.
    """
    from ..workloads.inputs import resolve_traces

    labels = list(workloads) if workloads is not None else spec_labels()
    return resolve_traces(labels, n_records)


def suite_request(
    req,
    base_config: Optional[SystemConfig] = None,
    labels: Optional[Sequence[str]] = None,
    schemes: Optional[Dict[str, Scheme]] = None,
    shared: bool = False,
) -> SuiteResults:
    """Evaluate one suite experiment's :class:`ExperimentRequest`.

    ``labels``/``schemes`` are the experiment's defaults (Fig. 10's seven
    workloads x three schemes unless given); the request may narrow
    both.  ``shared=True`` routes default-selection runs through the
    :func:`spec_comparison` memo so Figs. 10/11/12 (and the config
    variants 17/18) keep sharing one set of simulations per config.
    """
    config = req.configure(base_config)
    if shared and req.selects_defaults:
        return spec_comparison(req.records, config)
    traces = req.resolve_traces(labels if labels is not None else spec_labels())
    resolved = req.resolve_schemes(schemes if schemes is not None else DEFAULT_SCHEMES)
    return evaluate_suite(traces, config, resolved)


def suite_jobs(
    traces: Sequence[Trace],
    config: SystemConfig,
    schemes: Dict[str, Scheme],
    warmup_frac: float = 0.25,
):
    """Build the SimJob list for a suite evaluation.

    Returns ``(jobs, slots)``: jobs with aligned
    ``(workload_label, column_name)`` slots.  Each scheme's
    ``needs`` picks its dependency jobs: the workload's baseline
    (``"base"``) or its profiling pass (``"profile"``, its own job so it
    parallelizes and caches independently of the simulate stage).
    """
    jobs: List[SimJob] = []
    slots: List[tuple] = []
    for trace in traces:
        # Registry-built traces ride on their source digest (tiny,
        # by-reference jobs); ad-hoc traces are inlined + content-hashed.
        ref = TraceRef.for_trace(trace)
        base_job = SimJob(
            "baseline", ref, config, warmup_frac, label="baseline"
        )
        jobs.append(base_job)
        slots.append((trace.label, "baseline"))
        roles = {"base": base_job, "profile": SimJob("profile", ref, config)}
        for name, scheme in schemes.items():
            deps = {role: roles[role] for role in scheme.needs}
            jobs.append(SimJob(
                scheme.name, ref, config, warmup_frac, scheme.params, deps, name
            ))
            slots.append((trace.label, name))
    return jobs, slots


def evaluate_suite(
    traces: Sequence[Trace],
    config: Optional[SystemConfig] = None,
    schemes: Optional[Dict[str, Scheme]] = None,
    warmup_frac: float = 0.25,
    runner: Optional[Runner] = None,
) -> SuiteResults:
    """Run every scheme (plus the baseline) on every workload.

    Work is expressed as SimJobs and executed by ``runner`` (default: the
    process-wide runner from :func:`repro.runner.get_runner`), which
    parallelizes across workloads/schemes and reuses cached results.
    """
    config = config or default_config()
    schemes = schemes if schemes is not None else DEFAULT_SCHEMES
    runner = runner or get_runner()
    results = SuiteResults(schemes=list(schemes))

    jobs, slots = suite_jobs(list(traces), config, schemes, warmup_frac)
    failures_before = len(runner.failure_log)
    for (label, name), payload in zip(slots, runner.run(jobs)):
        # A None payload means the job failed or was dep-skipped under a
        # tolerant on_error policy; its JobFailure is in the runner's
        # failure_log (collected into results.failures below).
        if payload is not None:
            results.by_workload.setdefault(label, {})[name] = payload
    results.failures = list(runner.failure_log[failures_before:])
    return results
