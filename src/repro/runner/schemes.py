"""The scheme table: every prefetching scheme the runner can execute.

A :class:`Scheme` is one declarative record — the ``SimJob.scheme`` name,
the dependency roles its jobs need, its default ``params`` and a
module-level ``prefetcher(trace, config, deps, params)`` builder.
:data:`SCHEMES` is the only place a scheme is defined: experiments pick
their columns from it, the Experiment API and serve validate scheme
names against it, and :func:`execute_job` runs any job whose scheme names
a record.  A custom scheme is one more record in the table and gets
caching, pools and structured failure records like the built-in ones.

Dependency roles (``Scheme.needs``) and the payloads they deliver:

- ``"base"``    — the baseline SimResult (RPG2's kernel selection needs
  its per-PC miss profile);
- ``"profile"`` — the CounterSet of a ``profile`` job (Prophet's
  two-stage profile → analyze → simulate pipeline).

Two job kinds are not columns: ``profile`` returns Prophet's Step-1
CounterSet instead of a SimResult, and ``prophet_learned`` receives a
``"profile_0" .. "profile_N"`` chain folded through Equation 4/5 (the
Fig. 13/14 learning states).

Builders call ``simulate``/``profile``/``analyze`` through this module's
globals at call time, never through references captured at import, so
instrumentation that rebinds those names sees every call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from .. import faults as _faults
from ..core.analysis import AnalysisParams, analyze
from ..core.learning import DEFAULT_LOOP_CAP, merge_counters
from ..core.profiler import CounterSet, profile
from ..core.prophet import ProphetFeatures, ProphetPrefetcher
from ..prefetchers.base import L2Prefetcher
from ..prefetchers.offchip import DominoPrefetcher, MISBPrefetcher, STMSPrefetcher
from ..prefetchers.rpg2 import (
    RPG2Prefetcher,
    binary_search_distance,
    identify_kernels,
)
from ..prefetchers.triage import TriagePrefetcher
from ..prefetchers.triangel import TriangelPrefetcher
from ..sim.config import SystemConfig
from ..sim.engine import simulate
from ..workloads.base import Trace
from .jobs import SimJob

#: Fraction of the trace used for RPG2's online distance tuning runs.
RPG2_TUNE_FRACTION = 0.3

#: ``prefetcher(trace, config, deps, params)``: ``deps`` maps each role in
#: ``needs`` to its payload, ``params`` is the job's params as a dict.
Builder = Callable[
    [Trace, SystemConfig, Dict[str, Any], Dict[str, Any]], Optional[L2Prefetcher]
]


@dataclass(frozen=True)
class Scheme:
    """One scheme: how to build its prefetcher and what its jobs need."""

    name: str
    prefetcher: Builder
    needs: Tuple[str, ...] = ()
    params: Tuple[Tuple[str, Any], ...] = ()

    def with_params(self, **params: Any) -> "Scheme":
        """The same scheme with some default params replaced.

        Variant columns (a Prophet feature or analysis ablation) are
        records like any other: their jobs differ only in ``params``.
        """
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=tuple(merged.items()))


def _no_prefetcher(trace, config, deps, params):
    return None


def _triangel(trace, config, deps, params):
    return TriangelPrefetcher(config)


def _triage(trace, config, deps, params):
    """Parameterized Triage: degree/replacement/ways/resizing via params."""
    return TriagePrefetcher(config, **params)


def _offchip(cls):
    """An off-chip generation at degree 4 (Section 2.1's comparison)."""
    return lambda trace, config, deps, params: cls(degree=4)


def _rpg2(trace, config, deps, params):
    """RPG2 with kernel identification and binary-search distance tuning.

    Follows the paper's baseline methodology (Section 5.1): PCs with
    >= 10 % of the *baseline's* cache misses and a stride-analyzable
    kernel get a simulated software prefetch at ``address + distance``,
    with the distance tuned by binary search on IPC over a shortened run.
    """
    kernels = identify_kernels(trace.pcs, trace.lines, deps["base"].miss_by_pc)
    if not kernels:
        return RPG2Prefetcher([])
    tune_trace = trace.interval(
        0, max(2000, int(len(trace) * RPG2_TUNE_FRACTION))
    )

    def evaluate(distance: int) -> float:
        tuned = RPG2Prefetcher(kernels).with_distance(distance)
        return simulate(tune_trace, config, tuned, "rpg2-tune").ipc

    best, _ = binary_search_distance(evaluate)
    return RPG2Prefetcher(kernels).with_distance(best)


def _prophet_from_counters(
    counters: CounterSet, config: SystemConfig, p: Dict
) -> ProphetPrefetcher:
    features = ProphetFeatures(**p.get("features", {}))
    params = AnalysisParams(**p.get("params", {}))
    hints = analyze(counters, config, params)
    return ProphetPrefetcher(
        config, hints, features, miss_counts=counters.miss_counts
    )


def _prophet(trace, config, deps, params):
    """Prophet Steps 2+: analyze the profiled counters, attach the hints."""
    return _prophet_from_counters(deps["profile"], config, params)


def _prophet_learned(trace, config, deps, params):
    """Prophet after learning a chain of inputs (Fig. 13/14 states).

    Folds ``profile_0 .. profile_N`` through Equation 4/5 exactly as
    ``OptimizedBinary.from_profile`` + repeated ``.learn`` calls would,
    then re-analyzes for ``trace``.
    """
    loop_cap = params.get("loop_cap", DEFAULT_LOOP_CAP)
    chain = [deps[f"profile_{i}"] for i in range(len(deps))]
    counters = chain[0]
    for nxt in chain[1:]:
        counters = merge_counters(counters, nxt, loop_cap)
    return _prophet_from_counters(counters, config, params)


SCHEMES: Dict[str, Scheme] = {
    scheme.name: scheme
    for scheme in (
        Scheme("baseline", _no_prefetcher),
        Scheme("triangel", _triangel),
        Scheme("triage", _triage),
        Scheme("stms", _offchip(STMSPrefetcher)),
        Scheme("domino", _offchip(DominoPrefetcher)),
        Scheme("misb", _offchip(MISBPrefetcher)),
        Scheme("rpg2", _rpg2, needs=("base",)),
        Scheme("prophet", _prophet, needs=("profile",), params=(
            ("features", asdict(ProphetFeatures())),
            ("params", asdict(AnalysisParams())),
        )),
        Scheme("prophet_learned", _prophet_learned),
    )
}


def execute_job(job: SimJob, dep_payloads: Optional[Dict[str, object]] = None):
    """Worker entry point: resolve the trace and run the job's scheme."""
    _faults.fire("job.execute", detail=f"{job.scheme}:{job.trace.label}")
    if job.scheme == "profile":
        # Prophet Step 1: counters under the simplified temporal
        # prefetcher.  ``warmup_frac`` is part of the job's cache key.
        return profile(job.trace.resolve(), job.config, job.warmup_frac)
    scheme = SCHEMES.get(job.scheme)
    if scheme is None:
        raise ValueError(
            f"unknown scheme {job.scheme!r}; table: {sorted(SCHEMES)}"
        )
    trace = job.trace.resolve()
    pf = scheme.prefetcher(trace, job.config, dep_payloads or {}, job.param_dict())
    return simulate(
        trace, job.config, pf, job.label or scheme.name, job.warmup_frac
    )
