"""repro — reproduction of "Profile-Guided Temporal Prefetching" (ISCA'25).

A trace-driven microarchitecture simulation library built around Prophet,
the paper's hardware-software co-designed temporal prefetcher:

- :mod:`repro.sim`         — system config (Table 1), engine, metrics;
- :mod:`repro.cache`       — caches, replacement policies, MSHRs, hierarchy;
- :mod:`repro.memory`      — bandwidth-aware DRAM model;
- :mod:`repro.prefetchers` — stride, IPCP, Triage, Triangel, RPG2 and the
  shared Markov metadata table;
- :mod:`repro.core`        — Prophet: profiling, analysis, learning, hints,
  profile-guided policies, Multi-path Victim Buffer;
- :mod:`repro.workloads`   — SPEC personas, CRONO graph kernels, SimPoint;
- :mod:`repro.experiments` — one module per paper figure/table, each
  declared through the :mod:`repro.experiments.registry`;
- :mod:`repro.api`         — the facade: ``repro.api.run("fig10", ...)``
  runs any registered experiment with workload/scheme selection, config
  overrides, and parallel execution, returning structured results;
- :mod:`repro.energy`      — CACTI-style energy accounting.

(``repro.api`` and ``repro.experiments`` are imported lazily — pulling in
the experiment registry means importing every figure module, which plain
simulation users and pool workers don't need.)

Quickstart::

    from repro import (
        default_config, make_spec_trace, simulate, OptimizedBinary
    )
    config = default_config()
    trace = make_spec_trace("mcf")
    baseline = simulate(trace, config, None, "baseline")
    binary = OptimizedBinary.from_profile(trace, config)
    prophet = simulate(trace, config, binary.prefetcher(config), "prophet")
    print(prophet.speedup_over(baseline))

``simulate`` picks the fastest bit-identical engine rung — the native
C kernel when it could be built (it compiles on first use; without a C
compiler or Python headers it falls back silently), else the scalar
loop; ``run_simulation`` always runs the scalar loop.
"""

from .cache.reference import CacheReference, HierarchyReference, TLBReference
from .core.analysis import AnalysisParams, analyze
from .core.hints import CSRHints, HintBuffer, HintSet, PCHint
from .core.learning import merge_counters
from .core.mvb import MultiPathVictimBuffer, MultiPathVictimBufferReference
from .core.pipeline import OptimizedBinary, run_prophet
from .core.profiler import CounterSet, profile
from .core.prophet import (
    ProphetFeatures,
    ProphetPrefetcher,
    ProphetPrefetcherReference,
)
from .prefetchers.markov import MetadataTable, MetadataTableReference
from .prefetchers.offchip import DominoPrefetcher, MISBPrefetcher, STMSPrefetcher
from .prefetchers.rpg2 import RPG2Prefetcher
from .prefetchers.triage import TriagePrefetcher
from .prefetchers.triangel import TriangelPrefetcher, TriangelPrefetcherReference
from .sim.config import SystemConfig, default_config
from .sim.engine import run_simulation, simulate
from .sim.results import SimResult, geomean
from .workloads.base import Trace
from .workloads.crono import make_crono_trace
from .workloads.generators import GeneratorScenario, register_generator_scenario
from .workloads.inputs import make_trace
from .workloads.sources import TraceSource, import_trace, set_trace_dir
from .workloads.spec import make_spec_trace, spec_suite

__version__ = "1.10.0"

__all__ = [
    "AnalysisParams",
    "CSRHints",
    "CacheReference",
    "CounterSet",
    "DominoPrefetcher",
    "GeneratorScenario",
    "HierarchyReference",
    "HintBuffer",
    "HintSet",
    "MISBPrefetcher",
    "MetadataTable",
    "MetadataTableReference",
    "MultiPathVictimBuffer",
    "MultiPathVictimBufferReference",
    "OptimizedBinary",
    "PCHint",
    "ProphetFeatures",
    "ProphetPrefetcher",
    "ProphetPrefetcherReference",
    "RPG2Prefetcher",
    "STMSPrefetcher",
    "SimResult",
    "SystemConfig",
    "TLBReference",
    "Trace",
    "TraceSource",
    "TriagePrefetcher",
    "TriangelPrefetcher",
    "TriangelPrefetcherReference",
    "analyze",
    "default_config",
    "geomean",
    "import_trace",
    "make_crono_trace",
    "make_spec_trace",
    "make_trace",
    "merge_counters",
    "profile",
    "register_generator_scenario",
    "run_prophet",
    "run_simulation",
    "set_trace_dir",
    "simulate",
    "spec_suite",
]
