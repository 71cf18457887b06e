"""Trace-driven simulation engine.

Runs a :class:`repro.workloads.base.Trace` through the cache hierarchy
with a chosen L2 (temporal) prefetcher and the configured L1 prefetcher,
applying the timing model per record and collecting a
:class:`repro.sim.results.SimResult`.

Engine responsibilities:

- **warmup**: the first ``warmup_frac`` of records run with full state
  changes but no metric accounting (the paper warms 250 M instructions
  before measuring 50 M);
- **resize polling**: every ``resize_window`` demand accesses the engine
  asks the prefetcher for its desired metadata-table size and applies it
  to both the LLC partition and the table (Set Dueller / Bloom filter /
  Prophet CSR all flow through this single mechanism);
- **per-PC accounting**: demand L2 misses per PC (RPG2 kernel selection
  and hint-buffer placement) and prefetch issued/useful per PC (Prophet's
  simulated PEBS events).

The hot loop is written for throughput: the warmup and measuring phases
are separate loops (no per-record phase test), the timing model's
arithmetic is inlined with its parameters in locals, and per-PC miss
accounting uses a :class:`collections.defaultdict`.  The seed
implementation is preserved as :func:`run_simulation_reference`; a tier-1
test asserts both produce identical :class:`SimResult` fields.

Prefetcher dispatch: the engine drives the hierarchy, and the hierarchy
dispatches each trained access to the L2 prefetcher.  Prefetchers that
expose ``observe_fast(pc, line) -> [lines]`` (Prophet's packed fused
pass) skip the per-access ``L2AccessInfo``/``PrefetchRequest`` boxing
entirely; everything else goes through the generic ``observe`` path.
On the native rung, Triage, Triangel and Prophet skip the Python call
altogether: the kernel runs their observe itself (:func:`_native_step`).

Hierarchy dispatch: the optimized loop binds the hierarchy's fused
demand kernel (``Hierarchy._demand_kernel``) directly and **re-fetches it
after every resize poll** — a metadata resize rebinds the kernel over the
new L3 way split (invariant 9).  ``run_simulation_reference`` drives the
preserved :class:`repro.cache.reference.HierarchyReference` through the
seed-era loop, so the equivalence suites pin the flat-array cache stack
to the slot-record oracle end to end; both accept ``hierarchy_cls`` so
the bench can race either hierarchy under either loop.

Engine rungs: :func:`simulate` runs the whole record loop in the native
C kernel (:mod:`repro.sim.native`) when it is loaded and the default
hierarchy is asked for, else :func:`run_simulation`.  The flat loop is
both the fallback and the native rung's oracle: the two produce
identical ``SimResult``s.
"""

from __future__ import annotations

import inspect
from array import array
from collections import defaultdict
from itertools import islice
from typing import Dict, Optional

from .. import faults as _faults
from ..cache.hierarchy import Hierarchy
from ..cache.reference import HierarchyReference
from ..core.mvb import MultiPathVictimBuffer
from ..core.prophet import ProphetPrefetcher
from ..memory.tlb import LINES_PER_PAGE
from ..prefetchers.base import L1Prefetcher, L2AccessInfo, L2Prefetcher, NullL1Prefetcher
from ..prefetchers.ipcp import IPCPPrefetcher
from ..prefetchers.markov import TAG_MASK, MetadataTable
from ..prefetchers.stride import StridePrefetcher
from ..prefetchers.triage import TriagePrefetcher
from ..prefetchers.triangel import TriangelPrefetcher
from ..workloads.base import TRACE_DTYPE, Trace
from . import native
from .config import SystemConfig
from .cpu import TimingModel
from .results import SimResult


def make_l1_prefetcher(config: SystemConfig) -> L1Prefetcher:
    """Instantiate the configured L1D prefetcher."""
    kind = config.l1_prefetcher
    if kind == "stride":
        return StridePrefetcher(degree=config.l1_prefetch_degree)
    if kind == "ipcp":
        return IPCPPrefetcher()
    if kind in ("none", ""):
        return NullL1Prefetcher()
    raise ValueError(f"unknown L1 prefetcher kind {kind!r}")


def _setup(
    trace: Trace,
    config: SystemConfig,
    l2_prefetcher: Optional[L2Prefetcher],
    warmup_frac: float,
    hierarchy_cls: type = Hierarchy,
) -> Hierarchy:
    """Build the hierarchy and apply the prefetcher's initial table size."""
    if not 0.0 <= warmup_frac < 1.0:
        raise ValueError("warmup_frac must be in [0, 1)")
    hierarchy = hierarchy_cls(config, l2_prefetcher, make_l1_prefetcher(config))
    pf = hierarchy.l2_prefetcher
    initial_ways = getattr(pf, "initial_ways", None)
    if initial_ways is None:
        initial_ways = 0
    table = getattr(pf, "table", None)
    if table is not None and initial_ways:
        hierarchy.set_metadata_ways(min(initial_ways, config.l3.assoc // 2))
    return hierarchy


def _reset_measurement(hierarchy: Hierarchy) -> None:
    """Clear all warmup-phase statistics before the measuring phase."""
    hierarchy.l1d.reset_stats()
    hierarchy.l2.reset_stats()
    hierarchy.l3.reset_stats()
    hierarchy.dram.reset_stats()
    if hierarchy.tlb is not None:
        hierarchy.tlb.reset_stats()
    hierarchy.l2_pf_stats.issued = 0
    hierarchy.l2_pf_stats.useful = 0
    hierarchy.l2_pf_stats.issued_by_pc.clear()
    hierarchy.l2_pf_stats.useful_by_pc.clear()


def _collect(
    trace: Trace,
    scheme: str,
    hierarchy: Hierarchy,
    instructions: int,
    cycles: float,
    misses: int,
    miss_by_pc: Dict[int, int],
) -> SimResult:
    """Package the hierarchy's post-warmup counters into a SimResult."""
    meta = getattr(hierarchy.l2_prefetcher, "table", None)
    return SimResult(
        label=trace.label,
        scheme=scheme,
        instructions=instructions,
        cycles=cycles,
        l2_demand_misses=misses,
        dram_reads=hierarchy.dram.stats.reads,
        dram_writes=hierarchy.dram.stats.writes,
        pf_issued=hierarchy.l2_pf_stats.issued,
        pf_useful=hierarchy.l2_pf_stats.useful,
        issued_by_pc=dict(hierarchy.l2_pf_stats.issued_by_pc),
        useful_by_pc=dict(hierarchy.l2_pf_stats.useful_by_pc),
        miss_by_pc=dict(miss_by_pc),
        metadata_insertions=meta.stats.insertions if meta else 0,
        metadata_replacements=meta.stats.replacements if meta else 0,
        metadata_peak_entries=meta.stats.peak_allocated if meta else 0,
        metadata_ways_final=hierarchy.metadata_ways,
        l1_pf_issued=hierarchy.l1_pf_stats.issued,
        l1_pf_useful=hierarchy.l1_pf_stats.useful,
        dram_metadata_traffic=hierarchy.dram.stats.metadata_traffic,
    )


def _demand_fn(hierarchy):
    """The fastest per-record entry point the hierarchy offers.

    The fused kernel when present (re-fetch after any resize: the kernel
    is rebound over the new way split), else the tuple-returning method
    (:class:`HierarchyReference`, or any API-compatible stand-in).
    """
    kernel = getattr(hierarchy, "_demand_kernel", None)
    return kernel if kernel is not None else hierarchy.demand_access_fast


def run_simulation(
    trace: Trace,
    config: SystemConfig,
    l2_prefetcher: Optional[L2Prefetcher] = None,
    scheme: str = "baseline",
    warmup_frac: float = 0.25,
    resize_window: int = 8192,
    hierarchy_cls: Optional[type] = None,
) -> SimResult:
    """Simulate ``trace`` and return measured metrics (post-warmup).

    ``hierarchy_cls`` overrides the hierarchy implementation (default
    :class:`Hierarchy`); the throughput bench passes
    :class:`HierarchyReference` to race the flat fill path against its
    oracle under the same loop.
    """
    hierarchy = _setup(
        trace, config, l2_prefetcher, warmup_frac, hierarchy_cls or Hierarchy
    )
    pf = hierarchy.l2_prefetcher
    timing = TimingModel.for_config(config, trace.mlp)
    n = len(trace)
    warmup_records = int(n * warmup_frac)

    # Hot-loop locals: every name resolved per record lives in the frame.
    issue_width = timing.issue_width
    hide = timing.hide_cycles
    mlp = timing.mlp
    demand_access = _demand_fn(hierarchy)
    desired_metadata_ways = pf.desired_metadata_ways
    max_meta_ways = config.l3.assoc // 2

    cycle = 0.0
    resize_left = resize_window
    stream = zip(trace.pcs, trace.lines, trace.gaps)

    # --- warmup phase: full state changes, no accounting ---------------
    for pc, line, gap in islice(stream, warmup_records):
        step = (gap + 1) / issue_width
        latency = demand_access(pc, line, cycle)[0]
        if latency > hide:
            step += (latency - hide) / mlp
        cycle += step
        resize_left -= 1
        if not resize_left:
            resize_left = resize_window
            desired = desired_metadata_ways(hierarchy.metadata_ways)
            if desired is not None and desired != hierarchy.metadata_ways:
                hierarchy.set_metadata_ways(max(0, min(desired, max_meta_ways)))
                demand_access = _demand_fn(hierarchy)
    if warmup_records:
        _reset_measurement(hierarchy)

    # --- measuring phase ------------------------------------------------
    measured_cycles = 0.0
    gap_total = 0
    measured_misses = 0
    miss_by_pc: Dict[int, int] = defaultdict(int)
    for pc, line, gap in stream:
        step = (gap + 1) / issue_width
        latency, hit_level, _, _ = demand_access(pc, line, cycle)
        if latency > hide:
            step += (latency - hide) / mlp
        cycle += step

        measured_cycles += step
        gap_total += gap
        if hit_level == "l3" or hit_level == "dram":
            measured_misses += 1
            miss_by_pc[pc] += 1

        resize_left -= 1
        if not resize_left:
            resize_left = resize_window
            desired = desired_metadata_ways(hierarchy.metadata_ways)
            if desired is not None and desired != hierarchy.metadata_ways:
                hierarchy.set_metadata_ways(max(0, min(desired, max_meta_ways)))
                demand_access = _demand_fn(hierarchy)

    measured_instructions = gap_total + (n - warmup_records)
    return _collect(
        trace, scheme, hierarchy, measured_instructions, measured_cycles,
        measured_misses, miss_by_pc,
    )


def _trace_columns(trace: Trace):
    """The pc/line/gap columns as int64 buffers the native kernel reads."""
    rec = trace.records_array
    if rec is not None and rec.dtype == TRACE_DTYPE and rec.dtype.isnative:
        return [rec[name] for name in ("pc", "line", "gap")]
    return [array("q", col) for col in (trace.pcs, trace.lines, trace.gaps)]


#: Exact prefetcher type -> (native step code, the class's own observe).
_NATIVE_STEPS = {
    TriagePrefetcher: (1, TriagePrefetcher.observe),
    TriangelPrefetcher: (2, TriangelPrefetcher.observe),
    ProphetPrefetcher: (3, ProphetPrefetcher.observe),
}


def _native_step(pf: L2Prefetcher) -> int:
    """The kernel's step code for ``pf``, or 0 for its Python ``observe``.

    Only the exact classes qualify, with their own (possibly wrapped)
    ``observe`` and the packed SRRIP table and MVB.  The class's
    ``observe`` decides, never the instance's ``observe``/``observe_fast``,
    so instrumentation wrappers cannot change the path a run takes.
    """
    code, observe = _NATIVE_STEPS.get(type(pf), (0, None))
    table = getattr(pf, "table", None)
    if (not code or inspect.unwrap(type(pf).observe) is not observe
            or type(table) is not MetadataTable or table._srrip_rrpv is None
            or type(getattr(pf, "mvb", None)) not in (type(None), MultiPathVictimBuffer)):
        return 0
    return code


def _run_native(
    kernel,
    trace: Trace,
    config: SystemConfig,
    l2_prefetcher: Optional[L2Prefetcher],
    scheme: str,
    warmup_frac: float,
    resize_window: int,
) -> SimResult:
    """:func:`run_simulation` on the native kernel (:mod:`repro.sim.native`).

    The :class:`Hierarchy` still validates the config, wires the
    prefetchers and supplies the geometry; the kernel owns the cache state,
    calls ``resize`` after each applied poll (which re-fetches the
    prefetcher callables) and returns the counters ``_collect`` reads.
    """
    hierarchy = _setup(trace, config, l2_prefetcher, warmup_frac)
    pf = hierarchy.l2_prefetcher
    l1pf = hierarchy.l1_prefetcher
    l1, l2, l3, tlb = hierarchy.l1d, hierarchy.l2, hierarchy.l3, hierarchy.tlb
    stride = type(l1pf) is StridePrefetcher
    timing = TimingModel.for_config(config, trace.mlp)
    n = len(trace)
    warmup_records = int(n * warmup_frac)

    def callables():
        return (hierarchy._l2_observe_fast, pf.observe, pf.note_useful,
                pf.note_issued, l1pf.observe)

    def resize(ways: int):
        hierarchy.set_metadata_ways(ways)
        return callables()

    (cycles, gap_total, misses, miss_by_pc, reads, writes, md_reads, md_writes,
     issued, useful, issued_by_pc, useful_by_pc, l1_issued, l1_useful) = kernel.run(
        *_trace_columns(trace), warmup_records, resize_window,
        (l1.n_sets, l1.assoc, l2.n_sets, l2.assoc, l3.n_sets, l3.assoc,
         l3.data_ways, hierarchy.metadata_ways, config.l3.assoc // 2,
         hierarchy._l1_lat_i, hierarchy._l2_lat, hierarchy._l3_lat,
         hierarchy.dram.service_cycles, hierarchy.dram.config.access_latency,
         hierarchy.l2_mshr.capacity, hierarchy._pf_queue.maxlen,
         *((tlb.config.entries, tlb.config.walk_latency) if tlb is not None
           else (0, 0)),
         LINES_PER_PAGE, hierarchy._cross_page_ok,
         l1pf.degree if stride else 0, l1pf.table_size if stride else 0),
        (timing.issue_width, timing.hide_cycles, timing.mlp),
        (hierarchy._null_l1_pf, hierarchy._null_l2_pf, hierarchy._offchip_metadata),
        callables(), pf.desired_metadata_ways, resize, pf.drain_metadata_traffic,
        L2AccessInfo, (_native_step(pf), pf, TAG_MASK),
    )
    d, l2pf, l1stats = hierarchy.dram.stats, hierarchy.l2_pf_stats, hierarchy.l1_pf_stats
    d.reads, d.writes, d.metadata_reads, d.metadata_writes = reads, writes, md_reads, md_writes
    l2pf.issued, l2pf.useful, l2pf.issued_by_pc, l2pf.useful_by_pc = (
        issued, useful, issued_by_pc, useful_by_pc)
    l1stats.issued, l1stats.useful = l1_issued, l1_useful
    # The unused Python kernel closures hold the hierarchy in a reference
    # cycle; drop them so refcounting frees its arrays now.  The native
    # path allocates too few objects to trigger the cyclic GC often.
    hierarchy._demand_kernel = hierarchy._issue_lines = None
    return _collect(
        trace, scheme, hierarchy, gap_total + (n - warmup_records), cycles,
        misses, miss_by_pc,
    )


def simulate(
    trace: Trace,
    config: SystemConfig,
    l2_prefetcher: Optional[L2Prefetcher] = None,
    scheme: str = "baseline",
    warmup_frac: float = 0.25,
    resize_window: int = 8192,
    hierarchy_cls: Optional[type] = None,
) -> SimResult:
    """Run ``trace`` on the native kernel when it is loaded and
    ``hierarchy_cls`` is the default, else on :func:`run_simulation`.

    Both rungs produce identical ``SimResult``s, so the choice never
    enters result cache keys (invariant 10).
    """
    # One named injection point per simulation call (never per record:
    # the hot loop stays untouched); see repro.faults.
    _faults.fire("engine.simulate", detail=f"{scheme}:{trace.name}")
    kernel = native.load() if hierarchy_cls in (None, Hierarchy) else None
    if kernel is not None:
        return _run_native(
            kernel, trace, config, l2_prefetcher, scheme, warmup_frac,
            resize_window,
        )
    return run_simulation(
        trace, config, l2_prefetcher, scheme, warmup_frac, resize_window,
        hierarchy_cls,
    )


def run_simulation_reference(
    trace: Trace,
    config: SystemConfig,
    l2_prefetcher: Optional[L2Prefetcher] = None,
    scheme: str = "baseline",
    warmup_frac: float = 0.25,
    resize_window: int = 8192,
    hierarchy_cls: Optional[type] = None,
) -> SimResult:
    """The seed (pre-optimization) simulation loop, kept as the oracle.

    Drives the preserved :class:`HierarchyReference` (slot-record caches,
    OrderedDict TLB, three-call fill-spill chain) by default, so the
    equivalence suites pin the optimized loop *and* the flat-array cache
    stack against the seed semantics in one comparison.  Tier-1 tests
    assert :func:`run_simulation` produces an identical
    :class:`SimResult`; any divergence means an optimization changed
    semantics, not just speed.
    """
    hierarchy = _setup(
        trace, config, l2_prefetcher, warmup_frac,
        hierarchy_cls or HierarchyReference,
    )
    pf = hierarchy.l2_prefetcher
    timing = TimingModel.for_config(config, trace.mlp)
    warmup_records = int(len(trace) * warmup_frac)

    cycle = 0.0
    measured_cycles = 0.0
    measured_instructions = 0
    measured_misses = 0
    miss_by_pc: Dict[int, int] = {}
    accesses = 0
    measuring = warmup_records == 0

    for i, (pc, line, gap) in enumerate(trace.records()):
        if not measuring and i >= warmup_records:
            measuring = True
            _reset_measurement(hierarchy)

        step = timing.instruction_cycles(gap)
        result = hierarchy.demand_access(pc, line, cycle)
        step += timing.stall_cycles(result.latency)
        cycle += step

        if measuring:
            measured_cycles += step
            measured_instructions += gap + 1
            if result.hit_level in ("l3", "dram"):
                measured_misses += 1
                miss_by_pc[pc] = miss_by_pc.get(pc, 0) + 1

        accesses += 1
        if accesses % resize_window == 0:
            desired = pf.desired_metadata_ways(hierarchy.metadata_ways)
            if desired is not None and desired != hierarchy.metadata_ways:
                desired = max(0, min(desired, config.l3.assoc // 2))
                hierarchy.set_metadata_ways(desired)

    return _collect(
        trace, scheme, hierarchy, measured_instructions, measured_cycles,
        measured_misses, miss_by_pc,
    )
