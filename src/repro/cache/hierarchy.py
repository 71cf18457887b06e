"""Three-level cache hierarchy with prefetcher integration.

This is the gem5 stand-in: L1D (with an optional L1 prefetcher), a private
L2 where the temporal prefetcher lives, a shared L3 that also hosts the
Markov metadata table (way-partitioned), and a bandwidth-aware DRAM model.

Key modeled behaviours the experiments depend on:

- the L2 temporal prefetcher trains on the **L2 access stream including L1
  prefetch requests** (Section 5.1);
- prefetches fill the L2 with a ``ready_cycle``; a demand access arriving
  before the fill completes pays the residual latency (late prefetches are
  only partially useful — *timeliness*);
- every L2 fill runs the **fused fill-spill kernel**: the fill's L2 victim
  spills into the L3's data ways (mostly-exclusive LLC, CHAR-approximate)
  and a dirty L3 victim becomes a DRAM writeback, all in one pass over the
  flat cache arrays — so reserving LLC ways for metadata directly costs
  data capacity (*cache pollution* from resizing);
- every L3 miss — demand or prefetch — and every writeback is DRAM
  traffic (the Fig. 11 metric), and all DRAM accesses contend for channel
  bandwidth (the Fig. 18 sensitivity).

Hot-path architecture: the whole per-record demand path — L1/L2/L3
lookups, MSHR merge/allocate, DRAM reads, the fill-spill chain, TLB walk,
and both prefetchers' issue paths — runs as **one kernel closure**
(:meth:`Hierarchy._bind_demand_kernel`) whose cells hold the flat cache
arrays (:mod:`repro.cache.cache`), the residency dicts, the packed
replacement state, and the DRAM/MSHR/stats objects.  No per-level method
calls, no per-fill victim tuples, no per-line slot records.  The kernel
is **rebound** whenever closure-captured state is rebuilt — a metadata
resize changes the L3 data-way split and may rebuild the prefetcher's
fused ``observe_fast`` closure — which is why
:meth:`set_metadata_ways` ends with a rebind and the engine re-fetches
the kernel after each resize poll (invariant 9 in docs/architecture.md).
Stats objects are zeroed in place (never replaced) for the same reason.

The previous implementation — one method call per level, a three-call
fill -> spill -> writeback chain — is preserved as
:class:`repro.cache.reference.HierarchyReference`, pinned bit-identical
by ``tests/test_flat_cache_equivalence.py`` and the engine equivalence
suite, and raced interleaved by ``benchmarks/bench_engine_throughput.py``
(the ``fill_path`` section).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..memory.dram import DRAMModel
from ..memory.tlb import TLB, TLBConfig, same_page
from ..prefetchers.base import (
    L1Prefetcher,
    L2AccessInfo,
    L2Prefetcher,
    NullL1Prefetcher,
    NullL2Prefetcher,
    PrefetcherStats,
    PrefetchRequest,
)
from ..prefetchers.stride import StridePrefetcher
from ..sim.config import SystemConfig
from .cache import F_DIRTY, F_PF, F_USED, PF_L1, PF_L2, PF_SRC_SHIFT, Cache
from .mshr import (
    M_CONSUMED,
    M_IS_PREFETCH,
    M_PF_SOURCE,
    M_READY,
    M_TRIGGER_PC,
    MSHRFile,
)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one demand access as seen by the core."""

    latency: float
    hit_level: str  # "l1", "l2", "l3", "dram"
    consumed_prefetch_pc: int = -1  # PC credited with a useful prefetch
    late_prefetch: bool = False


#: Packed L2-fill flag bytes for the fused fill-spill kernel.
_FILL_CLEAN = 0
_FILL_DIRTY = F_DIRTY
_FILL_PF_L1 = F_PF | (PF_L1 << PF_SRC_SHIFT)
_FILL_PF_L2 = F_PF | (PF_L2 << PF_SRC_SHIFT)


class Hierarchy:
    """L1D + L2 + partitioned L3 + DRAM, with both prefetchers attached."""

    __slots__ = (
        "config", "l1d", "l2", "l3", "dram", "tlb", "l2_mshr",
        "l1_prefetcher", "l2_prefetcher", "l2_pf_stats", "l1_pf_stats",
        "metadata_ways", "demand_accesses", "l2_demand_misses",
        "_offchip_metadata", "_pf_queue", "_l2_observe_fast",
        "_l1_lat_i", "_l1_lat", "_l2_lat", "_l3_lat",
        "_cross_page_ok", "_null_l1_pf", "_null_l2_pf",
        "_demand_kernel", "_issue_lines",
    )

    def __init__(
        self,
        config: SystemConfig,
        l2_prefetcher: Optional[L2Prefetcher] = None,
        l1_prefetcher: Optional[L1Prefetcher] = None,
    ):
        self.config = config
        c = config
        self.l1d = Cache("L1D", c.l1d.size_bytes, c.l1d.assoc, c.l1d.hit_latency, "plru")
        self.l2 = Cache("L2", c.l2.size_bytes, c.l2.assoc, c.l2.hit_latency, "plru")
        self.l3 = Cache("L3", c.l3.size_bytes, c.l3.assoc, c.l3.hit_latency, "srrip")
        self.dram = DRAMModel(c.dram)
        self.tlb: Optional[TLB] = (
            TLB(TLBConfig(c.tlb_entries, c.tlb_walk_latency))
            if c.tlb_enabled
            else None
        )
        self.l2_mshr = MSHRFile(c.l2.mshrs)
        self.l1_prefetcher = l1_prefetcher or NullL1Prefetcher()
        self.l2_prefetcher = l2_prefetcher or NullL2Prefetcher()
        self.l2_pf_stats = PrefetcherStats()
        self.l1_pf_stats = PrefetcherStats()
        self.metadata_ways = 0
        self.demand_accesses = 0
        self.l2_demand_misses = 0
        # Hot-path constants, hoisted once: the demand path would otherwise
        # chase config attribute chains on every record.
        self._l1_lat_i = c.l1d.hit_latency
        self._l1_lat = float(c.l1d.hit_latency)
        self._l2_lat = c.l2.hit_latency
        self._l3_lat = c.l3.hit_latency
        self._cross_page_ok = c.l1_pf_cross_page
        # Exact-type checks: the null prefetchers return [] unconditionally,
        # so their observe calls (and per-access L2AccessInfo allocation)
        # are skipped entirely.
        self._null_l1_pf = type(self.l1_prefetcher) is NullL1Prefetcher
        self._null_l2_pf = type(self.l2_prefetcher) is NullL2Prefetcher
        # Cached once: whether the L2 prefetcher keeps metadata in DRAM
        # (STMS/Domino) and therefore needs its traffic drained per round.
        self._offchip_metadata = bool(
            getattr(self.l2_prefetcher, "uses_offchip_metadata", False)
        )
        # Fused-model dispatch: prefetchers exposing ``observe_fast(pc,
        # line) -> [lines]`` (Prophet's packed pass) skip the per-access
        # L2AccessInfo/PrefetchRequest boxing entirely.  Off-chip metadata
        # schemes stay on the generic path (their traffic drain hooks in
        # there).
        self._l2_observe_fast = (
            None
            if self._offchip_metadata
            else getattr(self.l2_prefetcher, "observe_fast", None)
        )
        # Prefetch queue: requests that found the MSHR file full wait here
        # and issue as entries retire (temporal prefetchers keep their own
        # request queues in hardware; dropping on a burst would starve all
        # long-latency prefetches).
        self._pf_queue: Deque[PrefetchRequest] = deque(maxlen=64)
        self._bind_demand_kernel()

    # ------------------------------------------------------------------
    # metadata table partitioning
    # ------------------------------------------------------------------
    def set_metadata_ways(self, ways: int) -> None:
        """Reserve ``ways`` L3 ways for the Markov metadata table."""
        if not 0 <= ways <= self.config.l3.assoc:
            raise ValueError("metadata ways out of range")
        self.metadata_ways = ways
        self.l3.set_data_ways(self.config.l3.assoc - ways)
        self.l2_prefetcher.on_metadata_resize(
            self.config.metadata_capacity_for_ways(ways)
        )
        # The resize may have rebuilt the prefetcher's fused closure over
        # fresh table arrays; re-fetch it so we never drive stale state.
        if self._l2_observe_fast is not None:
            self._l2_observe_fast = getattr(
                self.l2_prefetcher, "observe_fast", None
            )
        # Rebind rule: the demand kernel's cells hold the L3 data-way
        # split and the fused observe closure — both may just have
        # changed.  (The engine re-fetches ``_demand_kernel`` after each
        # resize poll for the same reason.)
        self._bind_demand_kernel()

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------
    def demand_access(
        self, pc: int, line: int, cycle: float, is_write: bool = False
    ) -> AccessResult:
        """Run one demand access through the hierarchy.

        Returns the core-visible latency and prefetch-consumption info.
        Also drives both prefetchers and issues their requests.
        """
        return AccessResult(*self._demand_kernel(pc, line, cycle, is_write))

    # ------------------------------------------------------------------
    # the fused demand/fill-spill kernel
    # ------------------------------------------------------------------
    def _bind_demand_kernel(self) -> None:
        """Build the demand kernel closure over the flat cache state.

        Every piece of per-access state — tag vectors, packed flag bytes,
        residency dicts, PLRU masks, SRRIP RRPVs, MSHR dict, DRAM fields,
        stats objects — lives in closure cells, so the per-record path is
        index arithmetic and dict probes with zero attribute chasing and
        zero per-access allocation beyond the result tuple.  Anything
        that *rebuilds* captured state must rebind (see module docstring).
        """
        hier = self
        l1, l2, l3 = self.l1d, self.l2, self.l3

        l1_where = l1._where
        l1_get = l1_where.get
        l1_tags = l1._tags
        l1_flags = l1._flags
        l1_ready = l1._ready
        l1_trigger = l1._trigger
        l1_counts = l1._counts
        l1_assoc = l1.assoc
        l1_n_sets = l1.n_sets
        l1_stats = l1.stats
        l1_state = l1._plru_state
        l1_keep = l1._plru_keep
        l1_point = l1._plru_point
        l1_victims = l1._plru_victims
        l1_walk = l1.policy._walk

        l2_where = l2._where
        l2_get = l2_where.get
        l2_tags = l2._tags
        l2_flags = l2._flags
        l2_ready = l2._ready
        l2_trigger = l2._trigger
        l2_counts = l2._counts
        l2_assoc = l2.assoc
        l2_n_sets = l2.n_sets
        l2_stats = l2.stats
        l2_state = l2._plru_state
        l2_keep = l2._plru_keep
        l2_point = l2._plru_point
        l2_victims = l2._plru_victims
        l2_walk = l2.policy._walk

        l3_where = l3._where
        l3_get = l3_where.get
        l3_tags = l3._tags
        l3_flags = l3._flags
        l3_ready = l3._ready
        l3_trigger = l3._trigger
        l3_counts = l3._counts
        l3_assoc = l3.assoc
        l3_n_sets = l3.n_sets
        l3_stats = l3.stats
        l3_rrpv = l3._srrip_rrpv
        l3_fill_rrpv = l3._srrip_fill
        l3_data_ways = l3._data_ways  # stale after resize -> rebind

        l1_lat_i = self._l1_lat_i
        l2_lat = self._l2_lat
        l3_lat = self._l3_lat
        l1l2_lat = self._l1_lat + l2_lat

        mshr = self.l2_mshr
        inflight = mshr._inflight
        inflight_get = inflight.get
        mshr_capacity = mshr.capacity
        mshr_sweep = mshr._sweep
        mshr_is_full = mshr.is_full
        mshr_lookup = mshr.lookup
        mshr_allocate = mshr.allocate

        dram = self.dram
        dstats = dram.stats
        d_service = dram._service_cycles
        d_access_lat = dram.config.access_latency

        tlb = self.tlb
        tlb_access = tlb.access if tlb is not None else None

        l1_pf_stats = self.l1_pf_stats
        l1_issued_by_pc = l1_pf_stats.issued_by_pc
        l1_useful_by_pc = l1_pf_stats.useful_by_pc
        l2_pf_stats = self.l2_pf_stats
        l2_issued_by_pc = l2_pf_stats.issued_by_pc
        l2_useful_by_pc = l2_pf_stats.useful_by_pc

        null_l1 = self._null_l1_pf
        null_l2 = self._null_l2_pf
        l1_observe = self.l1_prefetcher.observe
        # Exact-type stride specialization: the default L1 prefetcher's
        # whole observe pass (table train + target generation) inlines
        # into the kernel, dropping the per-record call and request-list
        # allocation.  State stays on the prefetcher object (the shared
        # ``_table`` dict), so the generic path and the oracle see the
        # same behaviour.
        l1pf = self.l1_prefetcher
        stride_inline = type(l1pf) is StridePrefetcher
        stride_table = l1pf._table if stride_inline else None
        stride_degree = l1pf.degree if stride_inline else 0
        stride_capacity = l1pf.table_size if stride_inline else 0
        note_useful = self.l2_prefetcher.note_useful
        note_issued = self.l2_prefetcher.note_issued
        observe_fast = self._l2_observe_fast
        observe_l2 = self._observe_l2
        cross_page_ok = self._cross_page_ok
        pf_queue = self._pf_queue
        queue_append = pf_queue.append
        drain_queue = self._drain_pf_queue
        pf_l1 = PF_L1
        pf_l2 = PF_L2
        f_dirty = F_DIRTY
        f_pf = F_PF
        f_used = F_USED
        src_shift = PF_SRC_SHIFT
        m_ready = M_READY
        m_is_pf = M_IS_PREFETCH
        m_trigger = M_TRIGGER_PC
        m_consumed = M_CONSUMED
        m_src = M_PF_SOURCE

        def fill_l2_spill(line: int, ready: float, flags: int, trigger_pc: int):
            """Fused L2 fill -> L3 spill -> DRAM writeback, one pass.

            ``flags`` is the new L2 line's packed flag byte (one of the
            ``_FILL_*`` constants).  Replaces the previous three-call
            chain (two ``fill_victim`` tuples + a ``dram.write``).
            """
            existing = l2_get(line)
            if existing is not None:
                if flags & f_dirty:
                    l2_flags[existing] |= f_dirty
                return
            set_idx = line % l2_n_sets
            base = set_idx * l2_assoc
            victim_line = -1
            victim_dirty = 0
            if l2_counts[set_idx] < l2_assoc:
                way = l2_tags.index(-1, base, base + l2_assoc) - base
                l2_counts[set_idx] += 1
            else:
                state = l2_state[set_idx]
                way = l2_victims[state] if l2_victims is not None else l2_walk(state)
                vidx = base + way
                vf = l2_flags[vidx]
                victim_line = l2_tags[vidx]
                victim_dirty = vf & f_dirty
                if victim_dirty:
                    l2_stats.writebacks += 1
                if vf & f_pf and not vf & f_used:
                    l2_stats.useless_evictions += 1
                del l2_where[victim_line]
            idx = base + way
            l2_tags[idx] = line
            l2_flags[idx] = flags
            l2_ready[idx] = ready
            l2_trigger[idx] = trigger_pc
            l2_where[line] = idx
            l2_state[set_idx] = (l2_state[set_idx] & l2_keep[way]) | l2_point[way]
            if flags & f_pf:
                l2_stats.prefetch_fills += 1
            if victim_line < 0:
                return
            # --- L3 spill of the L2 victim (clean fill, dirty propagated,
            # restricted to the data ways of the partitioned LLC) ---
            ex3 = l3_get(victim_line)
            if ex3 is not None:
                if victim_dirty:
                    l3_flags[ex3] |= f_dirty
                return
            s3 = victim_line % l3_n_sets
            b3 = s3 * l3_assoc
            if l3_counts[s3] < l3_data_ways:
                w3 = l3_tags.index(-1, b3, b3 + l3_data_ways) - b3
                l3_counts[s3] += 1
            else:
                seg = l3_rrpv[b3:b3 + l3_data_ways]
                w3 = seg.index(max(seg))
                i3 = b3 + w3
                f3 = l3_flags[i3]
                if f3 & f_dirty:
                    l3_stats.writebacks += 1
                    # Dirty spill victim -> DRAM writeback (channel
                    # occupancy only; the core never waits on it).
                    dstats.writes += 1
                    busy = dram._busy_until
                    start = ready if ready > busy else busy
                    dram._busy_until = start + d_service
                if f3 & f_pf and not f3 & f_used:
                    l3_stats.useless_evictions += 1
                del l3_where[l3_tags[i3]]
            i3 = b3 + w3
            l3_tags[i3] = victim_line
            l3_flags[i3] = victim_dirty
            l3_ready[i3] = ready
            l3_trigger[i3] = -1
            l3_where[victim_line] = i3
            l3_rrpv[i3] = l3_fill_rrpv

        def fill_l1(line: int, ready: float):
            """Inlined :meth:`Cache.fill_clean` for the L1 (PLRU).

            Demand-path callers reach here only after the record missed
            the L1, and nothing between the lookup and the fill installs
            L1 lines, so the generic path's resident-line check is
            provably dead and skipped.
            """
            set_idx = line % l1_n_sets
            base = set_idx * l1_assoc
            if l1_counts[set_idx] < l1_assoc:
                way = l1_tags.index(-1, base, base + l1_assoc) - base
                l1_counts[set_idx] += 1
            else:
                state = l1_state[set_idx]
                way = l1_victims[state] if l1_victims is not None else l1_walk(state)
                idx = base + way
                f = l1_flags[idx]
                if f & f_dirty:
                    l1_stats.writebacks += 1
                if f & f_pf and not f & f_used:
                    l1_stats.useless_evictions += 1
                del l1_where[l1_tags[idx]]
            idx = base + way
            l1_tags[idx] = line
            l1_flags[idx] = 0
            l1_ready[idx] = ready
            l1_trigger[idx] = -1
            l1_where[line] = idx
            l1_state[set_idx] = (l1_state[set_idx] & l1_keep[way]) | l1_point[way]

        def issue_lines(lines, trigger_pc: int, cycle: float) -> int:
            """Issue temporal-prefetcher requests (plain line numbers).

            Same semantics as the reference ``issue_l2_prefetch_lines``:
            cheap rejects (resident / in flight), MSHR-full queueing, L3
            probe or DRAM prefetch read, MSHR entry, fused fill-spill, and
            per-PC issue accounting.
            """
            issued = 0
            for line in lines:
                if len(inflight) >= mshr_capacity and mshr_is_full(cycle):
                    queue_append(PrefetchRequest(line, trigger_pc=trigger_pc))
                    continue
                if line < 0 or line in l2_where:
                    continue
                pending = inflight_get(line)
                if pending is not None and pending[m_ready] > cycle:
                    continue
                # --- L3 probe (a hit refreshes SRRIP + demand-hit
                # bookkeeping, exactly as the reference's on_demand_hit) ---
                i3 = l3_get(line)
                if i3 is not None:
                    l3_rrpv[i3] = 0
                    l3_stats.demand_hits += 1
                    f3 = l3_flags[i3]
                    if f3 & f_pf and not f3 & f_used:
                        l3_flags[i3] = f3 | f_used
                        l3_stats.useful_prefetches += 1
                    ready = cycle + l3_lat
                else:
                    # dram.read inlined (prefetch read).
                    dstats.reads += 1
                    dstats.prefetch_reads += 1
                    busy = dram._busy_until
                    start = cycle if cycle > busy else busy
                    dram._busy_until = start + d_service
                    ready = cycle + l3_lat + d_access_lat + (start - cycle)
                # mshr.allocate inlined (prefetch fill; no pending entry,
                # so only the capacity rules remain).
                if len(inflight) >= mshr_capacity:
                    mshr_sweep(cycle)
                    if len(inflight) >= mshr_capacity:
                        mshr.rejects += 1
                    else:
                        # [M_READY, M_IS_PREFETCH, M_TRIGGER_PC,
                        #  M_CONSUMED, M_PF_SOURCE]
                        inflight[line] = [ready, True, trigger_pc, False, pf_l2]
                else:
                    inflight[line] = [ready, True, trigger_pc, False, pf_l2]
                fill_l2_spill(line, ready, _FILL_PF_L2, trigger_pc)
                l2_pf_stats.issued += 1
                l2_issued_by_pc[trigger_pc] += 1
                note_issued(trigger_pc, line)
                issued += 1
            return issued

        def issue_l1(pc: int, line: int, cycle: float):
            """L1 prefetch: fills L1; passes through the L2 stream on L2 miss."""
            if line in l1_where:
                return
            i2 = l2_get(line)
            if i2 is not None:
                # L2 hit: demand-hit bookkeeping (PLRU touch + consume).
                set2 = i2 // l2_assoc
                way2 = i2 - set2 * l2_assoc
                l2_state[set2] = (l2_state[set2] & l2_keep[way2]) | l2_point[way2]
                l2_stats.demand_hits += 1
                f2 = l2_flags[i2]
                if f2 & f_pf and not f2 & f_used:
                    l2_flags[i2] = f2 | f_used
                    l2_stats.useful_prefetches += 1
                ready = cycle + l2_lat
                if not null_l2:
                    if observe_fast is not None:
                        lines = observe_fast(pc, line)
                        if lines:
                            issue_lines(lines, pc, cycle)
                    else:
                        observe_l2(pc, line, cycle, l2_hit=True, from_l1_pf=True)
            else:
                if mshr_is_full(cycle):
                    return
                if mshr_lookup(line, cycle) is not None:
                    return
                i3 = l3_get(line)
                if i3 is not None:
                    l3_rrpv[i3] = 0
                    l3_stats.demand_hits += 1
                    f3 = l3_flags[i3]
                    if f3 & f_pf and not f3 & f_used:
                        l3_flags[i3] = f3 | f_used
                        l3_stats.useful_prefetches += 1
                    ready = cycle + l3_lat
                else:
                    # dram.read inlined (prefetch read).
                    dstats.reads += 1
                    dstats.prefetch_reads += 1
                    busy = dram._busy_until
                    start = cycle if cycle > busy else busy
                    dram._busy_until = start + d_service
                    ready = cycle + l3_lat + d_access_lat + (start - cycle)
                mshr_allocate(line, ready, cycle, True, pc, pf_l1)
                # L1-prefetch L2 fill: the victim is *dropped*, not
                # spilled to L3 (inlined Cache.fill_victim, return unused).
                set2 = line % l2_n_sets
                b2 = set2 * l2_assoc
                if l2_counts[set2] < l2_assoc:
                    way2 = l2_tags.index(-1, b2, b2 + l2_assoc) - b2
                    l2_counts[set2] += 1
                else:
                    state = l2_state[set2]
                    way2 = (
                        l2_victims[state] if l2_victims is not None
                        else l2_walk(state)
                    )
                    vi = b2 + way2
                    vf = l2_flags[vi]
                    if vf & f_dirty:
                        l2_stats.writebacks += 1
                    if vf & f_pf and not vf & f_used:
                        l2_stats.useless_evictions += 1
                    del l2_where[l2_tags[vi]]
                i2 = b2 + way2
                l2_tags[i2] = line
                l2_flags[i2] = _FILL_PF_L1
                l2_ready[i2] = ready
                l2_trigger[i2] = pc
                l2_where[line] = i2
                l2_state[set2] = (l2_state[set2] & l2_keep[way2]) | l2_point[way2]
                l2_stats.prefetch_fills += 1
                if not null_l2:
                    if observe_fast is not None:
                        lines = observe_fast(pc, line)
                        if lines:
                            issue_lines(lines, pc, cycle)
                    else:
                        observe_l2(pc, line, cycle, l2_hit=False, from_l1_pf=True)
            # L1 prefetch fill (inlined Cache.fill_victim, victim dropped;
            # the line cannot have appeared in L1 since the top check).
            set1 = line % l1_n_sets
            b1 = set1 * l1_assoc
            if l1_counts[set1] < l1_assoc:
                way1 = l1_tags.index(-1, b1, b1 + l1_assoc) - b1
                l1_counts[set1] += 1
            else:
                state = l1_state[set1]
                way1 = l1_victims[state] if l1_victims is not None else l1_walk(state)
                vi = b1 + way1
                vf = l1_flags[vi]
                if vf & f_dirty:
                    l1_stats.writebacks += 1
                if vf & f_pf and not vf & f_used:
                    l1_stats.useless_evictions += 1
                del l1_where[l1_tags[vi]]
            i1 = b1 + way1
            l1_tags[i1] = line
            l1_flags[i1] = _FILL_PF_L1
            l1_ready[i1] = ready
            l1_trigger[i1] = pc
            l1_where[line] = i1
            l1_state[set1] = (l1_state[set1] & l1_keep[way1]) | l1_point[way1]
            l1_pf_stats.issued += 1
            l1_issued_by_pc[pc] += 1

        def kernel(pc: int, line: int, cycle: float, is_write: bool = False):
            """One demand access; returns ``(latency, level, pc, late)``."""
            hier.demand_accesses += 1
            if pf_queue:
                drain_queue(cycle)

            # --- L1 ---
            idx = l1_get(line)
            if idx is not None:
                set_idx = idx // l1_assoc
                way = idx - set_idx * l1_assoc
                l1_state[set_idx] = (
                    l1_state[set_idx] & l1_keep[way]
                ) | l1_point[way]
                l1_stats.demand_hits += 1
                f = l1_flags[idx]
                if is_write:
                    f |= f_dirty
                    l1_flags[idx] = f
                if f & f_pf and not f & f_used:
                    l1_flags[idx] = f | f_used
                    l1_stats.useful_prefetches += 1
                    tpc = l1_trigger[idx]
                    l1_pf_stats.useful += 1
                    l1_useful_by_pc[tpc] += 1
                latency = l1_lat_i
                level = "l1"
                consumed_pc = -1
                late = False
            else:
                l1_stats.demand_misses += 1
                latency = l1l2_lat
                consumed_pc = -1
                late = False
                # --- L2 (temporal prefetcher's training stream) ---
                idx = l2_get(line)
                if idx is not None:
                    set_idx = idx // l2_assoc
                    way = idx - set_idx * l2_assoc
                    l2_state[set_idx] = (
                        l2_state[set_idx] & l2_keep[way]
                    ) | l2_point[way]
                    l2_stats.demand_hits += 1
                    f = l2_flags[idx]
                    if is_write:
                        f |= f_dirty
                        l2_flags[idx] = f
                    ready = l2_ready[idx]
                    if ready > cycle + l2_lat:
                        # In-flight prefetch: pay the residual fill latency.
                        if ready - cycle > latency:
                            latency = ready - cycle
                        late = True
                    if f & f_pf and not f & f_used:
                        l2_flags[idx] = f | f_used
                        l2_stats.useful_prefetches += 1
                        trigger = l2_trigger[idx]
                        consumed_pc = trigger
                        src = f >> src_shift
                        if src == 2:
                            l2_pf_stats.useful += 1
                            l2_useful_by_pc[trigger] += 1
                            note_useful(trigger, line)
                        elif src == 1:
                            l1_pf_stats.useful += 1
                            l1_useful_by_pc[trigger] += 1
                    fill_l1(line, cycle + latency)
                    if not null_l2:
                        if observe_fast is not None:
                            lines = observe_fast(pc, line)
                            if lines:
                                issue_lines(lines, pc, cycle)
                        else:
                            observe_l2(pc, line, cycle, l2_hit=True)
                    level = "l2"
                else:
                    l2_stats.demand_misses += 1
                    hier.l2_demand_misses += 1

                    # Merge with an in-flight miss/prefetch to the same
                    # line (a merge with a prefetch marks it useful: the
                    # PMU's prefetch-hit event counts demand hits on
                    # prefetch MSHRs).
                    pending = inflight_get(line)
                    if pending is not None and pending[m_ready] > cycle:
                        p_ready = pending[m_ready]
                        if p_ready - cycle > latency:
                            latency = p_ready - cycle
                        if pending[m_is_pf] and not pending[m_consumed]:
                            pending[m_consumed] = True
                            trigger = pending[m_trigger]
                            consumed_pc = trigger
                            src = pending[m_src]
                            if src == 2:
                                l2_pf_stats.useful += 1
                                l2_useful_by_pc[trigger] += 1
                                note_useful(trigger, line)
                            elif src == 1:
                                l1_pf_stats.useful += 1
                                l1_useful_by_pc[trigger] += 1
                        ready = cycle + latency
                        fill_l2_spill(line, ready, _FILL_CLEAN, -1)
                        fill_l1(line, ready)
                        if not null_l2:
                            if observe_fast is not None:
                                lines = observe_fast(pc, line)
                                if lines:
                                    issue_lines(lines, pc, cycle)
                            else:
                                observe_l2(pc, line, cycle, l2_hit=False)
                        level = "l3"
                        late = True
                    else:
                        # --- L3 ---
                        latency += l3_lat  # tag check happens either way
                        i3 = l3_get(line)
                        if i3 is not None:
                            l3_rrpv[i3] = 0
                            l3_stats.demand_hits += 1
                            f3 = l3_flags[i3]
                            if is_write:
                                f3 |= f_dirty
                                l3_flags[i3] = f3
                            if f3 & f_pf and not f3 & f_used:
                                l3_flags[i3] = f3 | f_used
                                l3_stats.useful_prefetches += 1
                            level = "l3"
                        else:
                            l3_stats.demand_misses += 1
                            # dram.read inlined (demand read).
                            dstats.reads += 1
                            dstats.demand_reads += 1
                            busy = dram._busy_until
                            start = cycle if cycle > busy else busy
                            dram._busy_until = start + d_service
                            latency += d_access_lat + (start - cycle)
                            level = "dram"
                        # mshr.allocate inlined (demand fill; `pending` is
                        # None or already complete, so no merge is
                        # possible — only the capacity rules remain).
                        if len(inflight) >= mshr_capacity:
                            mshr_sweep(cycle)  # lazy reclaim at capacity
                        if len(inflight) >= mshr_capacity:
                            mshr.rejects += 1
                        else:
                            # [M_READY, M_IS_PREFETCH, M_TRIGGER_PC,
                            #  M_CONSUMED, M_PF_SOURCE]
                            inflight[line] = [cycle + latency, False, -1,
                                              False, 0]
                        ready = cycle + latency
                        fill_l2_spill(
                            line, ready,
                            _FILL_DIRTY if is_write else _FILL_CLEAN, -1,
                        )
                        fill_l1(line, ready)
                        if not null_l2:
                            if observe_fast is not None:
                                lines = observe_fast(pc, line)
                                if lines:
                                    issue_lines(lines, pc, cycle)
                            else:
                                observe_l2(pc, line, cycle, l2_hit=False)

            if tlb_access is not None:
                walk = tlb_access(line)
                if walk:
                    latency += walk

            # L1 prefetcher observes the demand stream; its requests go
            # through the L2 (training the temporal prefetcher) and fill
            # L1 + L2.
            if stride_table is not None:
                # StridePrefetcher.observe inlined: train the per-PC
                # [last_line, stride, confidence] record, then issue the
                # degree-deep run without building the request list.
                entry = stride_table.get(pc)
                if entry is None:
                    if len(stride_table) >= stride_capacity:
                        stride_table.pop(next(iter(stride_table)))
                    stride_table[pc] = [line, 0, 0]
                else:
                    stride = entry[1]
                    conf = entry[2]
                    new_stride = line - entry[0]
                    if new_stride == stride and stride != 0:
                        if conf < 3:
                            conf += 1
                    else:
                        conf = conf - 1 if conf > 0 else 0
                        if conf == 0:
                            stride = new_stride
                    entry[0] = line
                    entry[1] = stride
                    entry[2] = conf
                    if conf >= 2 and stride != 0:
                        target = line
                        for _ in range(stride_degree):
                            target += stride
                            if target < 0:
                                continue
                            if not cross_page_ok and not same_page(line, target):
                                # Physically-indexed L1 prefetcher: the
                                # next page's frame is unknown, so the
                                # request dies at the boundary (§5.7).
                                continue
                            issue_l1(pc, target, cycle)
            elif not null_l1:
                l1_reqs = l1_observe(pc, line)
                if l1_reqs:
                    for target in l1_reqs:
                        if target == line or target < 0:
                            continue
                        if not cross_page_ok and not same_page(line, target):
                            continue
                        issue_l1(pc, target, cycle)
            return (latency, level, consumed_pc, late)

        self._issue_lines = issue_lines
        self._demand_kernel = kernel

    # ------------------------------------------------------------------
    # generic observe path (no fused closure: Triage/Triangel/RPG2 and
    # the off-chip metadata schemes)
    # ------------------------------------------------------------------
    def _observe_l2(
        self, pc: int, line: int, cycle: float, l2_hit: bool, from_l1_pf: bool = False
    ) -> None:
        reqs = self.l2_prefetcher.observe(
            L2AccessInfo(pc, line, cycle, l2_hit, from_l1_pf)
        )
        if self._offchip_metadata:
            reads, writes = self.l2_prefetcher.drain_metadata_traffic()
            for _ in range(reads):
                self.dram.metadata_read(cycle)
            for _ in range(writes):
                self.dram.metadata_write(cycle)
        if reqs:
            self.issue_l2_prefetches(reqs, cycle)

    # ------------------------------------------------------------------
    # prefetch issue paths
    # ------------------------------------------------------------------
    def _drain_pf_queue(self, cycle: float) -> None:
        """Issue queued prefetches as MSHR entries retire."""
        issue_lines = self._issue_lines
        while self._pf_queue and not self.l2_mshr.is_full(cycle):
            req = self._pf_queue.popleft()
            issue_lines((req.line,), req.trigger_pc, cycle)

    def issue_l2_prefetches(self, reqs: List[PrefetchRequest], cycle: float) -> int:
        """Issue temporal-prefetcher requests into the L2; returns #issued."""
        issued = 0
        issue_lines = self._issue_lines
        is_full = self.l2_mshr.is_full
        queue_append = self._pf_queue.append
        for req in reqs:
            if is_full(cycle):
                queue_append(req)
                continue
            issued += issue_lines((req.line,), req.trigger_pc, cycle)
        return issued
