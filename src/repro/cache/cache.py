"""Set-associative cache on flat parallel arrays.

This is the building block for all three levels of the simulated hierarchy
(:mod:`repro.cache.hierarchy`).  Beyond plain hit/miss behaviour it tracks,
per resident line:

- ``prefetched`` / ``used``: whether the line was installed by a prefetch
  and whether a demand access has hit it since — the engine derives
  prefetch *accuracy* (useful / issued) from these bits;
- ``ready_cycle``: when an in-flight fill completes, so a demand access that
  arrives before a prefetch's fill finishes pays the residual latency
  (prefetch *timeliness*);
- ``trigger_pc``: the PC whose access triggered the prefetch, so usefulness
  is attributed to the right memory instruction — this is exactly the
  per-PC ``L2_Prefetch_Useful`` counter Prophet's profiler samples.

The LLC additionally supports *way partitioning*: reserving the top ways of
every set for the Markov metadata table (Triage/Triangel/Prophet resizing).
Reserved ways are invalidated and excluded from fills, shrinking the data
capacity exactly as the paper's shared-LLC metadata table does.

Storage layout (hot-path note): per-line state lives in **flat parallel
arrays** indexed by ``set * assoc + way`` — an ``array('q')`` tag vector
(``-1`` == invalid), a ``bytearray`` of packed valid/dirty/prefetch flag
bits (:data:`F_DIRTY`/:data:`F_PF`/:data:`F_USED` plus the pf-source in
bits 3-4), an ``array('d')`` of ready cycles and an ``array('q')`` of
trigger PCs — plus one cache-wide ``line -> slot`` dict (a line lives in
exactly one set, so residency is a single dict probe with no set
arithmetic) and a per-set resident count.  A fill is four array stores
and one dict store; an eviction reads its victim's fields straight out of
the arrays.  Nothing is allocated per access, which is what lets
:class:`repro.cache.hierarchy.Hierarchy` fuse the whole demand/fill path
into one kernel closure over these arrays.  The previous slot-record
implementation survives as
:class:`repro.cache.reference.CacheReference`, pinned bit-identical by
``tests/test_flat_cache_equivalence.py``.

Line addresses must be non-negative (``-1`` is the invalid-tag sentinel);
every trace and prefetch path in the repo already guarantees this.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

from .replacement import SRRIPPolicy, TreePLRUPolicy, make_policy


#: Prefetch source codes stored per line (and in MSHR entries).
PF_NONE = 0
PF_L1 = 1
PF_L2 = 2

#: Packed per-slot flag bits (one byte per (set, way) in ``Cache._flags``).
#: Bits 3-4 hold the pf-source code; bits 5+ are unused, so ``flags >>
#: PF_SRC_SHIFT`` recovers it without masking.
F_DIRTY = 1
F_PF = 2
F_USED = 4
PF_SRC_SHIFT = 3


@dataclass(slots=True)
class EvictedLine:
    """Information about a line pushed out of the cache."""

    line: int
    dirty: bool
    prefetched: bool
    used: bool
    trigger_pc: int
    pf_source: int = PF_NONE


@dataclass(slots=True)
class CacheStats:
    """Per-cache counters, reset with :meth:`Cache.reset_stats`."""

    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    useless_evictions: int = 0
    writebacks: int = 0

    @property
    def demand_accesses(self) -> int:
        return self.demand_hits + self.demand_misses

    @property
    def miss_rate(self) -> float:
        total = self.demand_accesses
        return self.demand_misses / total if total else 0.0


class Cache:
    """One level of set-associative cache.

    Parameters mirror :class:`repro.sim.config.CacheConfig`.  ``line``
    arguments throughout are cache-line (block) numbers, not byte addresses.
    """

    __slots__ = (
        "name", "assoc", "hit_latency", "n_sets", "policy", "stats",
        "_tags", "_flags", "_ready", "_trigger", "_where", "_counts",
        "_data_ways",
        "_policy_on_hit", "_policy_on_fill", "_policy_victim",
        "_plru_state", "_plru_keep", "_plru_point", "_plru_victims",
        "_srrip_rrpv", "_srrip_fill",
    )

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        hit_latency: int,
        replacement: str = "lru",
        line_size: int = 64,
    ):
        if size_bytes % (assoc * line_size):
            raise ValueError("cache size must be a multiple of assoc * line_size")
        if assoc > 255:
            raise ValueError("associativity above 255 is unsupported")
        self.name = name
        self.assoc = assoc
        self.hit_latency = hit_latency
        self.n_sets = size_bytes // (assoc * line_size)
        if self.n_sets == 0:
            raise ValueError("cache too small for the requested associativity")
        self.policy = make_policy(replacement, self.n_sets, assoc)
        self.stats = CacheStats()

        n_slots = self.n_sets * assoc
        #: Flat parallel per-slot state (see module docstring).
        self._tags = array("q", [-1]) * n_slots
        self._flags = bytearray(n_slots)
        self._ready = array("d", [0.0]) * n_slots
        self._trigger = array("q", [-1]) * n_slots
        #: line -> slot index; the one residency structure for the cache.
        self._where: Dict[int, int] = {}
        #: Resident lines per set (fits a byte: assoc <= 255).
        self._counts = bytearray(self.n_sets)
        # All ways usable for data by default; the LLC shrinks this when
        # LLC ways are reserved for the metadata table.
        self._data_ways = assoc
        # The policy never changes after construction; bound methods save
        # an attribute chase on every hit/fill/victim.
        self._policy_on_hit = self.policy.on_hit
        self._policy_on_fill = self.policy.on_fill
        self._policy_victim = self.policy.victim
        # Policy state exposed for inline touches on the demand/fill hot
        # paths and for the hierarchy's fused kernel: a PLRU touch is two
        # mask operations against the packed per-set state int, an SRRIP
        # touch one array store — no method call.  Policies other than
        # the two the hierarchy uses fall back to the bound methods.
        pol = self.policy
        self._plru_state = self._plru_keep = self._plru_point = None
        self._plru_victims = None
        self._srrip_rrpv = None
        self._srrip_fill = 0
        if type(pol) is TreePLRUPolicy:
            self._plru_state = pol._state
            self._plru_keep = pol._keep
            self._plru_point = pol._point
            self._plru_victims = pol._victims  # None above _TABLE_MAX_ASSOC
        elif type(pol) is SRRIPPolicy:
            self._srrip_rrpv = pol._rrpv
            self._srrip_fill = pol.max_rrpv - 1

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def set_index(self, line: int) -> int:
        return line % self.n_sets

    @property
    def data_ways(self) -> int:
        return self._data_ways

    @property
    def capacity_lines(self) -> int:
        return self.n_sets * self._data_ways

    @property
    def _map(self) -> List[Dict[int, int]]:
        """Per-set ``line -> way`` dicts, rebuilt on demand.

        Introspection-only view of :attr:`_where`, kept under this name
        so tests can compare a flat cache and a
        :class:`~repro.cache.reference.CacheReference` uniformly.  It is
        a **throwaway copy**: writing into the returned dicts changes
        nothing, and every access costs O(sets + resident lines) — never
        touch it on a hot path (the residency structure is ``_where``).
        """
        assoc = self.assoc
        maps: List[Dict[int, int]] = [dict() for _ in range(self.n_sets)]
        for line, idx in self._where.items():
            maps[idx // assoc][line] = idx % assoc
        return maps

    def set_data_ways(self, ways: int) -> None:
        """Reserve ``assoc - ways`` ways per set (metadata partition).

        Lines living in newly reserved ways are invalidated (their dirty
        data is counted as writeback traffic), matching a hardware
        repartition of the shared LLC.
        """
        if not 0 <= ways <= self.assoc:
            raise ValueError(f"ways must be in [0, {self.assoc}]")
        old_ways = self._data_ways
        if ways < old_ways:
            assoc = self.assoc
            tags = self._tags
            flags = self._flags
            where = self._where
            counts = self._counts
            stats = self.stats
            # Way by way, skipping empty way columns at C speed (the common
            # case: a resize at setup, or on an LLC the native kernel owns);
            # the cleanup below is order-independent.
            resident = [
                base + way
                for way in range(ways, old_ways)
                if tags[way::assoc].count(-1) != self.n_sets
                for base in range(0, self.n_sets * assoc, assoc)
                if tags[base + way] != -1
            ]
            for idx in resident:
                if flags[idx] & F_DIRTY:
                    stats.writebacks += 1
                del where[tags[idx]]
                tags[idx] = -1
                flags[idx] = 0
                counts[idx // assoc] -= 1
        self._data_ways = ways

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def probe(self, line: int) -> Optional[int]:
        """Return the way holding ``line`` or None; no state change."""
        idx = self._where.get(line)
        if idx is None:
            return None
        return idx % self.assoc

    def contains(self, line: int) -> bool:
        return line in self._where

    def on_demand_hit(self, line: int, way: int, is_write: bool = False) -> bool:
        """Record a demand hit; returns True if this hit consumed a prefetch.

        "Consumed" means the line was prefetched and this is the first
        demand touch — the definition of a useful prefetch.
        """
        set_idx = line % self.n_sets
        idx = set_idx * self.assoc + way
        state = self._plru_state
        if state is not None:
            state[set_idx] = (
                state[set_idx] & self._plru_keep[way]
            ) | self._plru_point[way]
        else:
            rrpv = self._srrip_rrpv
            if rrpv is not None:
                rrpv[idx] = 0
            else:
                self._policy_on_hit(set_idx, way)
        self.stats.demand_hits += 1
        flags = self._flags
        f = flags[idx]
        if is_write:
            f |= F_DIRTY
            flags[idx] = f
        if f & F_PF and not f & F_USED:
            flags[idx] = f | F_USED
            self.stats.useful_prefetches += 1
            return True
        return False

    def demand_lookup(self, line: int, is_write: bool = False):
        """Fused probe + demand-hit bookkeeping for the hierarchy hot path.

        Returns ``None`` on a miss (after counting it), else the tuple
        ``(consumed, ready_cycle, trigger_pc, pf_source)`` — everything
        the demand path reads, gathered from the flat arrays in one call.
        """
        idx = self._where.get(line)
        stats = self.stats
        if idx is None:
            stats.demand_misses += 1
            return None
        assoc = self.assoc
        set_idx = idx // assoc
        state = self._plru_state
        if state is not None:
            way = idx - set_idx * assoc
            state[set_idx] = (
                state[set_idx] & self._plru_keep[way]
            ) | self._plru_point[way]
        else:
            rrpv = self._srrip_rrpv
            if rrpv is not None:
                rrpv[idx] = 0
            else:
                self._policy_on_hit(set_idx, idx - set_idx * assoc)
        stats.demand_hits += 1
        flags = self._flags
        f = flags[idx]
        if is_write:
            f |= F_DIRTY
            flags[idx] = f
        consumed = False
        if f & F_PF and not f & F_USED:
            flags[idx] = f | F_USED
            stats.useful_prefetches += 1
            consumed = True
        return consumed, self._ready[idx], self._trigger[idx], f >> PF_SRC_SHIFT

    def ready_cycle(self, line: int, way: int) -> float:
        return self._ready[(line % self.n_sets) * self.assoc + way]

    def trigger_pc_of(self, line: int, way: int) -> int:
        return self._trigger[(line % self.n_sets) * self.assoc + way]

    def pf_source_of(self, line: int, way: int) -> int:
        return self._flags[(line % self.n_sets) * self.assoc + way] >> PF_SRC_SHIFT

    def was_prefetched(self, line: int, way: int) -> bool:
        f = self._flags[(line % self.n_sets) * self.assoc + way]
        return bool(f & F_PF) and not f & F_USED

    def fill(
        self,
        line: int,
        ready_cycle: float = 0.0,
        prefetched: bool = False,
        trigger_pc: int = -1,
        dirty: bool = False,
        pf_source: int = PF_NONE,
    ) -> Optional[EvictedLine]:
        """Install ``line``; returns the evicted line's info if any.

        A fill of a line already resident refreshes its metadata (this
        happens when a prefetch races a demand miss) and evicts nothing.
        This is the fully-reported variant; the hierarchy's hot paths use
        :meth:`fill_clean` (L1 demand fills) and :meth:`fill_victim`
        (L2/L3 fills, bare ``(line, dirty)`` victim info) instead — and
        the fused kernel inlines both over the flat arrays.
        """
        where = self._where
        flags = self._flags
        existing = where.get(line)
        if existing is not None:
            if dirty:
                flags[existing] |= F_DIRTY
            return None

        set_idx = line % self.n_sets
        assoc = self.assoc
        base = set_idx * assoc
        tags = self._tags
        counts = self._counts
        data_ways = self._data_ways
        evicted: Optional[EvictedLine] = None
        if counts[set_idx] < data_ways:
            way = tags.index(-1, base, base + data_ways) - base
            counts[set_idx] += 1
        else:
            way = self._pick_way(set_idx, base, data_ways)
            idx = base + way
            f = flags[idx]
            evicted = EvictedLine(
                line=tags[idx],
                dirty=bool(f & F_DIRTY),
                prefetched=bool(f & F_PF),
                used=bool(f & F_USED),
                trigger_pc=self._trigger[idx],
                pf_source=f >> PF_SRC_SHIFT,
            )
            stats = self.stats
            if f & F_DIRTY:
                stats.writebacks += 1
            if f & F_PF and not f & F_USED:
                stats.useless_evictions += 1
            del where[tags[idx]]

        idx = base + way
        tags[idx] = line
        flags[idx] = (
            (F_PF | (pf_source << PF_SRC_SHIFT) if prefetched else 0)
            | (F_DIRTY if dirty else 0)
        )
        self._ready[idx] = ready_cycle
        self._trigger[idx] = trigger_pc
        where[line] = idx
        self._touch_fill(set_idx, base, way)
        if prefetched:
            self.stats.prefetch_fills += 1
        return evicted

    def _pick_way(self, set_idx: int, base: int, data_ways: int) -> int:
        """Victim way for a full set, policy touch inlined where possible.

        PLRU (L1/L2, never way-restricted): one lookup in the packed-state
        victim table.  SRRIP (L3, possibly partitioned): first way holding
        the maximum RRPV among the data ways, found with C-level
        ``max``/``index`` over an RRPV slice — identical to the policy's
        first-max scan.  Anything else calls the policy.
        """
        victims = self._plru_victims
        if victims is not None and data_ways == self.assoc:
            return victims[self._plru_state[set_idx]]
        rrpv = self._srrip_rrpv
        if rrpv is not None:
            seg = rrpv[base:base + data_ways]
            return seg.index(max(seg))
        restrict = None if data_ways == self.assoc else range(data_ways)
        return self._policy_victim(set_idx, restrict)

    def _touch_fill(self, set_idx: int, base: int, way: int) -> None:
        """Replacement-state update for a fill, inlined per policy."""
        state = self._plru_state
        if state is not None:
            state[set_idx] = (
                state[set_idx] & self._plru_keep[way]
            ) | self._plru_point[way]
            return
        rrpv = self._srrip_rrpv
        if rrpv is not None:
            rrpv[base + way] = self._srrip_fill
            return
        self._policy_on_fill(set_idx, way)

    def fill_clean(self, line: int, ready: float) -> None:
        """Demand fill of a clean, non-prefetched line; victim discarded.

        The specialized L1 path: identical placement, eviction statistics,
        and replacement behaviour to :meth:`fill`, minus the prefetch
        bookkeeping, dirty propagation, and EvictedLine construction.
        """
        where = self._where
        if line in where:
            return
        set_idx = line % self.n_sets
        assoc = self.assoc
        base = set_idx * assoc
        tags = self._tags
        flags = self._flags
        counts = self._counts
        data_ways = self._data_ways
        if counts[set_idx] < data_ways:
            way = tags.index(-1, base, base + data_ways) - base
            counts[set_idx] += 1
        else:
            way = self._pick_way(set_idx, base, data_ways)
            idx = base + way
            f = flags[idx]
            if f & F_DIRTY:
                self.stats.writebacks += 1
            if f & F_PF and not f & F_USED:
                self.stats.useless_evictions += 1
            del where[tags[idx]]
        idx = base + way
        tags[idx] = line
        flags[idx] = 0
        self._ready[idx] = ready
        self._trigger[idx] = -1
        where[line] = idx
        self._touch_fill(set_idx, base, way)

    def fill_victim(
        self,
        line: int,
        ready_cycle: float = 0.0,
        prefetched: bool = False,
        trigger_pc: int = -1,
        dirty: bool = False,
        pf_source: int = PF_NONE,
    ):
        """:meth:`fill` returning only ``(victim_line, victim_dirty)``.

        The L2-fill/L3-spill path needs exactly those two victim fields,
        so this variant skips the :class:`EvictedLine` record.  Returns
        ``None`` when nothing was evicted.  Semantics (placement,
        statistics, policy updates) are identical to :meth:`fill`.
        """
        where = self._where
        flags = self._flags
        existing = where.get(line)
        if existing is not None:
            if dirty:
                flags[existing] |= F_DIRTY
            return None

        set_idx = line % self.n_sets
        assoc = self.assoc
        base = set_idx * assoc
        tags = self._tags
        counts = self._counts
        data_ways = self._data_ways
        victim = None
        if counts[set_idx] < data_ways:
            way = tags.index(-1, base, base + data_ways) - base
            counts[set_idx] += 1
        else:
            way = self._pick_way(set_idx, base, data_ways)
            idx = base + way
            f = flags[idx]
            old_line = tags[idx]
            old_dirty = bool(f & F_DIRTY)
            stats = self.stats
            if old_dirty:
                stats.writebacks += 1
            if f & F_PF and not f & F_USED:
                stats.useless_evictions += 1
            del where[old_line]
            victim = (old_line, old_dirty)

        idx = base + way
        tags[idx] = line
        flags[idx] = (
            (F_PF | (pf_source << PF_SRC_SHIFT) if prefetched else 0)
            | (F_DIRTY if dirty else 0)
        )
        self._ready[idx] = ready_cycle
        self._trigger[idx] = trigger_pc
        where[line] = idx
        self._touch_fill(set_idx, base, way)
        if prefetched:
            self.stats.prefetch_fills += 1
        return victim

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident (used for exclusive-ish L3 behaviour)."""
        idx = self._where.pop(line, None)
        if idx is None:
            return False
        self._tags[idx] = -1
        self._flags[idx] = 0
        self._counts[idx // self.assoc] -= 1
        return True

    def reset_stats(self) -> None:
        """Zero the counters **in place**.

        The fused hierarchy kernel closes over the :class:`CacheStats`
        object, so the warmup->measure reset must mutate it rather than
        swap in a fresh instance (the rebind/resize rule, invariant 9).
        """
        s = self.stats
        s.demand_hits = 0
        s.demand_misses = 0
        s.prefetch_fills = 0
        s.useful_prefetches = 0
        s.useless_evictions = 0
        s.writebacks = 0

    # ------------------------------------------------------------------
    # introspection used by tests and the set-dueller
    # ------------------------------------------------------------------
    def resident_lines(self) -> List[int]:
        return list(self._where)

    def occupancy(self) -> float:
        total = self.n_sets * self._data_ways
        return len(self._where) / total if total else 0.0
