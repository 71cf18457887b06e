"""Workload trace framework.

The paper evaluates on SPEC CPU2006 SimPoint checkpoints and CRONO graph
kernels.  Neither can be redistributed, so each workload here is a *seeded
synthetic persona*: a deterministic generator whose memory-access stream
reproduces the statistical structure the paper's mechanisms key on —
temporal chains with interleaved useful/useless metadata accesses,
stratified per-PC prefetching accuracy, multi-target Markov addresses,
and (for CRONO) genuinely stride-friendly prefetch kernels.  DESIGN.md
documents the substitution.

A trace is a sequence of records ``(pc, line, gap)``:

- ``pc``    — the memory instruction's program counter (an opaque int);
- ``line``  — the cache-line address accessed;
- ``gap``   — non-memory instructions executed since the previous record
  (feeds the timing model's base CPI).

Traces are built from *components*: stateful generators, each owning a
disjoint PC range and an address region, interleaved by weight.  The
interleaving is what produces the highly variable metadata access pattern
of Fig. 1 — useful and useless metadata accesses from different components
alternate in the L2 stream.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .._accel import numpy_capability

#: Structured dtypes of one trace record: the packed int32 layout a trace
#: uses when every pc, line and gap fits, else the int64 one.  ``None``
#: when numpy is absent (the pure-Python list fallback is used instead).
TRACE_DTYPE = COMPACT_TRACE_DTYPE = None
_np = numpy_capability().module
if _np is not None:
    TRACE_DTYPE = _np.dtype([("pc", "<i8"), ("line", "<i8"), ("gap", "<i8")])
    COMPACT_TRACE_DTYPE = _np.dtype([("pc", "<i4"), ("line", "<i4"), ("gap", "<i4")])


def record_array(pcs, lines, gaps):
    """The pc/line/gap columns as one structured array: packed int32
    (:data:`COMPACT_TRACE_DTYPE`) when every value fits, else
    :data:`TRACE_DTYPE`.  Requires numpy."""
    columns = [_np.asarray(col, dtype=_np.int64) for col in (pcs, lines, gaps)]
    info = _np.iinfo(_np.int32)
    fits = all(not len(col) or info.min <= col.min() and col.max() <= info.max
               for col in columns)
    rec = _np.empty(len(columns[0]), dtype=COMPACT_TRACE_DTYPE if fits else TRACE_DTYPE)
    for name, col in zip(("pc", "line", "gap"), columns):
        rec[name] = col
    return rec


def _shuffled_offsets(n: int, spread: int, rng: random.Random) -> List[int]:
    """``n`` unique line offsets drawn from a ``spread``-times larger range,
    in random order.  Consecutive allocations have random deltas, so
    pointer-style data defeats stride/spatial prefetchers — exactly the
    irregularity that makes the paper's workloads temporal-prefetching
    territory."""
    offsets = rng.sample(range(n * spread), n)
    return offsets


class Trace:
    """An immutable memory-access trace plus bookkeeping.

    Records are stored as one numpy structured array when numpy is
    available — packed int32 (:data:`COMPACT_TRACE_DTYPE`) when every
    value fits, else :data:`TRACE_DTYPE` — falling back to three parallel
    Python lists otherwise.  The storage backend is an implementation
    detail:

    - ``trace.pcs`` / ``trace.lines`` / ``trace.gaps`` always return
      Python-int lists, so every scalar consumer — the flat engine's
      record stream, digest hashing, analysis code, JSON serialization —
      sees plain ints regardless of backend.  Array-backed traces build a
      fresh list per access and never cache it: callers read each column
      once per pass, and cached lists pinned ~5x the array's memory on
      every trace a run keeps alive;
    - ``trace.records_array`` exposes the structured array (``None``
      without numpy) for the native engine kernel and the trace-file
      writers.

    Pickling ships the identity fields plus the record storage, so runner
    workers receive arrays.
    """

    mlp: int

    def __init__(
        self,
        name: str,
        input_name: str,
        pcs: Sequence[int],
        lines: Sequence[int],
        gaps: Sequence[int],
        mlp: int = 4,  # workload memory-level-parallelism hint for the timing model
    ):
        if not (len(pcs) == len(lines) == len(gaps)):
            raise ValueError("pcs/lines/gaps must have equal length")
        self.name = name
        self.input_name = input_name
        self.mlp = mlp
        self._pcs: Optional[List[int]] = None
        self._lines: Optional[List[int]] = None
        self._gaps: Optional[List[int]] = None
        if _np is not None:
            self._rec = record_array(pcs, lines, gaps)
        else:  # pragma: no cover - exercised by the no-numpy CI leg
            self._rec = None
            self._pcs = list(pcs)
            self._lines = list(lines)
            self._gaps = list(gaps)

    @classmethod
    def from_records(
        cls, name: str, input_name: str, records, mlp: int = 4
    ) -> "Trace":
        """Wrap an existing :data:`TRACE_DTYPE` or
        :data:`COMPACT_TRACE_DTYPE` structured array (no copy)."""
        trace = cls.__new__(cls)
        trace.name = name
        trace.input_name = input_name
        trace.mlp = mlp
        trace._rec = records
        trace._pcs = trace._lines = trace._gaps = None
        return trace

    # -- storage accessors ---------------------------------------------
    @property
    def records_array(self):
        """The structured record array, or ``None`` without numpy."""
        return self._rec

    @property
    def pcs(self) -> List[int]:
        return self._pcs if self._rec is None else self._rec["pc"].tolist()

    @property
    def lines(self) -> List[int]:
        return self._lines if self._rec is None else self._rec["line"].tolist()

    @property
    def gaps(self) -> List[int]:
        return self._gaps if self._rec is None else self._rec["gap"].tolist()

    def __len__(self) -> int:
        return len(self._rec) if self._rec is not None else len(self._pcs)

    def __repr__(self) -> str:
        return f"Trace({self.label!r}, records={len(self)}, mlp={self.mlp})"

    @property
    def label(self) -> str:
        return f"{self.name}_{self.input_name}" if self.input_name else self.name

    @property
    def instructions(self) -> int:
        """Total instructions: one memory op per record plus its gap."""
        if self._rec is not None:
            return len(self._rec) + int(self._rec["gap"].sum(dtype=_np.int64))
        return len(self._pcs) + sum(self._gaps)

    def interval(self, start: int, stop: int) -> "Trace":
        """A contiguous slice (used by SimPoint checkpointing)."""
        if self._rec is not None:
            return Trace.from_records(
                self.name, self.input_name, self._rec[start:stop].copy(), self.mlp
            )
        return Trace(
            self.name,
            self.input_name,
            self._pcs[start:stop],
            self._lines[start:stop],
            self._gaps[start:stop],
            self.mlp,
        )

    def records(self) -> Iterator[Tuple[int, int, int]]:
        return zip(self.pcs, self.lines, self.gaps)


class AddressSpace:
    """Hands out disjoint line-address regions to components."""

    def __init__(self, base: int = 1 << 20):
        self._next = base

    def region(self, n_lines: int) -> int:
        start = self._next
        self._next += n_lines
        return start


class PCAllocator:
    """Hands out disjoint PC ranges to components."""

    def __init__(self, base: int = 0x400000):
        self._next = base

    def alloc(self, n: int = 1) -> int:
        start = self._next
        self._next += n
        return start


class Component:
    """A stateful sub-generator contributing records to a trace."""

    #: Relative interleave weight; set by the persona.
    weight: float = 1.0

    def next_record(self, rng: random.Random) -> Tuple[int, int, int]:
        """Produce the next ``(pc, line, gap)`` record."""
        raise NotImplementedError


class TemporalChainComponent(Component):
    """Pointer-chasing chains that revisit — the temporal-pattern engine.

    A pool of ``n_chains`` chains of ``chain_len`` scattered lines is walked
    end to end; at each chain end the walker either revisits a pooled chain
    (probability ``repeat_prob`` — these produce *useful* metadata) or walks
    a fresh never-repeated chain (*useless* metadata, the red dots of
    Fig. 1).  ``branch_prob`` creates chain *variants*: copies of an
    existing chain with a fraction of adjacent element pairs swapped, so
    the shared addresses recur with two different successors depending on
    which variant is walked — multi-target Markov addresses (Fig. 8) that
    thrash a one-target-per-entry table and that the Multi-path Victim
    Buffer exploits.

    ``burst_period`` optionally alternates useful/useless *phases* instead
    of mixing per-walk, reproducing the bursts that crash Triangel's
    PatternConf (Fig. 1's analysis).

    ``useless_kind`` selects what a useless walk looks like:

    - ``"fresh"`` — brand-new never-repeated lines (cold pointer churn):
      no metadata ever matches, so hardware confidence counters see
      nothing, but the table fills with dead entries;
    - ``"shuffle"`` — an existing pooled chain is walked in a *reshuffled*
      order (omnetpp's event queue: the same objects recur in a different
      sequence every time).  Stale metadata now actively *mispredicts* —
      the red dots of Fig. 1 — which is what drives PatternConf to zero
      and makes Triangel reject the interleaved genuine patterns.
    """

    def __init__(
        self,
        pc: int,
        space: AddressSpace,
        rng: random.Random,
        n_chains: int = 32,
        chain_len: int = 48,
        repeat_prob: float = 0.8,
        branch_prob: float = 0.0,
        gap: int = 6,
        weight: float = 1.0,
        burst_period: int = 0,
        n_pcs: int = 1,
        skew: float = 2.0,
        mutate_prob: float = 0.0,
        useless_kind: str = "fresh",
    ):
        if useless_kind not in ("fresh", "shuffle"):
            raise ValueError("useless_kind must be 'fresh' or 'shuffle'")
        self.pc = pc
        self.n_pcs = n_pcs
        self.gap = gap
        self.weight = weight
        self.repeat_prob = repeat_prob
        self.branch_prob = branch_prob
        self.burst_period = burst_period
        self.useless_kind = useless_kind
        # Zipf-like chain popularity: revisits concentrate on a hot subset
        # (skew > 1), so the hot metadata working set can stay table-resident
        # even when the full pool exceeds the table — real temporal traces
        # are skewed the same way.
        self.skew = skew
        # Slow chain evolution: each walked element occasionally rewires to
        # a new line, leaving stale metadata behind.  This is what keeps
        # temporal-prefetch accuracy below 1.0 and generates the wasted
        # DRAM traffic the paper reports for aggressive prefetchers.
        self.mutate_prob = mutate_prob
        self._mutate_lines = 1 << 21
        self._mutate_region = space.region(self._mutate_lines)
        self.chain_len = chain_len
        # Scattered, unique lines for the pooled chains.
        pool = n_chains * chain_len
        offsets = _shuffled_offsets(pool, 4, rng)
        region = space.region(4 * pool + 1)
        self.chains: List[List[int]] = []
        idx = 0
        for c in range(n_chains):
            if c and branch_prob > 0 and rng.random() < branch_prob:
                # Variant: same addresses as the parent, ~1/3 of adjacent
                # pairs swapped -> multi-target addresses throughout.
                parent = self.chains[rng.randrange(len(self.chains))]
                chain = list(parent)
                i = 0
                while i < len(chain) - 1:
                    if rng.random() < 0.35:
                        chain[i], chain[i + 1] = chain[i + 1], chain[i]
                        i += 2
                    else:
                        i += 1
            else:
                chain = [region + offsets[idx + i] for i in range(chain_len)]
                idx += chain_len
            self.chains.append(chain)
        # Fresh (useless) chains draw random lines from their own region;
        # intra-region collisions are harmless (the chains never repeat).
        self._fresh_lines = 1 << 22
        self._fresh_region = space.region(self._fresh_lines)
        self._walks = 0
        self._current: List[int] = self._pick_chain(rng)
        self._pos = 0

    def _fresh_chain(self, rng: random.Random) -> List[int]:
        return [
            self._fresh_region + rng.randrange(self._fresh_lines)
            for _ in range(self.chain_len)
        ]

    def _pick_chain(self, rng: random.Random) -> List[int]:
        self._walks += 1
        if self.burst_period:
            # Alternating bursts of useful / useless walks.
            phase = (self._walks // self.burst_period) % 2
            repeat = phase == 0
        else:
            repeat = rng.random() < self.repeat_prob
        if repeat:
            # Zipf-ish popularity: u**skew concentrates picks near index 0.
            u = rng.random()
            index = int((u ** self.skew) * len(self.chains))
            return self.chains[min(index, len(self.chains) - 1)]
        if self.useless_kind == "shuffle":
            # Walk a pooled chain in a new order: its addresses recur but
            # every recorded successor is now wrong (Fig. 1's red dots).
            chain = self.chains[rng.randrange(len(self.chains))]
            rng.shuffle(chain)
            return chain
        return self._fresh_chain(rng)

    def next_record(self, rng: random.Random) -> Tuple[int, int, int]:
        if self._pos >= len(self._current):
            self._current = self._pick_chain(rng)
            self._pos = 0
        if self.mutate_prob and rng.random() < self.mutate_prob:
            self._current[self._pos] = self._mutate_region + rng.randrange(
                self._mutate_lines
            )
        line = self._current[self._pos]
        self._pos += 1
        pc = self.pc if self.n_pcs == 1 else self.pc + (self._pos % self.n_pcs)
        return pc, line, self.gap


class StrideComponent(Component):
    """A looping constant-stride array sweep (L1 stride prefetcher fodder)."""

    def __init__(
        self,
        pc: int,
        space: AddressSpace,
        length: int = 4096,
        stride: int = 1,
        gap: int = 4,
        weight: float = 1.0,
    ):
        self.pc = pc
        self.base = space.region(length * abs(stride) + 1)
        self.length = length
        self.stride = stride
        self.gap = gap
        self.weight = weight
        self._i = 0

    def next_record(self, rng: random.Random) -> Tuple[int, int, int]:
        line = self.base + (self._i % self.length) * self.stride
        self._i += 1
        return self.pc, line, self.gap


class QuasiSequentialComponent(Component):
    """Forward scans with variable small deltas (CRONO-style edge arrays).

    The delta varies (node degrees differ), so a constant-stride matcher
    rarely locks on, but ``address + distance`` software prefetches land —
    exactly the kernel class RPG2 supports and hardware stride misses.
    """

    def __init__(
        self,
        pc: int,
        space: AddressSpace,
        length: int = 1 << 16,
        deltas: Sequence[int] = (1, 1, 2, 1, 3, 1, 2, 1),
        gap: int = 5,
        weight: float = 1.0,
    ):
        self.pc = pc
        self.base = space.region(length + max(deltas) + 1)
        self.length = length
        self.deltas = list(deltas)
        self.gap = gap
        self.weight = weight
        self._offset = 0
        self._i = 0

    def next_record(self, rng: random.Random) -> Tuple[int, int, int]:
        line = self.base + self._offset
        self._offset += self.deltas[self._i % len(self.deltas)]
        if self._offset >= self.length:
            self._offset = 0
        self._i += 1
        return self.pc, line, self.gap


class RandomComponent(Component):
    """Uniform random accesses over a region — unprefetchable noise."""

    def __init__(
        self,
        pc: int,
        space: AddressSpace,
        region_lines: int = 1 << 18,
        gap: int = 8,
        weight: float = 1.0,
        n_pcs: int = 1,
    ):
        self.pc = pc
        self.n_pcs = n_pcs
        self.base = space.region(region_lines)
        self.region_lines = region_lines
        self.gap = gap
        self.weight = weight

    def next_record(self, rng: random.Random) -> Tuple[int, int, int]:
        line = self.base + rng.randrange(self.region_lines)
        pc = self.pc if self.n_pcs == 1 else self.pc + rng.randrange(self.n_pcs)
        return pc, line, self.gap


def build_trace(
    name: str,
    input_name: str,
    components: Sequence[Component],
    n_records: int,
    seed: int,
    mlp: int = 4,
) -> Trace:
    """Interleave components by weight into a deterministic trace."""
    if not components:
        raise ValueError("at least one component is required")
    rng = random.Random(seed)
    weights = [c.weight for c in components]
    pcs: List[int] = []
    lines: List[int] = []
    gaps: List[int] = []
    chooser = rng.choices
    for _ in range(n_records):
        comp = chooser(components, weights)[0]
        pc, line, gap = comp.next_record(rng)
        pcs.append(pc)
        lines.append(line)
        gaps.append(gap)
    return Trace(name, input_name, pcs, lines, gaps, mlp)


def successor_target_counts(lines: Sequence[int]) -> Dict[int, int]:
    """Number of distinct Markov targets per address in a stream (Fig. 8)."""
    successors: Dict[int, set] = {}
    for a, b in zip(lines, lines[1:]):
        if a == b:
            continue
        successors.setdefault(a, set()).add(b)
    return {line: len(s) for line, s in successors.items()}


def markov_target_counts(pcs: Sequence[int], lines: Sequence[int]) -> Dict[int, int]:
    """Distinct Markov targets per address with per-PC training (Fig. 8).

    Temporal prefetchers correlate each PC's *previous* access with its
    current one, so the successor relation is built per PC and merged —
    the metadata a Triage/Triangel-style trainer would actually record.
    """
    last_by_pc: Dict[int, int] = {}
    successors: Dict[int, set] = {}
    for pc, line in zip(pcs, lines):
        last = last_by_pc.get(pc)
        if last is not None and last != line:
            successors.setdefault(last, set()).add(line)
        last_by_pc[pc] = line
    return {line: len(s) for line, s in successors.items()}
