"""Parameterized scenario generators: workload families behind the catalog.

Where the SPEC/CRONO personas reproduce *specific* paper workloads, a
generator scenario is a point in a parameterized family — pointer-chase,
graph-BFS frontier, streaming-scan, phase-mixed, pure-entropy noise —
with adjustable footprint, entropy (the fraction of unpredictable
accesses), and MLP.  Each scenario is a frozen
:class:`GeneratorScenario` record registered under a catalog label, so
new scenarios are a registry entry, not a code change::

    from repro.workloads.generators import (
        GeneratorScenario, register_generator_scenario,
    )

    register_generator_scenario(GeneratorScenario(
        label="gen_my_chase",
        family="pointer_chase",
        description="pointer chase sized between L2 and LLC",
        seed=7,
        params=(("footprint_lines", 16384), ("entropy", 0.2)),
    ))

Scenario traces are seed-deterministic: the same (label, records) pair
always produces bit-identical record arrays, and
:func:`scenario_digest` content-hashes the family, parameters, seed, and
record count into the digest the runner folds into its cache keys — so
editing a scenario's parameters can never alias a previously cached
result.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .base import (
    AddressSpace,
    Component,
    PCAllocator,
    QuasiSequentialComponent,
    RandomComponent,
    StrideComponent,
    TemporalChainComponent,
    Trace,
    build_trace,
)

#: Folded into every scenario digest; bump when a family's construction
#: changes so previously cached results are never reused for new traces.
GENERATOR_VERSION = 1

#: PC base for generator scenarios, disjoint from the SPEC (0x4xxxxx) and
#: CRONO (0x8xxxxx) ranges.
PC_GENERATOR_BASE = 0xA00000


@dataclass(frozen=True)
class GeneratorScenario:
    """One labelled point in a generator family.

    ``params`` is a tuple of ``(name, value)`` pairs (JSON-compatible
    values) passed as keyword arguments to the family builder; the tuple
    form keeps the record hashable and its digest stable.
    """

    label: str
    family: str
    description: str
    seed: int = 1
    mlp: int = 4
    params: Tuple[Tuple[str, Any], ...] = ()

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)


#: family name -> builder(scenario, n_records) -> Trace
FAMILIES: Dict[str, Callable[[GeneratorScenario, int], Trace]] = {}


def generator_family(name: str):
    """Register the decorated function as family ``name``'s builder."""

    def deco(fn: Callable[[GeneratorScenario, int], Trace]):
        FAMILIES[name] = fn
        return fn

    return deco


def scenario_digest(scenario: GeneratorScenario, n_records: Optional[int]) -> str:
    """Content digest of one (scenario, records) materialization.

    Everything that determines the generated arrays is hashed: the
    generator version, family, seed, mlp, parameters, and record count.
    """
    spec = {
        "version": GENERATOR_VERSION,
        "family": scenario.family,
        "label": scenario.label,
        "seed": scenario.seed,
        "mlp": scenario.mlp,
        "params": sorted(scenario.params),
        "records": n_records,
    }
    blob = json.dumps(spec, sort_keys=True).encode()
    return f"generator:{scenario.label}:{hashlib.sha256(blob).hexdigest()}"


def build_scenario(scenario: GeneratorScenario, n_records: Optional[int]) -> Trace:
    """Materialize a scenario as a deterministic trace."""
    if scenario.family not in FAMILIES:
        raise ValueError(
            f"unknown generator family {scenario.family!r}; "
            f"families: {', '.join(sorted(FAMILIES))}"
        )
    n = n_records if n_records is not None else 120_000
    return FAMILIES[scenario.family](scenario, n)


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------
def _noise_weight(entropy: float) -> float:
    """Component weight giving the noise component an ``entropy`` share."""
    entropy = min(max(entropy, 0.0), 0.95)
    return entropy / (1.0 - entropy) if entropy else 0.0


@generator_family("pointer_chase")
def _pointer_chase(scenario: GeneratorScenario, n_records: int) -> Trace:
    """Linked-structure walks with a tunable footprint and entropy.

    ``footprint_lines`` sizes the pooled chain working set (which cache
    level the chase lives in); ``entropy`` is the fraction of accesses
    drawn from an unprefetchable uniform-random region; ``branch_prob``
    creates multi-target Markov addresses (chain variants).
    """
    p = scenario.param_dict()
    footprint = int(p.get("footprint_lines", 32_768))
    entropy = float(p.get("entropy", 0.1))
    branch_prob = float(p.get("branch_prob", 0.0))
    repeat_prob = float(p.get("repeat_prob", 0.85))
    chain_len = int(p.get("chain_len", 48))
    rng = random.Random(scenario.seed)
    space = AddressSpace()
    pcs = PCAllocator(PC_GENERATOR_BASE)
    components: List[Component] = [
        TemporalChainComponent(
            pcs.alloc(8), space, rng,
            n_chains=max(2, footprint // chain_len),
            chain_len=chain_len,
            repeat_prob=repeat_prob,
            branch_prob=branch_prob,
            n_pcs=4,
            weight=1.0,
        )
    ]
    noise = _noise_weight(entropy)
    if noise:
        components.append(
            RandomComponent(
                pcs.alloc(4), space,
                region_lines=max(footprint * 4, 1 << 16),
                weight=noise, n_pcs=4,
            )
        )
    return build_trace(
        scenario.label, "", components, n_records, scenario.seed, scenario.mlp
    )


@generator_family("bfs_frontier")
def _bfs_frontier(scenario: GeneratorScenario, n_records: int) -> Trace:
    """Graph-BFS frontier expansion: edge scans + irregular vertex data.

    The CSR neighbour scan is quasi-sequential (deltas vary with vertex
    degree, defeating constant-stride matchers but not
    ``address + distance`` prefetches); per-neighbour vertex-state
    accesses are irregular over a ``nodes``-line array; a small temporal
    component models frontier re-expansion across iterations.
    """
    p = scenario.param_dict()
    nodes = int(p.get("nodes", 20_000))
    degree = max(1, int(p.get("degree", 8)))
    rng = random.Random(scenario.seed)
    space = AddressSpace()
    pcs = PCAllocator(PC_GENERATOR_BASE + 0x10000)
    deltas = [1 + rng.randrange(max(1, degree // 2) + 1) for _ in range(8)]
    components: List[Component] = [
        QuasiSequentialComponent(
            pcs.alloc(2), space,
            length=nodes * degree // 16 + 16,
            deltas=deltas, weight=float(degree),
        ),
        RandomComponent(
            pcs.alloc(4), space, region_lines=nodes,
            weight=float(degree), n_pcs=2,
        ),
        TemporalChainComponent(
            pcs.alloc(4), space, rng,
            n_chains=16, chain_len=32, repeat_prob=0.7, weight=2.0,
        ),
    ]
    return build_trace(
        scenario.label, "", components, n_records, scenario.seed, scenario.mlp
    )


@generator_family("stream_scan")
def _stream_scan(scenario: GeneratorScenario, n_records: int) -> Trace:
    """Streaming array sweeps: ``streams`` concurrent scans + noise.

    The most prefetch-friendly family (stride/IPCP fodder); ``entropy``
    mixes in unpredictable accesses to degrade it gradually.
    """
    p = scenario.param_dict()
    footprint = int(p.get("footprint_lines", 1 << 16))
    stride = int(p.get("stride", 1))
    streams = max(1, int(p.get("streams", 1)))
    entropy = float(p.get("entropy", 0.0))
    space = AddressSpace()
    pcs = PCAllocator(PC_GENERATOR_BASE + 0x20000)
    components: List[Component] = [
        StrideComponent(
            pcs.alloc(1), space,
            length=max(64, footprint // streams), stride=stride, weight=1.0,
        )
        for _ in range(streams)
    ]
    noise = _noise_weight(entropy)
    if noise:
        components.append(
            RandomComponent(
                pcs.alloc(2), space, region_lines=footprint,
                weight=noise * streams,
            )
        )
    return build_trace(
        scenario.label, "", components, n_records, scenario.seed, scenario.mlp
    )


@generator_family("phase_mix")
def _phase_mix(scenario: GeneratorScenario, n_records: int) -> Trace:
    """Alternating program phases: pointer-chase blocks vs stream blocks.

    Unlike the weighted per-record interleave of the other families, the
    trace switches *wholesale* between component sets every
    ``phase_records`` records — the phased behaviour that stresses
    adaptive mechanisms (resizing, confidence counters) far more than a
    stationary mix does.
    """
    p = scenario.param_dict()
    phase_records = max(1, int(p.get("phase_records", 4_000)))
    footprint = int(p.get("footprint_lines", 16_384))
    entropy = float(p.get("entropy", 0.1))
    rng = random.Random(scenario.seed)
    space = AddressSpace()
    pcs = PCAllocator(PC_GENERATOR_BASE + 0x30000)
    chase: List[Component] = [
        TemporalChainComponent(
            pcs.alloc(8), space, rng,
            n_chains=max(2, footprint // 48), chain_len=48,
            repeat_prob=0.85, n_pcs=4, weight=1.0,
        )
    ]
    noise = _noise_weight(entropy)
    if noise:
        chase.append(
            RandomComponent(
                pcs.alloc(2), space,
                region_lines=max(footprint * 4, 1 << 16), weight=noise,
            )
        )
    stream: List[Component] = [
        StrideComponent(pcs.alloc(1), space, length=footprint, weight=1.0),
        QuasiSequentialComponent(
            pcs.alloc(1), space, length=footprint, weight=0.5,
        ),
    ]
    phases = [chase, stream]
    trace_pcs: List[int] = []
    trace_lines: List[int] = []
    trace_gaps: List[int] = []
    for i in range(n_records):
        comps = phases[(i // phase_records) % len(phases)]
        comp = rng.choices(comps, [c.weight for c in comps])[0]
        pc, line, gap = comp.next_record(rng)
        trace_pcs.append(pc)
        trace_lines.append(line)
        trace_gaps.append(gap)
    return Trace(
        scenario.label, "", trace_pcs, trace_lines, trace_gaps, scenario.mlp
    )


@generator_family("entropy_noise")
def _entropy_noise(scenario: GeneratorScenario, n_records: int) -> Trace:
    """Uniform-random accesses: the unprefetchable upper bound on waste.

    Useful as a control scenario — any scheme issuing traffic here is
    pure pollution, which is exactly what insertion-policy filtering is
    supposed to stop.
    """
    p = scenario.param_dict()
    footprint = int(p.get("footprint_lines", 1 << 20))
    n_pcs = int(p.get("n_pcs", 8))
    space = AddressSpace()
    pcs = PCAllocator(PC_GENERATOR_BASE + 0x40000)
    components = [
        RandomComponent(
            pcs.alloc(n_pcs), space, region_lines=footprint,
            weight=1.0, n_pcs=n_pcs,
        )
    ]
    return build_trace(
        scenario.label, "", components, n_records, scenario.seed, scenario.mlp
    )


# ----------------------------------------------------------------------
# scenario registry + starter pack
# ----------------------------------------------------------------------
#: label -> GeneratorScenario, in registration (== listing) order.
GENERATOR_SCENARIOS: Dict[str, GeneratorScenario] = {}


def register_generator_scenario(scenario: GeneratorScenario) -> GeneratorScenario:
    """Make ``scenario`` selectable by label through the workload catalog."""
    if scenario.family not in FAMILIES:
        raise ValueError(
            f"unknown generator family {scenario.family!r}; "
            f"families: {', '.join(sorted(FAMILIES))}"
        )
    existing = GENERATOR_SCENARIOS.get(scenario.label)
    if existing is not None and existing != scenario:
        raise ValueError(
            f"generator scenario {scenario.label!r} already registered "
            "with different parameters"
        )
    GENERATOR_SCENARIOS[scenario.label] = scenario
    return scenario


#: The shipped scenario pack: one label per interesting corner of the
#: family space.  Footprints are quoted in cache lines (64 B each).
STARTER_SCENARIOS: Tuple[GeneratorScenario, ...] = (
    GeneratorScenario(
        "gen_ptrchase_l2", "pointer_chase",
        "pointer chase resident in L2 (256 KB footprint, low entropy)",
        seed=11, mlp=2,
        params=(("footprint_lines", 4_096), ("entropy", 0.05)),
    ),
    GeneratorScenario(
        "gen_hot_l1", "pointer_chase",
        "L1-resident pointer chase (12 KB footprint, conflict-free set "
        "mapping, zero entropy): maximal hit runs, the engine's cheapest "
        "per-record path",
        seed=15, mlp=2,
        params=(("footprint_lines", 192), ("entropy", 0.0),
                ("repeat_prob", 1.0)),
    ),
    GeneratorScenario(
        "gen_ptrchase_llc", "pointer_chase",
        "pointer chase sized to the LLC (2 MB footprint, moderate entropy)",
        seed=12, mlp=4,
        params=(("footprint_lines", 32_768), ("entropy", 0.15)),
    ),
    GeneratorScenario(
        "gen_ptrchase_dram", "pointer_chase",
        "DRAM-resident pointer chase (64 MB footprint, high entropy)",
        seed=13, mlp=8,
        params=(("footprint_lines", 1_048_576), ("entropy", 0.3)),
    ),
    GeneratorScenario(
        "gen_ptrchase_branchy", "pointer_chase",
        "branch-heavy chase: multi-target Markov addresses (MVB territory)",
        seed=14, mlp=4,
        params=(("footprint_lines", 16_384), ("entropy", 0.1),
                ("branch_prob", 0.4)),
    ),
    GeneratorScenario(
        "gen_bfs_frontier", "bfs_frontier",
        "BFS frontier expansion over a 20k-node sparse graph (degree 8)",
        seed=21, mlp=4,
        params=(("nodes", 20_000), ("degree", 8)),
    ),
    GeneratorScenario(
        "gen_bfs_frontier_dense", "bfs_frontier",
        "BFS frontier over a dense 8k-node graph (degree 32)",
        seed=22, mlp=6,
        params=(("nodes", 8_000), ("degree", 32)),
    ),
    GeneratorScenario(
        "gen_stream_scan", "stream_scan",
        "unit-stride streaming sweep (4 MB footprint, stride-friendly)",
        seed=31, mlp=8,
        params=(("footprint_lines", 65_536), ("stride", 1)),
    ),
    GeneratorScenario(
        "gen_stream_multi", "stream_scan",
        "four concurrent strided streams with 10% noise",
        seed=32, mlp=8,
        params=(("footprint_lines", 65_536), ("stride", 2),
                ("streams", 4), ("entropy", 0.1)),
    ),
    GeneratorScenario(
        "gen_phase_mix", "phase_mix",
        "alternating pointer-chase / streaming phases (4k-record phases)",
        seed=41, mlp=4,
        params=(("phase_records", 4_000), ("footprint_lines", 16_384),
                ("entropy", 0.1)),
    ),
    GeneratorScenario(
        "gen_entropy_noise", "entropy_noise",
        "uniform random over 64 MB: the unprefetchable control",
        seed=51, mlp=8,
        params=(("footprint_lines", 1_048_576),),
    ),
)

for _scenario in STARTER_SCENARIOS:
    register_generator_scenario(_scenario)
