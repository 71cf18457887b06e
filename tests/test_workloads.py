"""Tests for workload generators: SPEC personas, CRONO, SimPoint."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.base import (
    AddressSpace,
    PCAllocator,
    QuasiSequentialComponent,
    RandomComponent,
    StrideComponent,
    TemporalChainComponent,
    Trace,
    build_trace,
    markov_target_counts,
)
from repro.workloads.crono import (
    CRONO_WORKLOADS,
    CSRGraph,
    make_crono_trace,
    parse_crono_name,
)
from repro.workloads.inputs import all_labels, make_trace
from repro.workloads.simpoint import (
    select_checkpoints,
    weighted_aggregate,
)
from repro.workloads.spec import (
    APP_PC_BLOCK,
    GCC_INPUTS,
    SPEC_WORKLOADS,
    make_spec_trace,
)

import random


class TestTraceBasics:
    def test_determinism(self):
        a = make_spec_trace("mcf", "inp", 5_000)
        b = make_spec_trace("mcf", "inp", 5_000)
        assert a.lines == b.lines and a.pcs == b.pcs and a.gaps == b.gaps

    def test_different_inputs_differ(self):
        a = make_spec_trace("gcc", "166", 5_000)
        b = make_spec_trace("gcc", "expr", 5_000)
        assert a.lines != b.lines

    def test_instructions_counts_gaps(self):
        t = Trace("x", "y", [1, 2], [10, 20], [3, 4])
        assert t.instructions == 2 + 7

    def test_interval_slicing(self):
        t = make_spec_trace("mcf", "inp", 2_000)
        s = t.interval(100, 200)
        assert len(s) == 100
        assert s.lines == t.lines[100:200]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace("x", "y", [1], [1, 2], [1])

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            make_spec_trace("doom", None, 100)


class TestComponents:
    def make(self, comp_cls, **kw):
        rng = random.Random(3)
        space = AddressSpace()
        return comp_cls(0x1000, space, **kw) if comp_cls is not TemporalChainComponent \
            else comp_cls(0x1000, space, rng, **kw)

    def test_chain_pool_lines_unique(self):
        rng = random.Random(3)
        comp = TemporalChainComponent(0x1000, AddressSpace(), rng,
                                      n_chains=10, chain_len=16)
        flat = [line for chain in comp.chains for line in chain]
        assert len(set(flat)) == len(flat)

    def test_chain_irregular_deltas(self):
        """Chain walks must not be stride-predictable."""
        rng = random.Random(3)
        comp = TemporalChainComponent(0x1000, AddressSpace(), rng,
                                      n_chains=4, chain_len=64,
                                      repeat_prob=1.0)
        lines = [comp.next_record(rng)[1] for _ in range(256)]
        deltas = [b - a for a, b in zip(lines, lines[1:])]
        from collections import Counter
        _, top = Counter(deltas).most_common(1)[0]
        assert top / len(deltas) < 0.2  # no dominant stride

    def test_branch_variants_create_multi_targets(self):
        rng = random.Random(3)
        comp = TemporalChainComponent(0x1000, AddressSpace(), rng,
                                      n_chains=20, chain_len=32,
                                      repeat_prob=1.0, branch_prob=0.9)
        pcs, lines = [], []
        for _ in range(20_000):
            pc, line, _gap = comp.next_record(rng)
            pcs.append(pc)
            lines.append(line)
        counts = markov_target_counts(pcs, lines)
        multi = sum(1 for n in counts.values() if n >= 2)
        assert multi / len(counts) > 0.2

    def test_shuffle_useless_reuses_addresses(self):
        rng = random.Random(3)
        comp = TemporalChainComponent(0x1000, AddressSpace(), rng,
                                      n_chains=4, chain_len=16,
                                      repeat_prob=0.0,
                                      useless_kind="shuffle")
        lines = {comp.next_record(rng)[1] for _ in range(1000)}
        pool = {line for chain in comp.chains for line in chain}
        assert lines <= pool  # shuffled walks recycle pooled addresses

    def test_fresh_useless_generates_new_addresses(self):
        rng = random.Random(3)
        comp = TemporalChainComponent(0x1000, AddressSpace(), rng,
                                      n_chains=4, chain_len=16,
                                      repeat_prob=0.0, useless_kind="fresh")
        lines = {comp.next_record(rng)[1] for _ in range(1000)}
        pool = {line for chain in comp.chains for line in chain}
        assert not (lines & pool)

    def test_invalid_useless_kind(self):
        with pytest.raises(ValueError):
            TemporalChainComponent(0x1000, AddressSpace(), random.Random(1),
                                   useless_kind="maybe")

    def test_stride_component_loops(self):
        comp = StrideComponent(0x1000, AddressSpace(), length=4, stride=2)
        rng = random.Random(0)
        lines = [comp.next_record(rng)[1] for _ in range(8)]
        assert lines[:4] == lines[4:]
        assert lines[1] - lines[0] == 2

    def test_quasi_sequential_moves_forward(self):
        comp = QuasiSequentialComponent(0x1000, AddressSpace(), length=1000)
        rng = random.Random(0)
        lines = [comp.next_record(rng)[1] for _ in range(100)]
        assert all(b >= a or b == lines[0] for a, b in zip(lines, lines[1:]))

    def test_random_component_in_region(self):
        comp = RandomComponent(0x1000, AddressSpace(), region_lines=128)
        rng = random.Random(0)
        for _ in range(100):
            _, line, _ = comp.next_record(rng)
            assert comp.base <= line < comp.base + 128

    def test_empty_build_rejected(self):
        with pytest.raises(ValueError):
            build_trace("x", "y", [], 10, 1)


class TestSpecPersonas:
    @pytest.mark.parametrize("app,inp", SPEC_WORKLOADS)
    def test_personas_build(self, app, inp):
        t = make_spec_trace(app, inp, 3_000)
        assert len(t) == 3_000
        assert all(g >= 0 for g in t.gaps)

    def test_pc_ranges_disjoint_across_apps(self):
        pcs = {}
        for app, inp in SPEC_WORKLOADS:
            t = make_spec_trace(app, inp, 2_000)
            pcs[app] = set(t.pcs)
        apps = list(pcs)
        for i, a in enumerate(apps):
            for b in apps[i + 1:]:
                assert not (pcs[a] & pcs[b]), (a, b)

    def test_shared_load_pc_stable_across_inputs(self):
        """Fig. 7 Load A: the shared component keeps its PC in every input."""
        base_pc = 0x400000 + APP_PC_BLOCK["gcc"]
        for inp in GCC_INPUTS[:3]:
            t = make_spec_trace("gcc", inp, 2_000)
            assert base_pc in set(t.pcs)

    def test_input_specific_pcs_differ(self):
        """Fig. 7 Loads B/C: input-specific components get unique PCs."""
        t1 = set(make_spec_trace("gcc", "166", 4_000).pcs)
        t2 = set(make_spec_trace("gcc", "200", 4_000).pcs)
        assert t1 - t2 and t2 - t1


class TestCrono:
    def test_parse_names(self):
        assert parse_crono_name("bfs_100000_16") == ("bfs", 100000, 16)
        with pytest.raises(ValueError):
            parse_crono_name("quicksort_10_2")

    @pytest.mark.parametrize("name", CRONO_WORKLOADS)
    def test_kernels_emit(self, name):
        t = make_crono_trace(name, 5_000)
        assert len(t) == 5_000
        assert t.label == name

    def test_deterministic(self):
        a = make_crono_trace("bfs_100000_16", 3_000)
        b = make_crono_trace("bfs_100000_16", 3_000)
        assert a.lines == b.lines

    def test_csr_graph_well_formed(self):
        g = CSRGraph.random(100, 4, seed=1)
        assert g.offsets[0] == 0
        assert g.offsets[-1] == g.n_edges
        assert all(0 <= n < 100 for n in g.neighbors)
        assert len(g.weights) == g.n_edges

    def test_traversal_repeats_create_temporal_patterns(self):
        t = make_crono_trace("pagerank_100000_100", 30_000)
        counts = markov_target_counts(t.pcs, t.lines)
        # Repeated iterations must produce recurring successor pairs.
        assert len(counts) > 100


class TestSimPoint:
    def test_short_trace_single_checkpoint(self):
        t = make_spec_trace("mcf", "inp", 5_000)
        cps = select_checkpoints(t, interval=10_000)
        assert len(cps) == 1
        assert cps[0].weight == 1.0

    @pytest.mark.requires_numpy
    def test_weights_sum_to_one(self):
        t = make_spec_trace("gcc", "166", 60_000)
        cps = select_checkpoints(t, interval=5_000, max_clusters=4)
        assert sum(cp.weight for cp in cps) == pytest.approx(1.0)
        for cp in cps:
            assert 0 < cp.stop - cp.start <= 5_000

    def test_weighted_aggregate(self):
        assert weighted_aggregate([1.0, 3.0], [0.5, 0.5]) == 2.0
        with pytest.raises(ValueError):
            weighted_aggregate([1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            weighted_aggregate([1.0], [0.0])


class TestInputCatalog:
    def test_all_labels_buildable(self):
        labels = all_labels()
        assert len(labels) >= 20
        # Spot-check a few to keep the test fast.
        for label in ["gcc_expr", "soplex_ref", "mcf_inp", "bfs_80000_8"]:
            assert label in labels
            t = make_trace(label, 2_000)
            assert len(t) == 2_000


class TestAllocators:
    def test_address_space_disjoint(self):
        space = AddressSpace()
        a = space.region(100)
        b = space.region(50)
        assert b >= a + 100

    def test_pc_allocator(self):
        alloc = PCAllocator()
        a = alloc.alloc(4)
        b = alloc.alloc(1)
        assert b == a + 4


@given(st.integers(100, 2000), st.integers(1, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_trace_generation_properties(n, seed):
    """Property: any (length, seed) yields a consistent, positive trace."""
    rng = random.Random(seed)
    space = AddressSpace()
    comp = TemporalChainComponent(0x1000, space, rng, n_chains=8, chain_len=8)
    t = build_trace("p", "q", [comp], n, seed)
    assert len(t) == n
    assert min(t.lines) >= 0
    assert t.instructions >= n
