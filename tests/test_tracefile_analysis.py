"""Tests for trace persistence and trace characterization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.analysis import (
    COLD,
    characterize,
    pc_stride_profiles,
    reuse_histogram,
    stack_distances,
    stack_distances_naive,
    summary_table,
    working_set_curve,
)
from repro.workloads.base import Trace
from repro.workloads.crono import make_crono_trace
from repro.workloads.spec import make_spec_trace
from repro.workloads.tracefile import load_trace, save_trace


# ----------------------------------------------------------------------
# tracefile round-trips
# ----------------------------------------------------------------------
class TestTraceFile:
    @pytest.mark.requires_numpy
    def test_round_trip_exact(self, tmp_path):
        trace = make_spec_trace("mcf", "inp", 3000)
        path = save_trace(trace, tmp_path / "mcf.npz")
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.input_name == trace.input_name
        assert loaded.mlp == trace.mlp
        assert loaded.pcs == trace.pcs
        assert loaded.lines == trace.lines
        assert loaded.gaps == trace.gaps

    @pytest.mark.requires_numpy
    def test_suffix_added(self, tmp_path):
        trace = make_spec_trace("mcf", "inp", 500)
        path = save_trace(trace, tmp_path / "noext")
        assert path.suffix == ".npz"
        assert load_trace(path).label == trace.label

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.npz")

    @pytest.mark.requires_numpy
    def test_non_trace_npz_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "other.npz"
        np.savez(path, whatever=np.arange(4))
        with pytest.raises(ValueError):
            load_trace(path)

    @pytest.mark.requires_numpy
    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.sim.config import default_config
        from repro.sim.engine import run_simulation

        trace = make_spec_trace("omnetpp", "inp", 4000)
        loaded = load_trace(save_trace(trace, tmp_path / "t.npz"))
        a = run_simulation(trace, default_config(), None, "baseline")
        b = run_simulation(loaded, default_config(), None, "baseline")
        assert a.cycles == b.cycles
        assert a.dram_reads == b.dram_reads

    @pytest.mark.requires_numpy
    @given(
        pcs=st.lists(st.integers(0, 50), min_size=1, max_size=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, pcs):
        lines = [pc * 7 + 3 for pc in pcs]
        gaps = [pc % 5 for pc in pcs]
        trace = Trace("t", "x", pcs, lines, gaps)
        path = tmp_path_factory.mktemp("traces") / "t.npz"
        loaded = load_trace(save_trace(trace, path))
        assert (loaded.pcs, loaded.lines, loaded.gaps) == (pcs, lines, gaps)


# ----------------------------------------------------------------------
# stack distances
# ----------------------------------------------------------------------
class TestStackDistances:
    def test_cold_accesses(self):
        assert stack_distances([1, 2, 3]) == [COLD, COLD, COLD]

    def test_immediate_reuse_is_zero(self):
        assert stack_distances([7, 7]) == [COLD, 0]

    def test_classic_example(self):
        # a b c a: a's reuse skips b and c -> distance 2
        assert stack_distances([1, 2, 3, 1]) == [COLD, COLD, COLD, 2]

    def test_duplicate_intervening_counted_once(self):
        # a b b a: only one distinct line between -> distance 1
        assert stack_distances([1, 2, 2, 1])[-1] == 1

    @given(st.lists(st.integers(0, 12), min_size=0, max_size=120))
    @settings(max_examples=120)
    def test_matches_naive(self, lines):
        assert stack_distances(lines) == stack_distances_naive(lines)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=100))
    @settings(max_examples=60)
    def test_distance_bounds(self, lines):
        dists = stack_distances(lines)
        n_distinct = len(set(lines))
        for d in dists:
            assert d == COLD or 0 <= d < n_distinct

    def test_cold_count_equals_distinct_lines(self):
        lines = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        dists = stack_distances(lines)
        assert sum(1 for d in dists if d == COLD) == len(set(lines))


# ----------------------------------------------------------------------
# histograms / profiles / characterization
# ----------------------------------------------------------------------
class TestReuseHistogram:
    def test_counts_sum_to_accesses(self):
        trace = make_spec_trace("mcf", "inp", 4000)
        hist = reuse_histogram(trace.lines)
        assert sum(hist.values()) == len(trace.lines)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            reuse_histogram([1, 2], bucket_edges=[64, 16])

    def test_custom_edges(self):
        hist = reuse_histogram([1, 2, 1, 2], bucket_edges=[1, 8])
        assert hist["cold"] == 2
        assert hist["<=1"] == 2


class TestStrideProfiles:
    def test_pure_stride_pc(self):
        pcs = [1] * 100
        lines = list(range(0, 400, 4))
        profiles = pc_stride_profiles(pcs, lines)
        assert profiles[1].dominant_stride == 4
        assert profiles[1].stride_share == 1.0
        assert profiles[1].stride_friendly

    def test_random_pc_not_friendly(self):
        import random

        rng = random.Random(7)
        pcs = [2] * 200
        lines = [rng.randrange(1 << 20) for _ in range(200)]
        profiles = pc_stride_profiles(pcs, lines)
        assert not profiles[2].stride_friendly

    def test_csr_scan_is_friendly_via_sequential_share(self):
        """Element-granularity scans (line deltas mostly 0, periodic +1)."""
        pcs = [3] * 160
        lines = [i // 16 for i in range(160)]
        profiles = pc_stride_profiles(pcs, lines)
        assert profiles[3].sequential_share > 0.9
        assert profiles[3].stride_friendly

    def test_min_accesses_filter(self):
        profiles = pc_stride_profiles([1, 1, 1], [0, 4, 8], min_accesses=16)
        assert profiles == {}


class TestCharacterize:
    def test_spec_persona_is_temporal_territory(self):
        c = characterize(make_spec_trace("mcf", "inp", 30_000))
        assert c.repeat_fraction > 0.3
        assert c.stride_friendly_share < 0.5
        assert "temporal" in c.verdict()

    def test_crono_has_more_stride_mass_than_spec(self):
        spec = characterize(make_spec_trace("mcf", "inp", 20_000))
        crono = characterize(make_crono_trace("pagerank_100000_100", 20_000))
        assert crono.stride_friendly_share > spec.stride_friendly_share

    def test_summary_table_renders_all_rows(self):
        chars = [
            characterize(make_spec_trace("mcf", "inp", 5000)),
            characterize(make_spec_trace("omnetpp", "inp", 5000)),
        ]
        table = summary_table(chars)
        assert "mcf_inp" in table and "omnetpp_inp" in table

    def test_counts_are_consistent(self):
        trace = make_spec_trace("gcc", "166", 8000)
        c = characterize(trace)
        assert c.n_records == len(trace)
        assert c.n_pcs == len(set(trace.pcs))
        assert c.footprint_lines == len(set(trace.lines))
        assert 0.0 <= c.repeat_fraction <= 1.0
        assert 0.0 <= c.markov_multi_target_share <= 1.0


class TestWorkingSetCurve:
    def test_window_partitioning(self):
        lines = list(range(100))
        curve = working_set_curve(lines, window=30)
        assert [start for start, _ in curve] == [0, 30, 60, 90]
        assert curve[0][1] == 30
        assert curve[-1][1] == 10

    def test_repeating_lines_shrink_working_set(self):
        curve = working_set_curve([1, 2, 3] * 10, window=30)
        assert curve[0][1] == 3

    def test_bad_window(self):
        with pytest.raises(ValueError):
            working_set_curve([1], window=0)
