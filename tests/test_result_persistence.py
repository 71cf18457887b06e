"""Tests for SimResult / SuiteResults JSON persistence."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import DEFAULT_SCHEMES, SuiteResults, evaluate_suite
from repro.sim.results import SimResult
from repro.workloads.spec import make_spec_trace


def sample_result(label="w", scheme="s", **overrides):
    base = dict(
        label=label,
        scheme=scheme,
        instructions=1000,
        cycles=2500.0,
        l2_demand_misses=40,
        dram_reads=30,
        dram_writes=10,
        pf_issued=20,
        pf_useful=12,
        issued_by_pc={0x400: 20},
        useful_by_pc={0x400: 12},
        miss_by_pc={0x400: 40},
        dram_metadata_traffic=3,
    )
    base.update(overrides)
    return SimResult(**base)


class TestSimResultRoundTrip:
    def test_round_trip_preserves_fields(self):
        r = sample_result()
        r2 = SimResult.from_dict(r.to_dict())
        assert r2 == r

    def test_dict_is_json_compatible(self):
        r = sample_result()
        text = json.dumps(r.to_dict())
        r2 = SimResult.from_dict(json.loads(text))
        assert r2.issued_by_pc == {0x400: 20}
        assert r2.ipc == r.ipc

    def test_unknown_keys_ignored(self):
        d = sample_result().to_dict()
        d["future_field"] = 123
        assert SimResult.from_dict(d) == sample_result()

    def test_metrics_survive(self):
        base = sample_result(scheme="baseline")
        r = sample_result(cycles=2000.0, l2_demand_misses=20)
        r2 = SimResult.from_dict(r.to_dict())
        b2 = SimResult.from_dict(base.to_dict())
        assert r2.speedup_over(b2) == r.speedup_over(base)
        assert r2.coverage_over(b2) == r.coverage_over(base)

    @given(
        pcs=st.dictionaries(
            st.integers(0, 1 << 40), st.integers(0, 1 << 20), max_size=20
        )
    )
    @settings(max_examples=30)
    def test_pc_maps_round_trip(self, pcs):
        r = sample_result(issued_by_pc=dict(pcs), useful_by_pc={}, miss_by_pc={})
        r2 = SimResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert r2.issued_by_pc == pcs


class TestSuiteResultsRoundTrip:
    @pytest.fixture(scope="class")
    def results(self):
        traces = [make_spec_trace("mcf", "inp", 5000)]
        return evaluate_suite(traces, schemes={"triangel": DEFAULT_SCHEMES["triangel"]})

    def test_save_load(self, results, tmp_path):
        path = tmp_path / "run.json"
        results.save(path)
        loaded = SuiteResults.load(path)
        assert loaded.schemes == results.schemes
        assert loaded.labels == results.labels

    def test_metrics_identical_after_reload(self, results, tmp_path):
        path = tmp_path / "run.json"
        results.save(path)
        loaded = SuiteResults.load(path)
        for label in results.labels:
            assert loaded.speedup(label, "triangel") == pytest.approx(
                results.speedup(label, "triangel")
            )
            assert loaded.traffic(label, "triangel") == pytest.approx(
                results.traffic(label, "triangel")
            )

    def test_table_renders_from_reload(self, results, tmp_path):
        path = tmp_path / "run.json"
        results.save(path)
        loaded = SuiteResults.load(path)
        assert loaded.table("speedup") == results.table("speedup")
