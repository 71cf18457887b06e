"""Tests for the repro.runner subsystem: jobs, cache, pool, re-plumbing."""

import dataclasses
import json

import pytest

from repro.core.profiler import CounterSet
from repro.experiments.common import (
    SUITE_SCHEMA_VERSION,
    SuiteResults,
    evaluate_suite,
    suite_jobs,
)
from repro.runner import (
    ENGINE_VERSION,
    InlinePool,
    ResultCache,
    Runner,
    SimJob,
    TraceRef,
    config_from_dict,
    config_to_dict,
    get_runner,
    set_runner,
    use_runner,
)
from repro.runner.runner import payload_from_dict, payload_to_dict
from repro.runner.schemes import SCHEMES, Scheme
from repro.sim.config import default_config
from repro.sim.engine import run_simulation
from repro.sim.results import SimResult
from repro.workloads.spec import make_spec_trace


@pytest.fixture
def config():
    return default_config()


@pytest.fixture
def small_trace():
    return make_spec_trace("mcf", None, 6000)


# ----------------------------------------------------------------------
# specs and keys
# ----------------------------------------------------------------------
class TestConfigRoundTrip:
    def test_default_round_trips(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    def test_variants_round_trip(self, config):
        for variant in (
            config.with_dram_channels(2),
            config.with_l1_prefetcher("ipcp"),
            config.with_tlb(),
            config.with_page_constrained_l1_prefetch(),
        ):
            assert config_from_dict(config_to_dict(variant)) == variant


class TestTraceRef:
    def test_catalog_ref_resolves(self):
        ref = TraceRef.from_catalog("mcf_inp", 5000)
        trace = ref.resolve()
        assert trace.label == "mcf_inp"
        assert len(trace) == 5000

    def test_inline_ref_resolves_to_same_object(self, small_trace):
        ref = TraceRef.from_trace(small_trace)
        assert ref.resolve() is small_trace

    def test_inline_digest_is_content_addressed(self, small_trace):
        again = make_spec_trace("mcf", None, 6000)
        assert TraceRef.from_trace(small_trace).digest == \
            TraceRef.from_trace(again).digest

    def test_different_traces_different_digests(self, small_trace):
        other = make_spec_trace("omnetpp", None, 6000)
        assert TraceRef.from_trace(small_trace).digest != \
            TraceRef.from_trace(other).digest


class TestSimJobKeys:
    def test_key_is_stable(self, config, small_trace):
        ref = TraceRef.from_trace(small_trace)
        a = SimJob("baseline", ref, config)
        b = SimJob("baseline", TraceRef.from_trace(small_trace), config)
        assert a.cache_key == b.cache_key

    def test_key_varies_with_spec(self, config, small_trace):
        ref = TraceRef.from_trace(small_trace)
        base = SimJob("baseline", ref, config)
        keys = {
            base.cache_key,
            SimJob("triangel", ref, config).cache_key,
            SimJob("baseline", ref, config, warmup_frac=0.5).cache_key,
            SimJob("baseline", ref, config.with_dram_channels(2)).cache_key,
            SimJob("baseline", ref, config, label="other").cache_key,
        }
        assert len(keys) == 5

    def test_key_varies_with_deps(self, config, small_trace):
        ref = TraceRef.from_trace(small_trace)
        profile = SimJob("profile", ref, config)
        with_dep = SimJob("prophet", ref, config, deps={"profile": profile})
        other_profile = SimJob("profile", ref, config, warmup_frac=0.3)
        with_other = SimJob(
            "prophet", ref, config, deps={"profile": other_profile}
        )
        assert with_dep.cache_key != with_other.cache_key

    def test_engine_version_in_key(self, config, small_trace):
        # The key must change when ENGINE_VERSION is bumped, so stale
        # caches from older simulation semantics are never reused.
        ref = TraceRef.from_trace(small_trace)
        job = SimJob("baseline", ref, config)
        spec_blob = json.dumps({"engine": ENGINE_VERSION})
        assert ENGINE_VERSION in spec_blob  # sanity: constant exists
        assert len(job.cache_key) == 64


# ----------------------------------------------------------------------
# runner execution
# ----------------------------------------------------------------------
class TestRunnerExecution:
    def test_serial_matches_direct_simulation(self, config, small_trace):
        runner = Runner(jobs=1, use_cache=False)
        [payload] = runner.run(
            [SimJob("baseline", TraceRef.from_trace(small_trace), config)]
        )
        direct = run_simulation(small_trace, config, None, "baseline")
        assert payload == direct

    def test_duplicate_jobs_execute_once(self, config, small_trace):
        runner = Runner(jobs=1, use_cache=False)
        ref = TraceRef.from_trace(small_trace)
        jobs = [SimJob("baseline", ref, config) for _ in range(3)]
        payloads = runner.run(jobs)
        assert runner.stats.executed == 1
        assert payloads[0] == payloads[1] == payloads[2]

    def test_dependency_order_and_payloads(self, config, small_trace):
        ref = TraceRef.from_trace(small_trace)
        profile = SimJob("profile", ref, config)
        prophet = SimJob("prophet", ref, config, deps={"profile": profile})
        runner = Runner(jobs=1, use_cache=False)
        [counters, result] = runner.run([profile, prophet])
        assert isinstance(counters, CounterSet)
        assert isinstance(result, SimResult)
        assert result.scheme == "prophet"

    def test_parallel_results_match_serial(self, config, small_trace):
        ref = TraceRef.from_trace(small_trace)
        jobs = [
            SimJob("baseline", ref, config),
            SimJob("triangel", ref, config),
            SimJob(
                "triage", ref, config,
                params=(("degree", 4), ("replacement", "srrip"),
                        ("initial_ways", 8), ("resize_enabled", False)),
            ),
        ]
        serial = Runner(jobs=1, use_cache=False).run(jobs)
        parallel = Runner(jobs=2, use_cache=False).run(jobs)
        assert serial == parallel

    def test_progress_events(self, config, small_trace):
        events = []
        runner = Runner(
            jobs=1, use_cache=False,
            progress=lambda ev, job, done, total: events.append((ev, done, total)),
        )
        runner.run([SimJob("baseline", TraceRef.from_trace(small_trace), config)])
        assert events == [("start", 0, 1), ("done", 1, 1)]

    def test_unknown_scheme_raises(self, config, small_trace):
        runner = Runner(jobs=1, use_cache=False)
        with pytest.raises(ValueError, match="unknown scheme"):
            runner.run(
                [SimJob("nope", TraceRef.from_trace(small_trace), config)]
            )


class TestResultCache:
    def test_cache_hit_is_bit_identical(self, config, small_trace, tmp_path):
        ref = TraceRef.from_trace(small_trace)
        job = SimJob("baseline", ref, config)
        first = Runner(jobs=1, cache_dir=tmp_path)
        [executed] = first.run([job])
        assert first.stats.executed == 1

        second = Runner(jobs=1, cache_dir=tmp_path)
        [cached] = second.run([job])
        assert second.stats.cache_hits == 1
        assert second.stats.executed == 0
        # Bit-identical: every field equal, including float cycle counts
        # and per-PC maps.
        assert dataclasses.asdict(cached) == dataclasses.asdict(executed)

    def test_counters_cache_round_trip(self, config, small_trace, tmp_path):
        ref = TraceRef.from_trace(small_trace)
        job = SimJob("profile", ref, config)
        [fresh] = Runner(jobs=1, cache_dir=tmp_path).run([job])
        [cached] = Runner(jobs=1, cache_dir=tmp_path).run([job])
        assert cached == fresh

    def test_corrupt_entry_is_a_miss(self, config, small_trace, tmp_path):
        ref = TraceRef.from_trace(small_trace)
        job = SimJob("baseline", ref, config)
        Runner(jobs=1, cache_dir=tmp_path).run([job])
        for path in tmp_path.glob("*.json"):
            path.write_text("{broken")
        rerun = Runner(jobs=1, cache_dir=tmp_path)
        rerun.run([job])
        assert rerun.stats.executed == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc", SimResult("w", "s", 1, 1.0, 0, 0, 0, 0, 0))
        assert cache.get("abc") is not None
        assert cache.clear() == 1
        assert cache.get("abc") is None

    def test_payload_tagging(self):
        sim = SimResult("w", "s", 1, 1.0, 0, 0, 0, 0, 0)
        counters = CounterSet(accuracy={1: 0.5}, miss_counts={1: 3})
        assert payload_from_dict(payload_to_dict(sim)) == sim
        assert payload_from_dict(payload_to_dict(counters)) == counters
        with pytest.raises(ValueError):
            payload_from_dict({"kind": "mystery"})


# ----------------------------------------------------------------------
# context plumbing
# ----------------------------------------------------------------------
class TestRunnerContext:
    def test_default_runner_is_serial_uncached(self):
        set_runner(None)
        runner = get_runner()
        assert runner.jobs == 1
        assert runner.cache is None

    def test_use_runner_restores(self):
        set_runner(None)
        original = get_runner()
        override = Runner(jobs=2, use_cache=False)
        with use_runner(override):
            assert get_runner() is override
        assert get_runner() is original
        set_runner(None)


# ----------------------------------------------------------------------
# experiment re-plumbing
# ----------------------------------------------------------------------
class TestEvaluateSuiteThroughRunner:
    def test_custom_scheme_runs_through_runner(
        self, config, small_trace, tmp_path, monkeypatch
    ):
        calls = []

        def build(trace, cfg, deps, params):
            calls.append((trace.label, deps["base"].scheme, params))
            return None  # baseline prefetcher

        custom = Scheme("custom", build, needs=("base",), params=(("knob", 3),))
        monkeypatch.setitem(SCHEMES, "custom", custom)

        def run_suite():
            runner = Runner(cache_dir=tmp_path, pool=InlinePool())
            suite = evaluate_suite([small_trace], config, {"custom": custom},
                                   runner=runner)
            return suite, runner.stats

        suite, stats = run_suite()
        assert calls == [("mcf_inp", "baseline", {"knob": 3})]
        assert suite.by_workload["mcf_inp"]["custom"].scheme == "custom"
        assert (stats.executed, stats.cache_hits) == (2, 0)
        again, stats = run_suite()
        assert len(calls) == 1  # the rerun never rebuilt the prefetcher
        assert (stats.executed, stats.cache_hits) == (0, 2)
        assert again.to_dict() == suite.to_dict()

    def test_failing_custom_scheme_is_a_runner_failure(
        self, config, small_trace, monkeypatch
    ):
        def build(trace, cfg, deps, params):
            raise RuntimeError("boom")

        custom = Scheme("custom", build)
        monkeypatch.setitem(SCHEMES, "custom", custom)
        runner = Runner(use_cache=False, pool=InlinePool(), on_error="skip")
        suite = evaluate_suite([small_trace], config, {"custom": custom},
                               runner=runner)
        assert set(suite.by_workload["mcf_inp"]) == {"baseline"}
        [failure] = suite.failures
        jobs, slots = suite_jobs([small_trace], config, {"custom": custom})
        assert failure.key == jobs[slots.index(("mcf_inp", "custom"))].cache_key
        assert (failure.scheme, failure.label, failure.kind) == (
            "custom", "custom", "error")
        assert "RuntimeError: boom" in failure.error

    def test_with_params_is_a_variant_column(self, config, small_trace):
        from repro.core.prophet import ProphetFeatures

        prophet = SCHEMES["prophet"]
        no_mvb = prophet.with_params(
            features=dataclasses.asdict(ProphetFeatures(mvb=False)))
        assert [k for k, _ in no_mvb.params] == [k for k, _ in prophet.params]
        assert dict(no_mvb.params)["features"]["mvb"] is False
        assert dict(prophet.params)["features"]["mvb"] is True
        assert (no_mvb.name, no_mvb.needs) == (prophet.name, prophet.needs)
        jobs, _ = suite_jobs([small_trace], config,
                             {"prophet": prophet, "no-mvb": no_mvb})
        # One shared profiling pass, two distinct simulate jobs.
        assert jobs[1].deps["profile"].cache_key == jobs[2].deps["profile"].cache_key
        assert jobs[1].cache_key != jobs[2].cache_key

    def test_runner_stats_cover_suite(self, config, small_trace):
        runner = Runner(jobs=1, use_cache=False)
        from repro.experiments.common import DEFAULT_SCHEMES

        evaluate_suite([small_trace], config, DEFAULT_SCHEMES, runner=runner)
        # baseline + rpg2 + triangel + prophet + profile = 5 jobs
        assert runner.stats.executed == 5


class TestSuiteSchemaVersion:
    def test_save_includes_schema_version(self, config, small_trace, tmp_path):
        suite = evaluate_suite([small_trace], config, {})
        path = tmp_path / "suite.json"
        suite.save(path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == SUITE_SCHEMA_VERSION
        reloaded = SuiteResults.load(path)
        assert reloaded.to_dict() == suite.to_dict()

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="schema version"):
            SuiteResults.from_dict(
                {
                    "schema_version": SUITE_SCHEMA_VERSION + 1,
                    "schemes": [],
                    "by_workload": {},
                }
            )

    def test_versionless_files_still_load(self):
        # Files written before the schema-version field existed.
        suite = SuiteResults.from_dict({"schemes": [], "by_workload": {}})
        assert suite.schemes == []
