"""Workload-source registry: catalog round-trips, digests, import e2e.

Covers the ISSUE-4 acceptance criteria: generator scenarios are
selectable by label with seed-deterministic traces; a k6 trace file can
be imported and run end-to-end through ``api.run`` with a digest-stable
cache key; and a file-source content change produces a *different*
runner cache key.
"""

import json

import pytest

import repro.api as api
from repro import cli
from repro.experiments.common import suite_jobs, DEFAULT_SCHEMES
from repro.runner import Runner, SimJob, TraceRef, make_runner
from repro.sim.config import default_config
from repro.workloads.generators import (
    GENERATOR_SCENARIOS,
    GeneratorScenario,
    register_generator_scenario,
    scenario_digest,
)
from repro.workloads.inputs import all_labels, make_trace, resolve_traces
from repro.workloads.sources import (
    TRACE_DIR_ENV,
    all_sources,
    file_sources,
    get_source,
    import_trace,
    trace_dir,
)
from repro.workloads.tracefile import save_json_trace, save_k6_trace


@pytest.fixture
def tracedir(tmp_path, monkeypatch):
    """An isolated, activated trace directory."""
    d = tmp_path / "traces"
    d.mkdir()
    monkeypatch.setenv(TRACE_DIR_ENV, str(d))
    return d


@pytest.fixture
def no_tracedir(monkeypatch, tmp_path):
    """No trace dir configured (and cwd far from any ./traces)."""
    monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)


class TestCatalogNamespace:
    def test_generator_scenarios_in_catalog(self, no_tracedir):
        labels = all_labels()
        gen = [label for label in labels if get_source(label).kind == "generator"]
        assert len(gen) >= 8, "starter pack must ship >= 8 generator scenarios"
        for label in gen:
            assert label in GENERATOR_SCENARIOS

    def test_synthetic_labels_unchanged(self, no_tracedir):
        # The historical catalog (SPEC personas + CRONO kernels) survives.
        labels = set(all_labels())
        for expected in ("mcf_inp", "omnetpp_inp", "gcc_expr",
                         "bfs_100000_16", "sssp_100000_5"):
            assert expected in labels

    def test_every_source_has_valid_kind(self, no_tracedir):
        for source in all_sources().values():
            assert source.kind in ("synthetic", "file", "generator")
            assert source.description

    def test_unknown_label_rejected(self, no_tracedir):
        with pytest.raises(ValueError, match="unknown workload"):
            resolve_traces(["definitely_not_a_workload"], 1000)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("label", [
        "gen_ptrchase_l2", "gen_bfs_frontier", "gen_stream_scan",
        "gen_phase_mix", "gen_entropy_noise",
    ])
    def test_seed_deterministic(self, label):
        a = make_trace(label, 4000)
        b = make_trace(label, 4000)
        assert a.pcs == b.pcs
        assert a.lines == b.lines
        assert a.gaps == b.gaps
        assert a.label == label

    def test_scenarios_differ_from_each_other(self):
        a = make_trace("gen_ptrchase_l2", 3000)
        b = make_trace("gen_ptrchase_llc", 3000)
        assert a.lines != b.lines

    def test_digest_covers_records_and_params(self):
        scn = GENERATOR_SCENARIOS["gen_stream_scan"]
        assert scenario_digest(scn, 1000) != scenario_digest(scn, 2000)
        edited = GeneratorScenario(
            scn.label, scn.family, scn.description, scn.seed, scn.mlp,
            scn.params + (("entropy", 0.5),),
        )
        assert scenario_digest(edited, 1000) != scenario_digest(scn, 1000)

    def test_registration_conflict_rejected(self):
        scn = GENERATOR_SCENARIOS["gen_stream_scan"]
        clone = GeneratorScenario(
            scn.label, scn.family, scn.description, scn.seed + 1, scn.mlp,
            scn.params,
        )
        with pytest.raises(ValueError, match="already registered"):
            register_generator_scenario(clone)

    def test_user_registered_scenario_is_selectable(self):
        label = "gen_test_user_scenario"
        register_generator_scenario(GeneratorScenario(
            label, "stream_scan", "test-only scenario", seed=99,
            params=(("footprint_lines", 512),),
        ))
        try:
            assert label in all_labels()
            trace = make_trace(label, 1000)
            assert len(trace) == 1000
            assert trace.source_digest.startswith("generator:")
        finally:
            GENERATOR_SCENARIOS.pop(label, None)


class TestSourceDigestsInRunner:
    def test_resolved_traces_carry_source_digest(self, no_tracedir):
        trace = resolve_traces(["mcf_inp"], 2000)[0]
        assert trace.source_digest == "catalog:mcf_inp:2000"
        gen = resolve_traces(["gen_stream_scan"], 2000)[0]
        assert gen.source_digest.startswith("generator:gen_stream_scan:")

    def test_suite_jobs_use_source_digests(self, no_tracedir):
        traces = resolve_traces(["mcf_inp", "gen_stream_scan"], 1500)
        jobs, slots = suite_jobs(traces, default_config(), DEFAULT_SCHEMES)
        digests = {job.trace.digest for job in jobs}
        assert "catalog:mcf_inp:1500" in digests
        assert any(d.startswith("generator:gen_stream_scan:") for d in digests)
        # Source refs are by-reference: no payload pickled into the job.
        for job in jobs:
            assert job.trace.payload is None

    def test_source_ref_resolves_to_same_trace(self, no_tracedir):
        trace = resolve_traces(["gen_bfs_frontier"], 1200)[0]
        ref = TraceRef.for_trace(trace)
        again = ref.resolve()
        assert again.lines == trace.lines
        assert again.pcs == trace.pcs

    def test_adhoc_trace_still_inlined(self):
        trace = make_trace("mcf", 1000)  # bare app name: legacy path
        ref = TraceRef.for_trace(trace)
        assert ref.payload is trace
        assert ref.digest.startswith("trace:")

    def test_file_digest_change_changes_cache_key(self, tracedir):
        path = tracedir / "cap.trc"
        save_k6_trace(make_trace("mcf_inp", 800), path)
        label = next(iter(file_sources(tracedir)))
        config = default_config()

        trace = resolve_traces([label], 800)[0]
        job1 = SimJob("baseline", TraceRef.for_trace(trace), config)
        key1 = job1.cache_key

        # Append one record: same label, different bytes => different key.
        with path.open("a") as fh:
            fh.write("0x7fff0040 P_MEM_RD 999999\n")
        trace2 = resolve_traces([label], 800)[0]
        job2 = SimJob("baseline", TraceRef.for_trace(trace2), config)
        assert job2.cache_key != key1

    def test_file_digest_stable_across_rediscovery(self, tracedir):
        path = tracedir / "cap.trc"
        save_k6_trace(make_trace("omnetpp_inp", 600), path)
        label = next(iter(file_sources(tracedir)))
        d1 = get_source(label).digest(600)
        d2 = get_source(label).digest(600)
        assert d1 == d2
        assert d1.startswith("file:")


class TestFileSourcesAndImport:
    def test_discovery_formats(self, tracedir):
        save_k6_trace(make_trace("mcf_inp", 500), tracedir / "a.trc")
        save_json_trace(make_trace("omnetpp_inp", 400), tracedir / "b.json")
        found = file_sources(tracedir)
        assert set(found) == {"a", "b"}
        assert all(s.kind == "file" for s in found.values())
        a = make_trace("a", 500)
        assert a.label == "a"
        assert len(a) == 500

    def test_label_collision_gets_prefixed(self, tracedir):
        save_k6_trace(make_trace("mcf_inp", 300), tracedir / "mcf_inp.trc")
        found = file_sources(tracedir)
        assert "file_mcf_inp" in found  # must not shadow the persona

    def test_import_to_catalog_end_to_end(self, tracedir, tmp_path, capsys):
        # 1. a "captured" k6 trace somewhere outside the trace dir
        captured = tmp_path / "captured_run.trc"
        save_k6_trace(make_trace("mcf_inp", 1000), captured)

        # 2. import via the CLI
        assert cli.main([
            "workloads", "import", str(captured), "--trace-dir", str(tracedir),
        ]) == 0
        out = capsys.readouterr().out
        assert "workload label: captured_run" in out

        # 3. label visible in workloads list
        assert cli.main(["workloads", "list"]) == 0
        assert "captured_run" in capsys.readouterr().out
        assert "captured_run" in all_labels()

        # 4. runs end-to-end through the facade, cached digest-stably
        cache = tmp_path / "cache"
        runner = make_runner(jobs=1, cache_dir=cache)
        result = api.run(
            "fig10", records=800, workloads=["captured_run"],
            schemes=["triangel"], runner=runner,
        )
        assert result.payload.by_workload["captured_run"]["triangel"]
        executed_first = runner.stats.executed
        assert executed_first > 0

        runner2 = make_runner(jobs=1, cache_dir=cache)
        again = api.run(
            "fig10", records=800, workloads=["captured_run"],
            schemes=["triangel"], runner=runner2,
        )
        assert runner2.stats.executed == 0, "second run must be all cache hits"
        assert runner2.stats.cache_hits == executed_first
        assert again.to_dict()["payload"] == result.to_dict()["payload"]

    def test_import_rejects_malformed(self, tracedir, tmp_path):
        bad = tmp_path / "bad.trc"
        bad.write_text("not a k6 line\n")
        with pytest.raises(ValueError):
            import_trace(bad, directory=tracedir)

    def test_import_rejects_unknown_suffix(self, tracedir, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("whatever")
        with pytest.raises(ValueError, match="unsupported trace suffix"):
            import_trace(bad, directory=tracedir)

    def test_import_with_name(self, tracedir, tmp_path):
        captured = tmp_path / "x.json"
        save_json_trace(make_trace("gcc_166", 300), captured)
        label, dest = import_trace(captured, name="my-trace!",
                                   directory=tracedir)
        assert label == "my_trace"
        assert dest.name == "my_trace.json"
        assert label in all_labels()

    def test_default_trace_dir_activation(self, no_tracedir, tmp_path):
        captured = tmp_path / "cap.trc"
        save_k6_trace(make_trace("mcf_inp", 200), captured)
        label, dest = import_trace(captured)
        assert dest.parent.name == "traces"
        assert trace_dir() is not None
        assert label in all_labels()


class TestApiRoundTrips:
    def test_generator_label_through_api_run(self, no_tracedir):
        result = api.run(
            "fig10", records=1000, workloads=["gen_stream_scan"],
            schemes=["triangel"],
        )
        assert result.workloads == ["gen_stream_scan"]
        assert list(result.payload.by_workload) == ["gen_stream_scan"]
        blob = result.to_json()
        back = api.ExperimentResult.from_json(blob)
        assert list(back.payload.by_workload) == ["gen_stream_scan"]
        assert back.payload.to_dict() == result.payload.to_dict()

    def test_parallel_runner_resolves_source_refs(self, no_tracedir, tmp_path):
        """Worker processes re-materialize generator traces from labels."""
        runner = Runner(jobs=2, cache_dir=None)
        traces = resolve_traces(["gen_stream_scan", "gen_ptrchase_l2"], 900)
        config = default_config()
        jobs = [SimJob("baseline", TraceRef.for_trace(t), config)
                for t in traces]
        serial = Runner(jobs=1).run(jobs)
        parallel = runner.run(jobs)
        assert [json.dumps(p.to_dict()) for p in serial] == \
               [json.dumps(p.to_dict()) for p in parallel]

    def test_workload_sources_listing(self, no_tracedir):
        sources = api.workload_sources()
        labels = [s.label for s in sources]
        assert labels == all_labels()
