"""Tests for the first-class Experiment API: registry, facade, structured
output.

Covers the contract the CLI and library clients rely on:

- every experiment module registers exactly once and ``cli list`` is
  registry-driven;
- ``repro.api.run`` returns structured results whose JSON round-trips
  (suite payloads reconstruct ``SuiteResults``);
- workload/scheme selection and dotted-path config overrides apply (and
  invalid selections/keys are rejected);
- the shared SPEC memo keys on config *content*, not a caller-supplied
  tag.
"""

import json
import pkgutil

import pytest

import repro.api as api
import repro.experiments
from repro import cli, viz
from repro.experiments import REGISTRY, get_experiment, register_experiment
from repro.experiments.common import SuiteResults
from repro.runner import ExecutionPolicy, InlinePool, Runner
from repro.serve import ServeError, ServeRequest
from repro.sim.config import config_digest, default_config


class TestRegistryCompleteness:
    def test_every_module_registers_exactly_once(self):
        skip = {"common", "registry"}
        modules = [
            name
            for _, name, _ in pkgutil.iter_modules(repro.experiments.__path__)
            if name not in skip
        ]
        by_module = {}
        for exp in REGISTRY.values():
            by_module.setdefault(exp.module.rsplit(".", 1)[-1], []).append(exp.name)
        for module in modules:
            assert by_module.get(module), f"{module} registers no experiment"
            assert len(by_module[module]) == 1, (
                f"{module} registers {by_module[module]}"
            )
        assert len(REGISTRY) == len(modules)

    def test_cli_list_matches_registry(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out
        assert len(out.strip().splitlines()) == len(REGISTRY)

    def test_duplicate_registration_from_other_module_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment(
                "fig10", description="dup", records=1, render=str
            )(lambda req: None)

    def test_get_experiment_error_lists_options(self):
        with pytest.raises(ValueError, match="fig10"):
            get_experiment("not_an_experiment")

    def test_static_experiments_use_none_not_zero(self):
        storage = get_experiment("storage")
        assert storage.records is None
        assert storage.static
        for exp in REGISTRY.values():
            assert exp.records != 0, f"{exp.name} uses the 0-records sentinel"


class TestFacade:
    def test_static_run_and_json_round_trip(self):
        result = api.run("storage")
        assert result.records is None
        assert "48.00" in result.text()
        again = api.ExperimentResult.from_json(result.to_json())
        assert again.payload == result.experiment.payload_to_dict(result.payload)
        assert again.name == "storage"

    def test_static_rejects_records(self):
        with pytest.raises(ValueError, match="static"):
            api.run("storage", records=5)

    def test_selection_rejected_where_unsupported(self):
        with pytest.raises(ValueError, match="workloads"):
            api.run("fig13", workloads=["mcf_inp"])
        with pytest.raises(ValueError, match="schemes"):
            api.run("fig08", schemes=["prophet"])
        with pytest.raises(ValueError, match="overrides"):
            api.run("fig01", overrides={"mlp": 8})

    def test_unknown_workload_and_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            api.run("fig10", records=2000, workloads=["not_a_workload"])
        with pytest.raises(ValueError, match="unknown scheme"):
            api.run("fig10", records=2000, workloads=["mcf_inp"],
                    schemes=["not_a_scheme"])

    def test_named_schemes_match_serve_options(self):
        # One table answers both surfaces: every scheme a suite figure
        # can select by name, whatever its own defaults.
        named = ["domino", "misb", "prophet", "rpg2", "stms", "triangel"]
        with pytest.raises(ValueError) as exc:
            api.run("fig10", records=2000, workloads=["mcf_inp"],
                    schemes=["not_a_scheme"])
        assert str(exc.value).endswith("options: " + ", ".join(named))
        with pytest.raises(ServeError) as served:
            ServeRequest.from_payload(
                {"experiment": "fig10", "schemes": ["not_a_scheme"]})
        assert served.value.code == "unknown-scheme"
        assert served.value.details["options"] == named

    def test_cross_registered_scheme_runs_through_runner(self):
        runner = Runner(use_cache=False, pool=InlinePool())
        result = api.run("fig10", records=2000, workloads=["mcf_inp"],
                         schemes=["stms"], runner=runner)
        assert result.payload.schemes == ["stms"]
        assert result.payload.by_workload["mcf_inp"]["stms"].scheme == "stms"
        assert runner.stats.executed == 2  # baseline + stms

    def test_suite_selection_and_round_trip(self):
        result = api.run(
            "fig10", records=6000, workloads=["sphinx3_an4"],
            schemes=["triangel"], overrides={"dram.channels": 2},
        )
        assert isinstance(result.payload, SuiteResults)
        assert result.payload.labels == ["sphinx3_an4"]
        assert result.payload.schemes == ["triangel"]
        blob = result.to_json()
        again = api.ExperimentResult.from_json(blob)
        assert isinstance(again.payload, SuiteResults)
        assert again.payload.to_dict() == result.payload.to_dict()
        assert again.text() == result.text()
        assert again.overrides == {"dram.channels": 2}
        # The payload dict is also directly loadable as a SuiteResults.
        payload_dict = json.loads(blob)["payload"]
        assert SuiteResults.from_dict(payload_dict).to_dict() == payload_dict

    def test_facade_matches_module_report(self):
        import repro.experiments.fig08_markov_targets as fig08

        result = api.run("fig08", records=4000)
        assert result.text() == fig08.report(4000)

    def test_generic_workload_selection(self):
        result = api.run("fig08", records=4000, workloads=["mcf_inp"])
        assert set(result.payload) == {"mcf_inp", "all"}

    @pytest.mark.parametrize("name,kwargs", [
        ("fig01", {"records": 8_000}),
        ("fig06", {"records": 8_000}),
        ("fig08", {"records": 4_000}),
        ("fig14", {"records": 3_000}),
        ("fig16", {"records": 3_000, "workloads": ["sphinx3_an4"]}),
        ("fig19", {"records": 3_000, "workloads": ["sphinx3_an4"]}),
        ("storage", {}),
        ("energy", {"records": 4_000, "workloads": ["sphinx3_an4"]}),
        ("overhead", {"records": 4_000, "workloads": ["sphinx3_an4"]}),
        ("injection", {"records": 4_000, "workloads": ["sphinx3_an4"]}),
        ("degree", {"records": 3_000, "workloads": ["sphinx3_an4"]}),
        ("ways", {"records": 3_000, "workloads": ["sphinx3_an4"]}),
    ])
    def test_every_payload_kind_round_trips_renderable(self, name, kwargs):
        # Deserialized results must render exactly like live ones: every
        # experiment's from_dict restores a payload its renderer,
        # tabulation, and CSV path all accept.
        result = api.run(name, **kwargs)
        again = api.ExperimentResult.from_json(result.to_json())
        assert again.text() == result.text()
        assert viz.result_csv(again) == viz.result_csv(result)

    def test_runner_restored_after_run(self):
        from repro.runner import get_runner

        before = get_runner()
        api.run("storage", execution=ExecutionPolicy(jobs=1))
        assert get_runner() is before


class TestSpecMemo:
    def test_memo_keys_on_config_content(self, monkeypatch):
        from repro.experiments import common

        calls = []

        def fake_evaluate(traces, config=None, schemes=None, **kwargs):
            calls.append(config)
            return SuiteResults(schemes=[])

        monkeypatch.setattr(common, "evaluate_suite", fake_evaluate)
        monkeypatch.setattr(common, "_SPEC_MEMO", {})
        first = common.spec_comparison(1000)
        again = common.spec_comparison(1000)
        assert again is first and len(calls) == 1
        # Same record count, different config: must NOT share results.
        common.spec_comparison(1000, default_config().with_dram_channels(2))
        assert len(calls) == 2
        # ... and a config equal in content hits the memo again.
        common.spec_comparison(1000, default_config())
        assert len(calls) == 2

    def test_config_digest_content_hash(self):
        assert config_digest(default_config()) == config_digest(default_config())
        assert config_digest(default_config()) != config_digest(
            default_config().with_l1_prefetcher("ipcp")
        )


class TestCLIClient:
    def test_json_flag_round_trips(self, tmp_path, capsys):
        assert cli.main([
            "fig10", "--records", "5000", "--workloads", "sphinx3_an4",
            "--schemes", "triangel", "--set", "l3.size_kb=1024",
            "--json", "--out", str(tmp_path), "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        result = api.ExperimentResult.from_json(out)
        assert result.name == "fig10"
        assert result.overrides == {"l3.size_kb": 1024}
        assert isinstance(result.payload, SuiteResults)
        on_disk = api.ExperimentResult.from_json(
            (tmp_path / "fig10.json").read_text()
        )
        assert on_disk.payload.to_dict() == result.payload.to_dict()

    def test_bad_set_expression_errors(self):
        with pytest.raises(SystemExit):
            cli.main(["storage", "--set", "oops"])

    def test_unknown_override_key_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig10", "--records", "2000", "--set", "l3.bogus=1"])

    def test_render_result_formats(self):
        result = api.run("storage")
        assert "48.00" in viz.render_result(result, "report")
        assert viz.render_result(result, "csv").startswith("structure,")
        assert "█" in viz.render_result(result, "chart")
        assert "| structure |" in viz.render_result(result, "markdown")
        parsed = json.loads(viz.render_result(result, "json"))
        assert parsed["experiment"] == "storage"
        with pytest.raises(ValueError):
            viz.render_result(result, "nope")
