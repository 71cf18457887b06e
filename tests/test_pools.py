"""Pool-backend contract tests: inline / local / loopback parity.

Every backend must produce byte-identical payloads for the same jobs
(architecture invariant 13), honor the submit/drain/close contract, and
surface failures on its documented channel — raw exceptions for local
backends, :class:`PoolError` for remote ones.  The loopback backend runs
the full SSH wire protocol (bootstrap, JSON-lines RPC, probing) against
local subprocesses, so CI needs no sshd to pin the distributed path.
"""

import json

import pytest

from repro import api
from repro.runner import (
    ExecutionPolicy,
    HostSpec,
    InlinePool,
    LocalPool,
    LoopbackPool,
    PoolError,
    Runner,
    SimJob,
    SSHPool,
    TraceRef,
    coerce_policy,
    make_runner,
    parse_hosts,
    parse_pool_spec,
    probe_hosts,
    use_runner,
)
from repro.runner.runner import payload_to_dict
from repro.sim.config import default_config
from repro.workloads.spec import make_spec_trace


@pytest.fixture(scope="module")
def config():
    return default_config()


@pytest.fixture(scope="module")
def small_trace():
    return make_spec_trace("mcf", None, 4000)


@pytest.fixture(scope="module")
def job_set(config, small_trace):
    """Three jobs including a dependency chain (profile -> prophet)."""
    ref = TraceRef.from_trace(small_trace)
    profile = SimJob("profile", ref, config)
    return [
        SimJob("baseline", ref, config),
        SimJob("triangel", ref, config),
        SimJob("prophet", ref, config, deps={"profile": profile}),
    ]


@pytest.fixture(scope="module")
def serial_payloads(job_set):
    return Runner(jobs=1, use_cache=False).run(job_set)


@pytest.fixture(scope="module")
def loopback_pool():
    """One shared loopback pool for the module (boot is ~seconds)."""
    pool = LoopbackPool(workers=2)
    yield pool
    pool.close()


def _canon(payloads):
    return [json.dumps(payload_to_dict(p), sort_keys=True) for p in payloads]


# ----------------------------------------------------------------------
# parity: every backend produces byte-identical payloads
# ----------------------------------------------------------------------
class TestBackendParity:
    def test_inline_matches_serial(self, job_set, serial_payloads):
        got = Runner(use_cache=False, pool=InlinePool()).run(job_set)
        assert _canon(got) == _canon(serial_payloads)

    def test_local_parallel_matches_serial(self, job_set, serial_payloads):
        pool = LocalPool(jobs=2)
        try:
            got = Runner(jobs=2, use_cache=False, pool=pool).run(job_set)
        finally:
            pool.close()
        assert _canon(got) == _canon(serial_payloads)

    def test_loopback_matches_serial(
        self, job_set, serial_payloads, loopback_pool
    ):
        # The full wire protocol: jobs travel as spec dicts, dependency
        # payloads as tagged dicts, results come back over stdout.
        got = Runner(use_cache=False, pool=loopback_pool).run(job_set)
        assert _canon(got) == _canon(serial_payloads)

    def test_loopback_pool_reusable_across_runs(
        self, job_set, serial_payloads, loopback_pool
    ):
        # Persistent pools serve many Runner.run calls.
        for _ in range(2):
            got = Runner(use_cache=False, pool=loopback_pool).run(job_set)
            assert _canon(got) == _canon(serial_payloads)


# ----------------------------------------------------------------------
# failure surface
# ----------------------------------------------------------------------
class TestFailureSurface:
    def test_inline_raises_raw_exception(self, config, small_trace):
        runner = Runner(use_cache=False, pool=InlinePool())
        with pytest.raises(ValueError, match="unknown scheme"):
            runner.run(
                [SimJob("nope", TraceRef.from_trace(small_trace), config)]
            )

    def test_local_serial_raises_raw_exception(self, config, small_trace):
        runner = Runner(jobs=1, use_cache=False)
        with pytest.raises(ValueError, match="unknown scheme"):
            runner.run(
                [SimJob("nope", TraceRef.from_trace(small_trace), config)]
            )

    def test_loopback_wraps_job_error_in_pool_error(
        self, config, small_trace, loopback_pool
    ):
        runner = Runner(use_cache=False, pool=loopback_pool)
        with pytest.raises(PoolError, match="unknown scheme"):
            runner.run(
                [SimJob("nope", TraceRef.from_trace(small_trace), config)]
            )
        # A deterministic job failure must not evict hosts or kill the
        # pool: every worker is still alive and the next run succeeds.
        info = loopback_pool.describe()
        assert info["alive"] == info["workers"]
        [payload] = Runner(use_cache=False, pool=loopback_pool).run(
            [SimJob("baseline", TraceRef.from_trace(small_trace), config)]
        )
        assert payload is not None

    def test_submit_after_close_raises(self, config, small_trace):
        pool = LoopbackPool(workers=1)
        pool.close()
        job = SimJob("baseline", TraceRef.from_trace(small_trace), config)
        with pytest.raises(PoolError, match="closed"):
            pool.submit(job.cache_key, job, {})

    def test_close_is_idempotent(self):
        for pool in (InlinePool(), LocalPool(jobs=1)):
            pool.close()
            pool.close()


# ----------------------------------------------------------------------
# describe / contract surface
# ----------------------------------------------------------------------
class TestDescribe:
    def test_backends_report_their_name(self, loopback_pool):
        assert InlinePool().describe()["backend"] == "inline"
        assert LocalPool(jobs=3).describe() == {
            "backend": "local", "jobs": 3, "per_job_timeout": None,
        }
        info = loopback_pool.describe()
        assert info["backend"] == "loopback"
        assert info["workers"] == 2
        assert len(info["hosts"]) == 2
        assert all(h["alive"] for h in info["hosts"])

    def test_runner_pool_info_default_is_local(self):
        info = Runner(jobs=4, use_cache=False).pool_info()
        assert info == {"backend": "local", "jobs": 4,
                        "per_job_timeout": None}


# ----------------------------------------------------------------------
# hosts files
# ----------------------------------------------------------------------
class TestHostsFiles:
    def test_full_option_set(self):
        specs = parse_hosts(
            "# comment line\n"
            "node01\n"
            "user@node02  python=/opt/py/bin/python3 slots=4  # trailing\n"
            "node03 path=/nfs/repro/src env.REPRO_NUMPY=1 env.FOO=bar\n"
        )
        assert [s.name for s in specs] == ["node01", "user@node02", "node03"]
        assert specs[0].slots == 1 and specs[0].python is None
        assert specs[1].python == "/opt/py/bin/python3"
        assert specs[1].slots == 4
        assert specs[2].path == "/nfs/repro/src"
        assert specs[2].env == {"REPRO_NUMPY": "1", "FOO": "bar"}

    def test_bad_option_rejected(self):
        with pytest.raises(ValueError, match="bad option"):
            parse_hosts("node01 fast\n")
        with pytest.raises(ValueError, match="unknown option"):
            parse_hosts("node01 cores=4\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="no hosts"):
            parse_hosts("# only comments\n\n")

    def test_expand_replicates_round_robin(self):
        a, b = HostSpec(name="a", slots=2), HostSpec(name="b")
        expanded = SSHPool._expand([a, b], jobs=6)
        assert len(expanded) == 6
        # Slot expansion first (a, a, b), then round-robin refill.
        assert [s.name for s in expanded] == ["a", "a", "b", "a", "b", "a"]

    def test_expand_keeps_slot_total_without_jobs(self):
        a = HostSpec(name="a", slots=3)
        assert len(SSHPool._expand([a], jobs=None)) == 3


# ----------------------------------------------------------------------
# probing
# ----------------------------------------------------------------------
class TestProbing:
    def test_probe_hosts_loopback_reports_compatible(self):
        rows = probe_hosts(
            [HostSpec(name="loop/0"), HostSpec(name="loop/1")],
            loopback=True,
        )
        assert len(rows) == 2
        for row in rows:
            assert row["ok"] and row["compatible"]
            assert row["error"] is None
            assert row["engine_version"] is not None

    def test_probe_hosts_reports_broken_interpreter(self):
        rows = probe_hosts(
            [HostSpec(name="bad/0", python="/nonexistent/python3")],
            loopback=True, timeout=10.0,
        )
        [row] = rows
        assert not row["ok"]
        assert row["error"]

    def test_pool_with_no_usable_hosts_raises(self):
        with pytest.raises(PoolError, match="no usable pool hosts"):
            LoopbackPool(
                hosts=[HostSpec(name="bad/0", python="/nonexistent/python3")],
                probe_timeout=10.0,
            )

    def test_pool_evicts_bad_host_at_startup(self, config, small_trace):
        pool = LoopbackPool(hosts=[
            HostSpec(name="bad/0", python="/nonexistent/python3"),
            HostSpec(name="good/1"),
        ], probe_timeout=30.0)
        try:
            info = pool.describe()
            assert info["alive"] == 1 and info["dead"] == 1
            [payload] = Runner(use_cache=False, pool=pool).run(
                [SimJob("baseline", TraceRef.from_trace(small_trace), config)]
            )
            assert payload is not None
        finally:
            pool.close()


# ----------------------------------------------------------------------
# ExecutionPolicy
# ----------------------------------------------------------------------
class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.backend == "local"
        assert policy.jobs == 1
        assert policy.retries == 2
        assert policy.effective_cache_dir is None

    def test_pool_spec_parsing(self):
        assert parse_pool_spec("local") == ("local", None)
        assert parse_pool_spec("loopback:3") == ("loopback", "3")
        assert parse_pool_spec("ssh:hosts.txt") == ("ssh", "hosts.txt")
        with pytest.raises(ValueError, match="unknown pool backend"):
            parse_pool_spec("mesos")
        with pytest.raises(ValueError, match="hosts file"):
            parse_pool_spec("ssh")

    def test_bad_spec_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown pool backend"):
            ExecutionPolicy(pool="mesos")

    def test_no_cache_wins_over_cache_dir(self, tmp_path):
        policy = ExecutionPolicy(cache_dir=tmp_path, no_cache=True)
        assert policy.effective_cache_dir is None
        assert policy.make_runner().cache is None

    def test_make_pool_kinds(self):
        assert ExecutionPolicy(pool="local").make_pool() is None
        pool = ExecutionPolicy(pool="inline").make_pool()
        assert isinstance(pool, InlinePool)

    def test_to_dict_round_trips(self, tmp_path):
        policy = ExecutionPolicy(
            pool="loopback:4", jobs=8, cache_dir=tmp_path,
            per_job_timeout=30.0, retries=1, verbose=True,
        )
        again = ExecutionPolicy.from_dict(policy.to_dict())
        assert again == policy
        assert json.loads(json.dumps(policy.to_dict())) == policy.to_dict()

    def test_progress_excluded_from_dict_and_equality(self):
        policy = ExecutionPolicy(progress=lambda *a: None)
        assert "progress" not in policy.to_dict()
        assert policy == ExecutionPolicy()

    def test_coerce_policy(self):
        policy = ExecutionPolicy(jobs=3)
        assert coerce_policy(None) is None
        assert coerce_policy(policy) is policy
        assert coerce_policy({"jobs": 3}) == policy
        with pytest.raises(TypeError):
            coerce_policy("local")

    def test_make_runner_records_policy(self):
        policy = ExecutionPolicy(pool="inline", jobs=1)
        runner = policy.make_runner()
        assert runner.policy is policy
        assert runner.pool_info()["backend"] == "inline"
        runner.close()

    def test_context_make_runner_accepts_policy(self):
        runner = make_runner(ExecutionPolicy(pool="inline"))
        assert runner.pool_info()["backend"] == "inline"
        runner.close()
        with pytest.raises(TypeError, match="no extra knobs"):
            make_runner(ExecutionPolicy(), cache_dir="x")

    def test_use_runner_accepts_policy_and_closes(self, config, small_trace):
        from repro.runner import get_runner

        with use_runner(ExecutionPolicy(pool="inline")) as runner:
            assert get_runner() is runner
            [payload] = runner.run(
                [SimJob("baseline", TraceRef.from_trace(small_trace), config)]
            )
            assert payload is not None
        assert runner._closed
        assert get_runner() is not runner


# ----------------------------------------------------------------------
# api.run integration
# ----------------------------------------------------------------------
class TestApiExecution:
    def test_execution_metadata_round_trips(self):
        policy = ExecutionPolicy(pool="inline", retries=1)
        result = api.run("storage", execution=policy)
        assert result.execution == policy.to_dict()
        again = api.ExperimentResult.from_json(result.to_json())
        assert again.execution == policy.to_dict()
        assert ExecutionPolicy.from_dict(again.execution) == policy

    def test_execution_accepts_dict_form(self):
        result = api.run("storage", execution={"pool": "inline"})
        assert result.execution["pool"] == "inline"

    def test_default_policy_recorded(self):
        result = api.run("storage")
        assert result.execution == ExecutionPolicy().to_dict()

    def test_shared_runner_leaves_policy_to_caller(self):
        runner = Runner(jobs=1, use_cache=False)
        result = api.run("storage", runner=runner)
        assert result.execution is None

    def test_mixing_execution_and_runner_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            api.run(
                "storage",
                execution=ExecutionPolicy(),
                runner=Runner(use_cache=False),
            )
