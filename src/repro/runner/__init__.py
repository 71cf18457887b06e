"""Parallel experiment runner: job specs, pool backends, result cache.

The experiment stack runs every (workload, scheme) pair as a
:class:`~repro.runner.jobs.SimJob` — a self-contained, content-addressed
description of one simulation (or profiling pass).  A
:class:`~repro.runner.runner.Runner` executes job graphs through a
pluggable :class:`~repro.runner.pools.Pool` backend (serial inline,
local process pool, or multi-host ssh fan-out), with deterministic
result ordering, progress callbacks, and an on-disk content-addressed
result cache keyed by each job's hash, so repeated figure runs and
``cli all`` never re-simulate identical work — on one machine or many.

Layers:

- :mod:`repro.runner.jobs`    — ``TraceRef``/``SimJob`` specs + cache keys;
- :mod:`repro.runner.schemes` — the scheme table: one ``Scheme`` record
  per scheme (baseline, triangel, triage, rpg2, stms/domino/misb,
  prophet, prophet_learned) plus the ``profile`` pass;
- :mod:`repro.runner.pools`   — the ``Pool`` contract and the
  ``InlinePool``/``LocalPool``/``SSHPool``/``LoopbackPool`` backends;
- :mod:`repro.runner.worker`  — the self-contained JSON-lines RPC
  worker the remote pools ship to each host;
- :mod:`repro.runner.policy`  — ``ExecutionPolicy``, every execution
  knob (pool, jobs, cache, timeout, retries) as one object;
- :mod:`repro.runner.runner`  — the level-by-level runner and the
  content-addressed ``ResultCache``;
- :mod:`repro.runner.context` — the process-wide active runner that
  :func:`repro.experiments.common.evaluate_suite` picks up, so the CLI
  configures parallelism/caching once for every experiment.
"""

from .context import get_runner, make_runner, set_runner, use_runner
from .jobs import ENGINE_VERSION, SimJob, TraceRef, config_from_dict, config_to_dict
from .policy import ExecutionPolicy, coerce_policy, parse_pool_spec
from .pools import (
    HostSpec,
    InlinePool,
    LocalPool,
    LoopbackPool,
    Pool,
    PoolError,
    SSHPool,
    load_hosts_file,
    parse_hosts,
    probe_hosts,
)
from .runner import (
    CacheIntegrityError,
    JobFailure,
    ProgressTracker,
    ResultCache,
    Runner,
    RunnerStats,
    parse_on_error,
)

__all__ = [
    "ENGINE_VERSION",
    "CacheIntegrityError",
    "ExecutionPolicy",
    "JobFailure",
    "HostSpec",
    "InlinePool",
    "LocalPool",
    "LoopbackPool",
    "Pool",
    "PoolError",
    "ProgressTracker",
    "ResultCache",
    "Runner",
    "RunnerStats",
    "SSHPool",
    "SimJob",
    "TraceRef",
    "coerce_policy",
    "config_from_dict",
    "config_to_dict",
    "get_runner",
    "load_hosts_file",
    "make_runner",
    "parse_hosts",
    "parse_on_error",
    "parse_pool_spec",
    "probe_hosts",
    "set_runner",
    "use_runner",
]
