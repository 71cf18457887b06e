"""Public library facade for the Experiment API.

One call runs any registered experiment with full control over scenario
shape and execution, and returns a structured result::

    import repro.api as api

    result = api.run(
        "fig10",
        records=50_000,
        workloads=["mcf_inp", "omnetpp_inp"],   # any catalog labels
        schemes=["triangel", "prophet"],        # named schemes
        overrides={"l3.size_kb": 4096},         # dotted-path config edits
        execution=api.ExecutionPolicy(          # how/where jobs execute:
            pool="local",                       #   local | inline |
            jobs=4,                             #   ssh:hosts.txt | loopback
            cache_dir=".repro-cache",           # on-disk result reuse
        ),
    )
    print(result.text())                        # the figure's report rows
    result.payload.geomean_speedup("prophet")   # typed payload underneath
    blob = result.to_json()                     # machine-readable
    again = api.ExperimentResult.from_json(blob)

``run`` owns the whole execution lifecycle: it builds the
:class:`~repro.runner.Runner` (and its pool backend) from the
:class:`~repro.runner.ExecutionPolicy` — or accepts a shared ``runner``
— installs it for the duration of the experiment, restores the previous
runner afterwards, and releases the pool.  No module-level
``set_runner`` choreography.  The CLI is a thin client of exactly this
function.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from .experiments import ExperimentRequest, all_experiments, get_experiment
from .experiments.registry import Experiment
from .runner import ExecutionPolicy, JobFailure, Runner, coerce_policy, use_runner
from .sim.config import SystemConfig

#: Version stamp written into every ExperimentResult dict.
RESULT_SCHEMA_VERSION = 1


@dataclass
class ExperimentResult:
    """A completed experiment run: payload + the request that shaped it.

    ``payload`` is the experiment's typed result object (a
    ``SuiteResults`` grid for suite experiments, the module's own
    dataclass/dict otherwise).  ``to_dict``/``to_json`` serialize through
    the experiment's declared converters; ``from_dict``/``from_json``
    invert them (suite and learning payloads reconstruct their classes,
    generic payloads stay plain dicts).
    """

    name: str
    records: Optional[int]
    payload: Any
    elapsed: float = 0.0
    workloads: Optional[List[str]] = None
    schemes: Optional[List[str]] = None
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: How the run executed (``ExecutionPolicy.to_dict()`` form), or
    #: ``None`` when a pre-built runner was supplied.  Metadata only: it
    #: never affects the payload (invariant 13 — results are
    #: byte-identical across backends), and serve's canonical result
    #: bytes null it out along with ``elapsed``.
    execution: Optional[Dict[str, Any]] = None
    #: Structured per-job failures recorded during this run (empty on a
    #: clean run).  Populated under tolerant failure policies
    #: (``on_error="skip"``/``"retry:N"``): every failed or dep-skipped
    #: job appears here with its content-addressed key — a partial sweep
    #: never silently drops a failure (architecture invariant 14).
    failures: List[JobFailure] = field(default_factory=list)

    @property
    def experiment(self) -> Experiment:
        """The registry record this result came from.

        Raises ``ValueError`` if the experiment is no longer registered
        (e.g. a result deserialized against a build that dropped it).
        """
        return get_experiment(self.name)

    def text(self) -> str:
        """The experiment's report text (the paper figure's rows).

        Rendered through the experiment's registered ``render`` function
        from the in-memory payload — always reflects ``self.payload``,
        even after mutation or a ``from_json`` round-trip.  A partial
        run appends its failure records, one line per failed job.
        """
        body = self.experiment.render(self.payload)
        if self.failures:
            lines = "\n".join(f"  {f.describe()}" for f in self.failures)
            body = (
                f"{body}\n\n{len(self.failures)} job failure(s) "
                f"(on_error policy kept the run going):\n{lines}"
            )
        return body

    def to_dict(self) -> Dict:
        """JSON-compatible dict of the run: request shape + payload.

        Keys: ``schema_version`` (see :data:`RESULT_SCHEMA_VERSION`),
        ``experiment``, ``records``, ``elapsed_seconds`` (wall clock,
        rounded to ms), ``workloads``/``schemes`` (the caller's subset
        selection, or ``None`` when the experiment defaults were used),
        ``overrides`` (dotted-path config edits), ``execution`` (the
        :class:`~repro.runner.ExecutionPolicy` the run executed under,
        as a dict, or ``None``), and ``payload``
        (serialized through the experiment's declared converter — suite
        payloads via ``SuiteResults.to_dict``, otherwise the registered
        ``to_dict`` or the generic dataclass walker).
        """
        d = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "experiment": self.name,
            "records": self.records,
            "elapsed_seconds": round(self.elapsed, 3),
            "workloads": list(self.workloads) if self.workloads is not None else None,
            "schemes": list(self.schemes) if self.schemes is not None else None,
            "overrides": dict(self.overrides),
            "execution": dict(self.execution) if self.execution else None,
            "payload": self.experiment.payload_to_dict(self.payload),
        }
        if self.failures:
            # Only present on a partial run, so a resumed (gap-closing)
            # run serializes byte-identically to a fault-free one.
            d["failures"] = [f.to_dict() for f in self.failures]
        return d

    def to_json(self, indent: Optional[int] = None) -> str:
        """:meth:`to_dict` as a JSON string (``indent`` as in ``json.dumps``)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: Dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output.

        The payload is reconstructed through the experiment's declared
        ``from_dict`` (suite payloads come back as typed ``SuiteResults``
        objects; generic payloads stay plain dicts), so
        ``from_dict(r.to_dict())`` supports the same ``text()``/payload
        accessors as the original.  Results from a *newer* schema
        version are rejected with ``ValueError``; older versions are
        accepted (the schema has been stable since version 1).
        """
        version = d.get("schema_version", RESULT_SCHEMA_VERSION)
        if version > RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"ExperimentResult schema version {version} is newer than "
                f"supported ({RESULT_SCHEMA_VERSION})"
            )
        exp = get_experiment(d["experiment"])
        return cls(
            name=d["experiment"],
            records=d.get("records"),
            payload=exp.payload_from_dict(d["payload"]),
            elapsed=float(d.get("elapsed_seconds", 0.0)),
            workloads=d.get("workloads"),
            schemes=d.get("schemes"),
            overrides=dict(d.get("overrides") or {}),
            execution=d.get("execution"),
            failures=[
                JobFailure.from_dict(f) for f in (d.get("failures") or [])
            ],
        )

    @classmethod
    def from_json(cls, blob: str) -> "ExperimentResult":
        """:meth:`from_dict` on a JSON string (inverse of :meth:`to_json`)."""
        return cls.from_dict(json.loads(blob))


def experiments() -> List[Experiment]:
    """Every registered experiment, in listing order."""
    return all_experiments()


def workload_sources():
    """Every selectable workload source, in catalog order.

    One list covers all three source kinds — built-in synthetic
    personas, generator scenarios, and trace files discovered in the
    trace directory (``REPRO_TRACE_DIR`` / ``--trace-dir``).  Any
    returned label is valid for ``run(..., workloads=[label])``.
    """
    from .workloads.sources import all_sources

    return list(all_sources().values())


def run(
    name: str,
    *,
    records: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    config: Optional[SystemConfig] = None,
    execution: Optional[Union[ExecutionPolicy, Dict[str, Any]]] = None,
    runner: Optional[Runner] = None,
    progress: Optional[Callable] = None,
) -> ExperimentResult:
    """Run one registered experiment and return its structured result.

    - ``records`` overrides the experiment's default trace length
      (rejected for static experiments such as ``storage``);
    - ``workloads``/``schemes`` narrow the scenario to a subset (catalog
      labels / named schemes) where the experiment supports it;
    - ``overrides`` are dotted-path config overrides
      (``{"l3.size_kb": 2048}``) applied on top of the experiment's base
      config; ``config`` replaces that base config outright;
    - ``execution`` is the :class:`~repro.runner.ExecutionPolicy` (or
      its dict form) that decides how jobs execute — pool backend,
      fan-out, caching, per-job timeout, retries.  Alternatively pass a
      shared ``runner`` (the CLI and serve do, so one cache and one pool
      serve a whole invocation); ``progress`` overrides the progress
      sink either way.

    The runner is installed only for the duration of the call; the
    previously active runner is restored afterwards, and a runner this
    call built (from ``execution``) is closed — its pool released —
    before returning.
    """
    exp = get_experiment(name)
    overrides = dict(overrides or {})
    policy = coerce_policy(execution)
    if policy is not None and runner is not None:
        raise ValueError("pass either execution= or runner=, not both")

    if exp.static and records is not None:
        raise ValueError(
            f"experiment {name!r} is static (no trace-length knob); "
            "records cannot be overridden"
        )
    if workloads is not None and not exp.supports_workloads:
        raise ValueError(f"experiment {name!r} does not select workloads")
    if schemes is not None and not exp.supports_schemes:
        raise ValueError(f"experiment {name!r} does not select schemes")
    if (overrides or config is not None) and not exp.supports_overrides:
        raise ValueError(f"experiment {name!r} takes no config overrides")

    req = ExperimentRequest(
        records=records if records is not None else exp.records,
        workloads=tuple(workloads) if workloads is not None else None,
        schemes=tuple(schemes) if schemes is not None else None,
        overrides=overrides,
        config=config,
    )
    if runner is not None:
        active, owned = runner, False
    else:
        if policy is None:
            policy = ExecutionPolicy()  # serial, cache-less: the default
        if progress is not None:
            policy = policy.with_progress(progress)
        active, owned = policy.make_runner(), True
    start = time.perf_counter()
    # With a *shared* runner, route this call's progress events through a
    # context-local scope instead of mutating the runner (concurrent
    # api.run calls against one runner — the serve worker pool — each
    # keep their own progress sink).
    scope = (
        active.progress_scope(progress)
        if (runner is not None and progress is not None)
        else nullcontext()
    )
    failures_before = len(active.failure_log)
    try:
        with scope, use_runner(active):
            payload = exp.run(req)
    finally:
        if owned:
            active.close()
    elapsed = time.perf_counter() - start
    recorded = getattr(active, "policy", None)
    return ExperimentResult(
        name=name,
        records=req.records,
        payload=payload,
        elapsed=elapsed,
        workloads=list(workloads) if workloads is not None else None,
        schemes=list(schemes) if schemes is not None else None,
        overrides=overrides,
        execution=recorded.to_dict() if recorded is not None else None,
        failures=list(active.failure_log[failures_before:]),
    )
