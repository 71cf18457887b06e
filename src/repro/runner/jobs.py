"""Job specifications: content-addressed descriptions of simulation work.

A :class:`SimJob` fully describes one unit of work — which trace, which
system configuration, which scheme, what warmup — plus the jobs
it depends on (RPG2 needs the baseline's miss profile, Prophet needs a
profiling pass).  Jobs hash to a stable :attr:`SimJob.cache_key`, which is
what makes the on-disk result cache and cross-process deduplication safe:
two jobs with equal keys are guaranteed to describe identical work.

``ENGINE_VERSION`` is folded into every key; bump it whenever the
simulation semantics change so stale cached results are never reused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..sim.config import CacheConfig, CoreConfig, DRAMConfig, SystemConfig
from ..workloads.base import Trace

#: Version tag for the simulation semantics; part of every cache key.
#: Bump on any change that alters SimResult values for the same inputs —
#: or, defensively, on a wholesale replacement of a simulation subsystem
#: even when the equivalence suites prove bit-identity ("2" is the
#: flat-array cache/hierarchy storage rewrite: the proof covers in-tree
#: workloads and schemes, and one cold cache is cheaper than a stale
#: payload silently masquerading as fresh under an untested combination).
ENGINE_VERSION = "2"


# ----------------------------------------------------------------------
# config (de)serialization
# ----------------------------------------------------------------------
def config_to_dict(config: SystemConfig) -> Dict:
    """JSON-compatible dict of a :class:`SystemConfig` (stable key order)."""
    return asdict(config)


def config_from_dict(d: Dict) -> SystemConfig:
    """Inverse of :func:`config_to_dict`."""
    kwargs = dict(d)
    kwargs["core"] = CoreConfig(**d["core"])
    for cache_field in ("l1i", "l1d", "l2", "l3"):
        kwargs[cache_field] = CacheConfig(**d[cache_field])
    kwargs["dram"] = DRAMConfig(**d["dram"])
    return SystemConfig(**kwargs)


# ----------------------------------------------------------------------
# trace references
# ----------------------------------------------------------------------
#: Per-process memo of by-reference trace resolutions (bounded FIFO).
_RESOLVE_MEMO: Dict[Tuple[str, int, str], "Trace"] = {}
_RESOLVE_MEMO_MAX = 8


def _memo_put(key: Tuple[str, int, str], trace: Trace) -> None:
    _RESOLVE_MEMO[key] = trace
    while len(_RESOLVE_MEMO) > _RESOLVE_MEMO_MAX:
        _RESOLVE_MEMO.pop(next(iter(_RESOLVE_MEMO)))


@dataclass
class TraceRef:
    """A trace by reference (catalog label) or by value (inline arrays).

    Catalog refs stay tiny (workers regenerate the deterministic persona,
    rebuild the generator scenario, or reload the trace file); inline
    refs carry the record arrays and are content-hashed, so custom or
    externally loaded traces cache just as safely.  The ``digest`` is the
    part of :attr:`SimJob.cache_key` that identifies the trace — for
    registry-built traces it is the *source* digest (file bytes /
    generator parameters / persona label), so editing a trace file or a
    scenario definition can never alias previously cached results.
    """

    label: str
    n_records: int
    payload: Optional[Trace] = None
    digest: str = ""

    @classmethod
    def from_catalog(cls, label: str, n_records: int) -> "TraceRef":
        return cls(label, n_records, None, f"catalog:{label}:{n_records}")

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceRef":
        h = hashlib.sha256()
        h.update(f"{trace.name}|{trace.input_name}|{trace.mlp}|".encode())
        for seq in (trace.pcs, trace.lines, trace.gaps):
            h.update(",".join(map(str, seq)).encode())
            h.update(b";")
        return cls(trace.label, len(trace), trace, f"trace:{h.hexdigest()}")

    @classmethod
    def for_trace(cls, trace: Trace) -> "TraceRef":
        """The cheapest safe ref for ``trace``.

        Traces built through the workload-source registry carry a
        ``source_digest`` (see
        :func:`repro.workloads.sources.build_from_source`); those become
        by-reference jobs — tiny to pickle, and workers re-materialize
        the trace from its label.  Anything else (hand-built traces,
        interval slices) is inlined and content-hashed.
        """
        digest = getattr(trace, "source_digest", None)
        if digest:
            # Prime the resolve memo: the caller already holds the built
            # trace, so in-process execution must not regenerate it.
            _memo_put((trace.label, len(trace), digest), trace)
            return cls(trace.label, len(trace), None, digest)
        return cls.from_trace(trace)

    def resolve(self) -> Trace:
        """Materialize the trace (regenerating catalog personas).

        By-reference resolutions are memoized per process (keyed on the
        digest, so two refs with different contents never share): a suite
        run resolves the same workload once per baseline + scheme job,
        and regenerating a 100k+-record persona each time would dominate
        small runs.
        """
        if self.payload is not None:
            return self.payload
        key = (self.label, self.n_records, self.digest)
        trace = _RESOLVE_MEMO.get(key)
        if trace is None:
            from ..workloads.inputs import make_trace

            trace = make_trace(self.label, self.n_records)
            _memo_put(key, trace)
        return trace


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
@dataclass
class SimJob:
    """One unit of simulation work, addressable by content hash.

    ``scheme`` names a record in :data:`repro.runner.schemes.SCHEMES`
    (or ``"profile"``, Prophet's profiling pass); ``params`` carries the
    scheme's knobs as a ``((name, value), ...)`` tuple of JSON-compatible
    values, handed to its ``prefetcher`` builder as a dict; ``deps`` maps
    dependency roles (``"base"``, ``"profile"``, or the learning chain's
    ``"profile_0" .. "profile_N"``) to the jobs whose payloads the
    builder receives; ``label`` is recorded as the resulting SimResult's
    scheme name (it is part of the cache key — results are cached *as
    labelled*).
    """

    scheme: str
    trace: TraceRef
    config: SystemConfig
    warmup_frac: float = 0.25
    params: Tuple[Tuple[str, Any], ...] = ()
    deps: Dict[str, "SimJob"] = field(default_factory=dict)
    label: str = ""

    _key: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def cache_key(self) -> str:
        """Stable sha256 over everything that determines the result."""
        if self._key is None:
            spec = {
                "engine": ENGINE_VERSION,
                "scheme": self.scheme,
                "trace": self.trace.digest,
                "config": config_to_dict(self.config),
                "warmup": repr(self.warmup_frac),
                "params": list(self.params),
                "label": self.label,
                "deps": {
                    role: dep.cache_key for role, dep in sorted(self.deps.items())
                },
            }
            blob = json.dumps(spec, sort_keys=True).encode()
            self._key = hashlib.sha256(blob).hexdigest()
        return self._key

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def stripped(self) -> "SimJob":
        """Copy without deps (their payloads travel separately to workers)."""
        return SimJob(
            self.scheme, self.trace, self.config, self.warmup_frac,
            self.params, {}, self.label,
        )
