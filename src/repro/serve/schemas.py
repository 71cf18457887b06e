"""Wire schemas for the serve subsystem (and the CLI's error envelope).

Everything on the wire is plain JSON.  A submission body is::

    {
        "experiment": "fig10",          # required: a registry name
        "records": 20000,               # optional trace-length override
        "workloads": ["mcf_inp"],       # optional catalog subset
        "schemes": ["triangel"],        # optional scheme subset
        "overrides": {"l3.size_kb": 4096}   # optional dotted-path edits
    }

:class:`ServeRequest` validates a body field by field (unknown fields,
unknown experiments/workloads/schemes, records on static experiments,
and malformed overrides are all 400s, not worker-thread crashes) and
computes the request **digest** — a sha256 over the same content-hash
machinery the result cache keys use (``ENGINE_VERSION``, workload
*source* digests, canonicalized overrides).  The digest is the dedup
key and the job id: identical requests always map to the same job, and
ids never contain wall-clock or random components, so replays and
service restarts are deterministic.

:func:`error_envelope` is the one error shape everywhere: the service's
4xx/5xx bodies and the CLI's ``--json`` failure output are the same
``{"error": {"code": ..., "message": ...}}`` document.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


def error_envelope(code: str, message: str, **details: Any) -> Dict[str, Any]:
    """The machine-readable error document (service 4xx + CLI --json).

    ``code`` is a stable kebab-case identifier clients can switch on;
    ``message`` is human-readable; extra keyword arguments land under
    ``details``.
    """
    err: Dict[str, Any] = {"code": code, "message": message}
    if details:
        err["details"] = details
    return {"error": err}


class ServeError(Exception):
    """A request error that maps straight to an HTTP error response."""

    def __init__(self, status: int, code: str, message: str, **details: Any):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.details = details

    @property
    def retry_after(self) -> Optional[float]:
        """Seconds the client should back off (429/503 admission errors).

        Carried in ``details`` so it reaches clients twice: as the
        standard ``Retry-After`` response header *and* inside the error
        envelope (urllib-style clients that only see the body still get
        the backoff hint).
        """
        value = self.details.get("retry_after")
        return float(value) if value is not None else None

    def envelope(self) -> Dict[str, Any]:
        return error_envelope(self.code, self.message, **self.details)


#: The only top-level keys a submission body may carry.
_REQUEST_FIELDS = ("experiment", "records", "workloads", "schemes", "overrides")


def _require_str_list(value: Any, name: str) -> List[str]:
    if (
        not isinstance(value, (list, tuple))
        or not value
        or not all(isinstance(v, str) and v for v in value)
    ):
        raise ServeError(
            400, "invalid-request",
            f"{name!r} must be a non-empty list of strings",
        )
    return [str(v) for v in value]


@dataclass
class ServeRequest:
    """One validated experiment submission (the POST /v1/experiments body)."""

    experiment: str
    records: Optional[int] = None
    workloads: Optional[List[str]] = None
    schemes: Optional[List[str]] = None
    overrides: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: Any) -> "ServeRequest":
        """Validate a decoded JSON body; raises :class:`ServeError` (400s).

        Validation is strict and *early*: every condition that would make
        :func:`repro.api.run` raise is rejected here with a structured
        envelope, so malformed traffic never reaches a worker thread.
        """
        from ..experiments import get_experiment

        if not isinstance(payload, dict):
            raise ServeError(
                400, "invalid-request", "request body must be a JSON object"
            )
        # Keys may be any hashable once decoded from non-JSON sources
        # (direct from_payload calls) — stringify before formatting.
        unknown = sorted(repr(k) for k in set(payload) - set(_REQUEST_FIELDS))
        if unknown:
            raise ServeError(
                400, "unexpected-field",
                f"unexpected field(s): {', '.join(unknown)}",
                expected=list(_REQUEST_FIELDS),
            )
        name = payload.get("experiment")
        if not isinstance(name, str) or not name:
            raise ServeError(
                400, "invalid-request",
                "'experiment' is required and must be a string",
            )
        try:
            exp = get_experiment(name)
        except ValueError as exc:
            raise ServeError(400, "unknown-experiment", str(exc)) from None

        records = payload.get("records")
        if records is not None:
            if isinstance(records, bool) or not isinstance(records, int) \
                    or records <= 0:
                raise ServeError(
                    400, "invalid-request",
                    "'records' must be a positive integer",
                )
            if exp.static:
                raise ServeError(
                    400, "invalid-request",
                    f"experiment {name!r} is static; 'records' does not apply",
                )

        workloads = payload.get("workloads")
        if workloads is not None:
            workloads = _require_str_list(workloads, "workloads")
            if not exp.supports_workloads:
                raise ServeError(
                    400, "invalid-request",
                    f"experiment {name!r} does not select workloads",
                )
            from ..workloads.inputs import validate_labels

            try:
                validate_labels(workloads)
            except (ValueError, SystemExit) as exc:
                raise ServeError(400, "unknown-workload", str(exc)) from None

        schemes = payload.get("schemes")
        if schemes is not None:
            schemes = _require_str_list(schemes, "schemes")
            if not exp.supports_schemes:
                raise ServeError(
                    400, "invalid-request",
                    f"experiment {name!r} does not select schemes",
                )
            from ..experiments.common import NAMED_SCHEMES

            known = set(exp.schemes) | set(NAMED_SCHEMES)
            bad = sorted(set(schemes) - known)
            if bad:
                raise ServeError(
                    400, "unknown-scheme",
                    f"unknown scheme(s): {', '.join(bad)}",
                    options=sorted(known),
                )

        overrides = payload.get("overrides")
        if overrides is None:
            overrides = {}
        if not isinstance(overrides, dict):
            raise ServeError(
                400, "invalid-request", "'overrides' must be an object"
            )
        if overrides:
            if not exp.supports_overrides:
                raise ServeError(
                    400, "invalid-request",
                    f"experiment {name!r} takes no config overrides",
                )
            from ..sim.config import apply_overrides, default_config

            try:
                apply_overrides(default_config(), overrides)
            except (KeyError, ValueError, TypeError) as exc:
                raise ServeError(400, "invalid-override", str(exc)) from None

        return cls(
            experiment=name,
            records=records,
            workloads=workloads,
            schemes=schemes,
            overrides=dict(overrides),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The request, echoed back in job summaries (round-trips)."""
        return {
            "experiment": self.experiment,
            "records": self.records,
            "workloads": list(self.workloads) if self.workloads else self.workloads,
            "schemes": list(self.schemes) if self.schemes else self.schemes,
            "overrides": dict(self.overrides),
        }

    def digest(self) -> str:
        """Content hash of everything that determines this request's result.

        Built from the same machinery as :attr:`SimJob.cache_key`:
        ``ENGINE_VERSION`` (stale semantics never alias), the workload
        *source* digests for every selected label (editing an imported
        trace file or a generator scenario changes the digest, exactly
        as it changes the underlying job cache keys), the raw
        workload/scheme selection (``None`` = experiment defaults is
        distinct from spelling the defaults out — the result JSON echoes
        the request shape), and key-sorted overrides.
        """
        from ..experiments import get_experiment
        from ..runner.jobs import ENGINE_VERSION
        from ..workloads.sources import get_source

        exp = get_experiment(self.experiment)
        records = self.records if self.records is not None else exp.records
        labels = (
            list(self.workloads) if self.workloads is not None
            else list(exp.workloads)
        )
        sources = []
        for label in labels:
            src = get_source(label)
            sources.append(
                [label, src.digest(records) if src is not None else "opaque"]
            )
        spec = {
            "engine": ENGINE_VERSION,
            "experiment": self.experiment,
            "records": records,
            "workloads": self.workloads,
            "sources": sources,
            "schemes": self.schemes,
            "overrides": {k: self.overrides[k] for k in sorted(self.overrides)},
        }
        blob = json.dumps(spec, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def canonical(self) -> Tuple:
        """The request's *identity*: everything the digest may depend on.

        Two requests with equal canonical forms must produce equal
        digests, and two with different canonical forms must never alias
        (the property suite in ``tests/test_serve_schemas_properties.py``
        fuzzes exactly this equivalence).  ``records=None`` resolves to
        the experiment default (the result document carries the resolved
        count), while the workload/scheme selections stay *raw* — the
        result JSON echoes ``None`` vs. an explicit list.
        """
        from ..experiments import get_experiment

        exp = get_experiment(self.experiment)
        records = self.records if self.records is not None else exp.records
        return (
            self.experiment,
            records,
            tuple(self.workloads) if self.workloads is not None else None,
            tuple(self.schemes) if self.schemes is not None else None,
            tuple(sorted(self.overrides.items())),
        )

    def job_id(self) -> str:
        """The deterministic job id: a digest prefix, nothing else."""
        return self.digest()[:32]
