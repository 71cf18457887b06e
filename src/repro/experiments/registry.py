"""Declarative experiment registry: the heart of the Experiment API.

Every figure/ablation module declares itself with
:func:`register_experiment` instead of being enumerated by the CLI::

    @register_experiment(
        "fig10", description="IPC speedup (SPEC)", records=300_000,
        kind="suite", metrics=("speedup",),
        workloads=SPEC_LABELS, schemes=("rpg2", "triangel", "prophet"),
        render=render,
    )
    def experiment(req: ExperimentRequest) -> SuiteResults:
        ...

The decorated function is the experiment's single entry point: it takes
an :class:`ExperimentRequest` (records, workload/scheme selection,
config overrides) and returns the experiment's payload.  The
:class:`Experiment` record also carries everything a *client* needs —
description, default records, default workload/scheme sets, chartable
metrics, a text renderer, and payload (de)serializers — so the CLI,
:mod:`repro.api`, and :mod:`repro.viz` can all drive any experiment
uniformly without knowing its module.

``records=None`` marks a *static* experiment (e.g. ``storage``): it has
no trace-length knob and rejects a ``records`` override instead of
abusing a ``0`` sentinel.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..sim.config import SystemConfig, apply_overrides, default_config

#: payload -> report text (the figure's rows, exactly as before).
Renderer = Callable[[Any], str]

#: payload -> (headers, rows) for generic chart/CSV rendering.
TabulateFn = Callable[[Any], Tuple[List[str], List[List[str]]]]


@dataclass
class ExperimentRequest:
    """One resolved invocation of an experiment.

    Built by :func:`repro.api.run` (and the CLI through it): ``records``
    is already defaulted from the experiment's declaration; ``workloads``
    / ``schemes`` are ``None`` when the caller keeps the experiment's
    defaults; ``overrides`` are dotted-path config overrides applied on
    top of whatever base config the experiment constructs; ``config``
    replaces the base config outright.
    """

    records: Optional[int] = None
    workloads: Optional[Tuple[str, ...]] = None
    schemes: Optional[Tuple[str, ...]] = None
    overrides: Mapping[str, Any] = field(default_factory=dict)
    config: Optional[SystemConfig] = None

    @property
    def selects_defaults(self) -> bool:
        """True when no workload/scheme subset was requested."""
        return self.workloads is None and self.schemes is None

    def configure(self, base: Optional[SystemConfig] = None) -> SystemConfig:
        """The request's effective config: base (or Table 1) + overrides."""
        cfg = self.config if self.config is not None else base
        if cfg is None:
            cfg = default_config()
        return apply_overrides(cfg, self.overrides) if self.overrides else cfg

    def workload_labels(self, defaults: Sequence[str]) -> List[str]:
        """Selected workload labels, validated against the catalog."""
        from ..workloads.inputs import validate_labels

        return validate_labels(
            list(self.workloads) if self.workloads is not None else list(defaults)
        )

    def resolve_traces(self, defaults: Sequence[str]) -> List[Any]:
        """Materialize the selected workloads as traces."""
        from ..workloads.inputs import resolve_traces

        labels = (
            list(self.workloads) if self.workloads is not None else list(defaults)
        )
        return resolve_traces(labels, self.records)

    def resolve_schemes(self, defaults: Mapping[str, Any]) -> Dict[str, Any]:
        """Selected scheme records (named ones from the scheme table)."""
        if self.schemes is None:
            return dict(defaults)
        from .common import NAMED_SCHEMES

        out: Dict[str, Any] = {}
        for name in self.schemes:
            if name in defaults:
                out[name] = defaults[name]
            elif name in NAMED_SCHEMES:
                out[name] = NAMED_SCHEMES[name]
            else:
                options = sorted(set(defaults) | set(NAMED_SCHEMES))
                raise ValueError(
                    f"unknown scheme {name!r}; options: {', '.join(options)}"
                )
        return out


def generic_to_dict(obj: Any) -> Any:
    """Best-effort JSON-compatible view of any experiment payload.

    Dataclasses become field dicts, mappings/sequences recurse, scalars
    pass through; anything else falls back to ``repr``.  This is the
    default serializer for experiments that do not declare their own.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: generic_to_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): generic_to_dict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [generic_to_dict(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


@dataclass
class Experiment:
    """One registered experiment: metadata + entry points.

    ``kind == "suite"`` marks payloads that are
    :class:`~repro.experiments.common.SuiteResults` (workload x scheme
    grids); they get first-class chart/CSV/JSON support and scheme
    selection.  Everything else is ``"generic"`` and serializes through
    ``to_dict``/:func:`generic_to_dict`.
    """

    name: str
    description: str
    records: Optional[int]
    run: Callable[[ExperimentRequest], Any]
    render: Renderer
    kind: str = "generic"
    metrics: Tuple[str, ...] = ()
    workloads: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = ()
    supports_workloads: bool = False
    supports_schemes: bool = False
    supports_overrides: bool = True
    to_dict: Optional[Callable[[Any], Dict]] = None
    from_dict: Optional[Callable[[Dict], Any]] = None
    tabulate: Optional[TabulateFn] = None
    module: str = ""

    @property
    def static(self) -> bool:
        """True when the experiment has no trace-length knob."""
        return self.records is None

    def payload_to_dict(self, payload: Any) -> Dict:
        if self.to_dict is not None:
            return self.to_dict(payload)
        if self.kind == "suite":
            return payload.to_dict()
        return generic_to_dict(payload)

    def payload_from_dict(self, d: Dict) -> Any:
        if self.from_dict is not None:
            return self.from_dict(d)
        if self.kind == "suite":
            from .common import SuiteResults

            return SuiteResults.from_dict(d)
        return d


#: name -> Experiment, in registration (== listing) order.
REGISTRY: Dict[str, Experiment] = {}


def register_experiment(
    name: str,
    *,
    description: str,
    records: Optional[int],
    render: Renderer,
    kind: str = "generic",
    metrics: Sequence[str] = (),
    workloads: Sequence[str] = (),
    schemes: Sequence[str] = (),
    supports_workloads: Optional[bool] = None,
    supports_schemes: Optional[bool] = None,
    supports_overrides: bool = True,
    to_dict: Optional[Callable[[Any], Dict]] = None,
    from_dict: Optional[Callable[[Dict], Any]] = None,
    tabulate: Optional[TabulateFn] = None,
) -> Callable:
    """Class the decorated function as experiment ``name``'s entry point.

    The decorated function receives one :class:`ExperimentRequest` and
    returns the experiment's payload; everything else here is metadata a
    client needs to drive it without importing the module:

    - ``name``: registry key, CLI subcommand, and ``api.run`` argument.
    - ``description``: one-liner shown by ``repro.cli list`` and the
      generated ``docs/experiments.md`` catalog.
    - ``records``: default trace length.  ``None`` marks a *static*
      experiment (no trace is simulated — e.g. ``storage``): a caller
      passing ``records`` is rejected instead of silently ignored.
    - ``render``: payload -> report text (the paper figure's rows).
    - ``kind``: ``"suite"`` for workload x scheme ``SuiteResults`` grids
      (first-class chart/CSV/JSON support), ``"generic"`` otherwise.
    - ``metrics``: chartable metric names, in the order the viz layer
      should offer them.
    - ``workloads`` / ``schemes``: the *default* scenario sets a request
      narrows with ``api.run(workloads=..., schemes=...)``.
    - ``supports_workloads`` / ``supports_schemes``: whether selection
      is allowed at all; default ``True`` for suites, ``False``
      otherwise (pass explicitly for generic experiments that resolve
      workloads through ``spec_traces``).
    - ``supports_overrides``: whether dotted-path config overrides /
      replacement configs apply (``False`` for static experiments whose
      output is config-independent).
    - ``to_dict`` / ``from_dict``: payload (de)serializers for the JSON
      contract; suites default to ``SuiteResults`` round-tripping and
      generic payloads to :func:`generic_to_dict` (one-way).
    - ``tabulate``: payload -> (headers, rows) for generic chart/CSV
      rendering when the payload is not a suite.

    Registering the same name from two different modules is an error
    (the completeness tests rely on this); re-running a module's own
    registration (``importlib.reload``) is allowed.
    """

    def deco(run_fn: Callable[[ExperimentRequest], Any]) -> Callable:
        module = getattr(run_fn, "__module__", "")
        existing = REGISTRY.get(name)
        if existing is not None and existing.module != module:
            raise ValueError(
                f"experiment {name!r} already registered by {existing.module}"
            )
        REGISTRY[name] = Experiment(
            name=name,
            description=description,
            records=records,
            run=run_fn,
            render=render,
            kind=kind,
            metrics=tuple(metrics),
            workloads=tuple(workloads),
            schemes=tuple(schemes),
            supports_workloads=(
                kind == "suite" if supports_workloads is None else supports_workloads
            ),
            supports_schemes=(
                kind == "suite" if supports_schemes is None else supports_schemes
            ),
            supports_overrides=supports_overrides,
            to_dict=to_dict,
            from_dict=from_dict,
            tabulate=tabulate,
            module=module,
        )
        return run_fn

    return deco


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment; raises with the option list."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; options: {', '.join(REGISTRY)}"
        ) from None


def all_experiments() -> List[Experiment]:
    """Every registered experiment, in listing order."""
    return list(REGISTRY.values())
