"""Span recorder that instruments the program from the outside.

Nothing under ``src/`` is edited: :func:`install` replaces public
functions and methods of the ``repro`` modules with timing wrappers (and
:func:`uninstall` puts the originals back).  Every module-level binding of
a wrapped function is replaced, so ``from ..sim.engine import simulate``
call sites are covered as well as ``engine.simulate``.

Two kinds of wrapper:

- **spans** around coarse calls (trace build, profile, analyze, simulate,
  ``Runner.run``, ``ResultCache.get/put``, ``evaluate_suite``,
  ``api.run``, ``ServeClient``): name, layer, start, end, parent span,
  thread and run id, kept in memory and written out at the end;
- **hot counters** around the L2 prefetchers' per-access ``observe`` /
  ``observe_fast``: only calls and seconds are summed (a span per access
  would cost more than the access), and the time is charged to the
  enclosing span so per-layer self time stays exact.

Timestamps come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux),
which is shared by every process on the host, so spans written by pool
workers and the serve subprocess line up with the driver's.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter as _now
from typing import Any, Callable, Dict, List, Optional

#: Layer names (the repo's modules) in report order.
LAYERS = (
    "workloads", "core.profiler", "core.analysis", "sim.engine",
    "prefetchers", "runner", "experiments", "api", "serve", "bench",
)

#: ``simulate`` scheme labels -> the per-scheme metric suffix.
SCHEME_KEYS = {
    "baseline": "baseline", "triangel": "triangel", "rpg2": "rpg2",
    "rpg2-tune": "rpg2_tune", "profiling": "profile", "prophet": "prophet",
}

#: Hot-counter names -> metric suffix (``prefetchers.observe_s.<suffix>``).
HOT_KEYS = {
    "TriangelPrefetcher.observe": "triangel",
    "TriagePrefetcher.observe": "triage_profile",
    "ProphetPrefetcher.observe_fast": "prophet",
}

#: Environment variables handing the recorder to child processes.
ENV_DIR = "PERFBENCH_SPANS_DIR"
ENV_RUN = "PERFBENCH_RUN_ID"


class _ThreadState:
    __slots__ = ("stack", "hot", "tid", "run_t0")

    def __init__(self, tid: int):
        self.stack: List[list] = []  # open frames: [span id, hot seconds]
        self.hot: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        self.tid = tid
        self.run_t0: Optional[float] = None


class Recorder:
    """In-memory spans, hot counters and progress events of one process."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.pid = os.getpid()
        #: (sid, parent, name, layer, start, end, tid, hot_s, args)
        self.spans: List[tuple] = []
        #: (event, job key, t, seconds since the Runner.run entry)
        self.progress: List[tuple] = []
        self.flat = False  # simulate() dispatches to run_simulation
        self._ids = itertools.count(1)
        self._tl = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        try:
            return self._tl.s
        except AttributeError:
            s = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(s)
            self._tl.s = s
            return s

    def hot_totals(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        with self._lock:
            threads = list(self._threads)
        for s in threads:
            for name, (sec, calls) in list(s.hot.items()):
                out[name][0] += sec
                out[name][1] += calls
        return dict(out)

    # -- wrappers ---------------------------------------------------------
    def span(self, name: str, layer: str, fn: Callable,
             args_of: Optional[Callable] = None) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            s = rec.state()
            sid = next(rec._ids)
            parent = s.stack[-1][0] if s.stack else 0
            frame = [sid, 0.0]
            s.stack.append(frame)
            t0 = _now()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = _now()
                s.stack.pop()
                extra = args_of(args, kwargs, out) if args_of else None
                rec.spans.append((sid, parent, name, layer, t0, t1, s.tid,
                                  frame[1], extra))

        wrapper.__wrapped__ = fn
        return wrapper

    def hot(self, name: str, fn: Callable) -> Callable:
        rec = self

        def wrapper(*args):
            t0 = _now()
            out = fn(*args)
            d = _now() - t0
            s = rec.state()
            acc = s.hot[name]
            acc[0] += d
            acc[1] += 1
            if s.stack:
                s.stack[-1][1] += d
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def on_progress(self, event: str, job, done: int, total: int) -> None:
        """Progress sink: a Runner's start/done events for queue/exec time."""
        s = self.state()
        t = _now()
        since = t - s.run_t0 if s.run_t0 is not None else 0.0
        self.progress.append((event, job.cache_key, t, since))

    # -- output -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "run_id": self.run_id,
            "spans": list(self.spans),
            "hot": self.hot_totals(),
            "progress": list(self.progress),
        }

    def dump(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f".{self.pid}.tmp"
        tmp.write_text(json.dumps(self.snapshot()))
        tmp.replace(directory / f"{self.pid}.json")


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
_installed: List[tuple] = []  # (owner, attr, original) to restore
RECORDER: Optional[Recorder] = None


def _rebind_everywhere(original: Callable, wrapper: Callable) -> None:
    """Replace every module-level binding of ``original`` in ``repro``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                _installed.append((mod, attr, original))


def _patch_method(cls: type, attr: str, wrapper_of: Callable) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, wrapper_of(original))
    _installed.append((cls, attr, original))


def _trace_args(args, kwargs, out) -> Dict[str, Any]:
    return {"records": len(out) if out is not None else 0}


def _simulate_args(args, kwargs, out) -> Dict[str, Any]:
    trace = args[0]
    scheme = args[3] if len(args) > 3 else kwargs.get("scheme", "baseline")
    return {"scheme": SCHEME_KEYS.get(scheme, scheme), "records": len(trace)}


def _analyze_args(args, kwargs, out) -> Dict[str, Any]:
    if out is None:
        return {"hinted_pcs": 0, "enabled": False}
    enabled = bool(out.csr.prophet_enabled)
    hinted = sum(1 for h in out.pc_hints.values() if h.insert) if enabled else 0
    return {"hinted_pcs": hinted, "enabled": enabled}


def _job_args(args, kwargs, out) -> Dict[str, Any]:
    job = args[0]
    return {"scheme": job.label or job.scheme, "trace": job.trace.label,
            "key": job.cache_key}


def _get_args(args, kwargs, out) -> Dict[str, Any]:
    return {"hit": out is not None}


def install(recorder: Recorder) -> Recorder:
    """Wrap every instrumented entry point; returns ``recorder``."""
    global RECORDER
    if RECORDER is not None:
        raise RuntimeError("tracer already installed")
    RECORDER = rec = recorder
    # Importing the registry loads every experiment module first, so each
    # ``from ... import simulate``-style binding exists when rebinding runs.
    import repro.api as api
    import repro.experiments  # noqa: F401
    import repro.core.analysis as analysis
    import repro.core.profiler as profiler
    import repro.experiments.common as common
    import repro.sim.engine as engine
    import repro.workloads.crono as crono
    import repro.workloads.inputs as inputs
    import repro.workloads.spec as spec
    from repro.core.prophet import ProphetPrefetcher
    from repro.prefetchers.triage import TriagePrefetcher
    from repro.prefetchers.triangel import TriangelPrefetcher
    from repro.runner import schemes
    from repro.runner.runner import ProgressTracker, ResultCache, Runner
    from repro.serve.client import ServeClient

    def wrap_fn(fn, name, layer, args_of=None):
        _rebind_everywhere(fn, rec.span(name, layer, fn, args_of))

    wrap_fn(spec.make_spec_trace, "make_spec_trace", "workloads", _trace_args)
    wrap_fn(crono.make_crono_trace, "make_crono_trace", "workloads", _trace_args)
    wrap_fn(inputs.make_trace, "make_trace", "workloads", _trace_args)
    wrap_fn(profiler.profile, "profile", "core.profiler")
    wrap_fn(analysis.analyze, "analyze", "core.analysis", _analyze_args)
    wrap_fn(common.evaluate_suite, "evaluate_suite", "experiments")
    wrap_fn(api.run, "api.run", "api")
    wrap_fn(schemes.execute_job, "execute_job", "runner", _job_args)

    default_simulate, flat_simulate = engine.simulate, engine.run_simulation

    def simulate(*args, **kwargs):
        if rec.flat:
            kwargs.pop("batch_size", None)
            return flat_simulate(*args[:7], **kwargs)
        return default_simulate(*args, **kwargs)

    _rebind_everywhere(
        default_simulate, rec.span("simulate", "sim.engine", simulate, _simulate_args)
    )

    def runner_run(original):
        inner = rec.span("Runner.run", "runner", original)

        def run(self, jobs):
            s = rec.state()
            outer, s.run_t0 = s.run_t0, _now()
            try:
                return inner(self, jobs)
            finally:
                s.run_t0 = outer
        return run

    _patch_method(Runner, "run", runner_run)
    _patch_method(ResultCache, "get",
                  lambda f: rec.span("ResultCache.get", "runner", f, _get_args))
    _patch_method(ResultCache, "put",
                  lambda f: rec.span("ResultCache.put", "runner", f))
    _patch_method(api.ExperimentResult, "to_json",
                  lambda f: rec.span("ExperimentResult.to_json", "api", f))

    def tracker_call(original):
        def call(self, event, job, done, total):
            rec.on_progress(event, job, done, total)
            return original(self, event, job, done, total)
        return call

    # Serve installs a ProgressTracker per request; its events are the
    # only view of that Runner's job starts.
    _patch_method(ProgressTracker, "__call__", tracker_call)
    for attr in ("submit", "wait", "result_bytes"):
        _patch_method(ServeClient, attr, lambda f, a=attr: rec.span(
            f"ServeClient.{a}", "serve", f))

    _patch_method(TriangelPrefetcher, "observe",
                  lambda f: rec.hot("TriangelPrefetcher.observe", f))
    _patch_method(TriagePrefetcher, "observe",
                  lambda f: rec.hot("TriagePrefetcher.observe", f))

    def rewrap_fast(original):
        # Prophet (re)binds its fused ``observe_fast`` closure as an
        # instance attribute in __init__ and on every metadata resize.
        def method(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            fast = self.__dict__.get("observe_fast")
            if fast is not None and not hasattr(fast, "__wrapped__"):
                self.observe_fast = rec.hot("ProphetPrefetcher.observe_fast", fast)
            return out
        return method

    _patch_method(ProphetPrefetcher, "__init__", rewrap_fast)
    _patch_method(ProphetPrefetcher, "on_metadata_resize", rewrap_fast)
    return rec


def uninstall() -> Optional[Recorder]:
    """Restore every original; returns the recorder that was active."""
    global RECORDER
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
    rec, RECORDER = RECORDER, None
    return rec


def install_from_env() -> None:
    """Child-process entry (see ``hook/sitecustomize.py``)."""
    import atexit

    directory = Path(os.environ[ENV_DIR])
    rec = install(Recorder(os.environ.get(ENV_RUN, "")))
    atexit.register(rec.dump, directory)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def load_dir(directory: Path) -> List[Dict[str, Any]]:
    """Snapshots dumped by child processes into ``directory``."""
    if not directory.is_dir():
        return []
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def self_times(snapshot: Dict[str, Any]) -> Dict[int, float]:
    """Span id -> self seconds (duration minus child spans and hot calls)."""
    child = defaultdict(float)
    for sid, parent, _n, _l, t0, t1, *_ in snapshot["spans"]:
        if parent:
            child[parent] += t1 - t0
    return {
        sp[0]: (sp[5] - sp[4]) - child[sp[0]] - sp[7]
        for sp in snapshot["spans"]
    }


def chrome_trace(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    starts = [sp[4] for snap in snapshots for sp in snap["spans"]]
    origin = min(starts) if starts else 0.0
    events: List[Dict[str, Any]] = []
    for snap in snapshots:
        pid = snap["pid"]
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": f"repro pid {pid}"}})
        for sid, parent, name, layer, t0, t1, tid, hot_s, extra in snap["spans"]:
            args = {"span_id": sid, "parent": parent, "run_id": snap["run_id"]}
            if hot_s:
                args["hot_s"] = round(hot_s, 6)
            if extra:
                args.update(extra)
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": tid,
                "ts": round((t0 - origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3), "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
