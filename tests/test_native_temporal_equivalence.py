"""The native temporal-prefetcher step must match the Python ``observe``.

The C kernel runs Triage's, Triangel's and Prophet's whole per-access
observe itself (``tp_observe`` in ``repro/sim/_kernel.c``) whenever the
prefetcher is one of those exact classes with its own ``observe`` and the
packed SRRIP metadata table; the state stays in the prefetcher's Python
objects.  The Python ``observe`` (``run_simulation``) is the oracle:
these tests pin the whole ``SimResult`` *and* the prefetcher's post-run
state — table entries, index dicts, replacement state, stats, trainer
and sampler items in order, window counters, Triage's key sets and the
MVB — across resizes, every Prophet feature switch and Equation 3's
disabled table.  Fallback cases (Hawkeye table, the reference oracle, a
user subclass, lines the packed trainer cannot hold) must run the Python
``observe`` and still match.
"""

import dataclasses
import functools
import importlib.util
from pathlib import Path

import pytest

from repro.core.hints import CSRHints, HintSet
from repro.core.mvb import MultiPathVictimBuffer
from repro.core.pipeline import OptimizedBinary
from repro.core.profiler import simplified_prefetcher
from repro.core.prophet import ProphetFeatures, ProphetPrefetcher
from repro.experiments.common import make_triage4
from repro.prefetchers.triage import TriagePrefetcher
from repro.prefetchers.triangel import (
    TriangelPrefetcher,
    TriangelPrefetcherReference,
)
from repro.sim import engine, native
from repro.sim.config import apply_overrides, default_config
from repro.sim.engine import run_simulation, simulate
from repro.workloads.base import Trace
from repro.workloads.inputs import make_trace

pytestmark = pytest.mark.skipif(
    native.load() is None, reason="native kernel unavailable (no C toolchain)"
)


@pytest.fixture(scope="module")
def config():
    return default_config()


@pytest.fixture(scope="module")
def mcf():
    return make_trace("mcf_inp", 30000)


@pytest.fixture(scope="module")
def binary(mcf, config):
    binary = OptimizedBinary.from_profile(mcf, config)
    assert binary.hints.csr.prophet_enabled, "hints must engage at this length"
    return binary


def prefetcher_state(pf):
    """Everything the step reads or writes, in comparable form."""
    table = pf.table
    state = {
        "entries": table.entries(),
        "stats": dataclasses.asdict(table.stats),
        "live": table._live,
        "capacity": table.capacity,
        "dense_of": list(table._dense_of.items()),
        "way_of": list(table._way_of.items()),
        "line_of": list(table._line_of),
        "rrpv": list(table.policy._rrpv) if table._srrip_rrpv is not None else None,
    }
    for name in ("_trainer", "_sampler", "_last_line"):
        if hasattr(pf, name):
            state[name] = list(getattr(pf, name).items())
    for name in ("_access_index", "_window_useful", "_window_issued", "_polls"):
        if hasattr(pf, name):
            state[name] = getattr(pf, name)
    if isinstance(pf, TriagePrefetcher):
        state["epoch_keys"] = set(pf._epoch_keys)
        state["insert_key_counts"] = pf.insert_key_counts()
        state["inserted_keys"] = pf._inserted_keys_by_pc
    mvb = getattr(pf, "mvb", None)
    if mvb is not None:
        state["mvb"] = (
            list(mvb._slot_of.items()),
            *(list(a) for a in (mvb._key, mvb._lru, mvb._ntgt, mvb._tgt, mvb._ctr)),
            mvb._clock, mvb.inserts, mvb.hits, mvb.lookups,
        )
    return state


def count_calls(monkeypatch, cls, attr="observe"):
    """Count calls to ``cls.attr`` through a transparent wrapper.

    ``functools.wraps`` sets ``__wrapped__``, as instrumentation does, so
    the wrapper alone never changes which path a run takes.
    """
    calls = []
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def wrapper(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(cls, attr, wrapper)
    return calls


def assert_step_matches(trace, config, make_pf, scheme, calls=None, **kwargs):
    """Native vs flat on results and post-run state; with ``calls`` (see
    :func:`count_calls`), also that only the flat run called observe."""
    flat_pf, native_pf = make_pf(), make_pf()
    flat = run_simulation(trace, config, flat_pf, scheme, **kwargs)
    flat_calls = len(calls or ())
    fast = simulate(trace, config, native_pf, scheme, **kwargs)
    if calls is not None:
        assert flat_calls > 0 and len(calls) == flat_calls
    assert dataclasses.asdict(fast) == dataclasses.asdict(flat)
    for key in ("issued_by_pc", "useful_by_pc", "miss_by_pc"):
        assert list(getattr(fast, key)) == list(getattr(flat, key))
    assert prefetcher_state(native_pf) == prefetcher_state(flat_pf)
    return native_pf, fast


def test_triangel_resizing_mid_run(mcf, config, monkeypatch):
    calls = count_calls(monkeypatch, TriangelPrefetcher)
    resizes = count_calls(monkeypatch, TriangelPrefetcher, "on_metadata_resize")
    assert_step_matches(
        mcf, config, lambda: TriangelPrefetcher(config), "triangel", calls,
        resize_window=512,
    )
    assert len(resizes) > 4  # the Set Dueller resized in both runs


@pytest.mark.parametrize("kind", ["profiling", "triage4"])
def test_triage(kind, mcf, config, monkeypatch):
    calls = count_calls(monkeypatch, TriagePrefetcher)
    make = {
        "profiling": lambda: simplified_prefetcher(config),
        "triage4": lambda: make_triage4(mcf, config, None),
    }[kind]
    pf, _ = assert_step_matches(mcf, config, make, kind, calls)
    if kind == "profiling":
        assert pf.insert_key_counts()


PROPHET_FEATURES = {
    "default": ProphetFeatures(),
    "no-resizing": ProphetFeatures(resizing=False),
    "no-mvb": ProphetFeatures(mvb=False),
    "mvb-2": ProphetFeatures(mvb_candidates=2),
    "runtime-triage": ProphetFeatures(runtime="triage"),
    "no-replacement": ProphetFeatures(replacement=False),
    "no-insertion": ProphetFeatures(insertion=False),
}


@pytest.mark.parametrize("variant", sorted(PROPHET_FEATURES))
def test_prophet_features(variant, mcf, binary, config):
    features = PROPHET_FEATURES[variant]
    pf, result = assert_step_matches(
        mcf, config, lambda: binary.prefetcher(config, features), "prophet",
        resize_window=1024,
    )
    assert result.pf_issued > 0
    if features.mvb:
        assert pf.mvb.inserts and pf.mvb.lookups


def test_prophet_native_step_skips_observe_fast(mcf, binary, config):
    pf = binary.prefetcher(config)
    calls = []
    fast = pf.observe_fast
    pf.observe_fast = lambda pc, line: calls.append(1) or fast(pc, line)
    simulate(mcf, config, pf, "prophet")
    assert not calls


def test_prophet_equation3_disabled(mcf, binary, config):
    hints = HintSet(binary.hints.pc_hints, CSRHints(metadata_ways=0))
    pf, result = assert_step_matches(
        mcf, config, lambda: ProphetPrefetcher(config, hints), "prophet"
    )
    assert result.pf_issued == 0 and pf._access_index == 0


@pytest.mark.parametrize("kind", ["triangel", "triage", "prophet"])
def test_full_structures(kind, mcf, binary):
    # A 64 KB LLC, a 4-entry trainer, a 64-entry sampler and a 64-entry
    # MVB: every eviction path (SRRIP and priority-gated victims, FIFO
    # trainer and sampler, MVB replacement) runs thousands of times.
    small = apply_overrides(default_config(), {"l3.size_kb": 64})

    def make():
        if kind == "triangel":
            return TriangelPrefetcher(small, trainer_size=4, sampler_size=64,
                                      sample_interval=2)
        if kind == "triage":
            return simplified_prefetcher(small)
        hints = HintSet(binary.hints.pc_hints, CSRHints(metadata_ways=2))
        pf = ProphetPrefetcher(small, hints, ProphetFeatures(mvb_candidates=2))
        pf.mvb = MultiPathVictimBuffer(entries=64, candidates_per_entry=2)
        pf._bind_observe()
        return pf

    pf, _ = assert_step_matches(mcf, small, make, kind, resize_window=1024)
    assert pf.table.stats.replacements > 1000
    if kind == "prophet":
        assert pf.mvb.inserts > 10 * len(pf.mvb._slot_of)


class OwnObserve(TriangelPrefetcher):
    def observe(self, access):
        return super().observe(access)


@pytest.mark.parametrize("kind", ["hawkeye-triage", "reference", "subclass"])
def test_fallbacks_call_python_observe(kind, config, monkeypatch):
    cls, make = {
        "hawkeye-triage": (TriagePrefetcher, lambda: TriagePrefetcher(config)),
        "reference": (TriangelPrefetcherReference,
                      lambda: TriangelPrefetcherReference(config)),
        "subclass": (OwnObserve, lambda: OwnObserve(config)),
    }[kind]
    trace = make_trace("omnetpp_inp", 12000)
    calls = count_calls(monkeypatch, cls)
    flat = run_simulation(trace, config, make(), kind)
    flat_calls = len(calls)
    fast = simulate(trace, config, make(), kind)
    assert dataclasses.asdict(fast) == dataclasses.asdict(flat)
    assert flat_calls > 0 and len(calls) == 2 * flat_calls


def test_lines_beyond_the_packed_trainer_run_python_observe(config, monkeypatch):
    # Every other record moves past 2**39: those accesses (and any PC
    # whose trainer last saw one) take the Python observe mid-run.
    base = make_trace("mcf_inp", 12000)
    lines = [line + (1 << 39) * (i % 2) for i, line in enumerate(base.lines)]
    trace = Trace(base.name, base.input_name, base.pcs, lines, base.gaps, mlp=base.mlp)
    calls = count_calls(monkeypatch, TriangelPrefetcher)
    pf, _ = assert_step_matches(
        trace, config, lambda: TriangelPrefetcher(config), "triangel",
        resize_window=2048,
    )
    # The flat run observes every access; the native run only some.
    assert pf._access_index < len(calls) < 2 * pf._access_index
    assert max(pf.table._line_of) >= 1 << 39


def test_native_step_taken_under_the_perfbench_tracer(mcf, config):
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    rec = tracer.install(tracer.Recorder())
    try:
        got = engine.simulate(mcf, config, TriangelPrefetcher(config), "triangel")
        assert engine._native_step(TriangelPrefetcher(config)) == 2
    finally:
        tracer.uninstall()
    assert rec.hot_totals().get("TriangelPrefetcher.observe", [0, 0])[1] == 0
    flat = run_simulation(mcf, config, TriangelPrefetcher(config), "triangel")
    assert dataclasses.asdict(got) == dataclasses.asdict(flat)
