"""The native engine rung must match ``run_simulation`` bit-for-bit.

``simulate`` runs the whole record loop in the C kernel
(``repro/sim/_kernel.c``, built and loaded by ``repro.sim.native``)
whenever it is available, and the flat ``run_simulation`` loop
otherwise.  These tests pin the whole ``SimResult`` — cycles (IEEE-754
accumulation order included), per-PC maps and their order, prefetch
stats, metadata counters — on representative personas, on every
prefetcher dispatch path the kernel calls back into Python for (fused
``observe_fast``, generic ``observe``, off-chip metadata drains, a
non-stride L1 prefetcher), and on the machinery the kernel reimplements:
resize polls mid-stream, MSHR saturation (prefetch-queue backpressure),
the TLB, page-confined L1 prefetches and warmup boundaries.

The rung is a pure speed choice: it must never reach ``SimJob`` or its
cache key, and it does not bump ``ENGINE_VERSION``.  When the kernel
cannot be built, ``simulate`` falls back to the flat loop and logs once.
"""

import dataclasses
import logging
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import _accel
from repro.core.pipeline import OptimizedBinary
from repro.prefetchers.offchip import DominoPrefetcher, STMSPrefetcher
from repro.prefetchers.rpg2 import RPG2Prefetcher, identify_kernels
from repro.prefetchers.triage import TriagePrefetcher
from repro.prefetchers.triangel import TriangelPrefetcher
from repro.runner.jobs import ENGINE_VERSION, SimJob, TraceRef
from repro.sim import native
from repro.sim.config import default_config
from repro.sim.engine import run_simulation, simulate
from repro.workloads.inputs import make_trace

requires_native = pytest.mark.skipif(
    native.load() is None, reason="native kernel unavailable (no C toolchain)"
)


@pytest.fixture(scope="module")
def config():
    return default_config()


def assert_native_matches_flat(trace, config, make_pf, scheme, **kwargs):
    flat = run_simulation(trace, config, make_pf(), scheme, **kwargs)
    fast = simulate(trace, config, make_pf(), scheme, **kwargs)
    assert dataclasses.asdict(fast) == dataclasses.asdict(flat)
    for key in ("issued_by_pc", "useful_by_pc", "miss_by_pc"):
        assert list(getattr(fast, key)) == list(getattr(flat, key))


@requires_native
@pytest.mark.parametrize(
    "label", ["mcf_inp", "omnetpp_omnetpp", "gcc_166", "gen_hot_l1"]
)
def test_baseline_identical(label, config):
    trace = make_trace(label, 20000)
    assert_native_matches_flat(trace, config, lambda: None, "baseline")


@requires_native
@pytest.mark.parametrize("scheme", ["triangel", "triage", "stms", "domino"])
def test_l2_prefetchers_identical(scheme, config):
    make = {
        "triangel": lambda: TriangelPrefetcher(config),
        "triage": lambda: TriagePrefetcher(config),
        "stms": lambda: STMSPrefetcher(degree=4),
        "domino": lambda: DominoPrefetcher(degree=4),
    }[scheme]
    trace = make_trace("mcf_inp", 20000)
    assert_native_matches_flat(trace, config, make, scheme)


@requires_native
def test_prophet_identical(config):
    trace = make_trace("mcf_inp", 20000)
    binary = OptimizedBinary.from_profile(trace, config)
    assert_native_matches_flat(
        trace, config, lambda: binary.prefetcher(config), "prophet"
    )


@requires_native
def test_rpg2_identical(config):
    trace = make_trace("sssp_100000_5", 20000)
    base = run_simulation(trace, config, None, "baseline")
    kernels = identify_kernels(trace.pcs, trace.lines, base.miss_by_pc)
    assert kernels, "workload should expose an RPG2 kernel"
    assert_native_matches_flat(
        trace, config, lambda: RPG2Prefetcher(kernels), "rpg2"
    )


@requires_native
@pytest.mark.parametrize("kind", ["ipcp", "none"])
def test_l1_prefetcher_variants_identical(kind, config):
    cfg = config.with_l1_prefetcher(kind)
    trace = make_trace("mcf_inp", 12000)
    assert_native_matches_flat(trace, cfg, lambda: None, "baseline")
    assert_native_matches_flat(
        trace, cfg, lambda: TriangelPrefetcher(cfg), "triangel"
    )


@requires_native
def test_tlb_and_page_confined_l1_prefetch_identical(config):
    trace = make_trace("omnetpp_inp", 20000)
    for cfg in (config.with_tlb(entries=16),
                config.with_page_constrained_l1_prefetch()):
        assert_native_matches_flat(trace, cfg, lambda: None, "baseline")


@requires_native
def test_resizes_mid_stream(config):
    # A short poll window makes Triangel's Set Dueller and Prophet's
    # resizing fire many times, each rebinding the prefetcher callables.
    trace = make_trace("mcf_inp", 20000)
    assert_native_matches_flat(
        trace, config, lambda: TriangelPrefetcher(config), "triangel",
        resize_window=1024, warmup_frac=0.6,
    )
    binary = OptimizedBinary.from_profile(trace, config)
    assert_native_matches_flat(
        trace, config, lambda: binary.prefetcher(config), "prophet",
        resize_window=512,
    )


@requires_native
def test_mshr_saturation_identical(config):
    # A 2-entry L2 MSHR file keeps the prefetch overflow queue backed up.
    cfg = dataclasses.replace(config, l2=dataclasses.replace(config.l2, mshrs=2))
    trace = make_trace("omnetpp_inp", 20000)
    assert_native_matches_flat(trace, cfg, lambda: None, "baseline")
    assert_native_matches_flat(
        trace, cfg, lambda: TriangelPrefetcher(cfg), "triangel"
    )


@requires_native
@pytest.mark.parametrize("warmup_frac", [0.0, 0.33])
def test_warmup_fractions(warmup_frac, config):
    trace = make_trace("mcf_inp", 9001)
    assert_native_matches_flat(
        trace, config, lambda: TriangelPrefetcher(config), "triangel",
        warmup_frac=warmup_frac,
    )


def test_loader_failure_falls_back_and_logs_once(config, tmp_path, monkeypatch,
                                                 caplog):
    # A fresh process on a machine without a working compiler.
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setenv("CC", "false")
    trace = make_trace("mcf_inp", 4000)
    expected = dataclasses.asdict(run_simulation(trace, config, None, "baseline"))
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        for _ in range(2):
            got = simulate(trace, config, None, "baseline")
            assert dataclasses.asdict(got) == expected
    warnings = [r for r in caplog.records if r.name == native.__name__]
    assert len(warnings) == 1
    assert "unavailable" in warnings[0].getMessage()
    assert native.load() is None


@requires_native
def test_concurrent_builds_publish_one_artifact(tmp_path):
    script = (
        "import sys; from pathlib import Path; from repro.sim import native; "
        "native.import_artifact(native.build(Path(sys.argv[1]))).run"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(tmp_path)])
        for _ in range(2)
    ]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    assert [p.name for p in tmp_path.iterdir()] == [native.artifact_name()]


@requires_native
def test_concurrent_loads_in_threads_build_once(tmp_path, monkeypatch):
    # More threads than cores race the first load() of a fresh checkout.
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_module", None)
    with ThreadPoolExecutor(8) as pool:
        modules = list(pool.map(lambda _: native.load(), range(8)))
    assert modules[0] is not None
    assert all(m is modules[0] for m in modules)
    assert [p.name for p in tmp_path.iterdir()] == [native.artifact_name()]


def test_numpy_flag_tri_state(monkeypatch):
    monkeypatch.delenv("REPRO_NUMPY", raising=False)
    auto = _accel.numpy_enabled()
    assert auto == _accel.numpy_capability().ok  # auto: on when usable
    monkeypatch.setenv("REPRO_NUMPY", "0")
    assert not _accel.numpy_enabled()
    monkeypatch.setenv("REPRO_NUMPY", "off")
    assert not _accel.numpy_enabled()
    monkeypatch.setenv("REPRO_NUMPY", "1")
    assert _accel.numpy_enabled() == _accel.numpy_capability().ok
    _accel.set_numpy_enabled(False)
    try:
        assert not _accel.numpy_enabled()  # override beats the env
    finally:
        _accel.set_numpy_enabled(None)


def test_rung_never_enters_cache_keys(config):
    # Same key fields, same engine version: results cached by either rung
    # stay valid for the other.
    assert ENGINE_VERSION == "2"
    field_names = {f.name for f in dataclasses.fields(SimJob)}
    assert not field_names & {"batch_size", "rung", "native"}
    trace = make_trace("mcf_inp", 2000)
    job = SimJob("baseline", TraceRef.from_trace(trace), config)
    assert job.cache_key == SimJob(
        "baseline", TraceRef.from_trace(trace), config
    ).cache_key

