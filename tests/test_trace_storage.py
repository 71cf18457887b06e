"""Trace record storage: packed int32 when every value fits, else int64.

The layout is decided from the records themselves, never by a knob, and
is invisible to everything downstream: the ``pcs``/``lines``/``gaps``
lists, ``TraceRef`` digests (and so cache keys), trace files and every
``SimResult`` on both engine rungs are the same for either layout.
"""

import dataclasses
import pickle

import pytest

from repro.prefetchers.triangel import TriangelPrefetcher
from repro.runner.jobs import TraceRef
from repro.sim.config import default_config
from repro.sim.engine import _trace_columns, run_simulation, simulate
from repro.workloads.base import COMPACT_TRACE_DTYPE, TRACE_DTYPE, Trace
from repro.workloads.crono import make_crono_trace
from repro.workloads.inputs import make_trace
from repro.workloads.tracefile import load_trace, save_trace

requires_numpy = pytest.mark.requires_numpy


def shifted(trace, offset):
    """``trace`` with every line moved up by ``offset``."""
    return Trace(trace.name, trace.input_name, trace.pcs,
                 [line + offset for line in trace.lines], trace.gaps, trace.mlp)


def wide_copy(trace):
    """The same records stored as int64."""
    rec = trace.records_array.astype(TRACE_DTYPE)
    return Trace.from_records(trace.name, trace.input_name, rec, trace.mlp)


def results(trace):
    """Triangel's ``SimResult`` on the flat loop and on ``simulate``."""
    config = default_config()
    return [dataclasses.asdict(run(trace, config, TriangelPrefetcher(config), "triangel"))
            for run in (run_simulation, simulate)]


@requires_numpy
@pytest.mark.parametrize("trace", [make_trace("mcf_inp", 2000),
                                   make_crono_trace("bfs_80000_8", 2000, 0.1)],
                         ids=["spec", "crono"])
def test_catalog_traces_are_compact(trace):
    assert trace.records_array.dtype == COMPACT_TRACE_DTYPE
    assert trace.records_array.itemsize == 12


@requires_numpy
@pytest.mark.parametrize("offset", [2**31, 2**39])
def test_wide_lines_stay_int64_and_simulate_identically(offset):
    trace = shifted(make_trace("omnetpp_inp", 3000), offset)
    assert trace.records_array.dtype == TRACE_DTYPE
    assert min(trace.lines) >= offset
    flat, default = results(trace)
    assert default == flat


@requires_numpy
def test_kernel_columns_are_int64():
    import numpy as np

    compact = make_trace("mcf_inp", 1000)
    wide = wide_copy(compact)
    for trace, shared in ((compact, False), (wide, True)):
        columns = _trace_columns(trace)
        assert [col.dtype for col in columns] == [np.dtype(np.int64)] * 3
        assert [col.tolist() for col in columns] == [trace.pcs, trace.lines, trace.gaps]
        assert all(np.shares_memory(col, trace.records_array) == shared for col in columns)


@requires_numpy
def test_layouts_are_indistinguishable():
    compact = make_trace("sphinx3_an4", 3000)
    wide = wide_copy(compact)
    assert compact.records_array.dtype == COMPACT_TRACE_DTYPE
    assert wide.records_array.dtype == TRACE_DTYPE
    assert (compact.pcs, compact.lines, compact.gaps) == (wide.pcs, wide.lines, wide.gaps)
    assert compact.instructions == wide.instructions
    assert TraceRef.from_trace(compact).digest == TraceRef.from_trace(wide).digest
    assert results(compact) == results(wide)


@requires_numpy
@pytest.mark.parametrize("offset", [0, 2**39])
def test_trace_files_stay_int64(tmp_path, offset):
    import numpy as np

    trace = shifted(make_trace("mcf_inp", 1500), offset)
    path = save_trace(trace, tmp_path / "t.npz")
    with np.load(path) as data:
        assert {data[k].dtype for k in ("pcs", "lines", "gaps")} == {np.dtype(np.int64)}
    loaded = load_trace(path)
    assert loaded.records_array.dtype == trace.records_array.dtype
    assert (loaded.pcs, loaded.lines, loaded.gaps) == (trace.pcs, trace.lines, trace.gaps)
    assert (loaded.label, loaded.mlp) == (trace.label, trace.mlp)


@requires_numpy
@pytest.mark.parametrize("offset", [0, 2**39])
def test_pickle_and_interval_keep_the_layout(offset):
    trace = shifted(make_trace("mcf_inp", 1500), offset)
    for copy in (pickle.loads(pickle.dumps(trace)), trace.interval(100, 900)):
        assert copy.records_array.dtype == trace.records_array.dtype
    again = pickle.loads(pickle.dumps(trace))
    assert (again.pcs, again.lines, again.gaps) == (trace.pcs, trace.lines, trace.gaps)


def test_instructions_do_not_overflow_int32_gaps():
    gap = 2**31 - 1
    trace = Trace("big", "gaps", [1, 2, 3], [10, 11, 12], [gap] * 3)
    if trace.records_array is not None:
        assert trace.records_array.dtype == COMPACT_TRACE_DTYPE
    assert trace.instructions == 3 + 3 * gap


@requires_numpy
def test_negative_and_boundary_values():
    lo, hi = -(2**31), 2**31 - 1
    fits = Trace("edge", "", [lo, hi], [0, hi], [0, 0])
    assert fits.records_array.dtype == COMPACT_TRACE_DTYPE
    assert (fits.pcs, fits.lines) == ([lo, hi], [0, hi])
    over = Trace("edge", "", [lo - 1, 0], [0, 0], [0, 0])
    assert over.records_array.dtype == TRACE_DTYPE
    assert over.pcs == [lo - 1, 0]
    empty = Trace("empty", "", [], [], [])
    assert len(empty) == 0 and empty.instructions == 0
