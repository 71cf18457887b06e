"""The native CRONO graph builder must match ``CSRGraph.random``'s loop.

``CSRGraph.random`` seeds a ``random.Random`` in CPython and hands its
Mersenne Twister state to ``csr_graph`` in the native module
(``repro/sim/_kernel.c``), which replays the interpreter's draws —
``random()``, ``randrange`` and its rejection loop — in C.  The Python
loop stays as the fallback (no compiler, or node ids that do not fit
int32) and as the oracle these tests compare against: every graph the
nine Fig. 15 workloads build, at fig15's pinned scale and at the
catalog's auto-scale, plus hypothesis-drawn sizes and seeds.
"""

import random
import sys
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig15_graph import DEFAULT_SCALE
from repro.sim import native
from repro.workloads import crono
from repro.workloads.crono import (
    CRONO_WORKLOADS,
    CSRGraph,
    make_crono_trace,
    native_graph_ok,
)

requires_native = pytest.mark.skipif(
    native.load() is None, reason="native kernel unavailable (no C toolchain)"
)


@contextmanager
def python_builder():
    """Route ``CSRGraph.random`` to its Python loop."""
    load = native.load
    native.load = lambda: None
    try:
        yield
    finally:
        native.load = load


def as_lists(graph):
    return graph.n_nodes, list(graph.offsets), list(graph.neighbors), list(graph.weights)


def assert_native_matches_python(n_nodes, avg_degree, seed):
    fast = CSRGraph.random(n_nodes, avg_degree, seed)
    with python_builder():
        slow = CSRGraph.random(n_nodes, avg_degree, seed)
    assert isinstance(fast.neighbors, array)
    assert as_lists(fast) == as_lists(slow)


def fig15_graph_args():
    """The (n_nodes, avg_degree, seed) of every graph the Fig. 15 traces
    build, at the pinned scale and at the catalog's auto-scale."""
    calls = []
    build = CSRGraph.random.__func__

    def record(cls, *args):
        calls.append(args)
        return build(cls, 64, 3, 1)  # a stand-in: only the arguments matter

    CSRGraph.random = classmethod(record)
    try:
        for label in CRONO_WORKLOADS:
            make_crono_trace(label, 64, DEFAULT_SCALE)
            make_crono_trace(label, 64)
    finally:
        CSRGraph.random = classmethod(build)
    return calls


FIG15_ARGS = fig15_graph_args()


@requires_native
@pytest.mark.parametrize("args", FIG15_ARGS, ids=[f"{n}n-{d}d-{s}" for n, d, s in FIG15_ARGS])
def test_fig15_graphs(args):
    assert_native_matches_python(*args)


@requires_native
@settings(max_examples=40, deadline=None)
@given(
    n_nodes=st.integers(64, 5000),
    avg_degree=st.integers(3, 6),
    seed=st.integers(0, 2**64),
)
def test_random_graphs(n_nodes, avg_degree, seed):
    assert_native_matches_python(n_nodes, avg_degree, seed)


@requires_native
@pytest.mark.parametrize("n_nodes", [0, 1, 2, 16, 31, 32, 33, 47, 48, 49])
@pytest.mark.parametrize("avg_degree", [0, 1, 3])
def test_small_graphs(n_nodes, avg_degree):
    # Below 48 nodes the local-edge draw is ``randrange(1, 2)``: a 1-bit
    # draw rejected until it is 0, which still consumes the stream.
    assert_native_matches_python(n_nodes, avg_degree, seed=n_nodes * 7 + avg_degree)


@requires_native
def test_native_buffers_are_exact_size():
    graph = CSRGraph.random(3000, 6, seed=11)
    for column, code in ((graph.offsets, "q"), (graph.neighbors, "i"), (graph.weights, "i")):
        assert column.typecode == code
        assert sys.getsizeof(column) == sys.getsizeof(array(code)) + len(column) * column.itemsize
    assert len(graph.offsets) == 3001 and graph.offsets[-1] == graph.n_edges


@requires_native
def test_native_entry_point_validates_input():
    state = random.Random(1).getstate()[1]
    kernel = native.load()
    with pytest.raises(ValueError):
        kernel.csr_graph(state, 2**31, 4)
    with pytest.raises(ValueError):
        kernel.csr_graph(state[:-1], 100, 4)
    with pytest.raises(ValueError):
        kernel.csr_graph(state[:-1] + (625,), 100, 4)


def test_fallback_without_native_kernel(monkeypatch):
    reference = as_lists(CSRGraph.random(2000, 5, seed=3))
    trace = make_crono_trace("bfs_80000_8", 3000)
    monkeypatch.setattr(native, "load", lambda: None)
    graph = CSRGraph.random(2000, 5, seed=3)
    assert isinstance(graph.neighbors, list)
    assert as_lists(graph) == reference
    again = make_crono_trace("bfs_80000_8", 3000)
    assert (again.pcs, again.lines, again.gaps) == (trace.pcs, trace.lines, trace.gaps)


def test_dispatch_predicate():
    assert native_graph_ok(0, 3)
    assert native_graph_ok(2**31 - 1, 6)
    assert not native_graph_ok(2**31, 6)
    assert not native_graph_ok(2**40, 3)
    assert not native_graph_ok(-1, 3)
    assert not native_graph_ok(100, 2**31)


def test_wide_graphs_skip_the_native_kernel(monkeypatch):
    # A graph the predicate rejects must never reach native.load(): the
    # Python loop builds it (a small stand-in here, so the test stays fast).
    monkeypatch.setattr(crono, "native_graph_ok", lambda n_nodes, avg_degree: False)
    monkeypatch.setattr(native, "load", lambda: pytest.fail("native kernel consulted"))
    graph = CSRGraph.random(100, 4, seed=5)
    assert isinstance(graph.offsets, list) and graph.offsets[-1] == graph.n_edges
