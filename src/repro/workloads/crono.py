"""CRONO graph workloads (Fig. 15): bc, bfs, dfs, pagerank, sssp.

Unlike the SPEC personas, these are *real algorithm implementations*: each
kernel runs over a seeded CSR graph and emits one trace record per logical
memory operation, with a fixed PC per access site.  The resulting traces
naturally contain the two access classes the paper's Fig. 15 analysis
relies on:

- **quasi-sequential prefetch kernels** — the CSR offset/neighbour array
  scans.  Their deltas vary with vertex degree, so a constant-stride L1
  prefetcher rarely locks on, but RPG2-style ``address + distance``
  software prefetches work well: this is where RPG2 earns its 9 % average.
- **irregular vertex-data accesses** (rank/dist/visited indexed by
  neighbour id) — pointer-like patterns that repeat across iterations /
  restarts, i.e. temporal patterns only Prophet/Triangel can cover.

Workload names follow the paper's ``kernel_nodes_param`` convention
(e.g. ``bfs_100000_16``); ``scale`` shrinks the node count so default runs
finish quickly, preserving the structure (degree distribution and
iteration counts are unchanged).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .base import Trace

#: Paper's Fig. 15 configurations.
CRONO_WORKLOADS = [
    "bc_40000_10",
    "bc_56384_8",
    "bfs_100000_16",
    "bfs_80000_8",
    "bfs_90000_10",
    "dfs_800000_800",
    "dfs_900000_400",
    "pagerank_100000_100",
    "sssp_100000_5",
]

PC_GRAPH_BASE = 0x800000
# CRONO's CSR offset/neighbour arrays are plain int arrays (16 per line),
# while the hot per-vertex state arrays are padded to a cache line each to
# avoid false sharing between threads — so the scans are compact and the
# irregular vertex accesses dominate the miss stream.
_INTS_PER_LINE = 16
_FLOATS_PER_LINE = 1


@dataclass
class CSRGraph:
    """Compressed-sparse-row graph with deterministic construction.

    The native builder returns exact-size ``array`` buffers (int64
    ``offsets``, int32 ``neighbors``/``weights``); the Python loop
    returns lists with the same values.
    """

    n_nodes: int
    offsets: Sequence[int]
    neighbors: Sequence[int]
    weights: Sequence[int]

    @property
    def n_edges(self) -> int:
        return len(self.neighbors)

    @classmethod
    def random(cls, n_nodes: int, avg_degree: int, seed: int) -> "CSRGraph":
        """Power-law-ish random graph: a few hubs, many low-degree nodes."""
        rng = random.Random(seed)
        if native_graph_ok(n_nodes, avg_degree):
            from ..sim import native

            kernel = native.load()
            if kernel is not None:
                # Same draws as the loop below, replayed in C from the
                # seeded Mersenne Twister state.
                return cls(n_nodes, *kernel.csr_graph(rng.getstate()[1], n_nodes, avg_degree))
        offsets = [0]
        neighbors: List[int] = []
        weights: List[int] = []
        for v in range(n_nodes):
            # Degree: mostly near avg, occasionally hub-like.
            if rng.random() < 0.05:
                degree = avg_degree * 4
            else:
                degree = max(1, int(avg_degree * (0.5 + rng.random())))
            for _ in range(degree):
                # Mild locality: half the edges are near the source.
                if rng.random() < 0.5:
                    nbr = (v + rng.randrange(1, max(2, n_nodes // 16))) % n_nodes
                else:
                    nbr = rng.randrange(n_nodes)
                neighbors.append(nbr)
                weights.append(rng.randrange(1, 16))
            offsets.append(len(neighbors))
        return cls(n_nodes, offsets, neighbors, weights)


def native_graph_ok(n_nodes: int, avg_degree: int) -> bool:
    """Whether the native builder takes this graph: node ids and degrees
    must fit its int32 buffers; anything else runs the Python loop."""
    return 0 <= n_nodes < 2**31 and 0 <= avg_degree < 2**31


class _TraceEmitter:
    """Collects (pc, line, gap) records with array-to-line mapping."""

    def __init__(self, limit: int):
        self.limit = limit
        self.pcs: List[int] = []
        self.lines: List[int] = []
        self.gaps: List[int] = []

    @property
    def full(self) -> bool:
        return len(self.pcs) >= self.limit

    def emit(self, pc: int, line: int, gap: int = 3) -> None:
        self.pcs.append(pc)
        self.lines.append(line)
        self.gaps.append(gap)


class _Arrays:
    """Line-address layout for a kernel's arrays."""

    def __init__(self, graph: CSRGraph):
        base = 1 << 22
        off_lines = graph.n_nodes // _INTS_PER_LINE + 2
        nbr_lines = graph.n_edges // _INTS_PER_LINE + 2
        data_lines = graph.n_nodes // _FLOATS_PER_LINE + 2
        self.offsets = base
        self.neighbors = self.offsets + off_lines
        self.data1 = self.neighbors + nbr_lines  # dist / rank / sigma
        self.data2 = self.data1 + data_lines  # visited / rank_new / delta
        self.weights = self.data2 + data_lines

    def off_line(self, i: int) -> int:
        return self.offsets + i // _INTS_PER_LINE

    def nbr_line(self, j: int) -> int:
        return self.neighbors + j // _INTS_PER_LINE

    def wgt_line(self, j: int) -> int:
        return self.weights + j // _INTS_PER_LINE

    def d1_line(self, v: int) -> int:
        return self.data1 + v // _FLOATS_PER_LINE

    def d2_line(self, v: int) -> int:
        return self.data2 + v // _FLOATS_PER_LINE


# PC offsets per access site (stable across kernels for hint reuse).
_PC_OFF = 0   # offsets[v]
_PC_NBR = 1   # neighbors[j]      <- RPG2's quasi-sequential kernel
_PC_D1R = 2   # data1[nbr] read   <- irregular temporal
_PC_D1W = 3   # data1[v] write
_PC_D2R = 4   # data2[nbr] read
_PC_D2W = 5   # data2[v] write
_PC_WGT = 6   # weights[j]


def _pc(kernel_idx: int, site: int) -> int:
    return PC_GRAPH_BASE + kernel_idx * 0x100 + site


def _scan_vertex(
    em: _TraceEmitter, arr: _Arrays, g: CSRGraph, v: int, pcs: Dict[int, int]
) -> range:
    """Emit the offsets read for ``v`` and return its edge index range."""
    em.emit(pcs[_PC_OFF], arr.off_line(v), 5)
    return range(g.offsets[v], g.offsets[v + 1])


def _bfs_pass(
    em: _TraceEmitter, g: CSRGraph, arr: _Arrays, source: int, pcs: Dict[int, int]
) -> List[int]:
    """One BFS from ``source``; returns the visit order."""
    visited = [False] * g.n_nodes
    frontier = [source]
    visited[source] = True
    order = [source]
    while frontier and not em.full:
        next_frontier: List[int] = []
        for v in frontier:
            if em.full:
                break
            for j in _scan_vertex(em, arr, g, v, pcs):
                em.emit(pcs[_PC_NBR], arr.nbr_line(j), 4)
                nbr = g.neighbors[j]
                em.emit(pcs[_PC_D1R], arr.d1_line(nbr), 7)
                if not visited[nbr]:
                    visited[nbr] = True
                    em.emit(pcs[_PC_D1W], arr.d1_line(nbr), 5)
                    em.emit(pcs[_PC_D2W], arr.d2_line(nbr), 4)  # parent[]
                    next_frontier.append(nbr)
                    order.append(nbr)
                if em.full:
                    break
        frontier = next_frontier
    return order


def _gen_bfs(g: CSRGraph, em: _TraceEmitter, rng: random.Random, kidx: int) -> None:
    pcs = {s: _pc(kidx, s) for s in range(7)}
    # Repeated traversals from the same source (CRONO's outer loop):
    # the second pass repeats the first's access sequence -> temporal.
    source = rng.randrange(g.n_nodes)
    while not em.full:
        _bfs_pass(em, g, arr=_Arrays(g), source=source, pcs=pcs)


def _gen_dfs(g: CSRGraph, em: _TraceEmitter, rng: random.Random, kidx: int) -> None:
    pcs = {s: _pc(kidx, s) for s in range(7)}
    arr = _Arrays(g)
    sources = [rng.randrange(g.n_nodes) for _ in range(3)]
    restart = 0
    while not em.full:
        source = sources[restart % len(sources)]
        restart += 1
        visited = [False] * g.n_nodes
        stack = [source]
        while stack and not em.full:
            v = stack.pop()
            em.emit(pcs[_PC_D1R], arr.d1_line(v), 7)
            if visited[v]:
                continue
            visited[v] = True
            em.emit(pcs[_PC_D1W], arr.d1_line(v), 5)
            em.emit(pcs[_PC_D2W], arr.d2_line(v), 4)  # discovery order
            for j in _scan_vertex(em, arr, g, v, pcs):
                em.emit(pcs[_PC_NBR], arr.nbr_line(j), 4)
                nbr = g.neighbors[j]
                if not visited[nbr]:
                    stack.append(nbr)
                if em.full:
                    break


def _gen_pagerank(g: CSRGraph, em: _TraceEmitter, rng: random.Random, kidx: int) -> None:
    pcs = {s: _pc(kidx, s) for s in range(7)}
    arr = _Arrays(g)
    while not em.full:
        # One iteration: sweep all vertices in order; rank reads repeat
        # identically every iteration (strong temporal pattern).
        for v in range(g.n_nodes):
            if em.full:
                break
            for j in _scan_vertex(em, arr, g, v, pcs):
                em.emit(pcs[_PC_NBR], arr.nbr_line(j), 4)
                nbr = g.neighbors[j]
                em.emit(pcs[_PC_D1R], arr.d1_line(nbr), 7)
                if em.full:
                    break
            em.emit(pcs[_PC_D2W], arr.d2_line(v), 5)


def _gen_sssp(g: CSRGraph, em: _TraceEmitter, rng: random.Random, kidx: int) -> None:
    pcs = {s: _pc(kidx, s) for s in range(7)}
    arr = _Arrays(g)
    source = rng.randrange(g.n_nodes)
    dist = [1 << 30] * g.n_nodes
    dist[source] = 0
    while not em.full:
        # Bellman-Ford rounds: full edge sweeps, repeated -> temporal.
        for v in range(g.n_nodes):
            if em.full:
                break
            em.emit(pcs[_PC_D1R], arr.d1_line(v), 7)
            for j in _scan_vertex(em, arr, g, v, pcs):
                em.emit(pcs[_PC_NBR], arr.nbr_line(j), 4)
                em.emit(pcs[_PC_WGT], arr.wgt_line(j), 4)
                nbr = g.neighbors[j]
                em.emit(pcs[_PC_D2R], arr.d1_line(nbr), 7)
                alt = dist[v] + g.weights[j]
                if alt < dist[nbr]:
                    dist[nbr] = alt
                    em.emit(pcs[_PC_D1W], arr.d1_line(nbr), 5)
                if em.full:
                    break


def _gen_bc(g: CSRGraph, em: _TraceEmitter, rng: random.Random, kidx: int) -> None:
    pcs = {s: _pc(kidx, s) for s in range(7)}
    arr = _Arrays(g)
    while not em.full:
        # Brandes: forward BFS then reverse accumulation over the order.
        source = rng.randrange(g.n_nodes)
        order = _bfs_pass(em, g, arr, source, pcs)
        for v in reversed(order):
            if em.full:
                break
            for j in _scan_vertex(em, arr, g, v, pcs):
                em.emit(pcs[_PC_NBR], arr.nbr_line(j), 4)
                nbr = g.neighbors[j]
                em.emit(pcs[_PC_D2R], arr.d2_line(nbr), 7)
            em.emit(pcs[_PC_D2W], arr.d2_line(v), 5)


_KERNELS: Dict[str, Callable] = {
    "bc": _gen_bc,
    "bfs": _gen_bfs,
    "dfs": _gen_dfs,
    "pagerank": _gen_pagerank,
    "sssp": _gen_sssp,
}
_KERNEL_INDEX = {name: i for i, name in enumerate(sorted(_KERNELS))}


def parse_crono_name(name: str) -> Tuple[str, int, int]:
    """``bfs_100000_16`` -> ("bfs", 100000, 16)."""
    parts = name.split("_")
    if len(parts) != 3 or parts[0] not in _KERNELS:
        raise ValueError(f"bad CRONO workload name {name!r}")
    return parts[0], int(parts[1]), int(parts[2])


def make_crono_trace(
    name: str,
    n_records: int = 300_000,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> Trace:
    """Run the named CRONO kernel and return its memory trace.

    Graphs are scaled to the trace length: the node count is chosen so a
    trace covers several full iterations / restarts of the kernel, which
    is where the cross-iteration temporal patterns live (paper-scale
    graphs under a short trace would never repeat an access).  The edge
    and vertex arrays still exceed the LLC's data capacity, so the scans
    and vertex-data accesses genuinely miss.  Pass ``scale`` to override
    (fraction of the configured node count).  The average degree is
    clamped to 3..6 — extreme degrees only lengthen the quasi-sequential
    neighbour scans without changing their structure.
    """
    kernel, nodes, param = parse_crono_name(name)
    if seed is None:
        seed = (zlib.crc32(name.encode()) & 0x7FFFFFFF) | 1
    avg_degree = max(3, min(6, param))
    if scale is None:
        # ~2.4 records per edge and ~3 iterations per trace; the edge
        # array sized to just exceed the LLC's data capacity, so the scans
        # genuinely miss and every prefetching scheme has room to work.
        # Nodes are sized from a capped effective degree so the per-vertex
        # state arrays (level/parent/rank/dist) also exceed the LLC and the
        # irregular vertex accesses miss — the part only temporal
        # prefetching can cover.
        target_edges = max(4_000, n_records // 7)
        n_nodes = max(64, target_edges // avg_degree)
    else:
        n_nodes = max(64, int(nodes * scale))
    graph = CSRGraph.random(n_nodes, avg_degree, seed)
    em = _TraceEmitter(n_records)
    rng = random.Random(seed ^ 0x5A5A5A)
    _KERNELS[kernel](graph, em, rng, _KERNEL_INDEX[kernel])
    input_name = name[len(kernel) + 1 :]
    # Inner loops may overshoot the limit by a couple of records; trim.
    n = min(n_records, len(em.pcs))
    return Trace(kernel, input_name, em.pcs[:n], em.lines[:n], em.gaps[:n], mlp=3)


def crono_suite(
    n_records: int = 300_000, scale: Optional[float] = None
) -> List[Trace]:
    """All nine Fig. 15 workloads."""
    return [make_crono_trace(name, n_records, scale) for name in CRONO_WORKLOADS]
