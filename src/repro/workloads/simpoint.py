"""SimPoint-style checkpoint selection (Sherwood et al., ASPLOS 2002).

The paper samples SPEC workloads with SimPoint: execution is divided into
fixed-size intervals, each summarized by a basic-block vector (BBV), the
vectors are clustered, and one representative interval per cluster is
simulated with its cluster's weight.  Reported metrics are weighted
averages over checkpoints (Section 5.1).

For traces, the natural BBV analogue is the per-interval *PC histogram*.
We cluster with a small deterministic k-means (numpy, imported on first
clustering so the module loads without it) and return representative
intervals plus weights; :func:`weighted_aggregate` combines per-checkpoint
metrics the way the paper aggregates per-benchmark results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Sequence

from .base import Trace

if TYPE_CHECKING:
    from numpy import ndarray


@dataclass
class Checkpoint:
    """One representative interval and its cluster weight."""

    start: int
    stop: int
    weight: float

    def slice_of(self, trace: Trace) -> Trace:
        return trace.interval(self.start, self.stop)


def _bbvs(trace: Trace, interval: int) -> ndarray:
    """Per-interval PC-histogram vectors, L1-normalized."""
    import numpy as np

    pcs = trace.pcs
    unique = sorted(set(pcs))
    col = {pc: i for i, pc in enumerate(unique)}
    n_intervals = max(1, len(pcs) // interval)
    mat = np.zeros((n_intervals, len(unique)))
    for i in range(n_intervals):
        for pc in pcs[i * interval : (i + 1) * interval]:
            mat[i, col[pc]] += 1
    sums = mat.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1
    return mat / sums


def _kmeans(data: ndarray, k: int, seed: int, iters: int = 25) -> ndarray:
    """Deterministic Lloyd's k-means; returns cluster labels."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = data.shape[0]
    centers = data[rng.choice(n, size=k, replace=False)]
    labels = np.zeros(n, dtype=int)
    for _ in range(iters):
        dists = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if (new_labels == labels).all():
            break
        labels = new_labels
        for c in range(k):
            members = data[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    return labels


def select_checkpoints(
    trace: Trace, interval: int = 10_000, max_clusters: int = 5, seed: int = 1
) -> List[Checkpoint]:
    """Pick representative intervals covering the trace's phases.

    Returns one checkpoint per cluster, weighted by the fraction of
    intervals the cluster covers.  Short traces (fewer than two intervals)
    yield a single full-trace checkpoint.
    """
    n = len(trace)
    if n < 2 * interval:
        return [Checkpoint(0, n, 1.0)]
    import numpy as np

    data = _bbvs(trace, interval)
    n_intervals = data.shape[0]
    k = min(max_clusters, n_intervals)
    labels = _kmeans(data, k, seed)
    checkpoints: List[Checkpoint] = []
    for c in range(k):
        members = np.flatnonzero(labels == c)
        if len(members) == 0:
            continue
        center = data[members].mean(axis=0)
        rep = int(members[np.argmin(((data[members] - center) ** 2).sum(axis=1))])
        checkpoints.append(
            Checkpoint(rep * interval, (rep + 1) * interval, len(members) / n_intervals)
        )
    return checkpoints


def weighted_aggregate(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weight-normalized average, as the paper aggregates checkpoints."""
    if len(values) != len(weights) or not values:
        raise ValueError("values and weights must be equal-length, non-empty")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return sum(v * w for v, w in zip(values, weights)) / total


def run_with_checkpoints(
    trace: Trace,
    run_fn: Callable[[Trace], float],
    interval: int = 10_000,
    max_clusters: int = 5,
) -> float:
    """Run ``run_fn`` on each checkpoint and weight-average the results."""
    checkpoints = select_checkpoints(trace, interval, max_clusters)
    values = [run_fn(cp.slice_of(trace)) for cp in checkpoints]
    return weighted_aggregate(values, [cp.weight for cp in checkpoints])
