"""Additional SimPoint tests: clustering behaviour and checkpoint runs."""

import pytest

try:
    import numpy as np
except ImportError:  # every test here is requires_numpy (skipped without it)
    np = None

from repro.sim.config import default_config
from repro.sim.engine import run_simulation
from repro.workloads.simpoint import (
    _bbvs,
    _kmeans,
    run_with_checkpoints,
    select_checkpoints,
)
from repro.workloads.spec import make_spec_trace

pytestmark = pytest.mark.requires_numpy


class TestBBVs:
    def test_rows_l1_normalized(self):
        trace = make_spec_trace("gcc", "166", 30_000)
        mat = _bbvs(trace, 5_000)
        sums = mat.sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0)

    def test_interval_count(self):
        trace = make_spec_trace("gcc", "166", 30_000)
        mat = _bbvs(trace, 10_000)
        assert mat.shape[0] == 3


class TestKMeans:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        data = rng.random((30, 4))
        a = _kmeans(data, 3, seed=7)
        b = _kmeans(data, 3, seed=7)
        assert (a == b).all()

    def test_separable_clusters_found(self):
        data = np.vstack([np.zeros((10, 2)), np.ones((10, 2)) * 10])
        labels = _kmeans(data, 2, seed=1)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]


class TestCheckpointRuns:
    def test_run_with_checkpoints_close_to_full(self):
        """Weighted checkpoint IPC approximates the full-trace IPC."""
        cfg = default_config()
        trace = make_spec_trace("sphinx3", "an4", 60_000)

        def ipc_of(piece):
            return run_simulation(piece, cfg, None, "b", warmup_frac=0.2).ipc

        weighted = run_with_checkpoints(trace, ipc_of, interval=10_000)
        full = ipc_of(trace)
        assert weighted == pytest.approx(full, rel=0.35)

    def test_checkpoints_cover_distinct_regions(self):
        trace = make_spec_trace("gcc", "166", 80_000)
        cps = select_checkpoints(trace, interval=8_000, max_clusters=4)
        starts = [cp.start for cp in cps]
        assert len(set(starts)) == len(starts)
