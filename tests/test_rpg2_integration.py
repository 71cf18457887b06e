"""Integration tests for the RPG2 workflow (kernel id + tuning + run)."""

from repro.runner.schemes import SCHEMES
from repro.sim.config import default_config
from repro.sim.engine import run_simulation
from repro.workloads.base import (
    AddressSpace,
    QuasiSequentialComponent,
    TemporalChainComponent,
    build_trace,
)
from repro.workloads.crono import make_crono_trace
from repro.workloads.spec import make_spec_trace

import random


def rpg2(trace, cfg, base):
    """The runner's RPG2 builder: kernel selection + distance tuning."""
    return SCHEMES["rpg2"].prefetcher(trace, cfg, {"base": base}, {})


class TestRPG2OnSyntheticKernels:
    def quasi_trace(self, n=40_000):
        space = AddressSpace()
        comp = QuasiSequentialComponent(0x55, space, length=1 << 16, gap=4)
        return build_trace("quasi", "x", [comp], n, seed=3)

    def test_qualifies_and_speeds_up_quasi_sequential(self):
        cfg = default_config()
        trace = self.quasi_trace()
        base = run_simulation(trace, cfg, None, "baseline")
        pf = rpg2(trace, cfg, base)
        assert pf.kernels  # the scan qualifies
        res = run_simulation(trace, cfg, pf, "rpg2")
        assert res.speedup_over(base) > 1.02

    def test_no_kernels_on_pointer_chasing(self):
        """The Section 5.2 analysis: SPEC-style irregular workloads give
        RPG2 nothing to work with."""
        cfg = default_config()
        rng = random.Random(4)
        space = AddressSpace()
        comp = TemporalChainComponent(0x66, space, rng, n_chains=300,
                                      chain_len=48, repeat_prob=0.9)
        trace = build_trace("chase", "x", [comp], 30_000, seed=4)
        base = run_simulation(trace, cfg, None, "baseline")
        pf = rpg2(trace, cfg, base)
        assert not pf.kernels

    def test_spec_personas_mostly_unqualified(self):
        cfg = default_config()
        trace = make_spec_trace("mcf", "inp", 40_000)
        base = run_simulation(trace, cfg, None, "baseline")
        pf = rpg2(trace, cfg, base)
        res = run_simulation(trace, cfg, pf, "rpg2")
        # ~no gain on irregular SPEC (the Fig. 10 RPG2 bars).
        assert abs(res.speedup_over(base) - 1.0) < 0.05

    def test_tuned_distance_within_search_range(self):
        cfg = default_config()
        trace = self.quasi_trace()
        base = run_simulation(trace, cfg, None, "baseline")
        pf = rpg2(trace, cfg, base)
        for kernel in pf.kernels.values():
            assert 1 <= kernel.distance <= 64

    def test_graph_workload_gains(self):
        cfg = default_config()
        trace = make_crono_trace("pagerank_100000_100", 60_000)
        base = run_simulation(trace, cfg, None, "baseline")
        pf = rpg2(trace, cfg, base)
        res = run_simulation(trace, cfg, pf, "rpg2")
        assert res.speedup_over(base) >= 1.0
