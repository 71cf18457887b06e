#!/usr/bin/env python3
"""Graph analytics: when does software prefetching compete? (Fig. 15)

Runs pagerank from the CRONO suite under all three schemes.  Graph
kernels are the one domain where RPG2's software prefetching works —
CSR neighbour scans are stride-analyzable — while the irregular
rank-vector accesses still need a temporal prefetcher.  The example
prints which PCs RPG2 qualified, the tuned prefetch distance, and the
per-scheme results.

Run:  python examples/graph_analytics.py [n_records]
"""

import sys

from repro.core.pipeline import OptimizedBinary
from repro.prefetchers.rpg2 import identify_kernels
from repro.prefetchers.triangel import TriangelPrefetcher
from repro.runner.schemes import SCHEMES
from repro.sim.config import default_config
from repro.sim.engine import run_simulation
from repro.workloads.crono import make_crono_trace


def main(n_records: int = 200_000) -> None:
    config = default_config()
    trace = make_crono_trace("pagerank_100000_100", n_records)
    print(f"workload: {trace.label}  ({len(trace):,} records)")

    baseline = run_simulation(trace, config, None, "baseline")
    print(f"baseline   ipc={baseline.ipc:.3f}")

    kernels = identify_kernels(trace.pcs, trace.lines, baseline.miss_by_pc)
    print(f"RPG2 qualified {len(kernels)} prefetch kernel(s): "
          + ", ".join(f"pc={k.pc:#x} stride={k.stride}" for k in kernels))
    rpg2 = SCHEMES["rpg2"].prefetcher(trace, config, {"base": baseline}, {})
    if rpg2.kernels:
        distance = next(iter(rpg2.kernels.values())).distance
        print(f"binary-search tuned distance: {distance}")
    r_rpg2 = run_simulation(trace, config, rpg2, "rpg2")
    print(f"rpg2       ipc={r_rpg2.ipc:.3f}  "
          f"speedup={r_rpg2.speedup_over(baseline):.3f}")

    r_tg = run_simulation(trace, config, TriangelPrefetcher(config), "triangel")
    print(f"triangel   ipc={r_tg.ipc:.3f}  "
          f"speedup={r_tg.speedup_over(baseline):.3f}")

    binary = OptimizedBinary.from_profile(trace, config)
    r_pr = run_simulation(trace, config, binary.prefetcher(config), "prophet")
    print(f"prophet    ipc={r_pr.ipc:.3f}  "
          f"speedup={r_pr.speedup_over(baseline):.3f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200_000)
