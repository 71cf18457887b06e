"""End-to-end benchmark of the Prophet reproduction, with per-layer attribution.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spec_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

``--trace 0`` measures the end-to-end metrics with no instrumentation:
rounds of the workload repeat until ``--seconds`` are used (at least
one), and every metric is reported as the median over rounds with its
sample count.  ``--trace 1`` runs one plain round and one traced round of
the same inputs, reports the per-layer metrics of the traced round, the
tracing overhead, and writes the spans as Chrome trace-event JSON under
``.perfbench/`` (open it in https://ui.perfetto.dev).

Both modes check the program's outputs (see each workload's ``check``)
and exit non-zero on any mismatch.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as now

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: The end-to-end metrics every workload reports (BENCHMARK.json order).
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

#: Per-layer metrics every workload's traced run reports.
PER_LAYER = (
    "workloads.trace_build_s", "workloads.trace_builds",
    "profiler.profile_s", "analysis.analyze_s", "analysis.hinted_pcs",
    "engine.simulate_s", "engine.simulate_s.baseline", "engine.simulate_s.triangel",
    "engine.simulate_s.rpg2", "engine.simulate_s.profile", "engine.simulate_s.prophet",
    "engine.records", "engine.batched_vs_flat",
    "prefetchers.observe_s.triangel", "prefetchers.observe_s.triage_profile",
    "prefetchers.observe_s.prophet", "prefetchers.observe_calls.triangel",
    "prefetchers.observe_calls.triage_profile", "prefetchers.observe_calls.prophet",
    "prefetchers.accuracy.triangel", "prefetchers.accuracy.prophet",
    "prefetchers.coverage.triangel", "prefetchers.coverage.prophet",
    "experiments.speedup_gm.prophet", "experiments.speedup_gm.triangel",
    "experiments.speedup_gm.rpg2",
    "runner.run_s", "runner.executed", "runner.cache_hits", "runner.job_exec_s",
    "runner.queue_wait_s", "cache.gets", "cache.puts",
    "self_s.workloads", "self_s.core.profiler", "self_s.core.analysis",
    "self_s.sim.engine", "self_s.prefetchers", "self_s.runner", "self_s.experiments",
    "bench.span_coverage", "bench.trace_overhead_frac",
)

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "paper_gap_pp": "pp", "req_per_s": "1/s",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or "_ms(" in name:
        return "ms"
    if name.endswith("_s") or "_s." in name or name.startswith("self_s."):
        return "s"
    if name.endswith(("_frac", "_ratio", "_eff")) or name.startswith(
            ("prefetchers.accuracy", "prefetchers.coverage", "experiments.speedup",
             "engine.batched_vs_flat", "bench.span_coverage")):
        return "ratio"
    if name == "cache.bytes":
        return "bytes"
    return "count"


def import_probe() -> float:
    """Seconds for a fresh interpreter to import the program's layers."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = now()
    subprocess.run(
        [sys.executable, "-c",
         "import repro.api, repro.experiments, repro.runner, repro.serve"],
        env=env, check=True, cwd=str(ROOT),
    )
    return now() - t


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(wl, seconds: float):
    rounds = []
    start = now()
    while True:
        rounds.append(wl.run_round(traced=False))
        elapsed = now() - start
        if elapsed >= seconds or elapsed * (len(rounds) + 1) / len(rounds) > 1.3 * seconds:
            return rounds


def traced_run(wl):
    import tracer
    from layers import coverage, hot_delta, hot_sum, span_metrics

    plain = wl.run_round(traced=False)
    rec = tracer.install(tracer.Recorder("traced"))
    try:
        hot0 = rec.hot_totals()
        traced = wl.run_round(traced=True)
        hot = hot_sum([hot_delta(rec.hot_totals(), hot0)]
                      + [c["hot"] for c in traced.children])
        # The check's spans (the flat re-execution) sit under their own root.
        chk = rec.span(f"{wl.name}.check", "bench", wl.check)([plain, traced], full=True)
        snaps = [rec.snapshot()] + traced.children
    finally:
        tracer.uninstall()
    m = span_metrics(snaps, traced.t0, traced.t1, hot)
    m.update(wl.layer_extra([plain, traced], traced, m))
    m["engine.batched_vs_flat"] = batched_vs_flat(snaps[0], chk)
    spans = snaps[0]["spans"]
    root = next(sp for sp in spans if sp[2] == f"{wl.name}.round")
    m["bench.span_coverage"] = coverage(
        [sp for sp in spans if sp[3] != "bench"], root)
    m["bench.trace_overhead_frac"] = traced.wall / plain.wall - 1.0
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    trace_file.write_text(json.dumps(tracer.chrome_trace(snaps)))
    return plain, traced, m, chk, trace_file


def batched_vs_flat(snapshot, chk) -> float:
    """Engine seconds of the default rung over the flat loop, same jobs.

    Both sides are serial executions in this process: per job (by cache
    key) the ``simulate`` time inside its ``execute_job`` span in the
    check's default-rung windows, against its flat re-execution.
    """
    from layers import engine_by_job

    default = engine_by_job(snapshot, chk.windows["default"])
    flat = engine_by_job(snapshot, chk.windows["flat"])
    common = [k for k in default if flat.get(k, 0.0) > 0]
    den = sum(flat[k] for k in common)
    return sum(default[k] for k in common) / den if den else 0.0


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_all(args, names) -> int:
    """Every workload, each in a fresh interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            combined["correct"] = False
        if result is not None:
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    from scenarios import WORKLOADS  # imports no program code

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_TRACE_DIR", None)  # catalog workloads only

    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, scratch)
    try:
        probes = [import_probe() for _ in range(3)]
        t = now()
        wl.prepare()
        prepare_s = now() - t
        if args.trace:
            plain, traced, layer, chk, trace_file = traced_run(wl)
            rounds = [plain]
        else:
            rounds = measure(wl, args.seconds)
            chk = wl.check(rounds, full=False)
        extra, lines = wl.report(rounds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    e2e = {
        "wall_s": (statistics.median(r.wall for r in rounds), "s", len(rounds)),
        "setup_s": (statistics.median(probes) + statistics.median(r.setup for r in rounds),
                    "s", len(probes)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "failed_frac": (chk.failed / max(1, chk.attempted), "ratio", chk.attempted),
    }
    e2e.update(extra)

    print(f"== perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"(prepare {prepare_s:.2f} s, untimed)")
    for line in lines:
        print(line)
    print("rounds: wall_s " + " ".join(f"{r.wall:.3f}" for r in rounds)
          + "  setup_s " + " ".join(f"{r.setup:.3f}" for r in rounds)
          + "  import probes " + " ".join(f"{p:.3f}" for p in probes))
    print(f"{'metric':34s} {'value':>14s} {'unit':>6s} {'n':>4s}")
    for name, (value, unit, n) in e2e.items():
        print(f"{name:34s} {fmt(value):>14s} {unit:>6s} {n:>4d}")
    for note in chk.notes[:20]:
        print(note)
    if args.trace:
        from layers import LAYER_MAP

        print("expected effects (per-layer group -> end-to-end metric: workloads)")
        for group, (e2e_name, where) in LAYER_MAP.items():
            print(f"  {group:28s} -> {e2e_name}: {where}")
        print(f"per-layer metrics (traced round; spans in {trace_file.relative_to(ROOT)})")
        for name in sorted(layer):
            print(f"  {name:44s} {fmt(layer[name]):>14s} {unit_of(name)}")
        metrics = {name: {"value": layer[name], "unit": unit_of(name)} for name in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in END_TO_END}
    correct = chk.failed == 0
    print(json.dumps({"correct": correct, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
