"""Record a baseline of the benchmark and append it to the trajectory.

Runs every workload once per seed (untraced) and once traced, then
appends one entry to ``perfbench/baseline.json``: the machine stamp, each
end-to-end metric's median, quartiles and spread over the seeds, and the
traced run's per-layer metrics.  Usage, from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10 --label "<commit or note>"

The held-out seed named in the file is never used here; keep it for
checking a later claim on inputs the change was not tuned on.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "baseline.json"

#: Seed reserved for verifying later claims; no baseline or tuning uses it.
HELD_OUT_SEED = 9001


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    return result


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH))
    from layers import LAYER_MAP

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = seeds_of(args.seeds)
    if HELD_OUT_SEED in seeds:
        parser.error(f"seed {HELD_OUT_SEED} is held out; pick other seeds")
    entry = {
        "date": datetime.date.today().isoformat(), "label": args.label,
        "machine": machine(), "run_seconds": seconds, "seeds": seeds,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        values: dict = {}
        attempted = 0
        for seed in seeds:
            result = run(name, seed, seconds, 0)
            attempted += result["attempted"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            summary[metric] = {"median": statistics.median(vs), "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / statistics.median(vs),
                               "values": vs}
        traced = run(name, seeds[0], seconds, 1)
        entry["workloads"][name] = {
            "why": w["why"], "attempted": attempted, "failed": 0,
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    doc = json.loads(OUT.read_text()) if OUT.exists() else {
        "held_out_seed": HELD_OUT_SEED,
        "layer_map": {k: {"moves": e2e, "on": where} for k, (e2e, where) in LAYER_MAP.items()},
        "trajectory": [],
    }
    doc["trajectory"].append(entry)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    for name, wl in entry["workloads"].items():
        for metric, s in wl["end_to_end"].items():
            print(f"{name:12s} {metric:12s} median={s['median']:.4g} spread={s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
