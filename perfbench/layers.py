"""Per-layer metrics derived from the traced run's spans.

:data:`LAYER_MAP` records, before any measurement, which end-to-end
metric each per-layer metric is expected to move and on which workload.
:func:`span_metrics` turns the spans of one traced round (the driver's
and every child process's) into the per-layer numbers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

from tracer import HOT_KEYS, LAYERS, SCHEME_KEYS, self_times

#: per-layer metric group -> (end-to-end metric it moves, workloads).
LAYER_MAP: Dict[str, Tuple[str, str]] = {
    "workloads.*": ("wall_s", "sweep_rerun most, then crono_cold (~15 %), barely spec_cold"),
    "profiler.* / analysis.*": ("wall_s", "spec_cold; wasted work on crono_cold"),
    "engine.*": ("wall_s", "spec_cold, crono_cold; barely sweep_rerun"),
    "prefetchers.*": ("wall_s", "spec_cold; not sweep_rerun"),
    "experiments.*": ("paper_gap_pp", "spec_cold, crono_cold"),
    "runner.* / cache.* / pool.*": ("wall_s, setup_s, latency_*",
                                    "sweep_rerun; latency on serve_mixed"),
    "api.*": ("wall_s", "sweep_rerun"),
    "serve.*": ("latency_*, req_per_s", "serve_mixed"),
}


class _Spans:
    """Index over (pid, span id) for parent lookups across processes."""

    def __init__(self, snapshots: List[Dict[str, Any]], t0: float, t1: float):
        self.items: List[Tuple[int, tuple]] = []
        self.by_id: Dict[Tuple[int, int], tuple] = {}
        self.selfs: Dict[Tuple[int, int], float] = {}
        for snap in snapshots:
            pid = snap["pid"]
            selfs = self_times(snap)
            for sp in snap["spans"]:
                if t0 <= sp[4] <= t1:
                    self.items.append((pid, sp))
                    self.by_id[(pid, sp[0])] = sp
                    self.selfs[(pid, sp[0])] = selfs[sp[0]]

    def named(self, name: str) -> List[tuple]:
        return [sp for _pid, sp in self.items if sp[2] == name]

    def outermost(self, layer: str) -> List[tuple]:
        """Spans of ``layer`` not nested in another span of that layer."""
        out = []
        for pid, sp in self.items:
            if sp[3] != layer:
                continue
            parent = self.by_id.get((pid, sp[1]))
            while parent is not None and parent[3] != layer:
                parent = self.by_id.get((pid, parent[1]))
            if parent is None:
                out.append(sp)
        return out

    def within(self, pid: int, sp: tuple, pred) -> float:
        """Seconds of ``sp``'s outermost descendants that match ``pred``."""
        kids = defaultdict(list)
        for p, s in self.items:
            if p == pid:
                kids[s[1]].append(s)
        total, todo = 0.0, list(kids[sp[0]])
        while todo:
            s = todo.pop()
            if pred(s):
                total += s[5] - s[4]
            else:
                todo.extend(kids[s[0]])
        return total


def coverage(spans: List[tuple], root: tuple) -> float:
    """Share of ``root``'s interval covered by the union of ``spans``."""
    t0, t1 = root[4], root[5]
    covered, edge = 0.0, t0
    for sp in sorted(spans, key=lambda sp: sp[4]):
        a, b = max(sp[4], edge), min(sp[5], t1)
        if b > a:
            covered += b - a
            edge = b
    return covered / (t1 - t0) if t1 > t0 else 0.0


def engine_by_job(snapshot: Dict[str, Any], windows: List[Tuple[float, float]]
                  ) -> Dict[str, float]:
    """Job key -> ``simulate`` seconds inside its ``execute_job`` span."""
    out: Dict[str, float] = defaultdict(float)
    for t0, t1 in windows:
        s = _Spans([snapshot], t0, t1)
        for pid, sp in s.items:
            if sp[2] == "execute_job":
                out[sp[8]["key"]] += s.within(pid, sp, lambda c: c[2] == "simulate")
    return out


def _dur(spans: List[tuple]) -> float:
    return sum(sp[5] - sp[4] for sp in spans)


def span_metrics(snapshots: List[Dict[str, Any]], t0: float, t1: float,
                 hot: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-layer metrics of the spans that started inside ``[t0, t1]``.

    ``hot`` is the observe-counter totals of the same window (the driver's
    delta plus every child process's totals).
    """
    s = _Spans(snapshots, t0, t1)
    m: Dict[str, float] = {}
    builds = s.outermost("workloads")
    m["workloads.trace_build_s"] = _dur(builds)
    m["workloads.trace_builds"] = len(builds)
    m["profiler.profile_s"] = _dur(s.named("profile"))
    analyze = s.named("analyze")
    m["analysis.analyze_s"] = _dur(analyze)
    m["analysis.hinted_pcs"] = sum(sp[8]["hinted_pcs"] for sp in analyze)
    m["analysis.enabled"] = sum(1 for sp in analyze if sp[8]["enabled"])
    sims = s.named("simulate")
    m["engine.simulate_s"] = _dur(sims)
    for key in SCHEME_KEYS.values():
        m[f"engine.simulate_s.{key}"] = _dur(
            [sp for sp in sims if sp[8]["scheme"] == key])
    m["engine.records"] = sum(sp[8]["records"] for sp in sims)
    for name, key in HOT_KEYS.items():
        sec, calls = hot.get(name, (0.0, 0))
        m[f"prefetchers.observe_s.{key}"] = sec
        m[f"prefetchers.observe_calls.{key}"] = calls
    m["runner.run_s"] = _dur(s.named("Runner.run"))
    execs = s.named("execute_job")
    m["runner.execute_job_s"] = _dur(execs)
    gets, puts = s.named("ResultCache.get"), s.named("ResultCache.put")
    m["cache.get_s"], m["cache.gets"] = _dur(gets), len(gets)
    m["cache.get_hits"] = sum(1 for sp in gets if sp[8]["hit"])
    m["cache.put_s"], m["cache.puts"] = _dur(puts), len(puts)

    # Progress start/done pairs, keyed by job, from every process.
    # runner.queue_wait_s is the mean, per started job, of the time from
    # the Runner.run call that submitted it to its start event.
    starts: Dict[str, float] = {}
    exec_s, waits = 0.0, []
    for snap in snapshots:
        for event, key, t, since in snap["progress"]:
            if not t0 <= t <= t1:
                continue
            if event == "start":
                starts[key] = t
                waits.append(since)
            elif event == "done" and key in starts:
                exec_s += t - starts.pop(key)
    m["runner.job_exec_s"] = exec_s
    m["runner.queue_wait_s"] = sum(waits) / len(waits) if waits else 0.0

    api_runs = [(pid, sp) for pid, sp in s.items if sp[2] == "api.run"]
    m["api.runs"] = len(api_runs)
    m["api.assemble_s"] = sum(
        (sp[5] - sp[4])
        - s.within(pid, sp, lambda c: c[2] == "Runner.run" or c[3] == "workloads")
        for pid, sp in api_runs
    )
    m["api.to_json_s"] = _dur(s.named("ExperimentResult.to_json"))

    per_layer = defaultdict(float)
    for pid, sp in s.items:
        per_layer[sp[3]] += s.selfs[(pid, sp[0])]
    per_layer["prefetchers"] += sum(sec for sec, _c in hot.values())
    for layer in LAYERS:
        m[f"self_s.{layer}"] = per_layer.get(layer, 0.0)
    return m


def hot_delta(after: Dict[str, List[float]],
              before: Dict[str, List[float]]) -> Dict[str, List[float]]:
    return {
        name: [sec - before.get(name, (0.0, 0))[0],
               calls - before.get(name, (0.0, 0))[1]]
        for name, (sec, calls) in after.items()
    }


def hot_sum(parts: List[Dict[str, List[float]]]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for part in parts:
        for name, (sec, calls) in part.items():
            out[name][0] += sec
            out[name][1] += calls
    return dict(out)


def result_metrics(suites: List[Any]) -> Dict[str, float]:
    """Prefetcher accuracy/coverage and geomean speedups from SimResults.

    Accuracy pools useful/issued prefetches over every workload; coverage
    is the mean of per-workload coverage over the baseline.
    """
    m: Dict[str, float] = {}
    for scheme in ("triangel", "prophet", "rpg2"):
        useful = issued = 0
        covs, speedups = [], []
        for suite in suites:
            for label in suite.labels:
                if not suite.has_cell(label, scheme):
                    continue
                r = suite.by_workload[label][scheme]
                useful += r.pf_useful
                issued += r.pf_issued
                covs.append(suite.coverage(label, scheme))
                speedups.append(suite.speedup(label, scheme))
        m[f"prefetchers.accuracy.{scheme}"] = useful / issued if issued else 0.0
        m[f"prefetchers.coverage.{scheme}"] = sum(covs) / len(covs) if covs else 0.0
        gm = 1.0
        for v in speedups:
            gm *= v
        m[f"experiments.speedup_gm.{scheme}"] = (
            gm ** (1.0 / len(speedups)) if speedups else 0.0
        )
    return m
