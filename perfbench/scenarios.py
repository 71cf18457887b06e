"""The benchmark's four workloads.

Each workload is a sequence of *rounds*.  A round has a set-up (pool
boot, server start, cache restore; reported in ``setup_s``), then the
work ``wall_s`` measures, then a teardown.  Every round starts from the
same state: in-process memos are cleared, caches are restored from the
same snapshot, servers start on an empty cache directory.

``--seed`` only chooses the generated inputs:

- ``spec_cold`` / ``crono_cold``: the per-workload generator seeds of
  the SPEC personas and CRONO graphs (seed 0 = the catalog's canonical
  seeds, so at equal length the numbers equal ``api.run("fig10")``);
- ``sweep_rerun``: the trace length of the sweep (seed 0 = 8000
  records; other seeds pick one of 25 nearby lengths, each a different
  set of traces);
- ``serve_mixed``: the request mix: workloads, schemes, lengths, order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as now
from typing import Any, Dict, List, Optional, Tuple

import paper
import tracer
from layers import result_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "hook"


def derive(seed: int, *parts: Any) -> int:
    """A stable positive 31-bit seed from the run seed and a name."""
    blob = "|".join(str(p) for p in (seed,) + parts).encode()
    return (int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") & 0x7FFFFFFF) | 1


def clear_memos() -> None:
    """Forget every in-process memo so a round starts from cold state."""
    from repro.experiments import common, fig15_graph
    from repro.runner import jobs

    common._SPEC_MEMO.clear()
    fig15_graph._MEMO.clear()
    jobs._RESOLVE_MEMO.clear()


def child_env(spans_dir: Optional[Path]) -> Dict[str, str]:
    """Environment for a child process; traced children load the hook."""
    env = dict(os.environ)
    paths = [str(SRC)]
    if spans_dir is not None:
        paths.insert(0, str(HOOK))
        env[tracer.ENV_DIR] = str(spans_dir)
        env[tracer.ENV_RUN] = "traced"
    else:
        env.pop(tracer.ENV_DIR, None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def canonical_payload(blob: str) -> str:
    """An ExperimentResult JSON minus its wall-clock and execution fields."""
    d = json.loads(blob)
    d["elapsed_seconds"] = 0.0
    d["execution"] = None
    return json.dumps(d, sort_keys=True)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Round:
    wall: float
    setup: float
    t0: float
    t1: float
    data: Dict[str, Any] = field(default_factory=dict)
    children: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    #: In-process serial executions on each engine rung, as (t0, t1)
    #: windows, for the default-vs-flat host-time ratio.
    windows: Dict[str, list] = field(
        default_factory=lambda: {"default": [], "flat": []})

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"MISMATCH: {what}")


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.spans_dir = scratch / "spans"

    def prepare(self) -> None:
        """Untimed preparation shared by every round (inputs, snapshots)."""

    def setup_round(self, traced: bool) -> Dict[str, Any]:
        return {}

    def work(self, ctx: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def teardown(self, ctx: Dict[str, Any], data: Dict[str, Any]) -> None:
        """Release the round's resources; may add to ``data``."""

    def run_round(self, traced: bool) -> Round:
        clear_memos()
        if traced:
            shutil.rmtree(self.spans_dir, ignore_errors=True)
        a = now()
        ctx = self.setup_round(traced)
        b = now()
        work = self.work
        if traced:
            work = tracer.RECORDER.span(f"{self.name}.round", "bench", work)
        data = work(ctx)
        c = now()
        self.teardown(ctx, data)
        d = now()
        children = tracer.load_dir(self.spans_dir) if traced else []
        return Round(wall=c - b, setup=b - a, t0=a, t1=d, data=data,
                     children=children)

    def check(self, rounds: List[Round], full: bool) -> Check:
        raise NotImplementedError

    def report(self, rounds: List[Round]) -> Tuple[Dict[str, tuple], List[str]]:
        """Workload-specific end-to-end metrics ``name -> (value, unit, n)``
        and human-readable lines."""
        return {}, []

    def layer_extra(self, rounds: List[Round], traced: Round,
                    spans: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics read from the program's outputs and counters;
        ``spans`` holds the ones already derived from the traced round."""
        return {}


# ----------------------------------------------------------------------
# spec_cold / crono_cold
# ----------------------------------------------------------------------
class SuiteWorkload(Workload):
    """A whole figure suite on a serial inline Runner with no result cache."""

    suite = ""
    records = 30_000

    def labels(self) -> List[str]:
        raise NotImplementedError

    def make(self, label: str, gen_seed: Optional[int]):
        raise NotImplementedError

    def gen_seed(self, label: str) -> Optional[int]:
        return None if self.seed == 0 else derive(self.seed, self.suite, label)

    def build_traces(self) -> list:
        return [self.make(label, self.gen_seed(label)) for label in self.labels()]

    def setup_round(self, traced: bool) -> Dict[str, Any]:
        from repro.runner import ExecutionPolicy

        progress = tracer.RECORDER.on_progress if traced else None
        return {"runner": ExecutionPolicy(pool="inline", progress=progress).make_runner()}

    def work(self, ctx):
        from repro.experiments.common import evaluate_suite

        traces = self.build_traces()
        suite = evaluate_suite(traces, runner=ctx["runner"])
        return {"traces": traces, "suite": suite}

    def teardown(self, ctx, data) -> None:
        data["stats"] = ctx["runner"].stats.to_dict()
        ctx["runner"].close()

    def check(self, rounds: List[Round], full: bool) -> Check:
        from repro.experiments.common import DEFAULT_SCHEMES, evaluate_suite
        from repro.runner import ExecutionPolicy

        chk = Check()
        ref = rounds[0].data["suite"]
        labels = self.labels()
        for r in rounds:
            suite = r.data["suite"]
            chk.expect(not suite.failures, f"{len(suite.failures)} job failure(s)")
            for label in labels:
                for scheme in ["baseline"] + list(DEFAULT_SCHEMES):
                    got = cell(suite, label, scheme)
                    ok = (got is not None and got["cycles"] > 0
                          and got["instructions"] > 0
                          and got == cell(ref, label, scheme))
                    chk.expect(ok, f"{label}/{scheme} missing, empty or not repeatable")
        # The default engine rung against the flat scalar loop: every job in
        # the traced run, one seed-chosen workload otherwise.
        traces = rounds[0].data["traces"]
        if full:
            chk.windows["default"].append((rounds[-1].t0, rounds[-1].t1))
        else:
            traces = [traces[derive(self.seed, "check") % len(traces)]]
        t0 = now()
        with engine_rung(True):
            flat = evaluate_suite(
                traces, runner=ExecutionPolicy(pool="inline").make_runner())
        chk.windows["flat"].append((t0, now()))
        for trace in traces:
            for scheme in ["baseline"] + list(DEFAULT_SCHEMES):
                chk.expect(
                    cell(flat, trace.label, scheme) == cell(ref, trace.label, scheme),
                    f"{trace.label}/{scheme}: simulate() != run_simulation()")
        return chk

    def report(self, rounds):
        suite = rounds[0].data["suite"]
        gap = paper.gap_pp(self.suite, suite)
        return ({"paper_gap_pp": (gap, "pp", 1)}, paper.report(self.suite, suite))

    def layer_extra(self, rounds, traced, spans):
        m = result_metrics([traced.data["suite"]])
        stats = traced.data["stats"]
        m["runner.executed"] = stats["executed"]
        m["runner.cache_hits"] = stats["cache_hits"]
        m["runner.hit_ratio"] = 0.0  # no result cache on this workload
        return m


class SpecCold(SuiteWorkload):
    name = "spec_cold"
    why = ("Fig. 10: seven SPEC personas x {baseline, rpg2, triangel, profile->prophet}, "
           "serial and uncached; engine-bound headline figure")
    suite = "spec"
    records = 30_000

    def labels(self):
        from repro.workloads.spec import SPEC_WORKLOADS

        return [f"{app}_{inp}" for app, inp in SPEC_WORKLOADS]

    def make(self, label, gen_seed):
        from repro.workloads.spec import make_spec_trace

        app, _, inp = label.partition("_")
        return make_spec_trace(app, inp, self.records, seed=gen_seed)


class CronoCold(SuiteWorkload):
    name = "crono_cold"
    why = ("Fig. 15: nine CRONO graphs at the figure's pinned scale; graph build, "
           "RPG2 tuning and mostly-idle Prophet hints weigh differently")
    suite = "crono"
    records = 30_000

    def labels(self):
        from repro.workloads.crono import CRONO_WORKLOADS

        return list(CRONO_WORKLOADS)

    def make(self, label, gen_seed):
        from repro.experiments.fig15_graph import DEFAULT_SCALE
        from repro.workloads.crono import make_crono_trace

        return make_crono_trace(label, self.records, DEFAULT_SCALE, seed=gen_seed)


@contextmanager
def engine_rung(flat: bool):
    """With ``flat``, route ``simulate`` to the flat ``run_simulation`` loop."""
    if not flat:
        yield
        return
    own = tracer.RECORDER is None
    if own:
        tracer.install(tracer.Recorder("flat-check"))
    tracer.RECORDER.flat = True
    try:
        yield
    finally:
        tracer.RECORDER.flat = False
        if own:
            tracer.uninstall()


def cell(suite, label: str, scheme: str) -> Optional[dict]:
    """One (workload, scheme) SimResult as a dict, or None when absent."""
    result = suite.by_workload.get(label, {}).get(scheme)
    return None if result is None else result.to_dict()


# ----------------------------------------------------------------------
# sweep_rerun
# ----------------------------------------------------------------------
class SweepRerun(Workload):
    """A ``cli all``-style re-run of the SPEC-derived experiments."""

    name = "sweep_rerun"
    why = ("cli-all-style re-run of fig10-12/17/18 via api.run on a 2-worker loopback "
           "pool; cache reads beside new config-variant jobs and writes")
    experiments = ("fig10", "fig11", "fig12", "fig17", "fig18")

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.records = 8000 + (0 if seed == 0 else 8 * (derive(seed, "records") % 25))
        self.snapshot = scratch / "snapshot"
        self.live = scratch / "live"

    def prepare(self) -> None:
        import repro.api as api
        from repro.runner import ExecutionPolicy

        clear_memos()
        self.fill = api.run("fig10", records=self.records,
                            execution=ExecutionPolicy(pool="inline", cache_dir=str(self.snapshot)))

    def setup_round(self, traced):
        from repro.runner import ExecutionPolicy

        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.snapshot, self.live)
        saved = {k: os.environ.get(k) for k in ("PYTHONPATH", tracer.ENV_DIR, tracer.ENV_RUN)}
        if traced:  # the loopback workers inherit this environment
            os.environ.update({k: child_env(self.spans_dir)[k]
                               for k in ("PYTHONPATH", tracer.ENV_DIR, tracer.ENV_RUN)})
        try:
            t = now()
            runner = ExecutionPolicy(
                pool="loopback:2", jobs=2, cache_dir=str(self.live),
                progress=tracer.RECORDER.on_progress if traced else None,
            ).make_runner()
            boot = now() - t
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return {"runner": runner, "boot": boot}

    def work(self, ctx):
        import repro.api as api

        blobs = {}
        for name in self.experiments:
            blobs[name] = api.run(name, records=self.records, runner=ctx["runner"]).to_json()
        return {"blobs": blobs}

    def teardown(self, ctx, data):
        runner = ctx["runner"]
        data["stats"] = runner.stats.to_dict()
        data["probe_hits"] = runner.pool_info().get("cache_probe_hits") or 0
        data["boot"] = ctx["boot"]
        runner.close()
        data["cache_bytes"] = dir_bytes(self.live)

    def reference(self, ref_dir: Path, names, flat: bool) -> Dict[str, str]:
        """Fresh serial inline compute of ``names`` into cache ``ref_dir``."""
        import repro.api as api
        from repro.runner import ExecutionPolicy

        clear_memos()
        policy = ExecutionPolicy(pool="inline", cache_dir=str(ref_dir))
        with engine_rung(flat):
            return {
                name: canonical_payload(
                    api.run(name, records=self.records, execution=policy).to_json())
                for name in names
            }

    def check(self, rounds, full):
        chk = Check()
        live = {p.name: p.read_bytes() for p in self.live.glob("*.json")}
        # Untraced runs reuse the snapshot, itself a fresh inline compute of
        # fig10's jobs; the traced run recomputes everything on both rungs.
        passes = (("default", False), ("flat", True)) if full else (("default", False),)
        for tag, flat in passes:
            ref_dir = self.scratch / f"reference-{tag}"
            shutil.rmtree(ref_dir, ignore_errors=True)
            names = self.experiments
            if not full:
                shutil.copytree(self.snapshot, ref_dir)
                names = tuple(n for n in names if n != "fig10")
            t0 = now()
            ref = self.reference(ref_dir, names, flat)
            chk.windows[tag].append((t0, now()))
            ref.setdefault("fig10", canonical_payload(self.fill.to_json()))
            for r in rounds:
                for name, blob in r.data["blobs"].items():
                    chk.expect(canonical_payload(blob) == ref[name],
                               f"{name} result != fresh {tag} inline compute")
            want = {p.name: p.read_bytes() for p in ref_dir.glob("*.json")}
            chk.expect(set(live) == set(want),
                       f"cache keys differ: {len(set(live) ^ set(want))} unmatched")
            for key, blob in want.items():
                chk.expect(live.get(key) == blob,
                           f"cached payload {key[:12]} != fresh {tag} compute")
        return chk

    def report(self, rounds):
        from repro.api import ExperimentResult

        suite = ExperimentResult.from_json(rounds[0].data["blobs"]["fig10"]).payload
        stats = rounds[0].data["stats"]
        lines = [f"records={self.records}  jobs/round: {stats['cache_hits']} cache hits, "
                 f"{stats['executed']} executed"]
        lines += paper.report("spec", suite)
        return {}, lines

    def layer_extra(self, rounds, traced, spans):
        from repro.api import ExperimentResult

        stats = traced.data["stats"]
        total = stats["cache_hits"] + stats["executed"]
        m = result_metrics([ExperimentResult.from_json(traced.data["blobs"]["fig10"]).payload])
        m["runner.executed"] = stats["executed"]
        m["runner.cache_hits"] = stats["cache_hits"]
        m["runner.hit_ratio"] = stats["cache_hits"] / total if total else 0.0
        m["cache.bytes"] = traced.data["cache_bytes"]
        boots = sorted(r.data["boot"] for r in rounds)
        m["pool.boot_s"] = boots[len(boots) // 2]
        m["pool.probe_hits"] = traced.data["probe_hits"]
        worker_exec = sum(
            sp[5] - sp[4] for c in traced.children for sp in c["spans"]
            if sp[2] == "execute_job")
        m["pool.worker_exec_s"] = worker_exec
        # Share of the two workers' time inside Runner.run spent executing.
        run_s = spans["runner.run_s"]
        m["pool.parallel_eff"] = worker_exec / (2 * run_s) if run_s else 0.0
        return m


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
class ServeMixed(Workload):
    """Two closed-loop clients against a ``repro.cli serve`` subprocess."""

    name = "serve_mixed"
    why = ("2 closed-loop clients vs a repro.cli serve subprocess (2 workers, fresh "
           "cache): duplicate, shared-job and fresh requests; the queueing path")
    clients = 2

    def prepare(self) -> None:
        from repro.experiments.common import spec_labels

        # Every seed asks for the same work: each Fig. 10 persona under each
        # scheme, one request apiece.  The seed picks each request's trace
        # length (5000-5196 records) and the order of the mix.  Lengths are
        # distinct, so fresh requests share no job (two fresh requests
        # racing for one baseline would make the work depend on timing).
        rng = random.Random(derive(self.seed, "mix"))
        lengths = rng.sample(range(5000, 5200, 4), 21)
        fresh = [
            {"experiment": "fig10", "records": lengths.pop(),
             "workloads": [label], "schemes": [scheme]}
            for label in spec_labels() for scheme in ("prophet", "triangel", "rpg2")
        ]
        rng.shuffle(fresh)
        # Each fresh request has an exact duplicate (serve dedup) and a
        # fig11 twin over the same jobs (runner-cache reads).  They come
        # after every fresh request, in seeded order, the twins of the last
        # two fresh requests last, so a twin never races its original.
        n = len(fresh)
        derived = [(kind, k) for k in range(n - 2) for kind in ("dup", "shared")]
        tail = [(kind, k) for k in range(n - 2, n) for kind in ("dup", "shared")]
        rng.shuffle(derived)
        rng.shuffle(tail)
        seq = [("fresh", k) for k in range(n)] + derived + tail
        self.fresh_reqs = fresh
        self.mix = [(kind, self.payload(kind, k)) for kind, k in seq]

    def payload(self, kind: str, k: int) -> Dict[str, Any]:
        p = dict(self.fresh_reqs[k])
        if kind == "shared":
            p["experiment"] = "fig11"
        return p

    def setup_round(self, traced):
        from repro.serve import ServeClient

        cache = self.scratch / "serve-cache"
        shutil.rmtree(cache, ignore_errors=True)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(cache)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=child_env(self.spans_dir if traced else None), cwd=str(ROOT),
        )
        line = proc.stdout.readline()
        if "serving on" not in line:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"serve did not start: {line!r}")
        url = line.split()[2]
        client = ServeClient(url, timeout=60.0)
        client.health()
        return {"proc": proc, "url": url, "client": client}

    def work(self, ctx):
        from repro.serve import ServeClient

        lock = threading.Lock()
        cursor = iter(range(len(self.mix)))
        samples: List[Dict[str, Any]] = []

        def loop() -> None:
            client = ServeClient(ctx["url"], timeout=60.0)
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                kind, payload = self.mix[i]
                t = now()
                sample = {"i": i, "kind": kind}
                try:
                    status, body = client.submit(payload)
                    sample["status"] = status
                    if "job" not in body:
                        raise RuntimeError(f"rejected ({status})")
                    summary = client.wait(body["job"]["id"], timeout=120.0)
                    sample["summary"] = summary
                    sample["bytes"] = client.result_bytes(body["job"]["id"])
                    sample["deduped"] = bool(body.get("deduped"))
                except Exception as exc:  # noqa: BLE001 - counted as a failure
                    sample["error"] = f"{type(exc).__name__}: {exc}"
                sample["latency"] = now() - t
                with lock:
                    samples.append(sample)

        threads = [threading.Thread(target=loop) for _ in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return {"samples": samples}

    def teardown(self, ctx, data):
        client, proc = ctx["client"], ctx["proc"]
        try:
            data["stats"] = client.stats()
            client.shutdown()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        data["cache_bytes"] = dir_bytes(self.scratch / "serve-cache")

    def expected(self, ref_cache: Path, flat: bool) -> Dict[int, bytes]:
        """Mix index -> canonical bytes of an in-process ``api.run``."""
        import repro.api as api
        from repro.runner import ExecutionPolicy
        from repro.serve import canonical_result_json

        clear_memos()
        policy = ExecutionPolicy(pool="inline", cache_dir=str(ref_cache))
        by_request: Dict[str, bytes] = {}
        out: Dict[int, bytes] = {}
        with engine_rung(flat):
            for i, (_kind, p) in enumerate(self.mix):
                key = json.dumps(p, sort_keys=True)
                if key not in by_request:
                    by_request[key] = canonical_result_json(api.run(
                        p["experiment"], records=p["records"],
                        workloads=p["workloads"], schemes=p["schemes"],
                        execution=policy)).encode()
                out[i] = by_request[key]
        return out

    def check(self, rounds, full):
        chk = Check()
        for r in rounds:
            for s in r.data["samples"]:
                chk.expect("error" not in s, f"request {s['i']}: {s.get('error')}")
        passes = (("default", False), ("flat", True)) if full else (("default", False),)
        for tag, flat in passes:
            ref_cache = self.scratch / f"reference-{tag}"
            shutil.rmtree(ref_cache, ignore_errors=True)
            t0 = now()
            expected = self.expected(ref_cache, flat)
            chk.windows[tag].append((t0, now()))
            for r in rounds:
                for s in r.data["samples"]:
                    if "bytes" in s:
                        chk.expect(s["bytes"] == expected[s["i"]],
                                   f"request {s['i']} ({s['kind']}) bytes != {tag} api.run")
        return chk

    def report(self, rounds):
        lat = sorted(s["latency"] for r in rounds for s in r.data["samples"] if "error" not in s)
        n = len(lat)
        tail_q = tail_quantile(n)
        total_wall = sum(r.wall for r in rounds)
        reqs = sum(len(r.data["samples"]) for r in rounds)
        m = {
            "latency_p50_ms": (1000 * quantile(lat, 0.5), "ms", n),
            f"latency_tail_ms(p{100 * tail_q:.0f})": (1000 * quantile(lat, tail_q), "ms", n),
            "req_per_s": (reqs / total_wall, "1/s", len(rounds)),
        }
        kinds = {}
        for s in rounds[0].data["samples"]:
            kinds[s["kind"]] = kinds.get(s["kind"], 0) + 1
        lines = [f"mix per round: {len(self.mix)} requests {kinds}, "
                 f"{self.clients} closed-loop clients"]
        return m, lines

    def layer_extra(self, rounds, traced, spans):
        from repro.api import ExperimentResult

        m: Dict[str, float] = {}
        waits, execs, responds = [], [], []
        for s in traced.data["samples"]:
            summ = s.get("summary")
            if not summ or s.get("deduped") or summ.get("started_at") is None:
                continue
            created, started, finished = (summ["created_at"], summ["started_at"],
                                          summ["finished_at"])
            waits.append(1000 * (started - created))
            execs.append(1000 * (finished - started))
            responds.append(1000 * s["latency"] - 1000 * (finished - created))
        m["serve.queue_wait_ms"] = quantile(sorted(waits), 0.5)
        m["serve.execute_ms"] = quantile(sorted(execs), 0.5)
        m["serve.respond_ms"] = quantile(sorted(responds), 0.5)
        jobs = traced.data["stats"]["jobs"]
        runner = traced.data["stats"]["runner"]
        m["serve.dedup_hits"] = jobs["dedup_hits"]
        m["serve.rejections"] = jobs["rejected_full"] + jobs["rejected_draining"]
        total = runner["cache_hits"] + runner["executed"]
        m["runner.executed"] = runner["executed"]
        m["runner.cache_hits"] = runner["cache_hits"]
        m["runner.hit_ratio"] = runner["cache_hits"] / total if total else 0.0
        m["cache.bytes"] = traced.data["cache_bytes"]
        suites = [ExperimentResult.from_json(s["bytes"]).payload
                  for s in traced.data["samples"] if s["kind"] == "fresh" and "bytes" in s]
        m.update(result_metrics(suites))
        return m


def quantile(sorted_values: List[float], q: float) -> float:
    """The value at the nearest index to ``q`` of an ascending list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def tail_quantile(n: int) -> float:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100 * (1.0 - 10.0 / n))) / 100 if n else 0.5


WORKLOADS = {w.name: w for w in (SpecCold, CronoCold, SweepRerun, ServeMixed)}
