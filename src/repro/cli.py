"""Command-line interface: a thin client of :mod:`repro.api`.

Usage::

    python -m repro.cli list
    python -m repro.cli fig10 [--records N] [--chart] [--csv] [--json]
    python -m repro.cli fig10 --workloads mcf_inp,gen_phase_mix --schemes prophet
    python -m repro.cli fig10 --set l3.size_kb=4096 --set dram.channels=2
    python -m repro.cli all --records N --out DIR --jobs N
    python -m repro.cli all --records N --pool ssh:hosts.txt --jobs 64
    python -m repro.cli trace mcf_inp [--records N]
    python -m repro.cli workloads list [--trace-dir DIR]
    python -m repro.cli workloads describe gen_ptrchase_llc
    python -m repro.cli workloads import capture.trc [--name LABEL]
    python -m repro.cli pool probe hosts.txt
    python -m repro.cli cas gc [--cache-dir DIR] [--max-age-days N]
    python -m repro.cli bench [--records N]
    python -m repro.cli serve [--port N] [--host H] [--workers N] \
        [--jobs N] [--cache-dir DIR] [--pool SPEC]

``serve`` runs the long-running simulation job service
(:mod:`repro.serve`): submit experiment requests over HTTP/JSON, poll
progress, fetch byte-deterministic results, with identical requests
deduplicated against in-flight jobs and the result cache.  ``--port 0``
binds an ephemeral port (announced on stdout); ``--workers`` sizes the
request worker pool and ``--jobs``/``--cache-dir`` configure the one
shared Runner behind it.  See ``docs/serve.md``.

``bench`` shells the engine-throughput benchmark
(``benchmarks/bench_engine_throughput.py``) in ``--smoke`` mode — a quick
records/sec sanity check of the simulation hot path without having to
know the benchmarks tree.  Pass ``--records N`` for a longer measured
run.  The result JSON goes to a scratch file, never to the committed
``BENCH_engine.json``.

The workload catalog is the source registry
(:mod:`repro.workloads.sources`): built-in synthetic personas, generator
scenarios, and trace files discovered under ``--trace-dir`` /
``$REPRO_TRACE_DIR``.  ``workloads import`` copies a captured trace
(DRAMSim2 k6 text, JSON, or native ``.npz``) into the trace directory
and prints the catalog label it is now runnable under.

Every experiment comes from the declarative registry
(:mod:`repro.experiments.registry`); ``list`` prints it.  The scenario
flags map 1:1 onto :func:`repro.api.run`:

- ``--workloads A,B``  run on a subset of catalog workloads;
- ``--schemes X,Y``    run a subset of the named schemes;
- ``--set key=value``  dotted-path config override (repeatable), e.g.
  ``--set l3.size_kb=2048 --set l1_prefetcher=ipcp``;
- ``--records N``      trace-length override (static experiments have none).

Output flags render the same structured result different ways: the
default report text, ``--chart`` (ASCII bars), ``--csv``, or ``--json``
(the full serialized ``ExperimentResult``).  With ``--out DIR`` each
rendering is also written to ``DIR/<name>.{txt,csv,json}``.

Execution flags build one shared
:class:`repro.runner.ExecutionPolicy` (and from it the one shared
:class:`repro.runner.Runner`) for the whole invocation: ``--pool``
selects the execution backend (``local`` process pool, serial
``inline``, ``ssh:hosts.txt`` multi-host fan-out, ``loopback[:N]``
local subprocess workers over the ssh protocol), ``--jobs N`` sizes the
fan-out, ``--timeout``/``--retries`` bound per-job failure handling on
remote pools, ``--cache-dir``/``--no-cache`` control the on-disk result
cache (default ``.repro-cache/``), ``--verbose`` prints per-job
progress.  The runner's executed/cache-hit counts are logged after every
simulating command.

Resilience flags (see ``docs/robustness.md``): ``--on-error
raise|skip|retry:N`` sets the per-job failure policy — under ``skip``
(or after ``retry:N`` attempts) a failing job becomes a structured
``JobFailure`` record in the result instead of aborting the run, and
jobs depending on it are marked skipped.  ``--faults SPEC`` activates a
deterministic seeded fault-injection schedule (:mod:`repro.faults`;
inline JSON or ``@path``) for chaos testing.  ``cli all`` checkpoints
each sweep to a manifest under ``<cache-dir>/sweeps/`` (per-experiment
completed/failed job keys); ``--resume`` replays only the experiments
that did not finish cleanly, with the content-addressed cache
guaranteeing the resumed results are byte-identical to an uninterrupted
run.  ``serve --job-retention N`` prunes DONE/FAILED jobs older than N
seconds from the job table.

``pool probe hosts.txt`` health-checks every host in a hosts file
(python reachable, ``repro`` importable, ENGINE_VERSION compatible)
without running any jobs; ``pool probe loopback[:N]`` does the same
against local subprocess workers.  ``pool describe <spec>`` boots the
pool and prints its ``describe()`` state as JSON — per-host liveness
and the worker-side ``cache_probe`` hit counters among it.
``cas gc`` / ``cas verify`` maintain
a shared ``--cache-dir``: ``gc`` prunes corrupt entries, orphaned temp
files, and (with ``--max-age-days``) stale results; ``verify`` reports
digest-verification counts without modifying anything.

Failures under ``--json`` keep stdout machine-readable: instead of an
argparse usage message, the CLI prints the same ``{"error": {"code":
..., "message": ...}}`` envelope the serve API uses for 4xx bodies, and
exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from . import api, viz
from .experiments import all_experiments, get_experiment
from .runner import ENGINE_VERSION, ExecutionPolicy, PoolError, make_runner
from .serve.schemas import error_envelope
from .sim.config import parse_override


def _fail(parser, args, code: str, message: str) -> int:
    """Report a CLI failure; machine-readable under ``--json``.

    With ``--json`` the caller asked for structured stdout, so the
    failure is structured too: the serve API's error envelope on stdout
    and exit code 2.  Without it, defer to ``parser.error`` (usage
    message on stderr, SystemExit(2)) exactly as before.
    """
    if getattr(args, "json", False):
        print(json.dumps(error_envelope(code, message)))
        return 2
    parser.error(message)
    return 2  # unreachable; parser.error raises


def list_experiments() -> str:
    """The registry, one line per experiment (what ``list`` prints)."""
    lines = []
    for exp in all_experiments():
        extras = []
        if exp.kind == "suite":
            extras.append("chartable")
        if exp.supports_workloads:
            extras.append("workloads")
        if exp.supports_schemes:
            extras.append("schemes")
        tag = f"  [{', '.join(extras)}]" if extras else ""
        lines.append(
            f"{exp.name:10s} {exp.description}  "
            f"(default {exp.records or 'n/a'} records){tag}"
        )
    return "\n".join(lines)


def run_trace_report(target: str, records: int) -> str:
    """Characterize one catalog workload (or 'all' for the whole catalog)."""
    from .workloads.analysis import characterize, summary_table
    from .workloads.inputs import all_labels, make_trace

    labels = all_labels() if target == "all" else [target]
    known = set(all_labels())
    unknown = [label for label in labels if label not in known]
    if unknown:
        raise SystemExit(
            f"unknown workload(s): {', '.join(unknown)}; catalog: "
            + ", ".join(all_labels())
        )
    characters = [characterize(make_trace(label, records)) for label in labels]
    text = summary_table(characters)
    if len(characters) == 1:
        text += f"\n  verdict: {characters[0].verdict()}"
    return text


def run_workloads_command(args, parser) -> int:
    """The ``workloads`` subcommands: list / describe / import."""
    from .workloads import sources

    sub = args.target or "list"
    if sub == "list":
        registry = sources.all_sources()
        print(viz.source_table(registry.values()))
        active = sources.trace_dir()
        where = active if active is not None else "none configured"
        print(f"\n{len(registry)} workload sources  (trace dir: {where})")
        return 0
    if sub == "describe":
        if not args.arg:
            parser.error("workloads describe requires a workload label")
        source = sources.get_source(args.arg)
        if source is None:
            parser.error(
                f"unknown workload {args.arg!r}; try 'workloads list'"
            )
        records = args.records or 120_000
        print(f"label:       {source.label}")
        print(f"kind:        {source.kind}")
        print(f"description: {source.description}")
        if source.origin:
            print(f"origin:      {source.origin}")
        print(f"digest:      {source.digest(records)}  (at {records} records)")
        return 0
    if sub == "import":
        if not args.arg:
            parser.error("workloads import requires a trace file path")
        try:
            label, dest = sources.import_trace(args.arg, name=args.name)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        print(f"imported {args.arg} -> {dest}")
        print(f"workload label: {label}")
        print(
            "run it with e.g. "
            f"python -m repro.cli fig10 --workloads {label}"
        )
        return 0
    parser.error(
        f"unknown workloads subcommand {sub!r}; "
        "expected list, describe, or import"
    )
    return 2


def run_bench_command(args) -> int:
    """The ``bench`` convenience subcommand: shell the throughput bench.

    Runs ``benchmarks/bench_engine_throughput.py`` from the repo checkout
    with this interpreter and this package on ``PYTHONPATH``, in smoke
    mode unless ``--records`` asks for a longer run.  Results go to a
    temp file so a sanity check never clobbers the committed trajectory
    in ``BENCH_engine.json``.
    """
    import os
    import subprocess
    import tempfile

    bench = Path(__file__).resolve().parents[2] / "benchmarks" \
        / "bench_engine_throughput.py"
    if not bench.exists():
        print(
            "bench_engine_throughput.py not found (the bench subcommand "
            f"needs a repo checkout; looked at {bench})",
            file=sys.stderr,
        )
        return 1
    if args.out is not None:
        out = args.out
    else:
        fd, name = tempfile.mkstemp(prefix="repro-bench-", suffix=".json")
        os.close(fd)
        out = Path(name)
    cmd = [sys.executable, str(bench), "--out", str(out)]
    if args.records is not None:
        cmd += ["--records", str(args.records), "--repeats", "2"]
    else:
        cmd.append("--smoke")
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[1])  # the src/ dir
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    return subprocess.call(cmd, env=env)


def run_serve_command(args) -> int:
    """The ``serve`` subcommand: run the simulation job service."""
    from .serve import serve_forever

    return serve_forever(
        host=args.host,
        port=args.port,
        workers=args.workers,
        quiet=not args.verbose,
        max_queue=args.max_queue,
        execution=_execution_policy(args),
        job_retention=args.job_retention,
    )


def run_pool_command(args, parser) -> int:
    """The ``pool`` subcommands: probe / describe."""
    from .runner import ENGINE_VERSION, HostSpec, load_hosts_file, probe_hosts

    if args.target == "describe":
        return _pool_describe(args, parser)
    if args.target != "probe":
        parser.error(
            f"unknown pool subcommand {args.target!r}; "
            "expected: probe, describe"
        )
    spec = args.arg
    if not spec:
        parser.error("pool probe requires a hosts file (or loopback[:N])")
    if spec.startswith("loopback"):
        _, _, n = spec.partition(":")
        specs = [HostSpec(name=f"loopback/{i}") for i in range(int(n or 2))]
        rows = probe_hosts(specs, loopback=True)
    else:
        try:
            specs = load_hosts_file(spec)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        rows = probe_hosts(specs)
    print(f"driver ENGINE_VERSION={ENGINE_VERSION}")
    width = max(len(r["host"]) for r in rows)
    bad = 0
    for row in rows:
        if row["ok"] and row["compatible"]:
            numpy_note = "numpy" if row["numpy"] else "no-numpy"
            status = (f"ok    python {row['python']}  "
                      f"engine {row['engine_version']}  {numpy_note}")
        else:
            bad += 1
            detail = row["error"] or (
                f"incompatible: engine {row['engine_version']!r} "
                f"(driver {ENGINE_VERSION!r})"
            )
            status = f"FAIL  {detail}"
        print(f"  {row['host']:{width}s}  {status}")
    print(f"{len(rows) - bad}/{len(rows)} hosts usable")
    return 0 if bad == 0 else 1


def run_cas_command(args, parser) -> int:
    """The ``cas`` subcommand: gc / verify the content-addressed cache."""
    from .runner import ResultCache

    sub = args.target or "verify"
    cache_dir = Path(args.cache_dir)
    if not cache_dir.exists():
        parser.error(f"cache dir {cache_dir} does not exist")
    cache = ResultCache(cache_dir)
    if sub == "gc":
        stats = cache.gc(max_age_days=args.max_age_days)
        print(
            f"cas gc {cache_dir}: kept {stats['kept']}, removed "
            f"{stats['removed_corrupt']} corrupt, "
            f"{stats['removed_stale']} stale, "
            f"{stats['removed_tmp']} orphaned temp file(s)"
        )
        return 0
    if sub == "verify":
        stats = cache.verify()
        print(
            f"cas verify {cache_dir}: {stats['entries']} entries — "
            f"{stats['verified']} digest-verified, {stats['legacy']} "
            f"legacy (pre-digest), {stats['corrupt']} corrupt"
        )
        return 0 if stats["corrupt"] == 0 else 1
    parser.error(f"unknown cas subcommand {sub!r}; expected: gc, verify")
    return 2


def _pool_describe(args, parser) -> int:
    """``pool describe <spec>``: the backend's live state, as JSON.

    Boots the pool (same handshake as a run), prints ``describe()`` —
    backend, per-host alive/dead/completed/failure counts, and the
    worker-side ``cache_probe`` hit counters — and shuts it down.
    """
    spec = args.arg or args.pool
    if not spec:
        parser.error(
            "pool describe requires a pool spec "
            "(inline, local, loopback[:N], ssh:hosts.txt)"
        )
    policy = ExecutionPolicy(
        pool=spec,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        no_cache=args.no_cache,
        per_job_timeout=args.timeout,
        retries=args.retries,
    )
    try:
        runner = make_runner(policy)
    except (PoolError, ValueError, OSError) as exc:
        parser.error(str(exc))
    try:
        print(json.dumps(runner.pool_info(), indent=2, sort_keys=True))
    finally:
        runner.close()
    return 0


def _execution_policy(args) -> ExecutionPolicy:
    """The one shared ExecutionPolicy for this CLI invocation."""
    return ExecutionPolicy(
        pool=args.pool,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        no_cache=args.no_cache,
        progress=make_progress_printer() if args.verbose else None,
        verbose=args.verbose,
        per_job_timeout=args.timeout,
        retries=args.retries,
        on_error=args.on_error,
        faults=args.faults,
    )


def make_progress_printer() -> Callable:
    """Per-job progress lines for --verbose (written to stderr)."""

    def progress(event: str, job, done: int, total: int) -> None:
        print(
            f"[runner {done}/{total}] {event:9s} "
            f"{job.scheme}:{job.label or '-'} @ {job.trace.label}",
            file=sys.stderr,
        )

    return progress


def _split_csv(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    items = [part.strip() for part in value.split(",") if part.strip()]
    return items or None


# -- sweep manifest (checkpoint / --resume) ----------------------------
#
# ``cli all`` is a long fan-out; before this, one PoolError threw away
# every completed experiment.  Now each sweep writes a manifest under
# ``<cache-dir>/sweeps/<digest>.json`` — keyed by a digest of the sweep
# request (experiments, records, workloads, schemes, overrides, engine
# version) so the same command resumes its own checkpoint and a
# different one never collides.  The manifest records, per experiment,
# its status plus the completed/failed job cache keys; ``--resume``
# skips cleanly-finished experiments and replays only the gap, with the
# content-addressed cache guaranteeing the replayed subset is
# byte-identical to an uninterrupted run.

def _sweep_spec(args, names: List[str]) -> Dict:
    """The JSON-stable identity of one ``cli all`` sweep request."""
    return {
        "engine_version": ENGINE_VERSION,
        "experiments": list(names),
        "records": args.records,
        "workloads": args.workloads,
        "schemes": args.schemes,
        "set": sorted(args.set or []),
    }


def _sweep_digest(spec: Dict) -> str:
    blob = json.dumps(spec, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class SweepManifest:
    """Durable per-sweep checkpoint: experiment status + job keys."""

    VERSION = 1

    def __init__(self, path: Path, spec: Dict):
        self.path = Path(path)
        self.spec = spec
        self.experiments: Dict[str, Dict] = {}

    @classmethod
    def open(cls, cache_dir: Path, spec: Dict, resume: bool) -> "SweepManifest":
        """Load the sweep's manifest (``--resume``) or start a fresh one."""
        path = Path(cache_dir) / "sweeps" / f"{_sweep_digest(spec)}.json"
        manifest = cls(path, spec)
        if resume and path.exists():
            try:
                data = json.loads(path.read_text())
                if data.get("spec") == spec:
                    manifest.experiments = data.get("experiments", {})
            except (OSError, ValueError) as exc:
                print(f"[resume] ignoring unreadable manifest {path}: {exc}",
                      file=sys.stderr)
        return manifest

    def record(self, name: str, status: str,
               completed: Optional[set] = None,
               failed: Optional[Dict[str, str]] = None,
               failures: Optional[List[Dict]] = None,
               error: Optional[str] = None) -> None:
        entry: Dict = {"status": status}
        if completed:
            entry["completed"] = sorted(completed)
        if failed:
            entry["failed"] = dict(sorted(failed.items()))
        if failures:
            entry["failures"] = failures
        if error:
            entry["error"] = error
        self.experiments[name] = entry
        self.save()

    def clean(self, name: str) -> bool:
        """True iff ``name`` finished with zero failed jobs — resumable
        runs skip it; anything partial or failed is replayed."""
        entry = self.experiments.get(name)
        return bool(entry) and entry.get("status") == "done" \
            and not entry.get("failed") and not entry.get("failures")

    def save(self) -> None:
        """Atomic write (tmp + rename) so a crash never leaves a
        half-written checkpoint behind."""
        payload = {
            "version": self.VERSION,
            "spec": self.spec,
            "experiments": self.experiments,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
            os.replace(tmp, self.path)
        except OSError as exc:
            print(f"[sweep] manifest write failed ({exc}); "
                  "resume will replay this experiment", file=sys.stderr)


class _JobLedger:
    """Progress sink that buckets job cache keys per experiment.

    Installed via :meth:`Runner.progress_scope` around each experiment
    of a sweep; forwards every event to the runner's own progress fn so
    ``--verbose`` output is unchanged.
    """

    def __init__(self, forward=None):
        self.forward = forward
        self.completed: set = set()
        self.failed: Dict[str, str] = {}

    def begin(self) -> None:
        self.completed = set()
        self.failed = {}

    def __call__(self, event: str, job, done: int, total: int) -> None:
        if event in ("done", "cache-hit"):
            self.completed.add(job.cache_key)
            self.failed.pop(job.cache_key, None)
        elif event in ("failed", "skipped"):
            self.failed[job.cache_key] = event
        if self.forward is not None:
            self.forward(event, job, done, total)


def _render_one(args, name: str, runner, out_dir: Optional[Path],
                running_all: bool = False):
    """Run one experiment through the facade; returns (text, result)."""
    exp = get_experiment(name)
    workloads = _split_csv(args.workloads)
    schemes = _split_csv(args.schemes)
    overrides = dict(parse_override(expr) for expr in args.set or [])
    if running_all:
        # 'all' applies each flag wherever the experiment supports it —
        # a suite-wide sweep must not abort at the first static or
        # fixed-scenario experiment.
        if not exp.supports_workloads:
            workloads = None
        if not exp.supports_schemes:
            schemes = None
        if not exp.supports_overrides:
            overrides = {}
    elif exp.static and args.records is not None:
        raise ValueError(f"experiment {name!r} is static; --records does not apply")
    result = api.run(
        name,
        records=args.records if not exp.static else None,
        workloads=workloads,
        schemes=schemes,
        overrides=overrides,
        runner=runner,
    )
    if args.json:
        text, suffix = viz.render_result(result, "json"), ".json"
    elif args.chart:
        text, suffix = viz.render_result(result, "chart"), ".txt"
    elif args.csv:
        text, suffix = viz.render_result(result, "csv"), ".csv"
    else:
        n = result.records
        text = (
            f"{result.text()}\n"
            f"  [{name}: {result.elapsed:.1f}s at {n or 'fixed'} records]"
        )
        suffix = ".txt"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}{suffix}").write_text(text + "\n")
    return text, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'list', 'all', 'trace', 'workloads', "
             "'bench', or 'serve'",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="workload label for 'trace' (or 'all'); subcommand for "
             "'workloads' (list/describe/import)",
    )
    parser.add_argument(
        "arg", nargs="?", default=None,
        help="extra argument: label for 'workloads describe', trace file "
             "path for 'workloads import'",
    )
    parser.add_argument("--records", type=int, default=None,
                        help="trace length override")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="directory of importable trace files "
                             "(defaults to $REPRO_TRACE_DIR or ./traces)")
    parser.add_argument("--name", default=None,
                        help="catalog name for 'workloads import'")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated catalog workload labels")
    parser.add_argument("--schemes", default=None,
                        help="comma-separated scheme names (e.g. prophet,triangel)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dotted-path config override (repeatable)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for per-figure outputs")
    parser.add_argument("--chart", action="store_true",
                        help="render results as ASCII bar charts")
    parser.add_argument("--csv", action="store_true",
                        help="render results as CSV")
    parser.add_argument("--json", action="store_true",
                        help="print the serialized ExperimentResult as JSON")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulations (default 1)")
    parser.add_argument("--pool", default="local",
                        help="execution backend: local | inline | "
                             "ssh:hosts.txt | loopback[:N] (default local)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds (remote pools "
                             "retry on another host; local pools fail)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retry budget per job on remote pools "
                             "(default 2; each retry prefers a host that "
                             "has not failed the job)")
    parser.add_argument("--on-error", default="raise",
                        help="per-job failure policy: raise (abort — "
                             "default), skip (record a structured "
                             "JobFailure and keep the sweep going), or "
                             "retry:N (N extra attempts, then skip)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault-injection schedule for "
                             "chaos testing: inline JSON "
                             "('{\"seed\":7,\"faults\":[...]}') or @path "
                             "to a JSON file (see repro.faults)")
    parser.add_argument("--resume", action="store_true",
                        help="for 'all': resume an interrupted sweep "
                             "from its manifest under "
                             "<cache-dir>/sweeps/, replaying only "
                             "experiments that did not finish cleanly")
    parser.add_argument("--job-retention", type=float, default=None,
                        help="for 'serve': prune DONE/FAILED jobs older "
                             "than this many seconds from the job table "
                             "(at startup, periodically, and on "
                             "recovery; default: keep forever)")
    parser.add_argument("--max-age-days", type=float, default=None,
                        help="for 'cas gc': also drop valid cache entries "
                             "older than this many days")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", type=Path, default=Path(".repro-cache"),
                        help="result cache directory (default .repro-cache)")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-job runner progress to stderr")
    parser.add_argument("--port", type=int, default=8086,
                        help="listen port for 'serve' (0 = ephemeral; the "
                             "bound port is announced on stdout)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="listen address for 'serve' (default loopback)")
    parser.add_argument("--workers", type=int, default=2,
                        help="request worker threads for 'serve' (each "
                             "executes one job at a time; default 2)")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="admission bound for 'serve': queued jobs "
                             "past this get 429 + Retry-After "
                             "(default 64)")
    args = parser.parse_args(argv)

    if args.trace_dir is not None:
        from .workloads import sources

        sources.set_trace_dir(args.trace_dir)

    if args.experiment == "workloads":
        return run_workloads_command(args, parser)

    if args.experiment == "bench":
        return run_bench_command(args)

    if args.experiment == "serve":
        return run_serve_command(args)

    if args.experiment == "pool":
        return run_pool_command(args, parser)

    if args.experiment == "cas":
        return run_cas_command(args, parser)

    if args.experiment == "list":
        print(list_experiments())
        return 0

    if args.experiment == "trace":
        if args.target is None:
            parser.error("trace requires a workload label (or 'all')")
        print(run_trace_report(args.target, args.records or 60_000))
        return 0

    registered = [exp.name for exp in all_experiments()]
    names = registered if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in registered]
    if unknown:
        return _fail(
            parser, args, "unknown-experiment",
            f"unknown experiment(s): {', '.join(unknown)}; try 'list'",
        )
    running_all = args.experiment == "all"
    if args.resume and not running_all:
        return _fail(parser, args, "invalid-request",
                     "--resume only applies to 'all' sweeps")
    if args.resume and args.no_cache:
        return _fail(parser, args, "invalid-request",
                     "--resume needs the cache (drop --no-cache): resumed "
                     "jobs replay byte-identically from the CAS")

    try:
        runner = make_runner(_execution_policy(args))
    except (PoolError, ValueError, OSError) as exc:
        return _fail(parser, args, "pool-unavailable", str(exc))
    # A SIGTERM mid-sweep drains gracefully on remote pools: in-flight
    # jobs finish (and bank their payloads in the cache), new
    # submissions fail, and the CLI exits with an error instead of
    # dropping completed work on the floor.
    pool = getattr(runner, "_pool", None)
    if pool is not None and hasattr(pool, "install_sigterm_drain"):
        pool.install_sigterm_drain()

    def report_runner_stats() -> None:
        stats = runner.stats
        if stats.total == 0:
            return
        cache_note = (
            "cache disabled" if args.no_cache
            else f"cache hits: {stats.cache_hits} ({args.cache_dir})"
        )
        info = runner.pool_info()
        backend = info.get("backend", "local")
        probe_hits = info.get("cache_probe_hits") or 0
        probe_note = (
            f"  worker probe hits: {probe_hits}" if probe_hits else ""
        )
        # With a machine-readable rendering, stdout is exactly the
        # result(s); keep diagnostics on stderr so `--json | jq` and
        # `--csv > out.csv` stay parseable.
        machine_readable = args.json or args.csv or args.chart
        print(
            f"[runner] pool={backend}  jobs={args.jobs}  "
            f"simulated: {stats.executed}  {cache_note}{probe_note}",
            file=sys.stderr if machine_readable else sys.stdout,
        )

    # Sweep checkpointing: 'all' runs with a live cache keep a manifest
    # of per-experiment job keys so an interrupted sweep resumes from
    # where it stopped instead of starting over.
    manifest = ledger = None
    if running_all and not args.no_cache:
        spec = _sweep_spec(args, names)
        manifest = SweepManifest.open(args.cache_dir, spec, resume=args.resume)
        ledger = _JobLedger(forward=runner.progress)
    tolerant = args.on_error != "raise"
    failed_experiments: List[str] = []
    try:
        for name in names:
            if args.resume and manifest is not None and manifest.clean(name):
                done_jobs = len(manifest.experiments[name].get("completed", []))
                print(f"[resume] {name}: already complete "
                      f"({done_jobs} job(s) checkpointed); skipping",
                      file=sys.stderr)
                continue
            if ledger is not None:
                ledger.begin()
            try:
                with runner.progress_scope(ledger):
                    text, result = _render_one(args, name, runner, args.out,
                                               running_all=running_all)
            except ValueError as exc:
                if not running_all:
                    return _fail(parser, args, "invalid-request", str(exc))
                # A sweep must not abort because one experiment cannot take
                # a flag (e.g. fig01 accepts a single workload only).
                print(f"[skip] {name}: {exc}", file=sys.stderr)
                continue
            except PoolError as exc:
                if manifest is not None:
                    manifest.record(
                        name, "failed", error=str(exc),
                        completed=ledger.completed if ledger else None,
                        failed=ledger.failed if ledger else None,
                    )
                if running_all and tolerant:
                    # Under a tolerant policy one collapsed experiment is
                    # checkpointed as failed and the sweep keeps going;
                    # --resume replays exactly the gap.
                    failed_experiments.append(name)
                    print(f"[fail] {name}: {exc}", file=sys.stderr)
                    continue
                return _fail(parser, args, "pool-failure", str(exc))
            except Exception as exc:  # noqa: BLE001 - tolerant sweeps only
                if not (running_all and tolerant):
                    raise
                # Under on_error=skip a policy-skipped job reaches the
                # experiment's analysis as a None payload, which not
                # every experiment tolerates.  The sweep checkpoints the
                # experiment as failed instead of aborting wholesale;
                # --resume re-runs it (completed jobs are cache hits).
                if manifest is not None:
                    manifest.record(
                        name, "failed",
                        error=f"{type(exc).__name__}: {exc}",
                        completed=ledger.completed if ledger else None,
                        failed=ledger.failed if ledger else None,
                    )
                failed_experiments.append(name)
                print(f"[fail] {name}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            if manifest is not None:
                manifest.record(
                    name, "done",
                    completed=ledger.completed if ledger else None,
                    failed=ledger.failed if ledger else None,
                    failures=[f.to_dict() for f in result.failures],
                )
            print(text)
            if not args.json:
                print()
    finally:
        runner.close()
    report_runner_stats()
    if failed_experiments:
        print(
            f"[sweep] {len(failed_experiments)} experiment(s) failed: "
            f"{', '.join(failed_experiments)} — rerun with --resume to "
            "replay only the gap",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
