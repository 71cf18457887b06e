"""Engine throughput microbenchmark: records/sec for the simulation loop.

Measures how fast :func:`repro.sim.engine.run_simulation` drives records
through the cache hierarchy, for the two configurations that bracket the
engine's cost:

- **baseline** — no L2 temporal prefetcher (the cheapest per-record path);
- **prophet**  — profile + simulate under Prophet (the most expensive
  path: metadata table training, MVB, resize polling).

The **prophet_path** section tracks the Prophet model fast path
specifically, by measuring three rungs of the same simulation on the same
trace with repeats interleaved (so slow machine-load drift hits all rungs
equally):

- ``packed``          — packed model + fused observe + optimized loop
  (what ``run_simulation`` ships);
- ``reference_model`` — the preserved pre-packing model
  (``ProphetPrefetcherReference``) under the optimized loop;
- ``seed_equivalent`` — reference model under the seed-era loop
  (``run_simulation_reference``), the closest in-tree proxy for the
  pre-PR-1 implementation.

All three produce bit-identical SimResults (pinned by
``tests/test_packed_model_equivalence.py``); only the speed differs.

The **fill_path** section tracks the flat-array cache & fused fill-spill
kernel specifically, racing the shipping hierarchy against the preserved
reference classes (``repro.cache.reference.HierarchyReference``: slot
records, three-call fill-spill chain) under the *same* optimized loop,
on both bracketing configs:

- ``baseline_flat`` / ``baseline_reference`` — no L2 prefetcher;
- ``prophet_flat`` / ``prophet_reference``   — Prophet end to end.

All four rungs are interleaved in one round-robin, so the two
``speedup_flat_vs_reference_*`` ratios are machine-independent; both are
gated by ``--check`` (floors committed in ``BENCH_engine.json``).  Flat
and reference are bit-identical in output
(``tests/test_flat_cache_equivalence.py``).

The **native** section races the native C kernel
(:mod:`repro.sim.native`, what :func:`repro.sim.engine.simulate` runs
when it is built) against the flat ``run_simulation`` loop on the seven
Fig. 10 personas, under both the no-prefetcher baseline and Prophet, with
every (persona, scheme, rung) repeat interleaved.  The aggregate
``speedup_native_vs_flat_baseline`` / ``_prophet`` ratios (total records
over summed best-of seconds) are gated by ``--check``; per-persona ratios
are reported alongside.  Native and flat are bit-identical in output
(``tests/test_native_engine_equivalence.py``, ``tests/test_golden_corpus.py``).
Without a C toolchain the section records ``"available": false`` and
``--check`` fails on its missing ratios.

Results are written to ``BENCH_engine.json`` next to this file (override
with ``--out``) so successive PRs accumulate a perf trajectory; compare
the ``records_per_sec`` fields across commits on the same machine.
Hand-maintained calibration sections already present in the output file
(``seed_reference``, ``seed_commit``, ``pr4_commit``, ``floors``) are
preserved across runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --records 200000 --repeats 5 --out /tmp/bench.json
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --records 40000 --repeats 2 --check --out /tmp/bench-gate.json

``--smoke`` shrinks the run for CI: it validates that the benchmark still
executes end to end, not that the numbers are meaningful.

``--check`` is the CI regression gate: the fresh run's *intra-run speed
ratios* are compared against the floors committed in
``BENCH_engine.json`` (the ``floors`` section, falling back to the
committed run's own ratios) and the process exits non-zero on a
>``--tolerance`` (default 30%) regression.  Gating on ratios measured
within one run — packed model vs the preserved reference rungs,
interleaved so load drift cancels — keeps the gate meaningful on CI
machines that are much slower or faster than the reference machine,
where absolute records/sec floors would be pure noise.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.cache.reference import HierarchyReference
from repro.core.pipeline import OptimizedBinary
from repro.experiments.common import spec_labels
from repro.sim import native
from repro.sim.config import default_config
from repro.sim.engine import run_simulation, run_simulation_reference, simulate
from repro.workloads.inputs import make_trace

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_engine.json"

#: Workload used for all measurements: mcf-like pointer chasing exercises
#: the full miss path (L1/L2/L3/DRAM) rather than degenerating to L1 hits.
BENCH_WORKLOAD = "mcf_inp"

#: Sections of the output file that are maintained by hand (calibration
#: notes, seed-commit measurements, regression floors) and must survive
#: a rerun.
PRESERVED_SECTIONS = ("seed_reference", "seed_commit", "pr4_commit",
                      "floors")

#: Default allowed regression for ``--check`` before the gate fails.
#: Generous on purpose: the ratios are intra-run (machine-independent)
#: but CI smoke runs are short, so they still carry sampling noise.
REGRESSION_TOLERANCE = 0.30


def _measure(fn, n_records: int, repeats: int) -> dict:
    """Best-of-``repeats`` wall-clock throughput for one engine setup."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    best = min(times)
    return {
        "seconds_best": best,
        "seconds_all": times,
        "records": n_records,
        "records_per_sec": n_records / best if best else 0.0,
    }


def _measure_interleaved(named_fns, n_records: int, repeats: int) -> dict:
    """Best-of-``repeats`` per configuration, repeats round-robined.

    Interleaving makes the *ratios* between configurations robust against
    slow machine-load drift: every configuration samples every load
    window.
    """
    times = {name: [] for name, _ in named_fns}
    for _ in range(repeats):
        for name, fn in named_fns:
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    out = {}
    for name, _ in named_fns:
        best = min(times[name])
        out[name] = {
            "seconds_best": best,
            "seconds_all": times[name],
            "records": n_records,
            "records_per_sec": n_records / best if best else 0.0,
        }
    return out


def run_bench(n_records: int, repeats: int) -> dict:
    config = default_config()
    trace = make_trace(BENCH_WORKLOAD, n_records)

    def baseline() -> None:
        run_simulation(trace, config, None, "baseline")

    binary = OptimizedBinary.from_profile(trace, config)

    def prophet() -> None:
        run_simulation(trace, config, binary.prefetcher(config), "prophet")

    def prophet_reference_model() -> None:
        run_simulation(
            trace, config, binary.prefetcher_reference(config), "prophet"
        )

    def prophet_seed_equivalent() -> None:
        run_simulation_reference(
            trace, config, binary.prefetcher_reference(config), "prophet"
        )

    result = {
        "workload": BENCH_WORKLOAD,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "baseline": _measure(baseline, n_records, repeats),
        "prophet": _measure(prophet, n_records, repeats),
    }

    path = _measure_interleaved(
        [
            ("packed", prophet),
            ("reference_model", prophet_reference_model),
            ("seed_equivalent", prophet_seed_equivalent),
        ],
        n_records,
        repeats,
    )
    packed_rps = path["packed"]["records_per_sec"]
    path["note"] = (
        "Prophet model fast path: packed/fused vs the preserved reference "
        "model (optimized loop) vs reference model on the seed-era loop; "
        "repeats interleaved so machine-load drift cancels in the ratios. "
        "All three are bit-identical in output."
    )
    path["speedup_packed_vs_reference_model"] = round(
        packed_rps / path["reference_model"]["records_per_sec"], 3
    )
    path["speedup_packed_vs_seed_equivalent"] = round(
        packed_rps / path["seed_equivalent"]["records_per_sec"], 3
    )
    result["prophet_path"] = path

    def baseline_reference() -> None:
        run_simulation(
            trace, config, None, "baseline", hierarchy_cls=HierarchyReference
        )

    def prophet_reference_hierarchy() -> None:
        run_simulation(
            trace, config, binary.prefetcher(config), "prophet",
            hierarchy_cls=HierarchyReference,
        )

    fill = _measure_interleaved(
        [
            ("baseline_flat", baseline),
            ("baseline_reference", baseline_reference),
            ("prophet_flat", prophet),
            ("prophet_reference", prophet_reference_hierarchy),
        ],
        n_records,
        repeats,
    )
    fill["note"] = (
        "Flat-array cache & fused fill-spill kernel vs the preserved "
        "reference hierarchy (slot records, three-call fill-spill chain), "
        "same optimized loop, repeats interleaved across all four rungs. "
        "Flat and reference are bit-identical in output."
    )
    fill["speedup_flat_vs_reference_baseline"] = round(
        fill["baseline_flat"]["records_per_sec"]
        / fill["baseline_reference"]["records_per_sec"], 3
    )
    fill["speedup_flat_vs_reference_prophet"] = round(
        fill["prophet_flat"]["records_per_sec"]
        / fill["prophet_reference"]["records_per_sec"], 3
    )
    result["fill_path"] = fill

    result["native"] = native_section(config, n_records, repeats)
    return result


def native_section(config, n_records: int, repeats: int) -> dict:
    """Native kernel vs flat loop on the seven Fig. 10 personas."""
    if native.load() is None:
        return {"available": False,
                "note": "native kernel unavailable (no C toolchain)"}
    runs = []
    for label in spec_labels():
        trace = make_trace(label, n_records)
        binary = OptimizedBinary.from_profile(trace, config)
        for scheme, make_pf in (("baseline", lambda: None),
                                ("prophet", lambda b=binary: b.prefetcher(config))):
            for rung, sim in (("native", simulate), ("flat", run_simulation)):
                runs.append((f"{label}/{scheme}/{rung}",
                             lambda t=trace, s=scheme, m=make_pf, f=sim:
                             f(t, config, m(), s)))
    timed = _measure_interleaved(runs, n_records, repeats)
    section = {"available": True, "workloads": spec_labels(), "per_workload": {}}
    for scheme in ("baseline", "prophet"):
        total = {}
        for rung in ("native", "flat"):
            best = [timed[f"{label}/{scheme}/{rung}"]["seconds_best"]
                    for label in spec_labels()]
            total[rung] = sum(best)
            section[f"{scheme}_{rung}_records_per_sec"] = (
                n_records * len(best) / total[rung])
        section[f"speedup_native_vs_flat_{scheme}"] = round(
            total["flat"] / total["native"], 3)
        for label in spec_labels():
            section["per_workload"][f"{label}/{scheme}"] = round(
                timed[f"{label}/{scheme}/flat"]["seconds_best"]
                / timed[f"{label}/{scheme}/native"]["seconds_best"], 3)
    section["note"] = (
        "Native C kernel vs the flat scalar loop, seven Fig. 10 personas, "
        "baseline and Prophet; every (persona, scheme, rung) repeat "
        "interleaved.  Aggregate speedups are total flat over total native "
        "best-of seconds; per_workload holds the per-persona ratios.  Both "
        "rungs are bit-identical in output."
    )
    return section


def _ratio_metrics(result: dict) -> dict:
    """The machine-independent speed ratios of one benchmark run."""
    path = result["prophet_path"]
    metrics = {
        "speedup_packed_vs_reference_model":
            path["speedup_packed_vs_reference_model"],
        "speedup_packed_vs_seed_equivalent":
            path["speedup_packed_vs_seed_equivalent"],
        "baseline_over_prophet":
            result["baseline"]["records_per_sec"]
            / result["prophet"]["records_per_sec"],
    }
    fill = result.get("fill_path")
    if fill is not None:
        metrics["fill_path_flat_vs_reference_baseline"] = (
            fill["speedup_flat_vs_reference_baseline"]
        )
        metrics["fill_path_flat_vs_reference_prophet"] = (
            fill["speedup_flat_vs_reference_prophet"]
        )
    section = result.get("native") or {}
    if section.get("available"):
        for scheme in ("baseline", "prophet"):
            metrics[f"native_vs_flat_{scheme}"] = (
                section[f"speedup_native_vs_flat_{scheme}"]
            )
    return metrics


#: Ratios built from separately measured blocks rather than interleaved
#: repeats: a machine-load spike during one block skews them, so they are
#: reported for information but never auto-derived as gate floors.
NON_INTERLEAVED_RATIOS = ("baseline_over_prophet",)


def check_floors(result: dict, committed: dict, tolerance: float) -> list:
    """Compare ``result``'s ratios against the committed floors.

    Returns a list of human-readable failure strings (empty = pass).
    Floors come from the ``floors`` section of ``committed``; when the
    section is absent, the committed run's own *interleaved* ratios
    serve as floors (non-interleaved ratios are too load-drift-fragile
    to gate on — an explicitly committed floor is still honored).
    """
    floors = dict(committed.get("floors") or {})
    if not floors:
        try:
            floors = _ratio_metrics(committed)
        except (KeyError, TypeError, ZeroDivisionError):
            return ["committed benchmark file has neither a 'floors' "
                    "section nor usable run ratios to derive them from"]
        for name in NON_INTERLEAVED_RATIOS:
            floors.pop(name, None)
    current = _ratio_metrics(result)
    failures = []
    for name, floor in floors.items():
        if not isinstance(floor, (int, float)):
            continue  # the "note" field
        value = current.get(name)
        if value is None:
            failures.append(f"{name}: gated ratio was not measured")
            continue
        minimum = floor * (1.0 - tolerance)
        if value < minimum:
            failures.append(
                f"{name}: {value:.3f} is below floor {floor:.3f} "
                f"- {tolerance:.0%} = {minimum:.3f}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=150_000,
                        help="trace length per measured run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per configuration (best is kept)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for CI: checks execution, not perf")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) when the run's speed ratios "
                             "regress past --tolerance vs the committed "
                             "floors")
    parser.add_argument("--floors", type=Path, default=DEFAULT_OUT,
                        help="committed benchmark file holding the floors "
                             f"(default {DEFAULT_OUT})")
    parser.add_argument("--tolerance", type=float,
                        default=REGRESSION_TOLERANCE,
                        help="allowed fractional regression for --check "
                             f"(default {REGRESSION_TOLERANCE})")
    args = parser.parse_args(argv)

    # Read the committed floors *before* any writing, in case --out and
    # --floors name the same file.
    floors_blob = None
    if args.check:
        try:
            floors_blob = args.floors.read_text()
        except OSError:
            floors_blob = None

    n_records = 5_000 if args.smoke else args.records
    repeats = 1 if args.smoke else args.repeats
    result = run_bench(n_records, repeats)
    result["smoke"] = args.smoke

    # Carry hand-maintained calibration sections across reruns.
    if args.out.exists():
        try:
            previous = json.loads(args.out.read_text())
        except (OSError, ValueError):
            previous = {}
        for section in PRESERVED_SECTIONS:
            if section in previous and section not in result:
                result[section] = previous[section]

    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for kind in ("baseline", "prophet"):
        rps = result[kind]["records_per_sec"]
        print(f"{kind:9s} {rps:>12,.0f} records/sec "
              f"({result[kind]['seconds_best']:.2f}s best of {repeats})")
    path = result["prophet_path"]
    for kind in ("packed", "reference_model", "seed_equivalent"):
        print(f"prophet_path.{kind:16s} {path[kind]['records_per_sec']:>12,.0f} "
              "records/sec")
    print("prophet_path speedups: "
          f"{path['speedup_packed_vs_reference_model']:.3f}x vs reference model, "
          f"{path['speedup_packed_vs_seed_equivalent']:.3f}x vs seed-equivalent")
    fill = result["fill_path"]
    for kind in ("baseline_flat", "baseline_reference",
                 "prophet_flat", "prophet_reference"):
        print(f"fill_path.{kind:19s} {fill[kind]['records_per_sec']:>12,.0f} "
              "records/sec")
    print("fill_path speedups (flat vs reference hierarchy): "
          f"{fill['speedup_flat_vs_reference_baseline']:.3f}x baseline, "
          f"{fill['speedup_flat_vs_reference_prophet']:.3f}x prophet")
    section = result["native"]
    if section["available"]:
        for scheme in ("baseline", "prophet"):
            print(f"native.{scheme:8s} "
                  f"{section[f'{scheme}_native_records_per_sec']:>12,.0f} vs "
                  f"{section[f'{scheme}_flat_records_per_sec']:>10,.0f} "
                  f"records/sec flat: "
                  f"{section[f'speedup_native_vs_flat_{scheme}']:.3f}x "
                  "(seven Fig. 10 personas)")
    else:
        print(f"native: {section['note']}")
    print(f"wrote {args.out}")

    if args.check:
        if floors_blob is None:
            print(f"[bench-gate] FAIL: no committed floors at {args.floors}",
                  file=sys.stderr)
            return 1
        try:
            committed = json.loads(floors_blob)
        except ValueError:
            print(f"[bench-gate] FAIL: {args.floors} is not valid JSON",
                  file=sys.stderr)
            return 1
        failures = check_floors(result, committed, args.tolerance)
        if failures:
            for failure in failures:
                print(f"[bench-gate] FAIL: {failure}", file=sys.stderr)
            return 1
        current = _ratio_metrics(result)
        print("[bench-gate] PASS: "
              + ", ".join(f"{k}={v:.3f}" for k, v in current.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
