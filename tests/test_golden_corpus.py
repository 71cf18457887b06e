"""Golden result corpora: Fig. 10 and Fig. 15, digest-pinned.

``tests/golden/fig10.json`` holds the sha256 of each ``SimResult``'s
canonical JSON for the seven Fig. 10 personas at a small record count,
under every scheme the figure runs (baseline, RPG2, Triangel, Prophet),
plus each persona's profiling-pass ``CounterSet`` (Prophet's Step 1: it
carries ``insert_counts`` and ``peak_entries``, which no ``SimResult``
digest pins directly).  The digests were generated with the flat
``run_simulation`` loop.  Both engine rungs must reproduce every digest,
which mechanizes invariant 1: a change to simulation semantics without
an ``ENGINE_VERSION`` bump fails here.

``tests/golden/fig15.json`` pins the nine CRONO graph workloads the same
way: the sha256 of each trace's ``pcs``/``lines``/``gaps`` at fig15's
``DEFAULT_SCALE`` and at the catalog's auto-scale, plus every scheme's
``SimResult`` at a small record count.  The trace digests pin the CSR
graph builder: the native one must reproduce the Python loop's draws
exactly.  These digests were generated with the flat loop and the
Python graph builder, which the flat rung also runs.

Regenerate only together with an ``ENGINE_VERSION`` bump::

    PYTHONPATH=src python tests/test_golden_corpus.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.profiler import profile
from repro.experiments.common import evaluate_suite, spec_traces
from repro.experiments.fig15_graph import DEFAULT_SCALE
from repro.runner import ExecutionPolicy
from repro.runner.jobs import ENGINE_VERSION
from repro.sim import native
from repro.sim.config import default_config
from repro.workloads.crono import CRONO_WORKLOADS, make_crono_trace

GOLDEN = Path(__file__).with_name("golden") / "fig10.json"
GOLDEN_FIG15 = GOLDEN.with_name("fig15.json")
RECORDS = 4000
#: Record count of the pinned CRONO traces (perfbench's crono_cold size).
TRACE_RECORDS = 30_000


def canonical_digest(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def corpus_digests() -> dict:
    traces = spec_traces(RECORDS)
    suite = evaluate_suite(
        traces, runner=ExecutionPolicy(pool="inline").make_runner()
    )
    digests = {
        f"{label}/{scheme}": canonical_digest(result)
        for label, per_scheme in sorted(suite.by_workload.items())
        for scheme, result in sorted(per_scheme.items())
    }
    digests.update(
        (f"{trace.label}/profiling", canonical_digest(profile(trace, default_config())))
        for trace in traces
    )
    return digests


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for column in (trace.pcs, trace.lines, trace.gaps):
        h.update(",".join(map(str, column)).encode())
        h.update(b";")
    return h.hexdigest()


def fig15_digests() -> dict:
    digests = {}
    for label in CRONO_WORKLOADS:
        digests[f"{label}/trace@{DEFAULT_SCALE}"] = trace_digest(
            make_crono_trace(label, TRACE_RECORDS, DEFAULT_SCALE))
        digests[f"{label}/trace@auto"] = trace_digest(
            make_crono_trace(label, TRACE_RECORDS))
    traces = [make_crono_trace(label, RECORDS, DEFAULT_SCALE) for label in CRONO_WORKLOADS]
    suite = evaluate_suite(
        traces, runner=ExecutionPolicy(pool="inline").make_runner()
    )
    digests.update(
        (f"{label}/{scheme}", canonical_digest(result))
        for label, per_scheme in sorted(suite.by_workload.items())
        for scheme, result in sorted(per_scheme.items())
    )
    return digests


@pytest.fixture(params=["native", "flat"])
def rung(request, monkeypatch):
    if request.param == "flat":
        monkeypatch.setattr(native, "load", lambda: None)
    elif native.load() is None:
        pytest.skip("native kernel unavailable; the flat case covers simulate()")
    return request.param


def test_golden_corpus(rung):
    golden = json.loads(GOLDEN.read_text())
    assert golden["engine_version"] == ENGINE_VERSION
    assert golden["records"] == RECORDS
    assert corpus_digests() == golden["digests"]


def test_golden_fig15(rung):
    golden = json.loads(GOLDEN_FIG15.read_text())
    assert golden["engine_version"] == ENGINE_VERSION
    assert (golden["records"], golden["trace_records"]) == (RECORDS, TRACE_RECORDS)
    assert fig15_digests() == golden["digests"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps({
        "engine_version": ENGINE_VERSION,
        "records": RECORDS,
        "digests": corpus_digests(),
    }, indent=1, sort_keys=True) + "\n")
    GOLDEN_FIG15.write_text(json.dumps({
        "engine_version": ENGINE_VERSION,
        "records": RECORDS,
        "trace_records": TRACE_RECORDS,
        "digests": fig15_digests(),
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} and {GOLDEN_FIG15}")
