"""Golden result corpus: every Fig. 10 scheme x persona, digest-pinned.

``tests/golden/fig10.json`` holds the sha256 of each ``SimResult``'s
canonical JSON for the seven Fig. 10 personas at a small record count,
under every scheme the figure runs (baseline, RPG2, Triangel, Prophet).
The digests were generated with the flat ``run_simulation`` loop.  Both
engine rungs must reproduce every digest, which mechanizes invariant 1:
a change to simulation semantics without an ``ENGINE_VERSION`` bump
fails here.

Regenerate only together with an ``ENGINE_VERSION`` bump::

    PYTHONPATH=src python tests/test_golden_corpus.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.common import evaluate_suite, spec_traces
from repro.runner import ExecutionPolicy
from repro.runner.jobs import ENGINE_VERSION
from repro.sim import native

GOLDEN = Path(__file__).with_name("golden") / "fig10.json"
RECORDS = 4000


def canonical_digest(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def corpus_digests() -> dict:
    suite = evaluate_suite(
        spec_traces(RECORDS), runner=ExecutionPolicy(pool="inline").make_runner()
    )
    return {
        f"{label}/{scheme}": canonical_digest(result)
        for label, per_scheme in sorted(suite.by_workload.items())
        for scheme, result in sorted(per_scheme.items())
    }


@pytest.mark.parametrize("rung", ["native", "flat"])
def test_golden_corpus(rung, monkeypatch):
    if rung == "flat":
        monkeypatch.setattr(native, "load", lambda: None)
    elif native.load() is None:
        pytest.skip("native kernel unavailable; the flat case covers simulate()")
    golden = json.loads(GOLDEN.read_text())
    assert golden["engine_version"] == ENGINE_VERSION
    assert golden["records"] == RECORDS
    assert corpus_digests() == golden["digests"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps({
        "engine_version": ENGINE_VERSION,
        "records": RECORDS,
        "digests": corpus_digests(),
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
