"""Smoke tests: every shipped example runs end to end at reduced scale.

Examples are part of the public API surface — these tests keep them green
as the library evolves.  Each runs at a record count small enough for CI
but large enough that the code paths (profiling, learning, injection,
characterization) are actually exercised.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

#: example file -> kwargs for its main() at smoke scale.
EXAMPLES = {
    "quickstart.py": {"n_records": 12_000},
    "learning_inputs.py": {"n_records": 10_000},
    "graph_analytics.py": {"n_records": 15_000},
    "ablation_tour.py": {"n_records": 12_000},
    "offchip_metadata.py": {"n_records": 12_000},
    "hint_injection.py": {"n_records": 12_000},
    "trace_analysis.py": {"n_records": 10_000},
    "custom_workload.py": {},
    "simpoint_checkpoints.py": {"n_records": 15_000},
}

#: Examples that write and read ``.npz`` trace files, which need numpy.
NEEDS_NUMPY = {"trace_analysis.py"}


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_example_is_covered():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXAMPLES), (
        "examples/ changed; update the smoke-test table"
    )


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.requires_numpy) if name in NEEDS_NUMPY
    else name
    for name in sorted(EXAMPLES)
])
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main(**EXAMPLES[name])
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"
