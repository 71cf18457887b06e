"""Golden job-key corpus: the cache keys each figure's job graph builds.

``tests/golden/job_keys.json`` holds the :attr:`SimJob.cache_key` of
every job (dependencies included) that Fig. 10's default suite, the
``offchip`` ablation, Fig. 15, Fig. 13's learning graph and the degree
and ways ablations hand to the runner at a small record count.  The keys
are captured with a :class:`Runner` that records its jobs and stops
before simulating anything, so the check is cheap.

A refactor of how schemes or suites build their jobs must leave every
key unchanged: a changed key silently orphans every cached result.
Regenerate only together with an ``ENGINE_VERSION`` bump or a deliberate
change to a scheme's parameters::

    PYTHONPATH=src python tests/test_golden_job_keys.py --write
"""

import json
import sys
from pathlib import Path

from repro.experiments import ablation_degree, ablation_offchip, ablation_ways
from repro.experiments.common import DEFAULT_SCHEMES, evaluate_suite, spec_traces
from repro.experiments.fig13_learning_gcc import LEARN_ORDER, run_learning_study
from repro.experiments.fig15_graph import DEFAULT_SCALE
from repro.runner import Runner
from repro.runner.jobs import ENGINE_VERSION
from repro.sim.config import default_config
from repro.workloads.crono import crono_suite
from repro.workloads.spec import GCC_INPUTS

GOLDEN = Path(__file__).with_name("golden") / "job_keys.json"
RECORDS = 2000


class _Captured(Exception):
    pass


class CapturingRunner(Runner):
    """A Runner that records the job graph passed to ``run`` and stops."""

    def run(self, jobs):
        self.captured = []
        seen = set()

        def visit(job):
            if job.cache_key in seen:
                return
            seen.add(job.cache_key)
            for role in sorted(job.deps):
                visit(job.deps[role])
            self.captured.append(
                f"{job.trace.label}/{job.scheme}/{job.label}={job.cache_key}"
            )

        for job in jobs:
            visit(job)
        raise _Captured


def capture(build) -> list:
    runner = CapturingRunner()
    try:
        build(runner)
    except _Captured:
        return runner.captured
    raise AssertionError("the job graph never reached the runner")


def job_keys() -> dict:
    config = default_config()
    spec = spec_traces(RECORDS)
    return {
        "fig10": capture(lambda r: evaluate_suite(
            spec, config, DEFAULT_SCHEMES, runner=r)),
        "offchip": capture(lambda r: evaluate_suite(
            spec, config, ablation_offchip.SCHEMES, runner=r)),
        "fig15": capture(lambda r: evaluate_suite(
            crono_suite(RECORDS, DEFAULT_SCALE), config, DEFAULT_SCHEMES,
            runner=r)),
        "fig13": capture(lambda r: run_learning_study(
            "gcc", GCC_INPUTS, LEARN_ORDER, RECORDS, config, runner=r)),
        "degree": capture(lambda r: ablation_degree.sweep(
            RECORDS, config, runner=r)),
        "ways": capture(lambda r: ablation_ways.sweep(
            RECORDS, config, runner=r)),
    }


def test_golden_job_keys():
    golden = json.loads(GOLDEN.read_text())
    assert golden["engine_version"] == ENGINE_VERSION
    assert golden["records"] == RECORDS
    got = job_keys()
    assert sorted(got) == sorted(golden["keys"])
    for figure, keys in golden["keys"].items():
        assert got[figure] == keys, figure


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps({
        "engine_version": ENGINE_VERSION,
        "records": RECORDS,
        "keys": job_keys(),
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
