"""Turns the benchmark's tracer on in child processes of a traced run.

The benchmark puts this directory on ``PYTHONPATH`` of the serve
subprocess and the loopback pool workers only when it traces; Python
imports ``sitecustomize`` at start-up, and with ``PERFBENCH_SPANS_DIR``
set the process records spans and writes them there when it exits.
"""

import os
import sys

if os.environ.get("PERFBENCH_SPANS_DIR"):
    _bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(os.path.dirname(_bench), "src"))
    sys.path.insert(0, _bench)
    import tracer

    tracer.install_from_env()
