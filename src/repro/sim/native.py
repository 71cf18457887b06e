"""Build-on-first-use loader for the native module (``_kernel.c``).

The module has two entry points: ``run``, the demand kernel behind
``simulate`` (see :mod:`repro.sim.engine`), and ``csr_graph``, the CRONO
graph builder behind ``CSRGraph.random`` (see
:mod:`repro.workloads.crono`).  Each has a pure-Python fallback that is
also its oracle.

The first :func:`load` in a process compiles ``_kernel.c`` with the
interpreter's own ``sysconfig`` compiler and include flags (``CC``
overrides the compiler, as with setuptools) into this package's
``__pycache__/``, keyed on the source's sha256 plus ``EXT_SUFFIX``, and
imports it.  The artifact is published by tmp file + ``os.replace``, so
processes or threads racing on a fresh checkout never load a half-written
file and leave exactly one artifact behind.  Any failure is logged once
and :func:`load` returns ``None``: ``simulate`` and the graph builder
then run their pure-Python loops, with identical results.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import shlex
import subprocess
import sysconfig
import threading
from pathlib import Path

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")

#: GCC only: run the compiler's garbage collector early, which keeps the
#: build child's peak memory about a fifth lower (63 -> 49 MB with GCC on
#: x86-64 Linux) for about 7% more build time.
GCC_MEMORY_FLAGS = ["--param", "ggc-min-expand=10", "--param", "ggc-min-heapsize=8192"]

_lock = threading.Lock()
_tried = False
_module = None


def artifact_name() -> str:
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    return f"_kernel-{digest}{sysconfig.get_config_var('EXT_SUFFIX')}"


def build(directory: Path) -> Path:
    """Compile the module into ``directory`` unless it is already there."""
    path = directory / artifact_name()
    if path.exists():
        return path
    directory.mkdir(parents=True, exist_ok=True)
    tmp = directory / f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    cmd = shlex.split(cc) + shlex.split(sysconfig.get_config_var("CCSHARED") or "") + [
        "-O2", "-ffp-contract=off", "-shared", f"-I{sysconfig.get_paths()['include']}",
        str(SOURCE), "-o", str(tmp),
    ]
    try:
        proc = None
        if "gcc" in Path(cmd[0]).name:  # retried plain if they are rejected
            proc = subprocess.run(cmd[:1] + GCC_MEMORY_FLAGS + cmd[1:],
                                  capture_output=True, text=True)
        if proc is None or proc.returncode:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"compiler exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def import_artifact(path: Path):
    loader = importlib.machinery.ExtensionFileLoader("repro.sim._kernel", str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def load():
    """The native module, or ``None`` when it cannot be built."""
    global _tried, _module
    # Lock-free once settled, so a process forked from a thread-heavy
    # parent (serve + a local pool) never inherits the lock held.
    if not _tried:
        with _lock:
            if not _tried:
                try:
                    _module = import_artifact(build(CACHE_DIR))
                except Exception as exc:  # noqa: BLE001 - any failure falls back
                    log.warning("native kernel unavailable (%s); simulate() and the "
                                "CRONO graph builder use pure Python", exc)
                _tried = True
    return _module
