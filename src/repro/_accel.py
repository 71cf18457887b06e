"""Optional numpy acceleration behind a single cached capability probe.

Two things live here:

- the **capability probe** (:func:`numpy_capability`): one lazy import +
  version check per process, logging a single clear line when numpy is
  missing or too old, so every accelerated call site asks a cached
  question instead of wrapping its own ``ImportError`` handling;
- the **selection flag** (:func:`numpy_enabled`): which bulk paths
  actually *use* numpy (it never picks an engine rung).  The
  ``REPRO_NUMPY`` environment variable is tri-state:

  - unset  -> **auto**: acceleration is on whenever the capability probe
    passes;
  - ``0`` / ``false`` / ``no`` / ``off`` -> off, even with numpy present
    (forces the pure-Python bulk paths);
  - any other value -> on; if numpy is missing the probe's log line
    explains the silent fall-back to the scalar paths.

Programmatic override: ``_accel.set_numpy_enabled(True/False)`` wins over
the environment; ``set_numpy_enabled(None)`` restores it.

Results are identical with acceleration on or off (the equivalence
suites pin this) — only throughput differs.  Trace *storage*
(:class:`repro.workloads.base.Trace`) keys off the capability probe
directly, not this flag: a structured-array trace behaves identically to
the list fallback either way.
"""

from __future__ import annotations

import logging
import os
from typing import NamedTuple, Optional

log = logging.getLogger(__name__)

_ENV_FLAG = "REPRO_NUMPY"

#: Oldest numpy the vectorized paths are tested against.
MIN_NUMPY_VERSION = (1, 22)

#: Tri-state programmatic override: None -> follow the environment.
_forced: Optional[bool] = None


class NumpyCapability(NamedTuple):
    """Result of the one-time numpy probe."""

    module: Optional[object]  # the numpy module when usable, else None
    reason: str  # "" when usable, else why not

    @property
    def ok(self) -> bool:
        return self.module is not None


_capability: Optional[NumpyCapability] = None


def numpy_capability() -> NumpyCapability:
    """Probe numpy once per process: importable and recent enough.

    The verdict is cached; the degraded outcome is logged exactly once,
    so a no-numpy environment states clearly that the scalar engines are
    in use instead of raising per call site.
    """
    global _capability
    if _capability is None:
        _capability = _probe()
        if not _capability.ok:
            log.info(
                "numpy acceleration unavailable (%s); using pure-Python "
                "fallback paths", _capability.reason,
            )
    return _capability


def _probe() -> NumpyCapability:
    try:
        import numpy
    except ImportError:  # pragma: no cover - environment dependent
        return NumpyCapability(None, "numpy is not installed")
    try:
        version = tuple(int(x) for x in numpy.__version__.split(".")[:2])
    except ValueError:  # pragma: no cover - nonstandard dev builds pass
        return NumpyCapability(numpy, "")
    if version < MIN_NUMPY_VERSION:  # pragma: no cover - old environments
        want = ".".join(map(str, MIN_NUMPY_VERSION))
        return NumpyCapability(
            None, f"numpy {numpy.__version__} is older than {want}"
        )
    return NumpyCapability(numpy, "")


def set_numpy_enabled(enabled: Optional[bool]) -> None:
    """Force the flag on/off; ``None`` restores environment control."""
    global _forced
    _forced = enabled


def numpy_enabled() -> bool:
    """True when numpy acceleration is selected *and* the probe passes."""
    if _forced is not None:
        want = _forced
    else:
        env = os.environ.get(_ENV_FLAG)
        if env is None:
            want = True  # auto: on whenever numpy is usable
        else:
            want = env.lower() not in ("0", "false", "no", "off", "")
    return bool(want and numpy_capability().ok)


def get_numpy():
    """The numpy module when acceleration is active, else None."""
    return numpy_capability().module if numpy_enabled() else None
