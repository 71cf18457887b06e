"""Trace persistence: on-disk formats for generated and captured traces.

Personas are deterministic, so traces are usually regenerated on demand;
persisting them matters when (a) a trace is expensive to generate and is
reused across many experiment configurations, or (b) an externally
captured trace (e.g. converted from a real PIN/DynamoRIO run) is imported
into the simulator.  Two formats are supported:

- the **native** format — a compressed ``.npz`` holding the three record
  arrays plus the trace's identity fields, lossless and platform
  independent (:func:`save_trace` / :func:`load_trace`);
- the **DRAMSim2 k6** text format — one ``<address> <command> <cycle>``
  line per access (commands ``P_MEM_RD`` / ``P_MEM_WR``), the common
  interchange format for captured memory traces
  (:func:`load_k6_trace` / :func:`save_k6_trace`).  k6 traces carry no
  PCs, so loads synthesize a single PC (configurable), and inter-access
  cycles map to/from the record ``gap`` field via the issue width;
- the **JSON** format — a human-editable object holding the three record
  arrays (``pcs`` optional) plus identity fields
  (:func:`load_json_trace` / :func:`save_json_trace`), handy for small
  hand-written scenarios and for tool pipelines that already speak JSON.

All three are discoverable by the workload-source registry
(:mod:`repro.workloads.sources`): any file in the trace directory with a
recognized suffix becomes a catalog label.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .base import Trace

# numpy backs only the .npz native format; keep it lazy so importing the
# library (and the k6/JSON paths) stays standard-library-only, per
# docs/architecture.md invariant 7.

#: Format marker written into every trace file (bump on layout changes).
FORMAT_VERSION = 1

#: Synthetic PC assigned to k6-trace records (the format carries none).
K6_DEFAULT_PC = 0x400000

#: k6 command mnemonics (DRAMSim2 "k6" trace flavour).
K6_READ = "P_MEM_RD"
K6_WRITE = "P_MEM_WR"
_K6_COMMANDS = {K6_READ, K6_WRITE, "BOFF"}


def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` (``.npz``); returns the resolved path.

    Arrays are stored at 64-bit width — line addresses in the synthetic
    address space exceed 32 bits — and compressed; a typical 200k-record
    persona lands well under a megabyte.
    """
    import numpy as np

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    meta = {
        "version": FORMAT_VERSION,
        "name": trace.name,
        "input_name": trace.input_name,
        "mlp": trace.mlp,
    }
    rec = trace.records_array
    if rec is not None:
        # Record-array-backed trace: save the columns directly, no
        # per-record boxing.
        pcs, lines, gaps = rec["pc"], rec["line"], rec["gap"]
    else:
        pcs = np.asarray(trace.pcs, dtype=np.int64)
        lines = np.asarray(trace.lines, dtype=np.int64)
        gaps = np.asarray(trace.gaps, dtype=np.int64)
    np.savez_compressed(
        path,
        pcs=pcs,
        lines=lines,
        gaps=gaps,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )
    return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace` (lossless round-trip)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    import numpy as np

    with np.load(path) as data:
        try:
            meta = json.loads(bytes(data["meta"]).decode())
            pcs = data["pcs"]
            lines = data["lines"]
            gaps = data["gaps"]
        except KeyError as exc:
            raise ValueError(f"{path} is not a repro trace file") from exc
    version = meta.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: trace format version {version!r}, expected {FORMAT_VERSION}"
        )
    from .base import TRACE_DTYPE

    if TRACE_DTYPE is not None:
        # Build the structured record array directly from the stored
        # columns — the loaded trace is array-backed with no per-record
        # boxing.
        if not (len(pcs) == len(lines) == len(gaps)):
            raise ValueError(f"{path}: pcs/lines/gaps lengths differ")
        rec = np.empty(len(pcs), dtype=TRACE_DTYPE)
        rec["pc"] = pcs
        rec["line"] = lines
        rec["gap"] = gaps
        return Trace.from_records(
            meta["name"], meta["input_name"], rec, mlp=int(meta["mlp"])
        )
    return Trace(
        name=meta["name"],
        input_name=meta["input_name"],
        pcs=[int(x) for x in pcs],
        lines=[int(x) for x in lines],
        gaps=[int(x) for x in gaps],
        mlp=int(meta["mlp"]),
    )


# ----------------------------------------------------------------------
# JSON traces
# ----------------------------------------------------------------------
def load_json_trace(path: Union[str, Path]) -> Trace:
    """Read a JSON trace: ``{"lines": [...], "gaps": [...], ...}``.

    Required key: ``lines`` (cache-line addresses).  Optional keys:
    ``pcs`` (defaults to a single synthetic PC), ``gaps`` (defaults to
    zeros), ``name``/``input_name``/``mlp`` identity fields.  Array
    lengths must agree.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "lines" not in data:
        raise ValueError(f"{path}: JSON trace needs a 'lines' array")
    lines = [int(x) for x in data["lines"]]
    if not lines:
        raise ValueError(f"{path}: no records found")
    raw_pcs = data.get("pcs")
    raw_gaps = data.get("gaps")
    pcs = (
        [int(x) for x in raw_pcs] if raw_pcs is not None
        else [K6_DEFAULT_PC] * len(lines)
    )
    gaps = (
        [int(x) for x in raw_gaps] if raw_gaps is not None
        else [0] * len(lines)
    )
    if not (len(pcs) == len(lines) == len(gaps)):
        raise ValueError(f"{path}: pcs/lines/gaps lengths differ")
    return Trace(
        name=str(data.get("name") or path.stem),
        input_name=str(data.get("input_name") or ""),
        pcs=pcs,
        lines=lines,
        gaps=gaps,
        mlp=int(data.get("mlp", 4)),
    )


def save_json_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` as JSON (lossless inverse of :func:`load_json_trace`)."""
    path = Path(path)
    path.write_text(json.dumps({
        "name": trace.name,
        "input_name": trace.input_name,
        "mlp": trace.mlp,
        "pcs": list(trace.pcs),
        "lines": list(trace.lines),
        "gaps": list(trace.gaps),
    }))
    return path


# ----------------------------------------------------------------------
# DRAMSim2 k6 text traces
# ----------------------------------------------------------------------
def _parse_k6_int(token: str) -> int:
    return int(token, 16) if token.lower().startswith("0x") else int(token)


def load_k6_trace(
    path: Union[str, Path],
    name: str = "",
    input_name: str = "k6",
    pc: int = K6_DEFAULT_PC,
    mlp: int = 4,
    line_shift: int = 6,
) -> Trace:
    """Read a DRAMSim2-style k6 trace: ``<address> <command> <cycle>``.

    Addresses may be hex (``0x10040``) or decimal; commands ``P_MEM_RD``
    and ``P_MEM_WR`` are accepted (``BOFF`` lines are skipped), and blank
    lines / ``#`` or ``;`` comments are ignored.  The k6 format has no
    program counters, so every record gets the synthetic ``pc``; the
    cycle column becomes the per-record ``gap`` (instructions between
    consecutive accesses), preserving the trace's pacing through the
    timing model.  Cycles must be non-decreasing.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    lines: list = []
    gaps: list = []
    prev_cycle = None
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        text = raw.strip()
        if not text or text.startswith(("#", ";")):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise ValueError(
                f"{path}:{lineno}: expected '<address> <command> <cycle>', "
                f"got {text!r}"
            )
        address, command, cycle_s = parts
        if command not in _K6_COMMANDS:
            raise ValueError(
                f"{path}:{lineno}: unknown k6 command {command!r}"
            )
        if command == "BOFF":  # bus-off marker: no memory access
            continue
        cycle = _parse_k6_int(cycle_s)
        if prev_cycle is not None and cycle < prev_cycle:
            raise ValueError(
                f"{path}:{lineno}: cycle {cycle} goes backwards "
                f"(previous {prev_cycle})"
            )
        gap = cycle if prev_cycle is None else max(0, cycle - prev_cycle - 1)
        lines.append(_parse_k6_int(address) >> line_shift)
        gaps.append(gap)
        prev_cycle = cycle
    if not lines:
        raise ValueError(f"{path}: no k6 records found")
    return Trace(
        name=name or path.stem,
        input_name=input_name,
        pcs=[pc] * len(lines),
        lines=lines,
        gaps=gaps,
        mlp=mlp,
    )


def save_k6_trace(
    trace: Trace, path: Union[str, Path], line_shift: int = 6
) -> Path:
    """Write ``trace`` in k6 format (``<address> <command> <cycle>``).

    The export is lossy by design of the format: PCs are dropped (k6 has
    no PC column) and every access is emitted as a read.  Line addresses
    and gaps survive a :func:`load_k6_trace` round-trip exactly.
    """
    path = Path(path)
    out = []
    cycle = 0
    for i, (line, gap) in enumerate(zip(trace.lines, trace.gaps)):
        cycle += gap if i == 0 else gap + 1
        out.append(f"0x{line << line_shift:x} {K6_READ} {cycle}")
    path.write_text("\n".join(out) + "\n")
    return path
