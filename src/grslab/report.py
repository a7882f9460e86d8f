"""Machine-readable verification reports.

A report is a list of named defect checks: each check passes exactly when
|value| <= tolerance (a missing value, from a computation that raised,
never passes).  JSON serialization is deterministic modulo the wall-time
fields; matrix artifacts go to CSV with the fixed header ``n,m,value_re,
value_im``.
"""

from __future__ import annotations

import functools
import json
import platform
import time
from dataclasses import dataclass, field
from importlib.util import find_spec
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import GrslabError

__all__ = [
    "Check",
    "VerificationReport",
    "run_check",
    "emit_json",
    "write_matrix_csv",
    "write_overlap_csv",
    "versions_block",
]


@dataclass
class Check:
    name: str
    value: float | None
    tolerance: float
    passed: bool
    wall_time_s: float
    error: str | None = None
    #: where the tolerance came from: ``flag``, ``config`` or ``default:NAME``
    tolerance_source: str | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "tolerance_source": self.tolerance_source,
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
            "error": self.error,
        }


def run_check(name: str, tolerance: float, fn: Callable[[], float], source: str | None = None) -> Check:
    """Evaluate one defect number; library errors mark the check failed."""
    start = time.perf_counter()
    error = None
    try:
        value = float(fn())
        if not np.isfinite(value):
            error = f"non-finite value {value!r}"
            value = None
    except GrslabError as exc:
        value = None
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    passed = value is not None and abs(value) <= tolerance
    return Check(name, value, float(tolerance), bool(passed), elapsed, error, source)


@dataclass
class VerificationReport:
    example: str
    params: dict
    settings: dict
    checks: list[Check] = field(default_factory=list)
    matrices: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "example": self.example,
            "params": self.params,
            "settings": self.settings,
            "checks": [c.as_dict() for c in self.checks],
            "matrices": list(self.matrices),
            "versions": versions_block(),
        }


@functools.cache
def _scipy_version() -> str | None:
    """The installed scipy's version, read from the ``Version:`` line of the
    dist-info beside the package so that reports import neither scipy nor
    ``importlib.metadata`` (and its email parser); looked up once per process."""
    spec = find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    site = Path(next(iter(spec.submodule_search_locations))).parent
    for meta in sorted(site.glob("scipy-*.dist-info/METADATA")):
        with open(meta, encoding="utf-8") as fh:
            return next((line[8:].strip() for line in fh if line.startswith("Version:")), None)
    return None


def versions_block() -> dict:
    from . import __version__

    return {
        "grslab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
    }


def emit_json(report: VerificationReport, path: str) -> None:
    """Write the report as JSON (sorted keys, stable float formatting)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise GrslabError(f"cannot write report to {path!r}: {exc}") from exc


def write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    """Dump a matrix as rows ``n,m,value_re,value_im``; a real matrix writes
    the imaginary part 0.0 of its complex cast."""
    m = np.atleast_2d(np.asarray(matrix))
    if np.iscomplexobj(m):  # each entry's real and imaginary parts side by side, as stored
        values, end = np.ascontiguousarray(m, dtype=complex).view(float).reshape(*m.shape, 2), b"\r\n"
    else:
        values, end = m.astype(float, copy=False)[..., None], b",0.0\r\n"
    _write_table(path, "n,m,value_re,value_im", values, end, "matrix")


def write_overlap_csv(closed: np.ndarray, quad: np.ndarray, path: str) -> None:
    """Comparison table of closed-form vs quadrature overlap magnitudes."""
    closed, quad = np.asarray(closed, dtype=float), np.asarray(quad, dtype=complex)
    values = np.stack([closed, quad.real, quad.imag, np.abs(np.abs(quad) - closed)], axis=-1)
    _write_table(path, "n,m,closed_form,quad_re,quad_im,abs_diff", values, b"\r\n", "overlap table")


_VALUES = 3072  # values digitized per block of whole rows; a block's temporaries stay under 0.5 MB


def _write_table(path: str, header: str, values: np.ndarray, end: bytes, what: str) -> None:
    """Write ``header`` and ``n,m,v1,...`` plus ``end`` per row of ``values[n, m]``, the bytes ``csv.writer``
    writes for their ``repr``.  A block of whole rows is lines of fixed-width slots padded with NUL bytes
    ("n," ends its slot, "m," starts the next, each text ends its own); only the row slots and the texts
    change from block to block, and one boolean gather drops the padding."""
    from . import floattext  # only a process that writes a CSV loads the formatter

    rows, cols, fields = values.shape
    index = [b"%d," % k for k in range(max(rows, cols))]
    wide = max(map(len, index), default=0)
    left = np.array(index, f"S{wide}")[:, None].view(np.uint8)
    right = np.array([k.rjust(wide, b"\0") for k in index], f"S{wide}")[:, None].view(np.uint8)
    per, slot = max(1, min(rows, _VALUES // max(1, cols * fields))), floattext.WIDTH + 1
    line = np.zeros((per, cols, 2 * wide + slot * fields + len(end) - 1), np.uint8)
    line[:, :, wide : 2 * wide] = left[:cols]
    cells = line[:, :, 2 * wide : 2 * wide + slot * fields].reshape(per, cols, fields, slot)
    cells[..., -1], line[..., -len(end) :] = ord(","), np.frombuffer(end, np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii") + b"\r\n")
            for r0 in range(0, rows, per):
                n = min(per, rows - r0)
                line[:n, :, :wide] = right[r0 : r0 + n, None]
                cells[:n, :, :, :-1] = floattext.float_text(values[r0 : r0 + n]).reshape(n, cols, fields, slot - 1)
                fh.write(line[:n][line[:n] != 0])
    except OSError as exc:
        raise GrslabError(f"cannot write {what} to {path!r}: {exc}") from exc
