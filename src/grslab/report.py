"""Machine-readable verification reports.

A report is a list of named defect checks: each check passes exactly when
|value| <= tolerance (a missing value, from a computation that raised,
never passes).  JSON serialization is deterministic modulo the wall-time
fields; matrix artifacts go to CSV with the fixed header ``n,m,value_re,
value_im``.
"""

from __future__ import annotations

import csv
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
    """Dump a matrix as rows ``n,m,value_re,value_im``.

    A real matrix writes the imaginary part 0.0 that its complex cast would
    carry, without formatting it once per entry."""
    m = np.asarray(matrix)
    real = not np.iscomplexobj(m)
    m = np.atleast_2d(m.astype(float if real else complex, copy=False))
    # byte-identical to csv.writer output: no field needs quoting, lines end
    # in "\r\n"; one write per matrix row keeps the text out of peak memory
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("n,m,value_re,value_im\r\n")
            cols = [f",{j}," for j in range(m.shape[1])]
            for i, row in enumerate(m):
                if real:
                    lines = [f"{i}{c}{re!r},0.0\r\n" for c, re in zip(cols, row.tolist())]
                else:
                    lines = [f"{i}{c}{re!r},{im!r}\r\n"
                             for c, re, im in zip(cols, row.real.tolist(), row.imag.tolist())]
                fh.write("".join(lines))
    except OSError as exc:
        raise GrslabError(f"cannot write matrix to {path!r}: {exc}") from exc


def write_overlap_csv(closed: np.ndarray, quad: np.ndarray, path: str) -> None:
    """Comparison table of closed-form vs quadrature overlap magnitudes."""
    closed = np.asarray(closed)
    quad = np.asarray(quad, dtype=complex)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "m", "closed_form", "quad_re", "quad_im", "abs_diff"])
            for i in range(closed.shape[0]):
                for j in range(closed.shape[1]):
                    diff = abs(abs(quad[i, j]) - closed[i, j])
                    writer.writerow(
                        [i, j, repr(float(closed[i, j])), repr(float(quad[i, j].real)),
                         repr(float(quad[i, j].imag)), repr(float(diff))]
                    )
    except OSError as exc:
        raise GrslabError(f"cannot write overlap table to {path!r}: {exc}") from exc
