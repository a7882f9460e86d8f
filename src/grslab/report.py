"""Machine-readable verification reports.

A report is a list of named defect checks: each check passes exactly when
|value| <= tolerance (a missing value, from a computation that raised,
never passes).  JSON serialization is deterministic modulo the wall-time
fields; matrix artifacts go to CSV with the fixed header ``n,m,value_re,
value_im``.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from dataclasses import dataclass, field
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

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
            "error": self.error,
        }


def run_check(name: str, tolerance: float, fn: Callable[[], float]) -> Check:
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
    return Check(name, value, float(tolerance), bool(passed), elapsed, error)


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


def versions_block() -> dict:
    import scipy

    from . import __version__

    return {
        "grslab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
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
    """Dump a complex matrix as rows ``n,m,value_re,value_im``."""
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    # byte-identical to csv.writer output: no field needs quoting, lines end
    # in "\r\n"; one write per matrix row keeps the text out of peak memory
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("n,m,value_re,value_im\r\n")
            for i, row in enumerate(m):
                fh.write("".join([
                    f"{i},{j},{re!r},{im!r}\r\n"
                    for j, (re, im) in enumerate(zip(row.real.tolist(), row.imag.tolist()))
                ]))
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
