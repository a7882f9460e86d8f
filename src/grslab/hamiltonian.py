"""Non-self-adjoint Hamiltonians in finite-difference form.

The differential forms are second-order central-difference discretizations
on uniform grids with Dirichlet ends; they are verified through
eigen-residuals of known eigenpairs, never by blind spectral recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import symfun
from .basis import QuadratureRule
from .defaults import BOUNDARY_MASS, FD_MIN_POINTS
from .errors import DomainError, ResolutionError, StructureError

__all__ = [
    "DifferentialHamiltonian",
    "FD_KINDS",
    "fd_matrix",
    "fd_apply",
    "eigen_residual",
]

FD_KINDS = ("shifted_ho", "example1", "example1_adjoint", "perturbed_anharmonic")


@dataclass(frozen=True)
class DifferentialHamiltonian:
    """Tridiagonal stencil of a differential operator on a uniform grid.

    ``lower[j]`` couples row j+1 to column j, ``upper[j]`` row j to column
    j+1; Dirichlet ends (values beyond the grid are treated as zero).
    """

    kind: str
    grid: QuadratureRule
    lower: NDArray
    diag: NDArray
    upper: NDArray

    def __post_init__(self) -> None:
        for name in ("lower", "diag", "upper"):
            a = np.ascontiguousarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _grid_arrays(grid: QuadratureRule) -> tuple[np.ndarray, float]:
    if grid.kind != "uniform_trapezoid":
        raise StructureError("finite differences need a uniform grid")
    if len(grid) < FD_MIN_POINTS:
        raise ResolutionError(f"need at least {FD_MIN_POINTS} grid points, got {len(grid)}")
    x = grid.nodes
    return x, float(x[1] - x[0])


def fd_matrix(
    kind: str,
    grid: QuadratureRule,
    a: float = 0.0,
    beta: float | None = None,
    p=None,
) -> DifferentialHamiltonian:
    """Assemble the central-difference stencil of the named operator.

    d^2/dx^2 -> (f_{j+1} - 2 f_j + f_{j-1})/h^2 and
    d/dx -> (f_{j+1} - f_{j-1})/(2h); drift symbols and their derivatives
    come analytically from the symbol grammar (``p`` may be a source string
    or a parsed expression).
    """
    if kind not in FD_KINDS:
        raise DomainError(f"kind must be one of {FD_KINDS}, got {kind!r}")
    x, h = _grid_arrays(grid)
    m = x.size

    if kind == "shifted_ho":
        lower = np.full(m - 1, -1.0 / h**2, dtype=complex)
        upper = lower.copy()
        diag = (2.0 / h**2 + x * x + 2j * a * x).astype(complex)
        return DifferentialHamiltonian(kind, grid, lower, diag, upper)

    if kind in ("example1", "example1_adjoint"):
        # (1/2)(-f'' -+ (-x) f' + (3x^2/4 -+ 1/2) f); drift sign flips between
        # the operator and its adjoint, as does the constant shift.
        s = -1.0 if kind == "example1" else 1.0
        drift = s * x / 2.0  # coefficient of f'
        lower = np.full(m - 1, -0.5 / h**2) - drift[1:] / (2.0 * h)
        upper = np.full(m - 1, -0.5 / h**2) + drift[:-1] / (2.0 * h)
        diag = 1.0 / h**2 + (3.0 * x * x / 8.0 + s * 0.25)
        return DifferentialHamiltonian(kind, grid, lower, diag, upper)

    if beta is None or not beta > 2:
        raise DomainError(f"perturbed_anharmonic needs beta > 2, got {beta!r}")
    expr = symfun.parse(p) if isinstance(p, str) else p
    if expr is None:
        raise DomainError("perturbed_anharmonic needs the odd symbol p")
    _, p1, p2 = symfun.eval012(expr, x)
    drift = 2.0 * p1
    lower = np.full(m - 1, -1.0 / h**2) - drift[1:] / (2.0 * h)
    upper = np.full(m - 1, -1.0 / h**2) + drift[:-1] / (2.0 * h)
    diag = 2.0 / h**2 + np.abs(x) ** beta + p2 - p1 * p1
    return DifferentialHamiltonian(kind, grid, lower, diag, upper)


def fd_apply(hd: DifferentialHamiltonian, values: np.ndarray) -> np.ndarray:
    """Matrix-vector product of the stencil with sampled values."""
    v = np.asarray(values)
    if v.shape != hd.grid.nodes.shape:
        raise StructureError("sample count does not match the operator grid")
    r = hd.diag * v
    r = r.astype(np.result_type(r.dtype, hd.lower.dtype, v.dtype))
    r[:-1] += hd.upper * v[1:]
    r[1:] += hd.lower * v[:-1]
    return r


def eigen_residual(hd: DifferentialHamiltonian, v: np.ndarray, lam: complex) -> float:
    """||H v - lam v||_2 / ||v||_2 over the interior nodes, for samples ``v``
    on the operator grid.

    Functions with non-negligible boundary magnitude are rejected: the
    Dirichlet stencil would charge the residual with window truncation
    instead of discretization error.
    """
    sup = float(np.max(np.abs(v)))
    if sup == 0.0:
        raise DomainError("zero function has no eigen-residual")
    edge = float(max(abs(v[0]), abs(v[-1])))
    if edge > BOUNDARY_MASS * sup:
        raise ResolutionError(
            f"boundary magnitude {edge:.2e} exceeds {BOUNDARY_MASS:.0e} x sup; "
            "widen the grid before measuring residuals"
        )
    r = (fd_apply(hd, v) - lam * v)[1:-1]
    return float(np.linalg.norm(r) / np.linalg.norm(v[1:-1]))

