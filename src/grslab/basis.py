"""Orthonormal bases and quadrature rules.

Two basis families are supported: analytic Hermite functions

    e_n(z) = (2^n n! sqrt(pi))^{-1/2} H_n(z) exp(-z^2/2),

entire in z and therefore evaluable at complex arguments, and the numerically
computed eigenbasis of the anharmonic oscillator -d^2/dx^2 + |x|^beta on a
uniform grid.  Quadrature rules carry both their raw weights (which satisfy
the Gaussian moment identities) and plain-dx weights for integrating sampled
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .defaults import GRID_MARGIN, HERMITE_MAX_DEGREE, IM_Z_BOUND, PARITY_CHECK_TOL
from .errors import DomainError, MagnitudeError, NumericError, ResolutionError, StructureError

__all__ = [
    "QuadratureRule",
    "BasisSet",
    "gauss_hermite_rule",
    "uniform_trapezoid_rule",
    "hermite_function",
    "hermite_function_table",
    "hermite_basis",
    "anharmonic_eigenbasis",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a one-dimensional quadrature.

    ``weights`` are the native weights of the rule: for ``gauss_hermite`` they
    integrate f against exp(-scale x^2), for ``uniform_trapezoid`` against dx.
    ``dx_weights`` always integrate plain sampled functions against dx (for
    Gauss-Hermite this folds the Gaussian weight back out).
    """

    kind: str
    nodes: NDArray
    weights: NDArray
    dx_weights: NDArray
    scale: float | None = None
    half_width: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "dx_weights", _readonly(self.dx_weights))
        if np.any(np.diff(self.nodes) <= 0):
            raise NumericError("quadrature nodes are not strictly increasing")
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.dx_weights)):
            raise NumericError("quadrature weights are not positive finite")

    def __len__(self) -> int:
        return self.nodes.size

    @property
    def is_symmetric(self) -> bool:
        """True when the nodes are exactly antisymmetric about 0."""
        return bool(np.array_equal(self.nodes, -self.nodes[::-1]))

    def norm(self, values: np.ndarray):
        """L2 norm sqrt(int |f|^2 dx) of a sampled function, or of each row of
        a table of them (dx sense)."""
        return np.sqrt(np.abs(np.sum(self.dx_weights * np.abs(values) ** 2, axis=-1)))


def gauss_hermite_rule(order: int, scale: float = 1.0) -> QuadratureRule:
    """Gauss-Hermite rule for the weight exp(-scale x^2).

    Nodes and weights come from the eigen-decomposition of the symmetric
    tridiagonal Jacobi matrix of the Hermite polynomials (off-diagonal
    sqrt(k/2)); a rule of order q integrates x^k exp(-scale x^2) exactly for
    all k <= 2q - 1.  Nodes are antisymmetrized so parity is exact.
    """
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= 1024:
        raise DomainError(f"order must be an integer in [1, 1024], got {order!r}")
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale!r}")
    if order == 1:
        x = np.zeros(1)
    else:
        try:
            x = eigh_tridiagonal(
                np.zeros(order), np.sqrt(np.arange(1, order) / 2.0), eigvals_only=True
            )
        except LinAlgError as exc:  # pragma: no cover - scipy QL failure
            raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
        x = (x - x[::-1]) / 2.0  # exact antisymmetry
    # The first eigenvector component underflows for large orders, so the
    # weights come from the closed form w_i exp(x_i^2) = 1/(q e_{q-1}(x_i)^2)
    # instead; the normalized Hermite value is O(1) at every node.
    dxw = 1.0 / (order * _hermite_value(order - 1, x) ** 2)
    w = dxw * np.exp(-x * x)
    root = math.sqrt(scale)
    x = x / root
    w = w / root
    dxw = dxw / root
    if np.any(w <= 0) or not np.all(np.isfinite(dxw)):
        raise NumericError(
            f"weights fell out of the double range at order {order}; reduce the order"
        )
    return QuadratureRule("gauss_hermite", x, w, dxw, scale=float(scale))


def _hermite_value(n: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite function value at real points, degree-uncapped.

    Internal to the rule construction; the public evaluator enforces the
    configured degree cap.
    """
    e_prev = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n == 0:
        return e_prev
    e = math.sqrt(2.0) * x * e_prev
    for k in range(1, n):
        e, e_prev = x * math.sqrt(2.0 / (k + 1)) * e - math.sqrt(k / (k + 1.0)) * e_prev, e
    return e


def uniform_trapezoid_rule(half_width: float, points: int) -> QuadratureRule:
    """Trapezoid rule on [-L, L] with exactly antisymmetric nodes."""
    if not half_width > 0:
        raise DomainError(f"half_width must be positive, got {half_width!r}")
    if not isinstance(points, (int, np.integer)) or points < 2:
        raise DomainError(f"need at least 2 points, got {points!r}")
    h = 2.0 * half_width / (points - 1)
    x = (np.arange(points) - (points - 1) / 2.0) * h
    w = np.full(points, h)
    w[0] = w[-1] = h / 2.0
    return QuadratureRule("uniform_trapezoid", x, w, w.copy(), half_width=float(half_width))


# ---------------------------------------------------------------------------
# Hermite functions
# ---------------------------------------------------------------------------

def hermite_function_table(nmax: int, z) -> np.ndarray:
    """All normalized Hermite functions e_0..e_nmax at the points z.

    Uses the normalized recurrence

        e_{k+1} = z sqrt(2/(k+1)) e_k - sqrt(k/(k+1)) e_{k-1}

    seeded with e_0 = pi^{-1/4} exp(-z^2/2), which never touches the raw
    factorials and is stable to degree several hundred.  Complex arguments are
    accepted with |Im z| <= IM_Z_BOUND to keep magnitudes representable.
    """
    if not isinstance(nmax, (int, np.integer)) or nmax < 0:
        raise DomainError(f"nmax must be a nonnegative integer, got {nmax!r}")
    if nmax > HERMITE_MAX_DEGREE:
        raise DomainError(f"degree {nmax} exceeds configured max {HERMITE_MAX_DEGREE}")
    zz = np.asarray(z)
    if np.iscomplexobj(zz) and np.max(np.abs(zz.imag), initial=0.0) > IM_Z_BOUND:
        raise MagnitudeError(
            f"|Im z| = {np.max(np.abs(zz.imag)):.3g} exceeds the bound {IM_Z_BOUND}"
        )
    zz = zz.astype(complex if np.iscomplexobj(zz) else float)
    out = np.empty((nmax + 1,) + zz.shape, dtype=zz.dtype)
    out[0] = math.pi ** -0.25 * np.exp(-zz * zz / 2.0)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * zz * out[0]
    for k in range(1, nmax):
        out[k + 1] = zz * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    if not np.all(np.isfinite(out)):
        raise MagnitudeError("Hermite function recurrence left the representable range")
    return out


def hermite_function(n: int, z):
    """Normalized Hermite function e_n(z); entire, so z may be complex."""
    return hermite_function_table(n, z)[n][()]


# ---------------------------------------------------------------------------
# Basis sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSet:
    """An orthonormal basis truncated to ``size`` members.

    ``parity_signs[n] = (-1)^n`` records that each member is a parity
    eigenvector.  Numeric bases carry their grid, the sampled eigenvectors
    (columns L2-normalized) and the eigenvalues.
    """

    kind: str
    size: int
    parity_signs: tuple[int, ...]
    grid: QuadratureRule | None = None
    vectors: NDArray | None = None
    energies: NDArray | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.vectors is not None:
            object.__setattr__(self, "vectors", _readonly(self.vectors))
        if self.energies is not None:
            object.__setattr__(self, "energies", _readonly(self.energies))

    @property
    def is_analytic(self) -> bool:
        return self.kind == "hermite_analytic"

    def member_samples(self, n: int, rule: QuadratureRule) -> np.ndarray:
        """Values of e_n at the nodes of ``rule``."""
        if not 0 <= n < self.size:
            raise DomainError(f"basis index {n} out of range [0, {self.size})")
        if self.is_analytic:
            return hermite_function_table(n, rule.nodes)[n]
        if rule is not self.grid and not np.array_equal(rule.nodes, self.grid.nodes):
            raise StructureError("numeric basis members exist only on their own grid")
        return np.asarray(self.vectors[:, n])

    def table(self, rule: QuadratureRule) -> np.ndarray:
        """Matrix (size, points) of all members sampled at the rule nodes."""
        if self.is_analytic:
            return hermite_function_table(self.size - 1, rule.nodes)
        if rule is not self.grid and not np.array_equal(rule.nodes, self.grid.nodes):
            raise StructureError("numeric basis members exist only on their own grid")
        return np.asarray(self.vectors.T)


def hermite_basis(size: int) -> BasisSet:
    """The first ``size`` analytic Hermite functions."""
    if not isinstance(size, (int, np.integer)) or size < 1:
        raise DomainError(f"basis size must be a positive integer, got {size!r}")
    if size - 1 > HERMITE_MAX_DEGREE:
        raise DomainError(f"size {size} exceeds configured max degree {HERMITE_MAX_DEGREE}")
    signs = tuple((-1) ** n for n in range(size))
    return BasisSet("hermite_analytic", int(size), signs)


def anharmonic_eigenbasis(beta: float, grid: QuadratureRule, k: int) -> BasisSet:
    """Lowest k eigenpairs of -d^2/dx^2 + |x|^beta on a uniform grid.

    Second-order central differences with Dirichlet ends; eigenvectors are
    L2-normalized, sign-fixed so that the first resolvable sample at or left
    of the grid center is positive, and checked to alternate in parity
    starting even.  For beta > 2 the potential is C^1, which is all the
    second-order stencil needs; |x|^beta is evaluated directly.
    """
    if not beta > 2:
        raise DomainError(f"anharmonic exponent must exceed 2, got {beta!r}")
    if grid.kind != "uniform_trapezoid":
        raise StructureError("anharmonic eigenbasis needs a uniform rule")
    if not grid.is_symmetric:
        raise StructureError("anharmonic eigenbasis needs a grid symmetric about 0")
    points = len(grid)
    if not isinstance(k, (int, np.integer)) or k < 1 or k > points // 4:
        raise DomainError(f"need 1 <= k <= points/4, got k={k!r} at {points} points")
    x = grid.nodes
    h = x[1] - x[0]
    diag = 2.0 / h**2 + np.abs(x) ** beta
    off = np.full(points - 1, -1.0 / h**2)
    try:
        energies, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    except LinAlgError as exc:
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
    if np.any(np.diff(energies) <= 0):
        raise NumericError("anharmonic energies are not strictly increasing")
    vectors = vectors / math.sqrt(h)  # unit l2 -> unit L2

    center = (points - 1) // 2
    for n in range(k):
        v = vectors[:, n]
        amax = np.max(np.abs(v))
        j = center
        while j >= 0 and abs(v[j]) <= 1e-8 * amax:
            j -= 1
        if j < 0:  # pragma: no cover - would need a zero vector
            raise NumericError(f"eigenvector {n} vanished on the left half grid")
        if v[j] < 0:
            vectors[:, n] = -v
        sign = (-1) ** n
        parity_defect = np.max(np.abs(vectors[::-1, n] - sign * vectors[:, n])) / amax
        if parity_defect > PARITY_CHECK_TOL:
            raise ResolutionError(
                f"eigenvector {n} parity defect {parity_defect:.2e} exceeds "
                f"{PARITY_CHECK_TOL:.0e}; refine the grid"
            )
    signs = tuple((-1) ** n for n in range(k))
    return BasisSet(
        "anharmonic_numeric",
        int(k),
        signs,
        grid=grid,
        vectors=vectors,
        energies=energies,
        beta=float(beta),
    )


def hermite_half_width(n: int) -> float:
    """Half-width heuristic for uniform grids carrying Hermite content to
    index n: classical turning point sqrt(2n+1) plus Gaussian tail margin."""
    return math.sqrt(2 * n + 1) + GRID_MARGIN
