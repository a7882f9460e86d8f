"""Orthonormal bases and quadrature rules.

Two basis families are supported: analytic Hermite functions

    e_n(z) = (2^n n! sqrt(pi))^{-1/2} H_n(z) exp(-z^2/2),

entire in z and therefore evaluable at complex arguments, and the numerically
computed eigenbasis of the anharmonic oscillator -d^2/dx^2 + |x|^beta on a
uniform grid.  Quadrature rules carry plain-dx weights for integrating
sampled functions.
"""

from __future__ import annotations

import functools
import importlib.machinery
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .defaults import GAUSS_MAX_ORDER, HERMITE_MAX_DEGREE, IM_Z_BOUND
from .errors import DomainError, GrslabError, MagnitudeError, NumericError, StructureError

__all__ = [
    "QuadratureRule",
    "BasisSet",
    "gauss_hermite_rule",
    "uniform_trapezoid_rule",
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

    ``dx_weights`` integrate plain sampled functions against dx; for
    ``gauss_hermite`` they fold the Gaussian weight exp(-x^2) back out, so
    ``dx_weights * exp(-x^2)`` are the rule's textbook weights.
    """

    kind: str
    nodes: NDArray
    dx_weights: NDArray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        object.__setattr__(self, "dx_weights", _readonly(self.dx_weights))
        if np.any(np.diff(self.nodes) <= 0):
            raise NumericError("quadrature nodes are not strictly increasing")
        if not np.all((self.dx_weights > 0) & np.isfinite(self.dx_weights)):
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
        mass = np.abs(values)  # the one (N x P) temporary, squared and weighted in place
        np.square(mass, out=mass)
        np.multiply(self.dx_weights, mass, out=mass)
        return np.sqrt(np.abs(np.sum(mass, axis=-1)))


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Gauss-Hermite rule for the weight exp(-x^2).

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    of the Hermite polynomials (zero diagonal, off-diagonal sqrt(k/2)),
    computed by ``numpy.linalg.eigvalsh`` on the dense matrix; the weights
    follow from the nodes in closed form.  A rule of order q integrates
    x^k exp(-x^2) exactly for all k <= 2q - 1.  Nodes are
    antisymmetrized so parity is exact.

    A rule depends on nothing but its order, so each valid order is built
    once per process and kept in a bounded LRU cache: repeated calls return
    the same shared, read-only :class:`QuadratureRule`.  The order is
    checked on every call, and an invalid one is never cached.

    Orders run up to ``GAUSS_MAX_ORDER``, the last order whose largest node
    keeps the Hermite recurrence's start pi^{-1/4} exp(-x^2/2) a normal
    double; the weights come from that recurrence.
    """
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= GAUSS_MAX_ORDER:
        raise DomainError(
            f"order must be an integer in [1, {GAUSS_MAX_ORDER}], got {order!r}; past "
            f"{GAUSS_MAX_ORDER} the Hermite recurrence's start underflows at the largest node"
        )
    return _gauss_hermite_rule(int(order))


#: a rule of order q holds two arrays of q doubles, at most 12 KB at q = 728
@functools.lru_cache(maxsize=64)
def _gauss_hermite_rule(order: int) -> QuadratureRule:
    """:func:`gauss_hermite_rule` for a checked order."""
    if order == 1:
        x = np.zeros(1)
    else:
        off = np.sqrt(np.arange(1, order) / 2.0)
        try:
            x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Jacobi matrix eigensolver failed: {exc}") from exc
        x = (x - x[::-1]) / 2.0  # exact antisymmetry
    # The first eigenvector component underflows for large orders, so the
    # weights come from the closed form w_i exp(x_i^2) = 1/(q e_{q-1}(x_i)^2)
    # instead; the normalized Hermite value is O(1) at every node.
    dxw = 1.0 / (order * _hermite_table(order - 1, x)[-1] ** 2)
    return QuadratureRule("gauss_hermite", x, dxw)


def uniform_trapezoid_rule(half_width: float, points: int) -> QuadratureRule:
    """Trapezoid rule on [-L, L] with exactly antisymmetric nodes."""
    if not 0 < half_width < math.inf:
        raise DomainError(f"half_width must be positive and finite, got {half_width!r}")
    if not isinstance(points, (int, np.integer)) or points < 2:
        raise DomainError(f"need at least 2 points, got {points!r}")
    h = 2.0 * half_width / (points - 1)
    x = (np.arange(points) - (points - 1) / 2.0) * h
    w = np.full(points, h)
    w[0] = w[-1] = h / 2.0
    return QuadratureRule("uniform_trapezoid", x, w)


# ---------------------------------------------------------------------------
# Hermite functions
# ---------------------------------------------------------------------------

def hermite_function_table(nmax: int, z) -> np.ndarray:
    """All normalized Hermite functions e_0..e_nmax at the points z.

    Uses the normalized recurrence

        e_{k+1} = z sqrt(2/(k+1)) e_k - sqrt(k/(k+1)) e_{k-1}

    seeded with e_0 = pi^{-1/4} exp(-z^2/2), which never touches the raw
    factorials and is stable to degree several hundred.  Complex arguments are
    accepted with |Im z| <= IM_Z_BOUND to keep magnitudes representable; a
    point whose seed is below the normal double range (real part past about
    37.6) raises :class:`MagnitudeError`.
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
    return _hermite_table(nmax, zz.astype(complex if np.iscomplexobj(zz) else float))


def _hermite_table(nmax: int, zz: np.ndarray) -> np.ndarray:
    """The recurrence of :func:`hermite_function_table` at float or complex
    points, without its argument checks or degree cap.  A start below the
    normal double range is refused: the recurrence would carry its lost
    digits (or its zero) into every degree."""
    out = np.empty((nmax + 1,) + zz.shape, dtype=zz.dtype)
    out[0] = math.pi ** -0.25 * np.exp(-zz * zz / 2.0)
    if np.any(np.abs(out[0]) < np.finfo(float).tiny):
        raise MagnitudeError("Hermite function recurrence starts below the normal double range")
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * zz * out[0]
    for k in range(1, nmax):
        out[k + 1] = zz * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    if not np.all(np.isfinite(out)):
        raise MagnitudeError("Hermite function recurrence left the representable range")
    return out


# ---------------------------------------------------------------------------
# Basis sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSet:
    """An orthonormal basis truncated to ``size`` members.

    ``parity_signs[n] = (-1)^n`` records that each member is a parity
    eigenvector.  Numeric bases carry their grid, the sampled eigenvectors
    (columns L2-normalized) and the eigenvalues; each column must mirror
    about the grid center with its sign bit for bit, or the basis is refused.
    """

    kind: str
    size: int
    parity_signs: tuple[int, ...]
    grid: QuadratureRule | None = None
    vectors: NDArray | None = None
    energies: NDArray | None = None

    def __post_init__(self) -> None:
        if self.vectors is not None:
            object.__setattr__(self, "vectors", _readonly(self.vectors))
            if not np.array_equal(self.vectors[::-1], np.array(self.parity_signs) * self.vectors):
                raise StructureError("basis vectors are not parity eigenvectors with their signs")
        if self.energies is not None:
            object.__setattr__(self, "energies", _readonly(self.energies))

    @property
    def is_analytic(self) -> bool:
        return self.kind == "hermite_analytic"

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


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrapper, loaded without the ``scipy.linalg``
    package, whose import (numpy.f2py, numpy.testing and numpy.ma come with
    it) outweighs the two half-grid solves many times at small N.

    The top-level ``scipy`` package is imported first (on Windows it sets up
    the search path of the bundled libraries).  A copy loaded here leaves no
    ``scipy.linalg._flapack`` entry behind without its parent package, so a
    later ``import scipy.linalg`` loads as usual.
    """
    name = "scipy.linalg._flapack"
    try:
        import scipy
    except ImportError as exc:
        raise GrslabError(f"the anharmonic eigenbasis needs scipy: {exc}") from exc
    if "scipy.linalg" in sys.modules:
        return sys.modules[name]
    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise GrslabError(f"scipy {scipy.__version__} ships no LAPACK wrapper in {folder}")
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = loader.create_module(importlib.machinery.ModuleSpec(name, loader, origin=str(path)))
    loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def anharmonic_eigenbasis(beta: float, grid: QuadratureRule, k: int) -> BasisSet:
    """Lowest k eigenpairs of -d^2/dx^2 + |x|^beta on a uniform grid.

    Second-order central differences with Dirichlet ends.  The stencil
    commutes with parity, so the even and the odd members are solved apart on
    the half grid at and right of the center, with the mirror coupling folded
    into the first row, and unfolded by mirroring with their sign: each member
    is a parity eigenvector bit for bit, and strictly increasing energies
    certify that the two blocks interleave.  Each half grid is solved by
    LAPACK's dstebz and dstein through the wrapper scipy compiles (see
    :func:`_flapack`), without importing the ``scipy.linalg`` package.
    Eigenvectors are L2-normalized and sign-fixed so that the first
    resolvable sample at or left of the grid center is positive.  For
    beta > 2 the potential is C^1, which is all the second-order stencil
    needs; |x|^beta is evaluated directly, and a stencil that overflows is a
    :class:`DomainError`.
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
    half = points // 2  # samples strictly right of the center
    # the half grid starts at the center node (odd count) or right of it (even)
    with np.errstate(over="ignore", divide="ignore"):
        coupling = -1.0 / h**2
        diag = 2.0 / h**2 + np.abs(x[half:]) ** beta
    if not np.all(np.isfinite(diag)):
        raise DomainError(
            f"the stencil -1/h^2 or |x|^beta overflows at beta={beta!r} on the grid "
            f"half-width {x[-1]:g} with {points} points"
        )
    off = np.full(diag.size - 1, coupling)
    if points % 2:  # even members keep the center node; odd ones vanish there
        blocks = ((diag, np.r_[math.sqrt(2.0) * coupling, off[1:]]), (diag[1:], off[1:]))
    else:  # the center pair mirrors each other: fold +-coupling into the first node
        fold = np.r_[coupling, np.zeros(half - 1)]
        blocks = ((diag + fold, off), (diag - fold, off))
    lapack = _flapack()
    energies = np.empty(k)
    vectors = np.zeros((points, k))
    for first, sign, (d, o) in zip((0, 1), (1.0, -1.0), blocks):
        count = (k + 1 - first) // 2
        if count == 0:
            continue
        # the lowest ``count`` by bisection, then their vectors by inverse
        # iteration: the calls scipy's eigh_tridiagonal makes for an index range
        m, w, iblock, isplit, info = lapack.dstebz(d, o, 2, 0.0, 1.0, 1, count, 0.0, "B")
        if info == 0 and m == count:
            u, info = lapack.dstein(d, o, w[:m], iblock, isplit)
        if info != 0 or m != count:
            raise NumericError(f"tridiagonal eigensolver failed (info {info}, {m} of {count})")
        order = np.argsort(w[:m])
        energies[first::2], u = w[order], u[:, order]
        right = u[-half:] / math.sqrt(2.0)  # unit l2 over the mirrored pair
        vectors[points - half:, first::2] = right
        vectors[:half, first::2] = sign * right[::-1]
        if len(u) > half:  # the center node, kept by even members of an odd grid
            vectors[half, first::2] = u[0]
    if np.any(np.diff(energies) <= 0):
        raise NumericError("anharmonic energies are not strictly increasing")
    vectors /= math.sqrt(h)  # unit l2 -> unit L2

    center = (points - 1) // 2
    left = np.abs(vectors[center::-1])
    resolved = np.argmax(left > 1e-8 * np.max(left, axis=0), axis=0)
    vectors *= np.where(vectors[center - resolved, np.arange(k)] < 0, -1.0, 1.0)
    signs = tuple((-1) ** n for n in range(k))
    return BasisSet("anharmonic_numeric", int(k), signs, grid=grid, vectors=vectors, energies=energies)
