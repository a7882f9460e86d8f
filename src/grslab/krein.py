"""Function representations and the Hilbert / indefinite inner products.

A function is either a coefficient vector over a :class:`~grslab.basis.BasisSet`
(optionally with a complex argument shift, so translated Hermite expansions
stay exactly representable) or raw samples on a :class:`QuadratureRule`.
The indefinite product is [f, g] = <Jf, g> with J the parity operator; parity
acts exactly on coefficients and by sample reversal on symmetric grids.

Products between coefficient form and sample form are deliberately not
implicit: convert first with :func:`to_samples` so quadrature accuracy stays
visible at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .basis import BasisSet, QuadratureRule, hermite_function_table
from .defaults import IM_Z_BOUND
from .errors import DomainError, MagnitudeError, StructureError

__all__ = [
    "CoefficientRep",
    "SampleRep",
    "FunctionRep",
    "unit_vector",
    "evaluate",
    "to_samples",
    "apply_parity",
    "inner",
    "krein_inner",
    "gram_matrix",
]


@dataclass(frozen=True)
class CoefficientRep:
    """f(z) = sum_n coeffs[n] e_n(z + shift) over the members of ``basis``.

    A nonzero shift is only meaningful for the analytic Hermite basis, where
    it represents exact translation of the expansion in the complex plane.
    """

    basis: BasisSet
    coeffs: NDArray
    shift: complex = 0j

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0 or c.size > self.basis.size:
            raise StructureError(
                f"coefficient vector of length {c.size} does not fit basis size {self.basis.size}"
            )
        if not np.all(np.isfinite(c)):
            raise MagnitudeError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        s = complex(self.shift)
        if s != 0 and not self.basis.is_analytic:
            raise StructureError("argument shifts need the analytic Hermite basis")
        if abs(s.imag) > IM_Z_BOUND:
            raise MagnitudeError(f"|Im shift| = {abs(s.imag):.3g} exceeds bound {IM_Z_BOUND}")
        object.__setattr__(self, "shift", s)


@dataclass(frozen=True)
class SampleRep:
    """Raw complex samples of a function at the nodes of a quadrature rule."""

    rule: QuadratureRule
    samples: NDArray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != self.rule.nodes.shape:
            raise StructureError("sample count does not match the rule")
        if not np.all(np.isfinite(s)):
            raise MagnitudeError("samples must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


FunctionRep = Union[CoefficientRep, SampleRep]


def unit_vector(basis: BasisSet, n: int, amplitude: complex = 1.0) -> CoefficientRep:
    """The basis member e_n as a coefficient representation."""
    if not 0 <= n < basis.size:
        raise DomainError(f"basis index {n} out of range [0, {basis.size})")
    c = np.zeros(n + 1, dtype=complex)
    c[n] = amplitude
    return CoefficientRep(basis, c)


def evaluate(f: CoefficientRep, z):
    """Evaluate an analytic coefficient representation at complex points."""
    if not isinstance(f, CoefficientRep):
        raise StructureError("only coefficient representations are evaluable off-grid")
    if not f.basis.is_analytic:
        raise StructureError("numeric bases are defined only on their grid; use to_samples")
    zz = np.asarray(z, dtype=complex) + f.shift
    table = hermite_function_table(f.coeffs.size - 1, zz)
    return np.tensordot(f.coeffs, table, axes=(0, 0))[()]


def to_samples(f: FunctionRep, rule: QuadratureRule) -> SampleRep:
    """Materialize any representation as samples on ``rule``."""
    if isinstance(f, SampleRep):
        if f.rule is rule or np.array_equal(f.rule.nodes, rule.nodes):
            return f
        raise StructureError("samples live on a different grid; no implicit resampling")
    if f.basis.is_analytic:
        return SampleRep(rule, evaluate(f, rule.nodes))
    table = f.basis.table(rule)  # raises StructureError off the native grid
    return SampleRep(rule, f.coeffs @ table[: f.coeffs.size])


# ---------------------------------------------------------------------------
# parity and products
# ---------------------------------------------------------------------------

def apply_parity(f: FunctionRep) -> FunctionRep:
    """(Jf)(x) = f(-x).

    Coefficient form: each coefficient picks up the member's parity sign and
    the shift flips.  Sample form: reversal, which is exact because rules are
    built with antisymmetric nodes; asymmetric grids are rejected.
    """
    if isinstance(f, CoefficientRep):
        signs = np.asarray(f.basis.parity_signs[: f.coeffs.size])
        return CoefficientRep(f.basis, signs * f.coeffs, -f.shift)
    if not f.rule.is_symmetric:
        raise StructureError("parity on sample form needs a symmetric grid")
    return SampleRep(f.rule, f.samples[::-1])


def inner(f: FunctionRep, g: FunctionRep) -> complex:
    """Hilbert inner product, linear in the first argument.

    Coefficient form (same basis, both unshifted): sum c_n conj(d_n).
    Sample form (same rule): quadrature of f(x) conj(g(x)) dx.
    """
    if isinstance(f, CoefficientRep) and isinstance(g, CoefficientRep):
        if f.basis is not g.basis and f.basis != g.basis:
            raise StructureError("inner product across different bases")
        if f.shift != 0 or g.shift != 0:
            raise StructureError(
                "shifted expansions have no coefficient-space product; sample them first"
            )
        k = min(f.coeffs.size, g.coeffs.size)
        return complex(np.sum(f.coeffs[:k] * np.conj(g.coeffs[:k])))
    if isinstance(f, SampleRep) and isinstance(g, SampleRep):
        if f.rule is not g.rule and not np.array_equal(f.rule.nodes, g.rule.nodes):
            raise StructureError("inner product across different grids")
        return complex(np.sum(f.rule.dx_weights * f.samples * np.conj(g.samples)))
    raise StructureError(
        "no implicit product between coefficient and sample form; convert explicitly"
    )


def krein_inner(f: FunctionRep, g: FunctionRep) -> complex:
    """Indefinite inner product [f, g] = <Jf, g>; Hermitian but not positive."""
    return inner(apply_parity(f), g)


def gram_matrix(
    family: Sequence[FunctionRep],
    product: str | Callable[[FunctionRep, FunctionRep], complex] = "hilbert",
) -> np.ndarray:
    """Matrix M[n, m] = product(family[n], family[m]).

    ``product`` is "hilbert", "krein", or any callable with the same
    signature (weighted products are supplied by :mod:`grslab.grs`).  Entries
    are independent, so the result does not depend on evaluation order.
    """
    if len(family) == 0:
        raise StructureError("empty family")
    if product == "hilbert":
        fn = inner
    elif product == "krein":
        fn = krein_inner
    elif callable(product):
        fn = product
    else:
        raise StructureError(f"unknown product {product!r}")
    n = len(family)
    out = np.empty((n, n), dtype=complex)
    for i, fi in enumerate(family):
        for j, fj in enumerate(family):
            out[i, j] = fn(fi, fj)
    return out
