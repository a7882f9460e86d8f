"""Pre-wired example systems, ready for one-call verification.

Three constructions are cataloged:

* ``shifted_ho``    -- phi_n(x) = e_n(x + ia): translation generator over the
                       analytic Hermite basis; indefinitely orthonormal and
                       of the first type.
* ``perturbed_anharmonic`` -- phi_n = e^{p} e_n over the numeric eigenbasis
                       of -d^2/dx^2 + |x|^beta with an odd symbol p; also
                       first type.
* ``example1``      -- phi_n = H_n(x) e^{-3x^2/4} (up to normalization) from
                       the even generator q = -x^2/2; biorthogonal but NOT
                       indefinitely orthonormal, which the closed-form
                       overlap below quantifies.

The closed form for |[phi_n, phi_m]| in the third system multiplies a
radical prefactor (the radical covers only the rational part), a Gamma
factor and a terminating Gauss series; it is evaluated in log space so the
n + m ~ 60 range stays representable.  An independent quadrature oracle on a
Gauss rule scaled to the integrand's Gaussian (where the integrand is
exactly a polynomial times the weight) pins the reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symfun
from .basis import (
    anharmonic_eigenbasis,
    gauss_hermite_rule,
    hermite_basis,
    hermite_function_table,
    uniform_trapezoid_rule,
)
from .defaults import DEFAULT_N, QUAD_ORDER_PAD, TOL_ODDNESS
from .errors import DomainError
from .grs import BiorthogonalSystem, build_system
from .metric_ops import Multiplication, TranslationGenerator
from .specfun import Hyp2F1Terminating, hyp2f1_terminating, log_gamma

__all__ = [
    "EXAMPLE_IDS",
    "DEFAULT_P_SOURCE",
    "ExampleSpec",
    "make_example",
    "overlap_closed_form",
    "overlap_quadrature",
    "overlap_matrices",
]

EXAMPLE_IDS = ("shifted_ho", "perturbed_anharmonic", "example1")

#: odd, smooth, bounded with bounded derivatives, so e^{+-p} are bounded
#: multipliers and every domain heuristic passes
DEFAULT_P_SOURCE = "(scale 0.5 (atan x))"

EXAMPLE1_Q_SOURCE = "(scale -0.5 (pow x 2))"


@dataclass(frozen=True)
class ExampleSpec:
    """Identifier plus the numeric settings of one catalog system."""

    id: str
    a: float | None = None
    beta: float | None = None
    p: str = DEFAULT_P_SOURCE
    n: int = DEFAULT_N
    quad_order: int | None = None
    grid_l: float | None = None
    grid_points: int | None = None

    def __post_init__(self) -> None:
        if self.id not in EXAMPLE_IDS:
            raise DomainError(f"unknown example {self.id!r}; choose from {EXAMPLE_IDS}")
        if self.id == "shifted_ho":
            if self.a is None or self.a == 0.0:
                raise DomainError("shifted_ho needs a nonzero real shift a")
        if self.id == "perturbed_anharmonic":
            if self.beta is None or not self.beta > 2:
                raise DomainError("perturbed_anharmonic needs beta > 2")


def make_example(spec: ExampleSpec) -> BiorthogonalSystem:
    """Build the requested system; bit-identical for identical specs."""
    if spec.id == "shifted_ho":
        basis = hermite_basis(spec.n)
        return build_system(
            TranslationGenerator(spec.a),
            basis,
            spec.n,
            quad_order=spec.quad_order,
        )
    if spec.id == "example1":
        basis = hermite_basis(spec.n)
        return build_system(
            Multiplication(EXAMPLE1_Q_SOURCE),
            basis,
            spec.n,
            quad_order=spec.quad_order,
        )
    # perturbed anharmonic
    grid_l = spec.grid_l if spec.grid_l is not None else 8.0
    points = spec.grid_points if spec.grid_points is not None else 2000
    grid = uniform_trapezoid_rule(grid_l, points)
    p_expr = symfun.parse(spec.p)
    if not symfun.is_odd_on(p_expr, grid.nodes, TOL_ODDNESS):
        raise DomainError(f"the symbol p = {spec.p!r} is not odd; the construction needs J p = -p J")
    basis = anharmonic_eigenbasis(spec.beta, grid, spec.n)
    q_op = Multiplication(f"(scale 2 {spec.p})")
    return build_system(q_op, basis, spec.n, rule=grid)


# ---------------------------------------------------------------------------
# closed-form indefinite overlap of the example1 family
# ---------------------------------------------------------------------------

def overlap_closed_form(n: int, m: int) -> float:
    """|[phi_n, phi_m]| for the example1 family, in closed form.

    Zero when n + m is odd; otherwise

        sqrt( 2^{n+m+1} / (3^{n+m+1} pi n! m!) )
        * Gamma((n+m+1)/2) * |2F1(-m, -n; (1-m-n)/2; 3/2)|,

    with the prefactor assembled in log space.  The second series parameter
    is -n: with both upper parameters nonpositive integers the series
    terminates at min(n, m) and the half-integer lower parameter never hits a
    pole; this reading (and the radical covering only the rational factor)
    is pinned against the quadrature oracle, see ``overlap_matrices``.
    """
    for name, v in (("n", n), ("m", m)):
        if not isinstance(v, (int, np.integer)) or v < 0 or v > 30:
            raise DomainError(f"{name} must be an integer in [0, 30], got {v!r}")
    if (n + m) % 2 == 1:
        return 0.0
    log_pre = 0.5 * (
        (n + m + 1) * (math.log(2.0) - math.log(3.0))
        - math.log(math.pi)
        - log_gamma(n + 1.0)
        - log_gamma(m + 1.0)
    ) + log_gamma((n + m + 1) / 2.0)
    series = hyp2f1_terminating(
        Hyp2F1Terminating(m=int(m), b=-float(n), c=(1.0 - m - n) / 2.0, z=1.5)
    )
    return math.exp(log_pre) * abs(series)


def _example1_family_on(rule, n_max: int) -> np.ndarray:
    """Rows phi_0..phi_nmax of the example1 family sampled on ``rule``."""
    table = hermite_function_table(n_max, rule.nodes)
    weight = np.exp(-rule.nodes**2 / 4.0)
    return table * weight


def overlap_quadrature(n: int, m: int, order: int | None = None) -> complex:
    """[phi_n, phi_m] for example1 by Gauss quadrature with weight scale 3/2.

    Against that weight the integrand is exactly a polynomial of degree
    n + m, so the rule is exact once its order clears (n + m)/2; this is the
    independent oracle for :func:`overlap_closed_form`.
    """
    rule = gauss_hermite_rule(order or (n + m + QUAD_ORDER_PAD // 2), scale=1.5)
    fam = _example1_family_on(rule, max(n, m))
    w = rule.dx_weights
    return complex(np.sum(w * fam[n][::-1] * np.conj(fam[m])))


def overlap_matrices(n_max: int, order: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(closed-form matrix, quadrature matrix) for 0 <= n, m <= n_max."""
    if not isinstance(n_max, (int, np.integer)) or not 0 <= n_max <= 30:
        raise DomainError(f"n_max must be an integer in [0, 30], got {n_max!r}")
    rule = gauss_hermite_rule(order or (2 * n_max + QUAD_ORDER_PAD // 2), scale=1.5)
    fam = _example1_family_on(rule, n_max)
    w = rule.dx_weights
    quad = (fam[:, ::-1] * w) @ np.conj(fam.T)
    closed = np.array(
        [[overlap_closed_form(n, m) for m in range(n_max + 1)] for n in range(n_max + 1)]
    )
    return closed, quad
