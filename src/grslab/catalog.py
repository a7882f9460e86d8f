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

The closed form for |[phi_n, phi_m]| in the third system is summed exactly
in integers and rounded once; ``overlap_matrices`` sets it beside the Krein
Gram of the example1 system that ``verify example1`` builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import symfun
from .basis import (
    BasisSet,
    anharmonic_eigenbasis,
    hermite_basis,
    uniform_trapezoid_rule,
)
from .defaults import DEFAULT_N, TOL_ODDNESS
from .errors import DomainError
from .grs import BiorthogonalSystem, build_system
from .metric_ops import Multiplication, TranslationGenerator

__all__ = [
    "EXAMPLE_IDS",
    "DEFAULT_P_SOURCE",
    "ExampleSpec",
    "make_example",
    "overlap_closed_form",
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
    n = int(spec.n) if isinstance(spec.n, (int, np.integer)) else spec.n
    basis = _anharmonic_basis(float(spec.beta), float(grid_l), int(points), n)
    q_op = Multiplication(f"(scale 2 {spec.p})")
    return build_system(q_op, basis, n)


@functools.lru_cache(maxsize=8, typed=True)
def _anharmonic_basis(beta: float, grid_l: float, points: int, n: int) -> BasisSet:
    """The eigenbasis of one checked (beta, grid, n), solved once per process
    and shared read-only.  An entry holds points x n doubles plus n energies:
    1 MB at the default 2000 points and n = 64, 8 MB at the cap n = points/4.
    A refusal propagates and is never cached; ``typed`` keeps a float n off
    the entry of the equal int, so the solver refuses it."""
    return anharmonic_eigenbasis(beta, uniform_trapezoid_rule(grid_l, points), n)


# ---------------------------------------------------------------------------
# closed-form indefinite overlap of the example1 family
# ---------------------------------------------------------------------------

def overlap_closed_form(n: int, m: int) -> float:
    """|[phi_n, phi_m]| for the example1 family, in closed form: zero when
    n + m is odd, else, with s = n + m + 1,

        sqrt( 2^s / (3^s pi n! m!) ) * Gamma(s/2) * |2F1(-m, -n; 1 - s/2; 3/2)|,

    the radical covering only the rational factor (a reading pinned against
    example1's Krein Gram, see ``overlap_matrices``).  As Gamma(s/2) is
    sqrt(pi) (s-2)!! / 2^{(s-1)/2}, the square is 2 ((s-2)!!)^2 S^2 / (3^s n! m!):
    the series S terminates at min(n, m), its half-integer lower parameter
    never meets a pole, and it is summed in integers.  One ``isqrt`` gives the
    correctly rounded root (tests/test_catalog.py holds it to mpmath at 40 digits).
    """
    for name, v in (("n", n), ("m", m)):
        if not isinstance(v, (int, np.integer)) or v < 0 or v > 30:
            raise DomainError(f"{name} must be an integer in [0, 30], got {v!r}")
    n, m = int(n), int(m)
    s = n + m + 1
    if s % 2 == 0:
        return 0.0
    num = den = 1  # S = num/den in Horner form; term k over term k - 1 is rn/rd
    for k in range(min(n, m), 0, -1):
        rn, rd = 3 * (k - 1 - m) * (k - 1 - n), (2 * k - s) * k
        num, den = rd * den + rn * num, rd * den
    x = 2 * (math.prod(range(1, s - 1, 2)) * num) ** 2
    y = 3**s * math.factorial(n) * math.factorial(m) * den**2
    # q = floor(2^b sqrt(x/y)) >= 2^63 rounds as the root does once an inexact root sets its last bit
    b = 64 + (y.bit_length() - x.bit_length()) // 2
    q = math.isqrt((x << 2 * b) // y)
    return (q | (q * q * y != x << 2 * b)) / (1 << b)


def overlap_matrices(n_max: int, quad_order: int | None = None) -> tuple[np.ndarray, BiorthogonalSystem]:
    """(closed-form matrix, example1 system) for 0 <= n, m <= n_max.

    The system is the one ``verify example1`` builds at N = n_max + 1, on
    its working rule of order ``quad_order`` (default 2N + QUAD_ORDER_PAD);
    the closed form is compared with its Krein Gram.  Only the entries with
    n <= m and n + m even are evaluated; the rest mirror them or are 0.0.
    """
    if not isinstance(n_max, (int, np.integer)) or not 0 <= n_max <= 30:
        raise DomainError(f"n_max must be an integer in [0, 30], got {n_max!r}")
    sys_ = make_example(ExampleSpec(id="example1", n=n_max + 1, quad_order=quad_order))
    closed = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for m in range(n, n_max + 1, 2):
            closed[n, m] = closed[m, n] = overlap_closed_form(n, m)
    return closed, sys_
