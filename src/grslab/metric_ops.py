"""Concrete metric generators Q and the exact action of exp(tQ).

Two variants cover every system in the catalog:

* ``Multiplication`` -- Q is multiplication by a real symbol q(x) from the
  closed grammar of :mod:`grslab.symfun`; exp(tQ) acts pointwise.
* ``TranslationGenerator`` -- Q = 2ia d/dx; exp(tQ) translates the argument
  by 2iat, realized exactly by evaluating an analytic Hermite expansion at
  the shifted complex argument (no projection, no aliasing).

Only the exponents t in {+-1, +-1/2} are supported; those are the only
powers the factored inner products and partner constructions ever use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from . import symfun
from .basis import BasisSet, QuadratureRule, gauss_hermite_rule
from .defaults import (
    EXP_ARG_LIMIT,
    QUAD_ORDER_PAD,
    SHIFT_CAP,
    SHIFT_CAP_MAX,
    TOL_ODDNESS,
)
from .errors import DomainError, MagnitudeError, StructureError
from .krein import CoefficientRep, FunctionRep, SampleRep, to_samples

__all__ = [
    "Multiplication",
    "TranslationGenerator",
    "MetricOperatorQ",
    "ALLOWED_EXPONENTS",
    "apply_exp_q",
    "multiply_exp_q",
    "anticommutes_with_parity",
    "decay_scores",
]

ALLOWED_EXPONENTS = (-1.0, -0.5, 0.5, 1.0)


@dataclass(frozen=True)
class Multiplication:
    """Q = multiplication by the real symbol q(x)."""

    source: str
    expr: tuple = field(init=False)  # parsed from source

    def __post_init__(self) -> None:
        object.__setattr__(self, "expr", symfun.parse(self.source))

    def values(self, x: np.ndarray) -> np.ndarray:
        return symfun.eval_values(self.expr, x)


@dataclass(frozen=True)
class TranslationGenerator:
    """Q = 2ia d/dx (self-adjoint for real a); exp(tQ) f = f(. + 2iat)."""

    a: float
    cap: float = SHIFT_CAP

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a != 0.0):
            raise DomainError(f"translation parameter must be real nonzero, got {self.a!r}")
        if not 0 < self.cap <= SHIFT_CAP_MAX:
            raise DomainError(f"cap must lie in (0, {SHIFT_CAP_MAX}], got {self.cap!r}")
        if abs(self.a) > self.cap:
            raise DomainError(
                f"|a| = {abs(self.a):.3g} exceeds the cap {self.cap}; conditioning "
                "degrades like exp(a^2/2), raise cap explicitly if you mean it"
            )


MetricOperatorQ = Union[Multiplication, TranslationGenerator]


def working_rule(basis: BasisSet, order: int | None = None) -> QuadratureRule:
    """Default quadrature for products of basis members: Gauss-Hermite of
    order 2N + pad for analytic bases, the native grid for numeric ones."""
    if basis.is_analytic:
        if order is None:
            order = 2 * basis.size + QUAD_ORDER_PAD
        return gauss_hermite_rule(order)
    return basis.grid


def _resolve_rule(f: FunctionRep, rule: QuadratureRule | None) -> QuadratureRule:
    if rule is not None:
        return rule
    if isinstance(f, SampleRep):
        return f.rule
    return working_rule(f.basis)


def _checked_exp(args: np.ndarray) -> np.ndarray:
    top = float(np.max(args.real, initial=-math.inf))
    if top > EXP_ARG_LIMIT:
        raise MagnitudeError(f"exp argument {top:.3g} exceeds the representable range")
    return np.exp(args)


def apply_exp_q(
    q_op: MetricOperatorQ,
    t: float,
    f: FunctionRep,
    rule: QuadratureRule | None = None,
) -> FunctionRep:
    """exp(tQ) f for t in {+-1, +-1/2}.

    Multiplication needs samples (coefficient input is resampled onto
    ``rule``, or onto the basis default when no rule is given); translation
    needs an analytic coefficient representation.
    """
    if t not in ALLOWED_EXPONENTS:
        raise DomainError(f"exponent t must be one of {ALLOWED_EXPONENTS}, got {t!r}")

    if isinstance(q_op, TranslationGenerator):
        if not (isinstance(f, CoefficientRep) and f.basis.is_analytic):
            raise StructureError(
                "translation generators act on analytic Hermite coefficient form"
            )
        return CoefficientRep(f.basis, f.coeffs, f.shift + 2j * q_op.a * t)

    g = to_samples(f, _resolve_rule(f, rule))
    return SampleRep(g.rule, multiply_exp_q(q_op, t, g.samples, g.rule))


def multiply_exp_q(
    q_op: Multiplication, t: float, samples: np.ndarray, rule: QuadratureRule
) -> np.ndarray:
    """exp(tQ) for a multiplication generator, applied pointwise to samples
    on ``rule``: one function, or a table with one function per row, returned
    C-ordered whatever the layout of ``samples``."""
    factors = _checked_exp(t * q_op.values(rule.nodes))
    values = np.multiply(factors, samples, order="C")
    if not np.all(np.isfinite(values)):
        raise MagnitudeError("exp(tQ) f left the representable range")
    return values


# ---------------------------------------------------------------------------
# anticommutation with parity
# ---------------------------------------------------------------------------

def anticommutes_with_parity(q_op: MetricOperatorQ, rule: QuadratureRule) -> bool:
    """Whether JQ = -QJ for the parity J: a structural fact of the generator.

    Translation generators anticommute (parity conjugates d/dx to -d/dx, so
    it flips the argument shift of the analytic expansion exactly);
    multiplication anticommutes exactly when its symbol is odd, checked to
    TOL_ODDNESS on the nodes of ``rule``.
    """
    if isinstance(q_op, TranslationGenerator):
        return True
    return symfun.is_odd_on(q_op.expr, rule.nodes, TOL_ODDNESS)


# ---------------------------------------------------------------------------
# domain-decay heuristic
# ---------------------------------------------------------------------------

def decay_scores(tables: Sequence[np.ndarray | None], rule: QuadratureRule) -> np.ndarray:
    """Domain-decay scores of sample tables on ``rule``, one column per table.

    ``tables`` holds one table per sign of exp(+-Q/2), one row per moved
    function, or None for a sign whose action overflowed: every row scores 0
    there (a single row stands for all when no sign has a table).  A score
    is 1 minus the fraction of the row's L2 mass on the outer 5% of the nodes
    at each end, a heuristic in [0, 1] for how safely the function sits in
    the domain of exp(tQ); values near 0 signal that it fails to decay inside
    the truncated window.  A row without mass scores 1, a row whose mass
    overflows (or is nan) 0.  The two ends never overlap, so each node counts
    once even on a rule of a few nodes.  No finite computation certifies
    domain membership.
    """
    k = max(1, round(0.05 * len(rule)))
    rows_count = max((len(t) for t in tables if t is not None), default=1)
    scores = np.zeros((rows_count, len(tables)))
    for j, rows in enumerate(tables):
        if rows is None:
            continue
        # an overflowing mass is an answer here (score 0), not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            mass = rule.dx_weights * np.abs(rows) ** 2
            total = np.sum(mass, axis=1)
            outer = np.sum(mass[:, :k], axis=1) + np.sum(mass[:, max(k, len(rule) - k):], axis=1)
        finite = np.isfinite(total)
        fraction = np.divide(outer, total, out=np.where(finite, 0.0, 1.0), where=finite & (total > 0))
        scores[:, j] = 1.0 - np.clip(fraction, 0.0, 1.0)  # rounding can push outer past total
    return scores
