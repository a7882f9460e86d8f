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
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import symfun
from .basis import BasisSet, QuadratureRule, gauss_hermite_rule, hermite_function_table
from .defaults import (
    EXP_ARG_LIMIT,
    QUAD_ORDER_PAD,
    SHIFT_CAP,
    SHIFT_CAP_MAX,
    TOL_ODDNESS,
)
from .errors import DomainError, MagnitudeError, StructureError
from .krein import CoefficientRep, FunctionRep, SampleRep, apply_parity, to_samples

__all__ = [
    "Multiplication",
    "TranslationGenerator",
    "MetricOperatorQ",
    "ParityAnticommutation",
    "ALLOWED_EXPONENTS",
    "apply_exp_q",
    "multiply_exp_q",
    "anticommutes_with_parity",
    "decay_scores",
    "outer_mass_fraction",
]

ALLOWED_EXPONENTS = (-1.0, -0.5, 0.5, 1.0)


@dataclass(frozen=True)
class Multiplication:
    """Q = multiplication by the real symbol q(x)."""

    source: str
    expr: tuple = None  # parsed form; filled from source when omitted

    def __post_init__(self) -> None:
        if self.expr is None:
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
        return gauss_hermite_rule(order or 2 * basis.size + QUAD_ORDER_PAD, 1.0)
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
    on ``rule``: one function, or a table with one function per row."""
    factors = _checked_exp(t * q_op.values(rule.nodes))
    values = factors * samples
    if not np.all(np.isfinite(values)):
        raise MagnitudeError("exp(tQ) f left the representable range")
    return values


# ---------------------------------------------------------------------------
# anticommutation with parity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityAnticommutation:
    """Structural verdict plus the numeric residual backing it."""

    verdict: str  # "yes" | "no" | "undetermined"
    evidence: float


def _evidence_rule(rule: QuadratureRule | None) -> QuadratureRule:
    return rule if rule is not None else gauss_hermite_rule(72, 1.0)


def _grid_evidence(q_op: Multiplication, rule: QuadratureRule) -> float:
    """max_f || J e^{-Q} f - e^{Q} J f || / ||f|| over a small test family."""
    x = rule.nodes
    table = hermite_function_table(3, x)
    tests = [table[0], table[1], table[2], (table[0] + table[3]) / math.sqrt(2.0)]
    ql = _checked_exp(-q_op.values(x))
    qr = _checked_exp(q_op.values(x))
    worst = 0.0
    for v in tests:
        left = (ql * v)[::-1]
        right = qr * v[::-1]
        worst = max(worst, float(rule.norm(left - right) / rule.norm(v)))
    return worst


def _translation_evidence(q_op: TranslationGenerator, rule: QuadratureRule) -> float:
    from .basis import hermite_basis
    from .krein import unit_vector

    basis = hermite_basis(4)
    worst = 0.0
    for n in range(4):
        f = unit_vector(basis, n)
        left = to_samples(apply_parity(apply_exp_q(q_op, -1.0, f)), rule)
        right = to_samples(apply_exp_q(q_op, 1.0, apply_parity(f)), rule)
        num = float(rule.norm(left.samples - right.samples))
        worst = max(worst, num / max(float(rule.norm(right.samples)), 1e-300))
    return worst


def anticommutes_with_parity(
    q_op: MetricOperatorQ,
    rule: QuadratureRule | None = None,
    tol: float = TOL_ODDNESS,
) -> ParityAnticommutation:
    """Decide JQ = -QJ for the parity J, with a numeric residual as evidence.

    Multiplication anticommutes exactly when its symbol is odd (checked to
    ``tol`` on the rule nodes); translation generators anticommute
    structurally (parity conjugates d/dx to -d/dx).  The evidence is the
    worst relative residual of J exp(-Q) f = exp(Q) J f over a small test
    family and is infinite when that computation overflows.
    """
    r = _evidence_rule(rule)
    if isinstance(q_op, TranslationGenerator):
        verdict, evidence_of = "yes", _translation_evidence
    else:
        verdict = "yes" if symfun.is_odd_on(q_op.expr, r.nodes, tol) else "no"
        evidence_of = _grid_evidence
    try:
        evidence = evidence_of(q_op, r)
    except MagnitudeError:
        evidence = math.inf
    return ParityAnticommutation(verdict, evidence)


# ---------------------------------------------------------------------------
# domain-decay heuristic
# ---------------------------------------------------------------------------

def outer_mass_fraction(rows: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Per row of a sample table, the fraction of L2 mass on the outer 5% of
    the nodes at each end (0 for a row without mass).  The two ends never
    overlap, so each node counts once even on a rule of a few nodes."""
    mass = rule.dx_weights * np.abs(rows) ** 2
    k = max(1, round(0.05 * len(rule)))
    total = np.sum(mass, axis=1)
    outer = np.sum(mass[:, :k], axis=1) + np.sum(mass[:, max(k, len(rule) - k):], axis=1)
    return np.divide(outer, total, out=np.zeros_like(total), where=total > 0)


def decay_scores(
    q_op: MetricOperatorQ,
    f: FunctionRep,
    rule: QuadratureRule | None = None,
) -> dict[float, float]:
    """Per-sign decay scores for exp(+-Q/2) f; 0.0 when the action overflows.

    A score is 1 minus the outer-mass fraction of exp(tQ) f sampled on the
    rule, a heuristic in [0, 1] for how safely f sits in the domain of
    exp(tQ): values near 0 signal that it fails to decay inside the
    truncated window.  No finite computation certifies domain membership.
    """
    out = {}
    for t in (0.5, -0.5):
        try:
            g = apply_exp_q(q_op, t, f, rule)
            r = _resolve_rule(g, rule)
            out[t] = 1.0 - float(outer_mass_fraction(to_samples(g, r).samples[np.newaxis], r)[0])
        except MagnitudeError:
            out[t] = 0.0
    return out
