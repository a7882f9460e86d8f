"""Concrete metric generators Q and the exact action of exp(tQ).

Three variants cover every system in the catalog:

* ``Multiplication`` -- Q is multiplication by a real symbol q(x) from the
  closed grammar of :mod:`grslab.symfun`; exp(tQ) acts pointwise.
* ``TranslationGenerator`` -- Q = 2ia d/dx; exp(tQ) translates the argument
  by 2iat, realized exactly by evaluating an analytic Hermite expansion at
  the shifted complex argument (no projection, no aliasing).
* ``DiagonalHermite`` -- Q e_n = q_n e_n, a synthetic variant for exact
  oracle tests; exp(tQ) scales coefficients.

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
    "DiagonalHermite",
    "MetricOperatorQ",
    "ParityAnticommutation",
    "ALLOWED_EXPONENTS",
    "apply_exp_q",
    "multiply_exp_q",
    "anticommutes_with_parity",
    "domain_decay_score",
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

    @classmethod
    def from_string(cls, text: str) -> "Multiplication":
        return cls(text)

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


@dataclass(frozen=True)
class DiagonalHermite:
    """Q e_n = q_n e_n with a finite real sequence q."""

    q: tuple

    def __post_init__(self) -> None:
        q = tuple(float(v) for v in self.q)
        if len(q) == 0 or not all(math.isfinite(v) for v in q):
            raise DomainError("diagonal symbol must be a nonempty finite real sequence")
        object.__setattr__(self, "q", q)


MetricOperatorQ = Union[Multiplication, TranslationGenerator, DiagonalHermite]


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
    needs an analytic coefficient representation; the diagonal variant needs
    an unshifted coefficient representation.
    """
    if t not in ALLOWED_EXPONENTS:
        raise DomainError(f"exponent t must be one of {ALLOWED_EXPONENTS}, got {t!r}")

    if isinstance(q_op, DiagonalHermite):
        if not isinstance(f, CoefficientRep) or f.shift != 0:
            raise StructureError("diagonal generators act on unshifted coefficient form")
        if f.coeffs.size > len(q_op.q):
            raise StructureError(
                f"diagonal symbol has {len(q_op.q)} entries, function needs {f.coeffs.size}"
            )
        factors = _checked_exp(t * np.asarray(q_op.q[: f.coeffs.size]))
        return CoefficientRep(f.basis, factors * f.coeffs)

    if isinstance(q_op, TranslationGenerator):
        if not (isinstance(f, CoefficientRep) and f.basis.is_analytic):
            raise StructureError(
                "translation generators act on analytic Hermite coefficient form"
            )
        return CoefficientRep(f.basis, f.coeffs, f.shift + 2j * q_op.a * t)

    if isinstance(q_op, Multiplication):
        g = to_samples(f, _resolve_rule(f, rule))
        return SampleRep(g.rule, multiply_exp_q(q_op, t, g.samples, g.rule))

    raise StructureError(f"unknown metric generator {type(q_op).__name__}")


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
        num = math.sqrt(abs(np.sum(rule.dx_weights * np.abs(left - right) ** 2)))
        den = math.sqrt(abs(np.sum(rule.dx_weights * np.abs(v) ** 2)))
        worst = max(worst, num / den)
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
        num = math.sqrt(abs(np.sum(rule.dx_weights * np.abs(left.samples - right.samples) ** 2)))
        den = math.sqrt(abs(np.sum(rule.dx_weights * np.abs(right.samples) ** 2)))
        worst = max(worst, num / max(den, 1e-300))
    return worst


def _diagonal_evidence(q_op: DiagonalHermite) -> float:
    q = np.asarray(q_op.q)
    c = np.full(q.size, 1.0 / math.sqrt(q.size))
    gap = (_checked_exp(-q) - _checked_exp(q)) * c
    return float(np.linalg.norm(gap))


def anticommutes_with_parity(
    q_op: MetricOperatorQ,
    rule: QuadratureRule | None = None,
    tol: float = TOL_ODDNESS,
) -> ParityAnticommutation:
    """Decide JQ = -QJ for the parity J, with a numeric residual as evidence.

    Multiplication anticommutes exactly when its symbol is odd (checked to
    ``tol`` on the rule nodes); translation generators anticommute
    structurally (parity conjugates d/dx to -d/dx); a diagonal generator
    commutes instead, so only q = 0 passes.  The evidence is the worst
    relative residual of J exp(-Q) f = exp(Q) J f over a small test family
    and is infinite when that computation overflows.
    """
    if isinstance(q_op, Multiplication):
        r = _evidence_rule(rule)
        verdict = "yes" if symfun.is_odd_on(q_op.expr, r.nodes, tol) else "no"
        try:
            evidence = _grid_evidence(q_op, r)
        except MagnitudeError:
            evidence = math.inf
        return ParityAnticommutation(verdict, evidence)
    if isinstance(q_op, TranslationGenerator):
        try:
            evidence = _translation_evidence(q_op, _evidence_rule(rule))
        except MagnitudeError:
            evidence = math.inf
        return ParityAnticommutation("yes", evidence)
    if isinstance(q_op, DiagonalHermite):
        verdict = "yes" if all(v == 0.0 for v in q_op.q) else "no"
        try:
            evidence = _diagonal_evidence(q_op)
        except MagnitudeError:
            evidence = math.inf
        return ParityAnticommutation(verdict, evidence)
    raise StructureError(f"unknown metric generator {type(q_op).__name__}")


# ---------------------------------------------------------------------------
# domain-decay heuristic
# ---------------------------------------------------------------------------

def _mass_fraction_outer(g: FunctionRep, rule: QuadratureRule | None) -> float:
    """Fraction of L2 mass in the outer 10% of the grid (or the last 10% of
    coefficient slots for unshifted coefficient form)."""
    if isinstance(g, CoefficientRep) and g.shift == 0:
        full = np.zeros(g.basis.size)
        full[: g.coeffs.size] = np.abs(g.coeffs) ** 2
        k = max(1, round(0.1 * g.basis.size))
        total = float(np.sum(full))
        return float(np.sum(full[-k:])) / total if total > 0 else 0.0
    r = _resolve_rule(g, rule)
    return float(outer_mass_fraction(to_samples(g, r).samples[np.newaxis], r)[0])


def outer_mass_fraction(rows: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Per row of a sample table, the fraction of L2 mass on the outer 5% of
    the nodes at each end (0 for a row without mass)."""
    mass = rule.dx_weights * np.abs(rows) ** 2
    k = max(1, round(0.05 * len(rule)))
    total = np.sum(mass, axis=1)
    outer = np.sum(mass[:, :k], axis=1) + np.sum(mass[:, -k:], axis=1)
    return np.divide(outer, total, out=np.zeros_like(total), where=total > 0)


def decay_scores(
    q_op: MetricOperatorQ,
    f: FunctionRep,
    rule: QuadratureRule | None = None,
) -> dict[float, float]:
    """Per-sign decay scores for exp(+-Q/2) f; 0.0 when the action overflows."""
    out = {}
    for t in (0.5, -0.5):
        try:
            g = apply_exp_q(q_op, t, f, rule)
            out[t] = 1.0 - _mass_fraction_outer(g, rule)
        except MagnitudeError:
            out[t] = 0.0
    return out


def domain_decay_score(
    q_op: MetricOperatorQ,
    f: FunctionRep,
    rule: QuadratureRule | None = None,
) -> float:
    """Heuristic in [0, 1] for how safely f sits in both domains of exp(+-Q/2).

    1 minus the worst outer-mass fraction over both signs; values near 0
    signal that exp(+-Q/2) f fails to decay inside the truncated window.
    A heuristic only: no finite computation certifies domain membership.
    """
    return min(decay_scores(q_op, f, rule).values())
