"""Indefinite-metric verification and the C-symmetry operator C = exp(Q) J.

Everything here lives on the Krein side of a biorthogonal system: the
indefinite Gram and its defect, the sign sequence delta_n = [phi_n, phi_n],
the partner identity psi_n = delta_n J phi_n, first-type classification, the
operator C with its induced positive inner product [Cf, g], the fundamental
split along (I +- C)/2, and the indefinite expansion of arbitrary vectors.

A finite computation can certify membership in the first type (exhibit one
anticommuting Q) but never in the second (which quantifies over all
admissible generators), so the classifier only ever answers
``first_type``, ``not_j_orthonormal`` or ``undetermined``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, QuadratureRule
from .defaults import PARITY_CHECK_TOL, TOL_KREIN
from .errors import DomainError, NotJOrthonormalError, StructureError
from .grs import BiorthogonalSystem, weighted_samples
from .krein import FunctionRep, apply_parity, inner, krein_inner, lincomb, to_samples
from .metric_ops import MetricOperatorQ, anticommutes_with_parity, apply_exp_q

__all__ = [
    "CSymmetryOp",
    "TypeClassification",
    "make_c_symmetry",
    "krein_gram",
    "j_orthonormality_defect",
    "sign_sequence",
    "partner_check",
    "classify_type",
    "apply_c",
    "c_inner",
    "sampled_product",
    "c_squared_residual",
    "jc_positivity_value",
    "fundamental_split",
    "expansion_residual",
    "parity_eigenvector_defect",
]


@dataclass(frozen=True)
class CSymmetryOp:
    """C = J exp(-Q) = exp(Q) J for a generator that anticommutes with J."""

    q: MetricOperatorQ
    rule: QuadratureRule


def make_c_symmetry(q_op: MetricOperatorQ, rule: QuadratureRule) -> CSymmetryOp:
    """Validate the anticommutation requirement and wrap the generator."""
    verdict = anticommutes_with_parity(q_op, rule)
    if verdict.verdict != "yes":
        raise StructureError(
            f"generator does not anticommute with parity (verdict {verdict.verdict!r}, "
            f"evidence {verdict.evidence:.3g}); no C-symmetry operator exists for it"
        )
    return CSymmetryOp(q_op, rule)


@dataclass(frozen=True)
class TypeClassification:
    """Outcome of the first-type test.

    ``first_type`` carries the witnessing generator; ``undetermined`` means
    the family is indefinitely orthonormal but the wired-in generator is not
    an anticommuting witness (second type cannot be certified numerically).
    """

    verdict: str
    q: MetricOperatorQ | None
    j_defect: float
    anticommutation_evidence: float


# ---------------------------------------------------------------------------
# indefinite Gram machinery
# ---------------------------------------------------------------------------

def krein_gram(sys: BiorthogonalSystem) -> np.ndarray:
    """K[n, m] = [phi_n, phi_m] from the cached sample rows."""
    if not sys.rule.is_symmetric:
        raise StructureError("indefinite Gram needs a symmetric working grid")
    w = sys.rule.dx_weights
    return (sys.phi_samples[:, ::-1] * w) @ np.conj(sys.phi_samples.T)


def j_orthonormality_defect(sys: BiorthogonalSystem) -> float:
    """max_{n,m} | |[phi_n, phi_m]| - delta_nm |."""
    k = krein_gram(sys)
    return float(np.max(np.abs(np.abs(k) - np.eye(sys.n))))


def sign_sequence(sys: BiorthogonalSystem, tol: float = TOL_KREIN) -> tuple[int, ...]:
    """delta_n = [phi_n, phi_n], rounded to +-1.

    Raises :class:`NotJOrthonormalError` when any diagonal entry fails to be
    unimodular to within ``tol``.
    """
    k = krein_gram(sys)
    diag = np.real(np.diag(k))
    signs = []
    for n, d in enumerate(diag):
        s = int(round(d))
        if s not in (-1, 1) or abs(d - s) > tol:
            raise NotJOrthonormalError(
                f"[phi_{n}, phi_{n}] = {d:.6f} is not unimodular to {tol:.0e}"
            )
        signs.append(s)
    return tuple(signs)


def partner_check(sys: BiorthogonalSystem, tol: float = TOL_KREIN) -> float:
    """max_n ||psi_n - delta_n J phi_n|| / ||psi_n|| on the working grid."""
    signs = np.array(sign_sequence(sys, tol))
    if not sys.rule.is_symmetric:
        raise StructureError("partner check needs a symmetric working grid")
    diff = sys.psi_samples - signs[:, np.newaxis] * sys.phi_samples[:, ::-1]
    return float(np.max(sys.rule.norm(diff) / sys.rule.norm(sys.psi_samples)))


def parity_eigenvector_defect(basis: BasisSet) -> float:
    """How far the basis members are from parity eigenvectors.

    Exactly zero for the analytic Hermite basis (structural); grid-reversal
    residual for numeric bases.
    """
    if basis.is_analytic:
        return 0.0
    worst = 0.0
    for n in range(basis.size):
        v = basis.vectors[:, n]
        s = basis.parity_signs[n]
        worst = max(worst, float(np.max(np.abs(v[::-1] - s * v)) / np.max(np.abs(v))))
    return worst


def classify_type(sys: BiorthogonalSystem, tol: float = TOL_KREIN) -> TypeClassification:
    """Classify the phi family.

    Pipeline: (1) indefinite orthonormality to ``tol``; (2) the wired-in
    generator anticommutes with parity and the basis members are parity
    eigenvectors.  Both hold -> ``first_type`` with the generator as witness.
    Failing (2) alone yields ``undetermined``: certifying the second type
    would require ruling out every admissible generator.
    """
    ac = anticommutes_with_parity(sys.q, sys.rule)
    defect = j_orthonormality_defect(sys)
    if defect > tol:
        return TypeClassification("not_j_orthonormal", None, defect, ac.evidence)
    if ac.verdict == "yes" and parity_eigenvector_defect(sys.basis) <= PARITY_CHECK_TOL:
        return TypeClassification("first_type", sys.q, defect, ac.evidence)
    return TypeClassification("undetermined", None, defect, ac.evidence)


# ---------------------------------------------------------------------------
# the operator C and its metric
# ---------------------------------------------------------------------------

def apply_c(c_op: CSymmetryOp, f: FunctionRep) -> FunctionRep:
    """C f = exp(Q) (J f)."""
    return apply_exp_q(c_op.q, 1.0, apply_parity(f), c_op.rule)


def sampled_product(
    rule: QuadratureRule, f: FunctionRep, g: FunctionRep, indefinite: bool = False
) -> complex:
    """<f, g>, or [f, g] when ``indefinite``, with both sampled on ``rule``."""
    fs, gs = to_samples(f, rule), to_samples(g, rule)
    return krein_inner(fs, gs) if indefinite else inner(fs, gs)


def c_inner(c_op: CSymmetryOp, f: FunctionRep, g: FunctionRep) -> complex:
    """The positive inner product [C f, g] induced by the C-symmetry."""
    return sampled_product(c_op.rule, apply_c(c_op, f), g, indefinite=True)


def c_squared_residual(c_op: CSymmetryOp, f: FunctionRep) -> float:
    """|| C(Cf) - f || / ||f|| on the working grid."""
    ccf = to_samples(apply_c(c_op, apply_c(c_op, f)), c_op.rule)
    fs = to_samples(f, c_op.rule)
    return float(c_op.rule.norm(ccf.samples - fs.samples) / c_op.rule.norm(fs.samples))


def jc_positivity_value(c_op: CSymmetryOp, f: FunctionRep) -> float:
    """<J(Cf), f>, which must be strictly positive for nonzero f."""
    return float(sampled_product(c_op.rule, apply_parity(apply_c(c_op, f)), f).real)


def fundamental_split(
    c_op: CSymmetryOp, f: FunctionRep
) -> tuple[FunctionRep, FunctionRep]:
    """f = f_+ + f_- along the projectors (I +- C)/2.

    The components are indefinitely orthogonal, [f_+, f_+] >= 0 and
    [f_-, f_-] <= 0, and [Cf, g] = [f_+, g_+] - [f_-, g_-].
    """
    cf = apply_c(c_op, f)
    f_plus = lincomb([(0.5, f), (0.5, cf)], c_op.rule)
    f_minus = lincomb([(0.5, f), (-0.5, cf)], c_op.rule)
    return f_plus, f_minus


def expansion_residual(
    sys: BiorthogonalSystem,
    c_op: CSymmetryOp,
    f: FunctionRep,
    m: int | None = None,
    tol: float = TOL_KREIN,
) -> float:
    """Residual of f = sum_n delta_n [f, phi_n] phi_n in the metric norm.

    The norm is evaluated in factored form: exp(-Q/2) is applied term by term
    (it is linear), and the plain norm of
    exp(-Q/2) f - sum_n alpha_n exp(-Q/2) phi_n is returned; the sum is one
    product with the table of exp(-Q/2) phi_n.
    """
    if anticommutes_with_parity(sys.q, sys.rule).verdict != "yes":
        raise StructureError("the indefinite expansion needs a first-type system")
    m = sys.n if m is None else int(m)
    if not 1 <= m <= sys.n:
        raise DomainError(f"m must lie in [1, {sys.n}], got {m}")
    signs = sign_sequence(sys, tol)
    if not sys.rule.is_symmetric:
        raise StructureError("expansion residual needs a symmetric working grid")
    w = sys.rule.dx_weights
    fs = to_samples(f, sys.rule).samples
    # alpha_n = delta_n [f, phi_n]
    f_rev = fs[::-1]
    alphas = np.array(signs[:m]) * (np.conj(sys.phi_samples[:m]) @ (w * f_rev))
    u = to_samples(apply_exp_q(sys.q, -0.5, f, sys.rule), sys.rule).samples
    u = u - alphas @ weighted_samples(sys, "phi", -1)[:m]
    return float(sys.rule.norm(u))
