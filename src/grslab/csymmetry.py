"""Indefinite-metric verification and the C-symmetry operator C = exp(Q) J.

Everything here lives on the Krein side of a biorthogonal system: the
indefinite Gram and its defect, the sign sequence delta_n = [phi_n, phi_n],
the partner identity psi_n = delta_n J phi_n, first-type classification, the
operator C with its induced positive inner product [Cf, g], the fundamental
split along (I +- C)/2, and the indefinite expansion of arbitrary vectors.

Every quantity is a matrix expression over the system's phi table.  C acts
on that whole table (:func:`c_tables`), never on one function at a time; a
function in the span is a coefficient row ``a`` over the phi family, so f,
Cf and C^2 f are ``a`` times the phi, C phi and C^2 phi tables and a batch
of span functions is one product.  The Krein Gram and the parity verdict
are cached on the system.

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
from .metric_ops import MetricOperatorQ, Multiplication, multiply_exp_q

__all__ = [
    "TypeClassification",
    "krein_gram",
    "j_orthonormality_defect",
    "sign_sequence",
    "partner_check",
    "classify_type",
    "c_tables",
    "krein_rows",
    "c_squared_residual",
    "jc_positivity_value",
    "expansion_residual",
    "parity_eigenvector_defect",
]


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
    """K[n, m] = [phi_n, phi_m], computed once per system (read-only)."""
    return sys.krein_gram


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
    ac = sys.parity
    defect = j_orthonormality_defect(sys)
    if defect > tol:
        return TypeClassification("not_j_orthonormal", None, defect, ac.evidence)
    if ac.verdict == "yes" and parity_eigenvector_defect(sys.basis) <= PARITY_CHECK_TOL:
        return TypeClassification("first_type", sys.q, defect, ac.evidence)
    return TypeClassification("undetermined", None, defect, ac.evidence)


# ---------------------------------------------------------------------------
# the operator C and its metric
# ---------------------------------------------------------------------------

def c_tables(sys: BiorthogonalSystem) -> tuple[np.ndarray, np.ndarray]:
    """C phi_n and C^2 phi_n on the working rule, one row per member.

    Translation: parity flips the argument shift ia to -ia and exp(Q) moves
    it back, so C phi_n = (-1)^n phi_n exactly and C^2 is the identity.
    Multiplication: (Cf)(x) = exp(q(x)) f(-x) on the reversed samples, and
    C^2 is that map applied twice, so C^2 = I stays numerical evidence.
    """
    if sys.parity.verdict != "yes":
        raise StructureError(
            f"generator does not anticommute with parity (verdict {sys.parity.verdict!r}, "
            f"evidence {sys.parity.evidence:.3g}); no C-symmetry operator exists for it"
        )
    if not sys.rule.is_symmetric:
        raise StructureError("parity on sample form needs a symmetric grid")
    if isinstance(sys.q, Multiplication):
        c_phi = multiply_exp_q(sys.q, 1.0, sys.phi_samples[:, ::-1], sys.rule)
        return c_phi, multiply_exp_q(sys.q, 1.0, c_phi[:, ::-1], sys.rule)
    signs = np.array(sys.basis.parity_signs[: sys.n], dtype=float)[:, np.newaxis]
    c_phi = signs * sys.phi_samples
    return c_phi, signs * c_phi


def krein_rows(rule: QuadratureRule, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[f_i, g_i] = <J f_i, g_i> for each row pair of two sample tables."""
    return np.sum(rule.dx_weights * f[..., ::-1] * np.conj(g), axis=-1)


def c_squared_residual(sys: BiorthogonalSystem, coeffs: np.ndarray) -> np.ndarray:
    """||C(Cf) - f|| / ||f|| for each span row f = coeffs @ phi."""
    cc_phi = c_tables(sys)[1]
    rule = sys.rule
    return rule.norm(coeffs @ (cc_phi - sys.phi_samples)) / rule.norm(coeffs @ sys.phi_samples)


def jc_positivity_value(sys: BiorthogonalSystem, coeffs: np.ndarray) -> np.ndarray:
    """<J(Cf), f> = Re [Cf, f] for each span row; must be strictly positive."""
    c_phi = c_tables(sys)[0]
    return krein_rows(sys.rule, coeffs @ c_phi, coeffs @ sys.phi_samples).real


def expansion_residual(
    sys: BiorthogonalSystem,
    f: np.ndarray,
    f_weighted: np.ndarray,
    m: int | None = None,
    tol: float = TOL_KREIN,
) -> np.ndarray:
    """Residual of f = sum_n delta_n [f, phi_n] phi_n in the metric norm, per row.

    ``f`` holds functions sampled on the working rule, one per row, and
    ``f_weighted`` the same functions moved by exp(-Q/2).  The norm is
    evaluated in factored form: exp(-Q/2) is applied term by term (it is
    linear), and the plain norm of exp(-Q/2) f - sum_n alpha_n exp(-Q/2) phi_n
    is returned; the sum is one product with the table of exp(-Q/2) phi_n.
    """
    if sys.parity.verdict != "yes":
        raise StructureError("the indefinite expansion needs a first-type system")
    m = sys.n if m is None else int(m)
    if not 1 <= m <= sys.n:
        raise DomainError(f"m must lie in [1, {sys.n}], got {m}")
    signs = np.array(sign_sequence(sys, tol)[:m])
    # alpha_n = delta_n [f, phi_n]
    alphas = signs * ((f[:, ::-1] * sys.rule.dx_weights) @ np.conj(sys.phi_samples[:m].T))
    u = f_weighted - alphas @ weighted_samples(sys, "phi", -1)[:m]
    return sys.rule.norm(u)
