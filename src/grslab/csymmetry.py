"""Indefinite-metric verification and the C-symmetry operator C = exp(Q) J.

Everything here lives on the Krein side of a biorthogonal system: the
indefinite Gram and its defect, the sign sequence delta_n = [phi_n, phi_n],
the partner identity psi_n = delta_n J phi_n, first-type classification, the
operator C with its induced positive inner product [Cf, g], the fundamental
split along (I +- C)/2, and the indefinite expansion of span functions.

Every quantity is a matrix expression over the system's phi table and its
cached Grams.  A function in the span is a coefficient row ``a`` over the
phi family, and a batch of them is a (k x N) coefficient matrix.  C acts on
the k span rows f = a @ phi (:func:`c_rows`), so the suites' ten span rows
never need C on the N-row family; the expansion residual is a quadratic
form in the cached Krein and phi weighted Grams.  The Krein Gram is cached on the system, and so is its
parity fact: whether the generator anticommutes with parity, decided from
its kind or its symbol, never measured.  The basis members are parity
eigenvectors by construction (a :class:`grslab.basis.BasisSet` refuses
vectors that are not), so that fact alone decides the first type.

A finite computation can certify membership in the first type (exhibit one
anticommuting Q) but never in the second (which quantifies over all
admissible generators), so the classifier only ever answers
``first_type``, ``not_j_orthonormal`` or ``undetermined``.
"""

from __future__ import annotations

import numpy as np

from .basis import QuadratureRule
from .defaults import TOL_KREIN
from .errors import NotJOrthonormalError, StructureError
from .grs import BiorthogonalSystem
from .metric_ops import Multiplication, multiply_exp_q

__all__ = [
    "krein_gram",
    "j_orthonormality_defect",
    "sign_sequence",
    "partner_check",
    "classify_type",
    "c_rows",
    "krein_rows",
    "c_squared_residual",
    "jc_positivity_value",
    "expansion_residual",
]


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

    Raises :class:`NotJOrthonormalError` naming the first diagonal entry that
    fails to be unimodular to within ``tol`` (a nan entry fails).
    """
    diag = np.real(np.diag(krein_gram(sys)))
    signs = np.round(diag)
    bad = np.flatnonzero(~((np.abs(signs) == 1) & (np.abs(diag - signs) <= tol)))
    if bad.size:
        n = bad[0]
        raise NotJOrthonormalError(
            f"[phi_{n}, phi_{n}] = {diag[n]:.6f} is not unimodular to {tol:.0e}"
        )
    return tuple(signs.astype(int).tolist())


def partner_check(sys: BiorthogonalSystem, tol: float = TOL_KREIN) -> float:
    """max_n ||psi_n - delta_n J phi_n|| / ||psi_n|| on the working grid."""
    signs = np.array(sign_sequence(sys, tol))
    if not sys.rule.is_symmetric:
        raise StructureError("partner check needs a symmetric working grid")
    diff = signs[:, np.newaxis] * sys.phi_samples[:, ::-1]
    np.subtract(sys.psi_samples, diff, out=diff)
    return float(np.max(sys.rule.norm(diff) / sys.rule.norm(sys.psi_samples)))


def classify_type(sys: BiorthogonalSystem, tol: float = TOL_KREIN) -> str:
    """Classify the phi family: ``first_type``, ``not_j_orthonormal`` or
    ``undetermined``.

    Pipeline: (1) indefinite orthonormality to ``tol`` (a nan defect fails
    it); (2) the wired-in generator anticommutes with parity
    (``sys.parity``).  The basis members are parity eigenvectors by
    construction, so both holding -> ``first_type`` with the generator as
    witness.  Failing (2) alone yields ``undetermined``: certifying the
    second type would require ruling out every admissible generator.
    """
    if not j_orthonormality_defect(sys) <= tol:
        return "not_j_orthonormal"
    return "first_type" if sys.parity else "undetermined"


# ---------------------------------------------------------------------------
# the operator C and its metric
# ---------------------------------------------------------------------------

def c_rows(sys: BiorthogonalSystem, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The span rows f = coeffs @ phi with Cf and C^2 f on the working rule.

    Translation: parity flips the argument shift ia to -ia and exp(Q) moves
    it back, so C phi_n = (-1)^n phi_n exactly: C acts on the coefficients
    and C^2 f is f.  Multiplication: (Cf)(x) = exp(q(x)) f(-x) on the
    reversed samples, and C^2 f is that map applied twice, so C^2 = I stays
    numerical evidence.
    """
    if not sys.parity:
        raise StructureError(
            "generator does not anticommute with parity; no C-symmetry operator exists for it"
        )
    if not sys.rule.is_symmetric:
        raise StructureError("parity on sample form needs a symmetric grid")
    if isinstance(sys.q, Multiplication):
        # the phi table is real: two real products, never a complex copy of it
        f = np.empty(coeffs.shape[:-1] + sys.phi_samples.shape[-1:], complex)
        f.real = coeffs.real @ sys.phi_samples
        f.imag = coeffs.imag @ sys.phi_samples
        cf = multiply_exp_q(sys.q, 1.0, f[:, ::-1], sys.rule)
        return f, cf, multiply_exp_q(sys.q, 1.0, cf[:, ::-1], sys.rule)
    signs = np.array(sys.basis.parity_signs[: sys.n], dtype=float)
    f = coeffs @ sys.phi_samples
    return f, (coeffs * signs) @ sys.phi_samples, f


def krein_rows(rule: QuadratureRule, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[f_i, g_i] = <J f_i, g_i> for each row pair of two sample tables."""
    return np.sum(rule.dx_weights * f[..., ::-1] * g.conj(), axis=-1)


def c_squared_residual(rule: QuadratureRule, rows: tuple[np.ndarray, ...]) -> np.ndarray:
    """||C(Cf) - f|| / ||f|| for each span row of ``rows`` = :func:`c_rows`."""
    f, _, ccf = rows
    return rule.norm(ccf - f) / rule.norm(f)


def jc_positivity_value(rule: QuadratureRule, rows: tuple[np.ndarray, ...]) -> np.ndarray:
    """<J(Cf), f> = Re [Cf, f] for each span row of ``rows`` = :func:`c_rows`;
    must be strictly positive."""
    f, cf, _ = rows
    return krein_rows(rule, cf, f).real


def expansion_residual(sys: BiorthogonalSystem, coeffs: np.ndarray, tol: float = TOL_KREIN) -> np.ndarray:
    """Residual of f = sum_n delta_n [f, phi_n] phi_n in the metric norm, for
    each span row f = coeffs @ phi.

    With K the Krein Gram, [f, phi_n] = (coeffs K)_n, so the residual is
    sum_n d_n phi_n with d = coeffs - delta * (coeffs K), and its metric norm
    ||exp(-Q/2) sum_n d_n phi_n|| is sqrt(d W d^H) over the phi weighted
    Gram W.
    """
    if not sys.parity:
        raise StructureError("the indefinite expansion needs a first-type system")
    d = coeffs - np.array(sign_sequence(sys, tol)) * (coeffs @ krein_gram(sys))
    return np.sqrt(np.abs(np.sum((d @ sys.phi_weighted_gram) * np.conj(d), axis=1)))
