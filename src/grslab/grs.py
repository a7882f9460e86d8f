"""Dual biorthogonal systems phi_n = exp(Q/2) e_n, psi_n = exp(-Q/2) e_n.

Built at finite truncation N from a metric generator Q and an orthonormal
basis; all the Hilbert-space identities asserted for such pairs are exposed
as defect numbers rather than booleans, so the same kernels serve both
pass/fail gates and convergence studies.

Each family is evaluated once, as an (N x P) table on the working rule: one
Hermite table at the shifted argument for translation generators, one
pointwise exp(+-q/2) multiply of the basis table for multiplication symbols.
The domain-decay gate, the Grams and the defects are matrix expressions over
those tables (BLAS products), not loops over members or pairs.  Weighted
inner products are always evaluated in the factored form
<exp(sQ/2) f, exp(sQ/2) g>, which halves the dynamic range compared to
applying exp(sQ) whole.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .basis import BasisSet, QuadratureRule, _readonly, hermite_function_table
from .defaults import DECAY_THRESHOLD, QUAD_ORDER_PAD
from .errors import DomainError, MagnitudeError, NumericError, StructureError
from .krein import CoefficientRep, FunctionRep, SampleRep, inner, to_samples, unit_vector
from .metric_ops import (
    MetricOperatorQ,
    Multiplication,
    ParityAnticommutation,
    anticommutes_with_parity,
    apply_exp_q,
    decay_scores,
    multiply_exp_q,
    outer_mass_fraction,
    working_rule,
)

__all__ = [
    "BiorthogonalSystem",
    "build_system",
    "biorthogonality_defect",
    "gq_basis_defect",
    "g0_quadratic_check",
    "weighted_inner",
    "weighted_product",
    "weighted_gram",
    "weighted_samples",
    "family_samples",
    "truncated",
]


@dataclass(frozen=True)
class BiorthogonalSystem:
    """The triple ({e_n}, {phi_n}, {psi_n}) at truncation size n.

    ``phi``/``psi`` hold the most structured representation each generator
    admits (coefficient form with an exact argument shift for translation
    generators, samples for multiplication symbols); ``phi_samples`` and
    ``psi_samples`` cache the same families on the working rule for
    quadrature work.  Values are immutable after build, so the Grams and the
    parity verdict below are computed once, on first use, and returned
    read-only; ``dataclasses.replace`` and :func:`truncated` build fresh
    instances with empty caches.
    """

    basis: BasisSet
    q: MetricOperatorQ
    n: int
    rule: QuadratureRule
    phi: tuple[FunctionRep, ...]
    psi: tuple[FunctionRep, ...]
    phi_samples: NDArray
    psi_samples: NDArray
    min_decay_score: float

    def __post_init__(self) -> None:
        for name in ("phi_samples", "psi_samples"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @cached_property
    def biorth_gram(self) -> NDArray:
        """G[n, m] = <phi_n, psi_m> on the working rule."""
        w = self.rule.dx_weights
        return _readonly((self.phi_samples * w) @ np.conj(self.psi_samples.T))

    @property
    def biorth_defect(self) -> float:
        """max_{n,m} |<phi_n, psi_m> - delta_nm|."""
        return float(np.max(np.abs(self.biorth_gram - np.eye(self.n))))

    @cached_property
    def krein_gram(self) -> NDArray:
        """K[n, m] = [phi_n, phi_m] = <J phi_n, phi_m> on the working rule."""
        if not self.rule.is_symmetric:
            raise StructureError("indefinite Gram needs a symmetric working grid")
        w = self.rule.dx_weights
        return _readonly((self.phi_samples[:, ::-1] * w) @ np.conj(self.phi_samples.T))

    @cached_property
    def parity(self) -> ParityAnticommutation:
        """Whether the generator anticommutes with parity, on the working rule."""
        return anticommutes_with_parity(self.q, self.rule)


#: exponents of the phi and psi families, in the order the decay gate checks them
_HALVES = (0.5, -0.5)


def _member_table(
    basis: BasisSet, n: int, rule: QuadratureRule, shift: complex = 0j
) -> np.ndarray:
    """Samples of e_k(x + shift), k < n, on ``rule``, one row per member.

    Row k equals ``to_samples`` of the unit vector e_k (with that shift) bit
    for bit: analytic members are evaluated at complex arguments as
    :func:`grslab.krein.evaluate` does, the recurrence rows do not depend on
    the top degree, and the unit-vector contractions are exact.
    """
    if basis.is_analytic:
        return hermite_function_table(n - 1, np.asarray(rule.nodes, dtype=complex) + shift)
    return basis.table(rule)[:n]


def _shift(sys: BiorthogonalSystem, which: str) -> complex:
    """The argument shift every member of a translation family shares."""
    return (sys.phi if which == "phi" else sys.psi)[0].shift


def _moved_family(
    q_op: MetricOperatorQ, basis: BasisSet, n: int, t: float, rule: QuadratureRule
) -> tuple[tuple[FunctionRep, ...], np.ndarray]:
    """exp(tQ) e_k for k < n: the member representations and their samples.

    Translation samples are one member table at the shifted argument,
    multiplication samples one pointwise multiply of the member table.
    """
    if isinstance(q_op, Multiplication):
        moved = multiply_exp_q(q_op, t, _member_table(basis, n, rule), rule)
        # C order: numeric member tables are transposed views, and the rows
        # below must be views of the very table the system keeps
        table = np.ascontiguousarray(moved, dtype=complex)
        return tuple(SampleRep(rule, row) for row in table), table
    reps = tuple(apply_exp_q(q_op, t, unit_vector(basis, k), rule) for k in range(n))
    return reps, _member_table(basis, n, rule, reps[0].shift)


def build_system(
    q_op: MetricOperatorQ,
    basis: BasisSet,
    n: int,
    rule: QuadratureRule | None = None,
    quad_order: int | None = None,
    decay_threshold: float = DECAY_THRESHOLD,
) -> BiorthogonalSystem:
    """Materialize both families and record their quality numbers.

    Every basis member must clear the domain-decay gate for both signs of
    exp(+-Q/2); the first offending index (exp(+Q/2) before exp(-Q/2)) and
    its sign are named otherwise.  A sign whose action overflows scores 0.
    """
    if not 1 <= n <= basis.size:
        raise DomainError(f"truncation {n} must lie in [1, basis size {basis.size}]")
    if rule is None:
        rule = working_rule(basis, 2 * n + QUAD_ORDER_PAD if quad_order is None else quad_order)

    families = {}
    scores = np.zeros((n, len(_HALVES)))
    for j, t in enumerate(_HALVES):
        try:
            families[t] = _moved_family(q_op, basis, n, t, rule)
        except MagnitudeError:
            continue
        scores[:, j] = 1.0 - outer_mass_fraction(families[t][1], rule)
    bad = np.argwhere(scores < decay_threshold)
    if bad.size:
        k, j = bad[0]
        raise DomainError(
            f"basis member {k}: exp({_HALVES[j]:+g} Q) mass escapes the window "
            f"(score {scores[k, j]:.3f} < {decay_threshold}); the generator does not "
            "admit this basis at the working resolution"
        )
    (phi, phi_s), (psi, psi_s) = (
        families.get(t) or _moved_family(q_op, basis, n, t, rule) for t in _HALVES
    )

    return BiorthogonalSystem(
        basis=basis,
        q=q_op,
        n=int(n),
        rule=rule,
        phi=phi,
        psi=psi,
        phi_samples=phi_s,
        psi_samples=psi_s,
        min_decay_score=float(np.min(scores)),
    )


# ---------------------------------------------------------------------------
# grams and defects
# ---------------------------------------------------------------------------

def biorthogonality_defect(sys: BiorthogonalSystem) -> float:
    """max_{n,m} |<phi_n, psi_m> - delta_nm| from the system's cached Gram."""
    return sys.biorth_defect


def gq_basis_defect(
    sys: BiorthogonalSystem,
    f: FunctionRep,
    g: FunctionRep,
    upto: int | None = None,
    decay_threshold: float = DECAY_THRESHOLD,
) -> tuple[float, float]:
    """Defects of the two quasi-basis resolutions of <f, g>.

    Returns (|<f,g> - sum <f,phi_n><psi_n,g>|, |<f,g> - sum <f,psi_n><phi_n,g>|)
    over the first ``upto`` members (all of them by default).  Both f and g
    must clear the domain-decay gate for both signs.
    """
    m = sys.n if upto is None else int(upto)
    if not 1 <= m <= sys.n:
        raise DomainError(f"upto must lie in [1, {sys.n}], got {m}")
    for name, h in (("f", f), ("g", g)):
        scores = decay_scores(sys.q, h, sys.rule)
        bad = min(scores.values())
        if bad < decay_threshold:
            raise DomainError(
                f"{name} fails the domain gate (score {bad:.3f} < {decay_threshold})"
            )
    w = sys.rule.dx_weights
    fs = to_samples(f, sys.rule).samples
    gs = to_samples(g, sys.rule).samples
    fg = np.sum(w * fs * np.conj(gs))
    f_phi = np.conj(sys.phi_samples[:m] * w) @ fs      # <f, phi_n>
    psi_g = (sys.psi_samples[:m] * w) @ np.conj(gs)    # <psi_n, g>
    f_psi = np.conj(sys.psi_samples[:m] * w) @ fs
    phi_g = (sys.phi_samples[:m] * w) @ np.conj(gs)
    d1 = abs(fg - np.sum(f_phi * psi_g))
    d2 = abs(fg - np.sum(f_psi * phi_g))
    return float(d1), float(d2)


def g0_quadratic_check(sys: BiorthogonalSystem, c: Sequence[complex]) -> tuple[float, float]:
    """Quadratic form of the map phi_n -> psi_n against sum |c_n|^2.

    For f = sum c_n phi_n the pairing <sum c_n psi_n, f> must equal
    sum |c_n|^2 (and in particular be strictly positive for c != 0); returns
    (sum |c_n|^2, quadrature value).
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or c.size == 0 or c.size > sys.n:
        raise DomainError(f"need 1 <= len(c) <= {sys.n}, got shape {c.shape}")
    u = c @ sys.psi_samples[: c.size]
    v = c @ sys.phi_samples[: c.size]
    z = np.sum(sys.rule.dx_weights * u * np.conj(v))
    if abs(z.imag) > 1e-6 * max(1.0, abs(z)):
        raise NumericError(f"quadratic form came out non-real: {z!r}")
    return float(np.sum(np.abs(c) ** 2)), float(z.real)


# ---------------------------------------------------------------------------
# weighted inner products
# ---------------------------------------------------------------------------

def weighted_inner(
    q_op: MetricOperatorQ,
    sign: int,
    f: FunctionRep,
    g: FunctionRep,
    rule: QuadratureRule | None = None,
) -> complex:
    """<exp(sign Q/2) f, exp(sign Q/2) g> for sign in {-1, +1}.

    This is the factored form of the metric-weighted product; the whole
    weight exp(sign Q) is never applied.
    """
    if sign not in (-1, 1):
        raise DomainError(f"sign must be -1 or +1, got {sign!r}")
    tf = apply_exp_q(q_op, 0.5 * sign, f, rule)
    tg = apply_exp_q(q_op, 0.5 * sign, g, rule)
    if (
        isinstance(tf, CoefficientRep)
        and isinstance(tg, CoefficientRep)
        and tf.shift == 0
        and tg.shift == 0
    ):
        return inner(tf, tg)
    if rule is None:
        if isinstance(tf, SampleRep):
            rule = tf.rule
        elif isinstance(tg, SampleRep):
            rule = tg.rule
        else:
            rule = working_rule(tf.basis)
    return inner(to_samples(tf, rule), to_samples(tg, rule))


def weighted_product(
    q_op: MetricOperatorQ,
    sign: int,
    rule: QuadratureRule | None = None,
) -> Callable[[FunctionRep, FunctionRep], complex]:
    """The weighted product as a callable, for :func:`grslab.krein.gram_matrix`."""
    return lambda f, g: weighted_inner(q_op, sign, f, g, rule)


def _weighted_rows(sys: BiorthogonalSystem, which: str, sign: int) -> tuple[np.ndarray, bool]:
    """exp(sign Q/2) applied to each phi or psi member, one row per member.

    Multiplication acts pointwise on the cached table.  Translation moves
    every member to one common shift: where that shift is zero the rows are
    the members' unit coefficient vectors over the basis and the flag is
    True (exact, no quadrature), otherwise they are the member table at the
    shifted argument on the working rule.
    """
    if which not in ("phi", "psi"):
        raise DomainError(f"which must be phi or psi, got {which!r}")
    if sign not in (-1, 1):
        raise DomainError(f"sign must be -1 or +1, got {sign!r}")
    t = 0.5 * sign
    if isinstance(sys.q, Multiplication):
        return multiply_exp_q(sys.q, t, family_samples(sys, which), sys.rule), False
    shift = _shift(sys, which) + 2j * sys.q.a * t
    if shift == 0:
        return np.eye(sys.n, sys.basis.size, dtype=complex), True
    return _member_table(sys.basis, sys.n, sys.rule, shift), False


def weighted_gram(sys: BiorthogonalSystem, which: str, sign: int) -> np.ndarray:
    """W[n, m] = <exp(sign Q/2) f_n, exp(sign Q/2) f_m> for f = phi or psi.

    Coefficient rows give the exact coefficient-space Gram (so a translation
    system reads exactly the identity); sample rows one quadrature product.
    """
    rows, coefficients = _weighted_rows(sys, which, sign)
    if coefficients:
        return rows @ np.conj(rows.T)
    weighted = rows * sys.rule.dx_weights
    return weighted @ np.conj(rows, out=rows).T  # rows are a fresh table


def weighted_samples(sys: BiorthogonalSystem, which: str, sign: int) -> np.ndarray:
    """Rows exp(sign Q/2) f_n, f = phi or psi, sampled on the working rule."""
    rows, coefficients = _weighted_rows(sys, which, sign)
    return rows @ _member_table(sys.basis, sys.basis.size, sys.rule) if coefficients else rows


# ---------------------------------------------------------------------------
# re-materialization helpers
# ---------------------------------------------------------------------------

def family_samples(
    sys: BiorthogonalSystem,
    which: str,
    rule: QuadratureRule | None = None,
) -> np.ndarray:
    """Rows of phi, psi or e sampled on ``rule`` (the working rule by default).

    Analytic systems can be re-materialized on any rule; numeric bases exist
    only on their own grid.
    """
    if which not in ("phi", "psi", "e"):
        raise DomainError(f"which must be phi, psi or e, got {which!r}")
    if rule is None or rule is sys.rule:
        if which == "phi":
            return np.asarray(sys.phi_samples)
        if which == "psi":
            return np.asarray(sys.psi_samples)
        return sys.basis.table(sys.rule)[: sys.n]
    if which == "e":
        return sys.basis.table(rule)[: sys.n]  # StructureError for numeric bases
    if isinstance(sys.q, Multiplication):
        t = 0.5 if which == "phi" else -0.5
        return np.exp(t * sys.q.values(rule.nodes)) * sys.basis.table(rule)[: sys.n]
    return _member_table(sys.basis, sys.n, rule, _shift(sys, which))


def truncated(sys: BiorthogonalSystem, m: int) -> BiorthogonalSystem:
    """The same system restricted to its first m members."""
    if not 1 <= m <= sys.n:
        raise DomainError(f"truncation {m} must lie in [1, {sys.n}]")
    if m == sys.n:
        return sys
    return replace(
        sys,
        n=int(m),
        phi=sys.phi[:m],
        psi=sys.psi[:m],
        phi_samples=np.array(sys.phi_samples[:m]),
        psi_samples=np.array(sys.psi_samples[:m]),
    )
