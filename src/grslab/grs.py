"""Dual biorthogonal systems phi_n = exp(Q/2) e_n, psi_n = exp(-Q/2) e_n.

Built at finite truncation N from a metric generator Q and an orthonormal
basis; all the Hilbert-space identities asserted for such pairs are exposed
as defect numbers rather than booleans, so the same kernels serve both
pass/fail gates and convergence studies.

A built system is two (N x P) sample tables on one working rule.  Every
table of moved members exp(tQ) e_k comes from one dispatch over generator
kinds, :func:`_moved_table`: one Hermite table at the complex-shifted
argument for translation generators, pointwise exp(tq) multiplies of the
member table for multiplication symbols (a build evaluates that table once
for both signs).  A table is real exactly when its samples are: members on
the real nodes and their multiplication moves are float64, and only a
nonzero translation shift makes a table complex.  The quasi-basis probe is
the unit Gaussian in closed form, sampled on the working rule; it moves
exactly to f(x + 2iat) under translation and through the same multiply
under multiplication, and the build and the probe pass one domain-decay
gate (:func:`grslab.metric_ops.decay_scores` on the moved tables).  The
Grams and the defects are matrix expressions over those tables (BLAS
products, real ones over two real tables), not loops over members or
pairs.  Weighted inner products are always evaluated in the
factored form <exp(sQ/2) f, exp(sQ/2) g>, which halves the dynamic range
compared to applying exp(sQ) whole; :func:`weighted_inner` is the
per-function reference that tests compare the tables against.  A
translation build evaluates phi alone: on the real nodes psi, at the
conjugate shift, is phi's complex conjugate bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .basis import BasisSet, QuadratureRule, _readonly, hermite_function_table
from .defaults import DECAY_THRESHOLD, QUAD_ORDER_PAD
from .errors import DomainError, MagnitudeError, NumericError, StructureError
from .krein import FunctionRep, SampleRep, inner, to_samples
from .metric_ops import (
    MetricOperatorQ,
    Multiplication,
    anticommutes_with_parity,
    apply_exp_q,
    decay_scores,
    multiply_exp_q,
    working_rule,
)

__all__ = [
    "BiorthogonalSystem",
    "build_system",
    "biorthogonality_defect",
    "gq_basis_defect",
    "g0_quadratic_check",
    "weighted_inner",
    "weighted_gram",
    "family_samples",
]


@dataclass(frozen=True)
class BiorthogonalSystem:
    """The triple ({e_n}, {phi_n}, {psi_n}) at truncation size n.

    ``phi_samples`` and ``psi_samples`` are the two families sampled on the
    working rule, one row per member.  Values are immutable after build, so
    the Grams and the parity verdict below are computed once, on first use,
    and returned read-only; ``dataclasses.replace`` builds a fresh instance
    with empty caches.
    """

    basis: BasisSet
    q: MetricOperatorQ
    n: int
    rule: QuadratureRule
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
        return _readonly((self.phi_samples * w) @ self.psi_samples.conj().T)

    @cached_property
    def phi_weighted_gram(self) -> NDArray:
        """W[n, m] = <exp(-Q/2) phi_n, exp(-Q/2) phi_m>; see :func:`weighted_gram`."""
        return _readonly(weighted_gram(self, "phi"))

    @cached_property
    def krein_gram(self) -> NDArray:
        """K[n, m] = [phi_n, phi_m] = <J phi_n, phi_m> on the working rule."""
        if not self.rule.is_symmetric:
            raise StructureError("indefinite Gram needs a symmetric working grid")
        w = self.rule.dx_weights
        return _readonly((self.phi_samples[:, ::-1] * w) @ self.phi_samples.conj().T)

    @cached_property
    def parity(self) -> bool:
        """Whether the generator anticommutes with parity, on the working rule."""
        return anticommutes_with_parity(self.q, self.rule)


#: exponent t of each family's exp(tQ) e_n, in the order the decay gate checks them
_EXPONENTS = {"phi": 0.5, "psi": -0.5}


def _exponent(which: str) -> float:
    if which not in _EXPONENTS:
        raise DomainError(f"which must be phi or psi, got {which!r}")
    return _EXPONENTS[which]


def _member_table(
    basis: BasisSet, n: int, rule: QuadratureRule, shift: complex = 0j
) -> np.ndarray:
    """Samples of e_k(x + shift), k < n, on ``rule``, one row per member:
    real on the real nodes, complex only for a nonzero shift.

    Row k equals ``to_samples`` of the unit vector e_k (with that shift) bit
    for bit: analytic members are evaluated as :func:`grslab.krein.evaluate`
    does (real arithmetic at shift 0), the recurrence rows do not depend on
    the top degree, and the unit-vector contractions are exact.
    """
    if not basis.is_analytic:
        return basis.table(rule)[:n]
    return hermite_function_table(n - 1, rule.nodes + shift if shift else rule.nodes)


def _moved_table(
    q_op: MetricOperatorQ,
    basis: BasisSet,
    n: int,
    rule: QuadratureRule,
    t: float,
    family: tuple[float, np.ndarray] | None = None,
) -> np.ndarray:
    """exp(tQ) applied to each of n members on ``rule``: a fresh C-ordered
    table, one row per member, complex only where the samples are.

    The members are the basis members e_k, k < n, or, given ``family =
    (t0, table)``, the members exp(t0 Q) e_k already sampled on ``rule``.
    Translation evaluates one member table at the argument shift
    2ia(t0 + t), which is exact and needs the analytic basis; at t0 + t = 0
    that is the real member table.  Multiplication multiplies the table
    pointwise by exp(tq), with the overflow checks of
    :func:`multiply_exp_q`, and keeps the table's dtype; only this kind
    reads ``table``, so any sampled rows may stand in for it.
    """
    t0, table = (0.0, None) if family is None else family
    if isinstance(q_op, Multiplication):
        if table is None:
            table = _member_table(basis, n, rule)
        return multiply_exp_q(q_op, t, table, rule)
    if not basis.is_analytic:
        raise StructureError("translation generators act on the analytic Hermite basis")
    return _member_table(basis, n, rule, 2j * q_op.a * (t0 + t))


def _moved_or_none(*args) -> np.ndarray | None:
    """:func:`_moved_table`, or None where the action overflows (the decay
    gate scores such a sign 0)."""
    try:
        return _moved_table(*args)
    except MagnitudeError:
        return None


def _decay_gate(
    tables: Sequence[np.ndarray | None], rule: QuadratureRule, name: Callable[[int], str]
) -> float:
    """The domain-decay gate on one table per sign of exp(+-Q/2) (see
    :func:`decay_scores`): the lowest score, or a DomainError naming the first
    row below the threshold, exp(+Q/2) before exp(-Q/2)."""
    scores = decay_scores(tables, rule)
    bad = np.argwhere(scores < DECAY_THRESHOLD)
    if bad.size:
        k, j = bad[0]
        raise DomainError(
            f"{name(k)}: exp({tuple(_EXPONENTS.values())[j]:+g} Q) mass escapes the window "
            f"(score {scores[k, j]:.3f} < {DECAY_THRESHOLD}); the generator does not "
            "admit it at the working resolution"
        )
    return float(np.min(scores))


def build_system(
    q_op: MetricOperatorQ,
    basis: BasisSet,
    n: int,
    quad_order: int | None = None,
) -> BiorthogonalSystem:
    """Materialize both families and record their quality numbers.

    Every basis member must clear the domain-decay gate for both signs of
    exp(+-Q/2); the first offending index (exp(+Q/2) before exp(-Q/2)) and
    its sign are named otherwise.  A sign whose action overflows scores 0.
    """
    if not 1 <= n <= basis.size:
        raise DomainError(f"truncation {n} must lie in [1, basis size {basis.size}]")
    rule = working_rule(basis, 2 * n + QUAD_ORDER_PAD if quad_order is None else quad_order)

    # a multiplication moves one member table by both signs; on the real
    # nodes a translation's psi (shift -ia) is phi's conjugate, bit for bit
    family = (0.0, _member_table(basis, n, rule)) if isinstance(q_op, Multiplication) else None
    phi = _moved_or_none(q_op, basis, n, rule, _EXPONENTS["phi"], family)
    if family is not None:
        psi = _moved_or_none(q_op, basis, n, rule, _EXPONENTS["psi"], family)
    else:
        psi = None if phi is None else phi.conj()
    min_score = _decay_gate([phi, psi], rule, "basis member {}".format)
    return BiorthogonalSystem(
        basis=basis,
        q=q_op,
        n=int(n),
        rule=rule,
        phi_samples=phi,
        psi_samples=psi,
        min_decay_score=min_score,
    )


# ---------------------------------------------------------------------------
# grams and defects
# ---------------------------------------------------------------------------

def biorthogonality_defect(sys: BiorthogonalSystem) -> float:
    """max_{n,m} |<phi_n, psi_m> - delta_nm| from the system's cached Gram."""
    return float(np.max(np.abs(sys.biorth_gram - np.eye(sys.n))))


def gq_basis_defect(sys: BiorthogonalSystem) -> float:
    """|<f,f> - sum <f,phi_n><psi_n,f>| over the system's members, for the
    unit Gaussian f(x) = (2/pi)^{1/4} exp(-x^2) sampled on the working rule.

    The other ordering, sum <f,psi_n><phi_n,f>, is the complex conjugate of
    this sum when both arguments are f, so it carries no further evidence.
    f must clear the domain-decay gate for both signs of exp(+-Q/2):
    translation moves it exactly to f(x + 2iat), multiplication multiplies
    its sampled row by exp(tq), and a sign that overflows scores 0.  The
    samples are real, so on a multiplication system every product here is.
    """
    rule, q_op = sys.rule, sys.q

    def probe(shift=0.0):
        return (2.0 / np.pi) ** 0.25 * np.exp(-((rule.nodes + shift) ** 2))

    fs = probe()
    if isinstance(q_op, Multiplication):
        moved = [_moved_or_none(q_op, sys.basis, 1, rule, t, (0.0, fs[np.newaxis]))
                 for t in _EXPONENTS.values()]
    else:
        moved = [probe(2j * q_op.a * t)[np.newaxis] for t in _EXPONENTS.values()]
    _decay_gate(moved, rule, lambda k: "probe")
    w = rule.dx_weights
    f_phi = (sys.phi_samples * w).conj() @ fs      # <f, phi_n>
    psi_f = (sys.psi_samples * w) @ fs             # <psi_n, f>
    return float(abs(np.sum(w * fs * fs) - np.sum(f_phi * psi_f)))


def g0_quadratic_check(sys: BiorthogonalSystem, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic form of the map phi_n -> psi_n against sum |c_n|^2.

    For f = sum c_n phi_n the pairing <sum c_n psi_n, f> must equal
    sum |c_n|^2 (and in particular be strictly positive for c != 0).  The
    pairing is conj(c G c^H) over the cached Gram G[n, m] = <phi_n, psi_m>.
    ``c`` is a (k, m) batch of vectors; returns (sum |c_n|^2, quadrature
    value) as two length-k arrays.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.size == 0 or c.shape[1] > sys.n:
        raise DomainError(f"need a (k, m) batch with 1 <= m <= {sys.n}, got shape {c.shape}")
    m = c.shape[1]
    z = np.conj(np.sum((c @ sys.biorth_gram[:m, :m]) * np.conj(c), axis=1))
    skew = np.abs(z.imag) > 1e-6 * np.maximum(1.0, np.abs(z))
    if np.any(skew):
        raise NumericError(f"quadratic form came out non-real: {z[skew][0]!r}")
    return np.sum(np.abs(c) ** 2, axis=1), z.real


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
    if rule is None:
        if isinstance(tf, SampleRep):
            rule = tf.rule
        elif isinstance(tg, SampleRep):
            rule = tg.rule
        else:
            rule = working_rule(tf.basis)
    return inner(to_samples(tf, rule), to_samples(tg, rule))


def weighted_gram(sys: BiorthogonalSystem, which: str) -> np.ndarray:
    """W[n, m] = <exp(-tQ) f_n, exp(-tQ) f_m> for f = phi (t = 1/2) or psi
    (t = -1/2), one quadrature product for both generator kinds: each family
    is pulled back by the inverse of its build exponent, onto a real table:
    on translation both land on the member table, so the two Grams are one."""
    t = _exponent(which)
    rows = _moved_table(sys.q, sys.basis, sys.n, sys.rule, -t, (t, family_samples(sys, which)))
    return (rows * sys.rule.dx_weights) @ rows.conj().T


# ---------------------------------------------------------------------------
# re-materialization helpers
# ---------------------------------------------------------------------------

def family_samples(
    sys: BiorthogonalSystem,
    which: str,
    rule: QuadratureRule | None = None,
    upto: int | None = None,
) -> np.ndarray:
    """The first ``upto`` rows (all by default) of phi or psi sampled on
    ``rule`` (the working rule by default).

    Analytic systems can be re-materialized on any rule; numeric bases exist
    only on their own grid.
    """
    t = _exponent(which)
    m = sys.n if upto is None else int(upto)
    if not 1 <= m <= sys.n:
        raise DomainError(f"upto must lie in [1, {sys.n}], got {m}")
    if rule is None or rule is sys.rule:
        return np.asarray(sys.phi_samples if which == "phi" else sys.psi_samples)[:m]
    return _moved_table(sys.q, sys.basis, m, rule, t)
