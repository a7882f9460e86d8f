"""Verification suites: which checks a catalog system runs, in what order,
against which tolerance.

``SUITES`` holds one table per catalog id, ``OVERLAP`` one for the overlap
comparison.  A row is (check name, tolerance name, defect of the run
context).  The tolerance name is a resolved setting (``tol_biorth``,
``tol_krein``) or a name in :mod:`grslab.defaults`, and each check records
its source: ``flag``, ``config`` or ``default:NAME``.  Folds over defect
terms use ``np.max``: a nan term must fail, and Python's ``max(0.0, nan)``
is 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

import numpy as np

from . import defaults as dflt
from .basis import uniform_trapezoid_rule
from .csymmetry import (
    c_rows,
    c_squared_residual,
    classify_type,
    expansion_residual,
    j_orthonormality_defect,
    jc_positivity_value,
    krein_gram,
    krein_rows,
    partner_check,
)
from .grs import (
    BiorthogonalSystem,
    biorthogonality_defect,
    family_samples,
    g0_quadratic_check,
    gq_basis_defect,
    weighted_gram,
)
from .hamiltonian import eigen_residual, fd_matrix
from .metric_ops import Multiplication
from .report import Check, run_check

__all__ = [
    "Run",
    "SUITES",
    "OVERLAP",
    "run_suite",
    "run_overlap",
    "span_functions",
]


def span_functions(sys: BiorthogonalSystem, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-coefficient combinations of the phi family, one
    (count x N) row per function: f_i = sum_n coeffs[i, n] phi_n."""
    coeffs = np.empty((count, sys.n), dtype=complex)
    for row in coeffs:
        row[:] = rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
        row /= np.linalg.norm(row)
    return coeffs


# ---------------------------------------------------------------------------
# individual defect numbers
# ---------------------------------------------------------------------------

def weighted_onb_defect(sys: BiorthogonalSystem) -> float:
    """Worst deviation of the two weighted family Grams from the identity.

    Translation pulls both families back to the same member table, so its
    psi Gram is the phi Gram bit for bit and is not formed again."""
    grams = [sys.phi_weighted_gram]
    if isinstance(sys.q, Multiplication):
        grams.append(weighted_gram(sys, "psi"))
    return float(np.max([np.max(np.abs(g - np.eye(sys.n))) for g in grams]))


def c_metric_consistency_defect(run: Run) -> float:
    """Consistency triangle between [Cf, g], the factored weighted product
    and the fundamental-split form, plus the split sign conditions, over the
    run's span-row pairs (f, g) = (row i, row i + 1), i < 3."""
    sys, coeffs = run.sys, run.span
    i = np.arange(min(3, len(coeffs)))
    j = (i + 1) % len(coeffs)
    # <exp(-Q/2) f, exp(-Q/2) g> = a W b^H for the coefficient rows a, b of f, g
    v2 = np.sum((coeffs[i] @ sys.phi_weighted_gram) * np.conj(coeffs[j]), axis=1)
    rows, c_of_rows, _ = run.span_c
    f, g, cf, cg = rows[i], rows[j], c_of_rows[i], c_of_rows[j]
    v1 = krein_rows(sys.rule, cf, g)
    # f = f_+ + f_- along the projectors (I +- C)/2
    fp, fm, gp, gm = (f + cf) / 2, (f - cf) / 2, (g + cg) / 2, (g - cg) / 2
    v3 = krein_rows(sys.rule, fp, gp) - krein_rows(sys.rule, fm, gm)
    cross = np.abs(krein_rows(sys.rule, fp, gm))
    pos = np.maximum(0.0, -krein_rows(sys.rule, fp, fp).real)
    neg = np.maximum(0.0, krein_rows(sys.rule, fm, fm).real)
    return float(np.max([np.abs(v1 - v2), np.abs(v1 - v3), cross, pos, neg]))


@cache
def _fd_grid():
    """Finite-difference grid of the analytic ladders: half-width 12 covers
    Hermite content to index ~5.  Built once per process (its arrays are
    read-only)."""
    return uniform_trapezoid_rule(dflt.FD_HALF_WIDTH, dflt.FD_POINTS)


#: the eigen-residuals read members 0 .. _LADDER - 1
_LADDER = 4


def _worst_eigen_residual(terms) -> float:
    """Largest residual over (operator, samples, eigenvalue) terms."""
    return float(np.max([eigen_residual(hd, f, lam) for hd, f, lam in terms]))


def shifted_ho_eigen_defect(sys: BiorthogonalSystem, a: float) -> float:
    grid = _fd_grid()
    hd = fd_matrix("shifted_ho", grid, a=a)
    phi = family_samples(sys, "phi", grid, upto=min(_LADDER, sys.n))
    return _worst_eigen_residual((hd, row, 2 * n + 1 + a * a) for n, row in enumerate(phi))


def example1_eigen_defect(sys: BiorthogonalSystem) -> float:
    grid = _fd_grid()
    m = min(_LADDER, sys.n)
    # the phi ladder under the operator, the psi ladder under its adjoint
    pairs = [(fd_matrix(kind, grid), family_samples(sys, which, grid, upto=m))
             for kind, which in (("example1", "phi"), ("example1_adjoint", "psi"))]
    return _worst_eigen_residual((hd, table[n], n + 0.5) for n in range(m) for hd, table in pairs)


def perturbed_eigen_defect(sys: BiorthogonalSystem, beta: float, p_source: str) -> float:
    hd = fd_matrix("perturbed_anharmonic", sys.rule, beta=beta, p=p_source)
    return _worst_eigen_residual(
        (hd, np.asarray(sys.phi_samples[n]), sys.basis.energies[n]) for n in range(min(_LADDER, sys.n))
    )


# ---------------------------------------------------------------------------
# suite tables
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """What a suite's defects read: the built system, the settings the
    command line resolved, and the suite's random stream."""

    sys: BiorthogonalSystem
    settings: dict
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(dflt.RNG_SEED))

    @cached_property
    def span(self) -> np.ndarray:
        """Ten random span functions, drawn when the first span check runs."""
        return span_functions(self.sys, 10, self.rng)

    @cached_property
    def span_c(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The span rows with C and C^2 applied (:func:`c_rows`), formed once
        for the three C checks."""
        return c_rows(self.sys, self.span)


#: (check name, tolerance name, defect of the run context)
Row = tuple[str, str, Callable[..., float]]


def _g0_batch(run: Run, count: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """(sum |c_n|^2, <sum c_n psi_n, sum c_n phi_n>) for ``count`` random
    vectors c, drawn in one call: row i holds the real and then the
    imaginary part that the i-th of ``count`` pairs of draws would give."""
    x = run.rng.standard_normal((count, 2, run.sys.n))
    return g0_quadratic_check(run.sys, x[:, 0] + 1j * x[:, 1])


def _classification_gap(run: Run) -> float:
    got = classify_type(run.sys, run.settings["tol_krein"])
    return 0.0 if got == run.settings["expect"] else 1.0


_COMMON: tuple[Row, ...] = (
    ("biorthogonality", "tol_biorth", lambda r: biorthogonality_defect(r.sys)),
    ("weighted_orthonormality", "TOL_WEIGHTED_ONB", lambda r: weighted_onb_defect(r.sys)),
    ("g0_agreement", "TOL_G0", lambda r: np.max(np.abs(np.subtract(*_g0_batch(r))))),
    ("g0_positivity", "VERDICT_TOL", lambda r: 0.0 if np.all(_g0_batch(r)[1] > 0.0) else 1.0),
)


def _first_type(partner_tol: str, eigen_tol: str, eigen: Callable[[Run], float]) -> tuple[Row, ...]:
    return _COMMON + (
        ("j_orthonormality", "tol_krein", lambda r: j_orthonormality_defect(r.sys)),
        # max_n |[phi_n, phi_n] - (-1)^n|
        ("sign_pattern", "tol_krein",
         lambda r: np.max(np.abs(np.diag(krein_gram(r.sys)) - (-1.0) ** np.arange(r.sys.n)))),
        ("partner", partner_tol, lambda r: partner_check(r.sys, r.settings["tol_krein"])),
        ("classification", "VERDICT_TOL", _classification_gap),
        ("c_squared", "TOL_C_SQUARED", lambda r: np.max(c_squared_residual(r.sys.rule, r.span_c))),
        ("jc_positivity", "VERDICT_TOL",
         lambda r: 0.0 if np.all(jc_positivity_value(r.sys.rule, r.span_c) > 0) else 1.0),
        ("c_metric_consistency", "TOL_SPLIT", c_metric_consistency_defect),
        ("expansion", "TOL_EXPANSION",
         lambda r: np.max(expansion_residual(r.sys, r.span[:5], r.settings["tol_krein"]))),
        ("gq_resolution", "TOL_GQ", lambda r: gq_basis_defect(r.sys)),
        ("eigen_residuals", eigen_tol, eigen),
    )


SUITES: dict[str, tuple[Row, ...]] = {
    "shifted_ho": _first_type(
        "TOL_PARTNER", "TOL_EIGEN_RESIDUAL",
        lambda r: shifted_ho_eigen_defect(r.sys, r.settings["a"]),
    ),
    "perturbed_anharmonic": _first_type(
        "TOL_PARTNER_NUMERIC", "TOL_EIGEN_RESIDUAL_NUMERIC",
        lambda r: perturbed_eigen_defect(r.sys, r.settings["beta"], r.settings["p"]),
    ),
    "example1": _COMMON + (
        ("classification", "VERDICT_TOL", _classification_gap),
        # how far | |[phi_0, phi_0]| - 1 | falls short of the required margin
        ("negative_witness", "TOL_JITTER",
         lambda r: np.maximum(0.0, dflt.WITNESS_MARGIN - abs(abs(krein_gram(r.sys)[0, 0]) - 1.0))),
        ("indefinite_spot", "TOL_SPOT",
         lambda r: abs(abs(krein_gram(r.sys)[0, 0]) - math.sqrt(2.0 / 3.0))),
        ("eigen_residuals", "TOL_EIGEN_RESIDUAL", lambda r: example1_eigen_defect(r.sys)),
    ),
}


def overlap_rel_even(closed: np.ndarray, quad: np.ndarray) -> float:
    """Worst relative gap of |quad| to the closed form where it is nonzero."""
    even = closed > 0
    return float(np.max(np.abs(np.abs(quad[even]) - closed[even]) / closed[even]))


def overlap_abs_odd(closed: np.ndarray, quad: np.ndarray) -> float:
    """Largest |quad| where n + m is odd (the closed form vanishes there)."""
    return float(np.max(np.abs(quad[closed == 0]), initial=0.0))


#: closed-form indefinite overlaps vs example1's Krein Gram; the run context is
#: the pair (closed, quad) read off :func:`grslab.catalog.overlap_matrices`
OVERLAP: tuple[Row, ...] = (
    ("overlap_rel_even", "TOL_OVERLAP_REL", lambda cq: overlap_rel_even(*cq)),
    ("overlap_abs_odd", "TOL_OVERLAP_ODD", lambda cq: overlap_abs_odd(*cq)),
    ("radical_scope_pin", "TOL_SPOT", lambda cq: abs(cq[0][0, 0] - math.sqrt(2.0 / 3.0))),
)


def _run_rows(rows, context, resolved: dict, sources: dict) -> list[Check]:
    checks = []
    for name, tol_name, defect in rows:
        if tol_name in resolved:
            tol, source = resolved[tol_name], sources[tol_name]
        else:
            tol, source = getattr(dflt, tol_name), f"default:{tol_name}"
        checks.append(run_check(name, tol, lambda: defect(context), source))
    return checks


def run_suite(example: str, sys: BiorthogonalSystem, resolved: dict, sources: dict) -> list[Check]:
    """Run the catalog id's table in order on a built system.  ``resolved``
    and ``sources`` give each setting's value and source; they hold
    ``tol_biorth``, ``tol_krein``, ``expect`` and the catalog's parameters."""
    rows = [row for row in SUITES[example] if row[0] != "gq_resolution" or sys.n >= dflt.GQ_MIN_N]
    return _run_rows(rows, Run(sys, resolved), resolved, sources)


def run_overlap(closed: np.ndarray, quad: np.ndarray) -> list[Check]:
    """The overlap comparison's checks on the closed-form table and the Gram."""
    return _run_rows(OVERLAP, (closed, quad), {}, {})
