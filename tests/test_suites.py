"""The suite tables: a nan defect term fails its check.

Every fold over several defect terms must propagate nan; Python's
``max(0.0, nan)`` is 0.0, which would turn an overflowed term into a PASS.
Each case replaces one term of one fold with nan and runs the catalog's
whole table.
"""

import itertools

import numpy as np
import pytest

from grslab import defaults as dflt
from grslab import suites
from grslab.catalog import DEFAULT_P_SOURCE

NAN = float("nan")

SETTINGS = {
    "shifted_ho": {"a": 0.5, "expect": "first_type", "tol_biorth": dflt.TOL_BIORTH},
    "perturbed_anharmonic": {
        "beta": 4.0, "p": DEFAULT_P_SOURCE, "expect": "first_type",
        "tol_biorth": dflt.TOL_BIORTH_NUMERIC,
    },
    "example1": {"expect": "not_j_orthonormal", "tol_biorth": dflt.TOL_BIORTH},
}


def _nan_gram_corner(k):
    k = k.copy()
    k[0, 0] = NAN
    return k


def _nan_form(out):
    """One batch of g0 forms with its second entry nan."""
    forms = out[1].copy()
    forms[1] = NAN
    return out[0], forms


# (check, catalog id, system fixture, function the fold calls, index of the
# call whose result turns nan, how it turns nan); the index is never the
# only term a Python max would keep
CASES = [
    ("eigen_residuals", "shifted_ho", "shifted_sys", "eigen_residual", 1, lambda out: NAN),
    ("eigen_residuals", "example1", "example1_sys", "eigen_residual", 1, lambda out: NAN),
    ("eigen_residuals", "perturbed_anharmonic", "perturbed_sys", "eigen_residual", 1, lambda out: NAN),
    # call 0 is g0_agreement's batch of 50 forms, call 1 g0_positivity's
    ("g0_agreement", "shifted_ho", "shifted_sys", "g0_quadratic_check", 0, _nan_form),
    # the phi Gram is the system's cached one; this call forms the psi Gram
    ("weighted_orthonormality", "perturbed_anharmonic", "perturbed_sys", "weighted_gram", 0,
     lambda out: np.full_like(out, NAN)),
    ("negative_witness", "example1", "example1_sys", "krein_gram", 0, _nan_gram_corner),
    ("gq_resolution", "shifted_ho", "shifted_sys32", "gq_basis_defect", 0, lambda out: NAN),
]


@pytest.mark.parametrize(
    "check, example, fixture, target, index, to_nan",
    CASES,
    ids=[f"{c[0]}-{c[1]}" for c in CASES],
)
def test_nan_term_fails_check(check, example, fixture, target, index, to_nan, request, monkeypatch):
    fn = getattr(suites, target)
    calls = itertools.count()

    def patched(*args, **kwargs):
        out = fn(*args, **kwargs)
        return to_nan(out) if next(calls) == index else out

    monkeypatch.setattr(suites, target, patched)
    sys_ = request.getfixturevalue(fixture)
    resolved = {"tol_krein": dflt.TOL_KREIN, **SETTINGS[example]}
    sources = {key: "flag" for key in resolved}
    checks = {c.name: c for c in suites.run_suite(example, sys_, resolved, sources)}
    assert next(calls) > index, "the patched term was never computed"
    got = checks[check]
    assert got.value is None and not got.passed
    assert got.error == "non-finite value nan"

