"""Every check must be able to fail: injected defects of known size move it.

Each case injects a defect of size delta into a built system through
``dataclasses.replace`` on its rule, tables or cached Grams and asserts that
the check's defect moves by at least delta / 10, or that its verdict flips.
A check no injection can move carries no numerical evidence.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grslab import defaults as dflt
from grslab.csymmetry import expansion_residual
from grslab.report import run_check
from grslab.suites import SUITES, Run, _g0_batch, weighted_onb_defect
from reference import truncated

DELTAS = st.floats(1e-8, 1e-3) | st.floats(-1e-3, -1e-8)
#: small enough that scaling one phi row keeps its [phi_n, phi_n] within
#: tol_krein of +-1, so the sign sequence still rounds
KREIN_DELTAS = st.floats(1e-8, 2e-7) | st.floats(-2e-7, -1e-8)
SETTINGS = {"tol_krein": dflt.TOL_KREIN, "expect": "first_type"}


def run_row(example, check, sys_):
    """One row of a catalog's suite table on a fresh run context, so every
    call draws the same random vectors."""
    name, tol_name, defect = next(row for row in SUITES[example] if row[0] == check)
    tol = SETTINGS[tol_name] if tol_name in SETTINGS else getattr(dflt, tol_name)
    return run_check(name, tol, lambda: defect(Run(sys_, SETTINGS)))


def scale_centre_weight(sys_, delta):
    """The system on a rule whose weight of the node next to the centre is
    scaled by 1 + delta."""
    w = np.array(sys_.rule.dx_weights)
    w[len(w) // 2] *= 1.0 + delta
    return dataclasses.replace(sys_, rule=dataclasses.replace(sys_.rule, dx_weights=w))


@given(delta=DELTAS)
@settings(max_examples=20, deadline=None)
def test_weighted_orthonormality_sees_one_rule_weight(shifted_sys, delta):
    # shifted_ho's weighted Grams are quadrature products over the rule, so
    # scaling the weight of the node next to the centre must show (by about
    # 0.145 delta at N = 16)
    moved = scale_centre_weight(shifted_sys, delta)
    shift = abs(weighted_onb_defect(moved) - weighted_onb_defect(shifted_sys))
    assert shift >= abs(delta) / 10


@given(delta=DELTAS)
@settings(max_examples=20, deadline=None)
def test_c_metric_consistency_sees_one_rule_weight(shifted_sys, delta):
    # the Krein rows [Cf, g] are quadrature sums over the rule, the factored
    # form a W b^H another; scaling the weight next to the centre moves their
    # gap by about 0.54 delta at N = 16
    before = run_row("shifted_ho", "c_metric_consistency", shifted_sys).value
    moved = scale_centre_weight(shifted_sys, delta)
    shift = abs(run_row("shifted_ho", "c_metric_consistency", moved).value - before)
    assert shift >= abs(delta) / 10


@pytest.mark.parametrize("example", ["shifted_ho", "perturbed_anharmonic"])
@given(delta=KREIN_DELTAS)
@settings(max_examples=20, deadline=None)
def test_expansion_sees_one_phi_row(shifted_sys, perturbed_sys, example, delta):
    # scaling phi_1 scales [phi_1, phi_1] by (1 + delta)^2, so the expansion
    # coefficient of phi_1 in each span row c misses by about 2 delta |c_1|:
    # the worst of the five rows moves by 0.51 delta (shifted_ho, N = 16) and
    # 0.98 delta (perturbed_anharmonic, N = 8)
    sys_ = shifted_sys if example == "shifted_ho" else perturbed_sys
    phi = np.array(sys_.phi_samples)
    phi[1] *= 1.0 + delta
    moved = dataclasses.replace(sys_, phi_samples=phi)
    before = run_row(example, "expansion", sys_).value
    shift = abs(run_row(example, "expansion", moved).value - before)
    assert shift >= abs(delta) / 10


@pytest.mark.parametrize("example, worst", [("shifted_ho", 1), ("perturbed_anharmonic", 4)])
def test_expansion_reads_all_five_span_rows(shifted_sys, perturbed_sys, example, worst):
    # the check is the worst residual over the run's first five span rows;
    # the worst is row 1 on shifted_ho (1.00e-13 against 7.10e-14 for row 0,
    # N = 16) and row 4 on perturbed_anharmonic (N = 8), so a check that
    # reads fewer rows reads less
    sys_ = shifted_sys if example == "shifted_ho" else perturbed_sys
    residuals = expansion_residual(sys_, Run(sys_, SETTINGS).span[:5], SETTINGS["tol_krein"])
    assert len(residuals) == 5 and np.argmax(residuals) == worst
    assert run_row(example, "expansion", sys_).value == np.max(residuals)


def test_nan_on_the_krein_diagonal_fails_the_sign_checks(shifted_sys):
    # one nan sample of phi_3 puts nan on [phi_3, phi_3]: the sign sequence
    # refuses it, and classification does not read it as first_type
    cut = truncated(shifted_sys, 8)
    phi = np.array(cut.phi_samples)
    phi[3, phi.shape[1] // 2] = np.nan
    broken = dataclasses.replace(cut, phi_samples=phi)
    for check in ("partner", "expansion"):
        got = run_row("shifted_ho", check, broken)
        assert not got.passed
        assert got.error.startswith("NotJOrthonormalError: [phi_3, phi_3] = nan is not unimodular")
    got = run_row("shifted_ho", "classification", broken)
    assert got.value == 1.0 and not got.passed


@given(delta=DELTAS, row=st.integers(0, 15))
@settings(max_examples=20, deadline=None)
def test_g0_agreement_sees_one_psi_row(shifted_sys, delta, row):
    # scaling psi_row scales column `row` of the biorthogonality Gram, so
    # each form moves by delta |c_row|^2; the largest of 50 draws of |c_row|^2
    # is well above 1/10
    psi = np.array(shifted_sys.psi_samples)
    psi[row] *= 1.0 + delta
    moved = dataclasses.replace(shifted_sys, psi_samples=psi)
    before = run_row("shifted_ho", "g0_agreement", shifted_sys).value
    shift = abs(run_row("shifted_ho", "g0_agreement", moved).value - before)
    assert shift >= abs(delta) / 10


def test_g0_positivity_fails_on_a_negated_psi_table(shifted_sys):
    # every form <sum c_n psi_n, sum c_n phi_n> changes sign
    flipped = dataclasses.replace(shifted_sys, psi_samples=-np.asarray(shifted_sys.psi_samples))
    assert run_row("shifted_ho", "g0_positivity", shifted_sys).passed
    got = run_row("shifted_ho", "g0_positivity", flipped)
    assert got.value == 1.0 and not got.passed


def test_g0_positivity_fails_on_small_negative_forms(shifted_sys):
    # psi scaled by -1e-3 puts every form in [-0.053, -0.016]: negative, yet
    # above any threshold below zero, so only a test against 0 refuses it
    shrunk = dataclasses.replace(shifted_sys, psi_samples=-1e-3 * np.asarray(shifted_sys.psi_samples))
    forms = _g0_batch(Run(shrunk, SETTINGS))[1]
    assert np.all((forms < 0.0) & (forms > -0.1))
    got = run_row("shifted_ho", "g0_positivity", shrunk)
    assert got.value == 1.0 and not got.passed


@pytest.mark.parametrize("example", ["shifted_ho", "perturbed_anharmonic"])
def test_sign_pattern_sees_one_flipped_sign(shifted_sys, perturbed_sys, example):
    # negating [phi_3, phi_3] in the cached Krein Gram keeps every |K| entry,
    # so j_orthonormality reads the same; the sign sequence (-1)^n misses by 2
    sys_ = shifted_sys if example == "shifted_ho" else perturbed_sys
    k = np.array(sys_.krein_gram)
    k[3, 3] = -k[3, 3]
    flipped = dataclasses.replace(sys_)
    flipped.__dict__["krein_gram"] = k
    before = run_row(example, "j_orthonormality", sys_).value
    assert run_row(example, "j_orthonormality", flipped).value == before
    assert run_row(example, "sign_pattern", sys_).passed
    got = run_row(example, "sign_pattern", flipped)
    assert got.value == pytest.approx(2.0, abs=1e-6) and not got.passed


@given(delta=DELTAS, row=st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_gq_resolution_sees_one_psi_row(shifted_sys32, delta, row):
    # scaling psi_row scales the term <f, phi_row><psi_row, f> of the
    # resolution; the Gaussian probe weighs the low rows most (the defect
    # moves by about 1.1, 0.25 and 0.17 delta for rows 0, 1, 2)
    psi = np.array(shifted_sys32.psi_samples)
    psi[row] *= 1.0 + delta
    moved = dataclasses.replace(shifted_sys32, psi_samples=psi)
    before = run_row("shifted_ho", "gq_resolution", shifted_sys32).value
    shift = abs(run_row("shifted_ho", "gq_resolution", moved).value - before)
    assert shift >= abs(delta) / 10
