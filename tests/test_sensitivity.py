"""Every check must be able to fail: injected defects of known size move it.

Each case injects a defect of size delta into a built system through
``dataclasses.replace`` on its rule or tables and asserts that the check's
defect moves by at least delta / 10, or that its verdict flips.  A check no
injection can move carries no numerical evidence.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grslab import defaults as dflt
from grslab.report import run_check
from grslab.suites import SUITES, Run, weighted_onb_defect

DELTAS = st.floats(1e-8, 1e-3) | st.floats(-1e-3, -1e-8)


def run_row(example, check, sys_):
    """One row of a catalog's suite table on a fresh run context, so every
    call draws the same random vectors."""
    name, tol_name, defect = next(row for row in SUITES[example] if row[0] == check)
    return run_check(name, getattr(dflt, tol_name), lambda: defect(Run(sys_, {})))


@given(delta=DELTAS)
@settings(max_examples=20, deadline=None)
def test_weighted_orthonormality_sees_one_rule_weight(shifted_sys, delta):
    # shifted_ho's weighted Grams are quadrature products over the rule, so
    # scaling the weight of the node next to the centre must show (by about
    # 0.145 delta at N = 16)
    rule = shifted_sys.rule
    w = np.array(rule.dx_weights)
    w[len(rule) // 2] *= 1.0 + delta
    moved = dataclasses.replace(shifted_sys, rule=dataclasses.replace(rule, dx_weights=w))
    shift = abs(weighted_onb_defect(moved) - weighted_onb_defect(shifted_sys))
    assert shift >= abs(delta) / 10


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
