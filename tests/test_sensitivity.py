"""Every check must be able to fail: injected defects of known size move it.

Each case injects a defect of size delta into a built system through
``dataclasses.replace`` on its rule or tables and asserts that the check's
defect moves by at least delta / 10.  A check no injection can move carries
no numerical evidence.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grslab.suites import weighted_onb_defect


@given(delta=st.floats(1e-8, 1e-3) | st.floats(-1e-3, -1e-8))
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
