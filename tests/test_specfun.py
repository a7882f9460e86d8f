import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grslab import (
    DomainError,
    Hyp2F1Terminating,
    PoleError,
    hyp2f1_terminating,
    log_gamma,
)


class TestLogGamma:
    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_one_is_exact_zero(self):
        assert log_gamma(1.0) == 0.0

    def test_two_point_five(self):
        # Gamma(2.5) = (3/2)(1/2) Gamma(1/2) = 3 sqrt(pi) / 4
        assert log_gamma(2.5) == pytest.approx(math.log(3 * math.sqrt(math.pi) / 4), rel=1e-13)

    def test_recurrence_ladder(self):
        for x in np.arange(0.5, 21.0, 1.0):
            ratio = math.exp(log_gamma(x + 1.0)) / math.exp(log_gamma(x))
            assert ratio == pytest.approx(x, rel=1e-11)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestHyp2F1Terminating:
    def test_empty_tail(self):
        assert hyp2f1_terminating(Hyp2F1Terminating(0, 7.0, 0.5, 1.5)) == 1.0

    def test_two_term(self):
        # m = 1: 1 - b z / c
        p = Hyp2F1Terminating(1, 3.0, 0.25, 0.5)
        assert hyp2f1_terminating(p) == pytest.approx(1 - 3.0 * 0.5 / 0.25, rel=1e-14)

    def test_three_term_oracle(self):
        # Direct sum: 1 + (-2)(1)/(-1.5) * 1.5 + (-2)(-1)(1)(2)/((-1.5)(-0.5) 2) * 1.5^2
        k1 = (-2.0) * 1.0 / (-1.5) * 1.5
        k2 = ((-2.0) * (-1.0) * 1.0 * 2.0) / ((-1.5) * (-0.5) * 2.0) * 1.5**2
        oracle = 1.0 + k1 + k2
        assert oracle == 9.0
        assert hyp2f1_terminating(Hyp2F1Terminating(2, 1.0, -1.5, 1.5)) == pytest.approx(9.0, abs=1e-12)

    @given(
        m=st.integers(min_value=0, max_value=12),
        b=st.floats(-5, 5, allow_nan=False),
        c=st.floats(0.25, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_z_zero_is_one(self, m, b, c):
        assert hyp2f1_terminating(Hyp2F1Terminating(m, b, c, 0.0)) == 1.0

    def test_pole_raises(self):
        # c = -1 hits (c)_k = 0 at k = 1 while (-m)_k (b)_k stays alive
        with pytest.raises(PoleError):
            hyp2f1_terminating(Hyp2F1Terminating(3, 2.0, -1.0, 1.0))

    def test_early_termination_dodges_pole(self):
        # b = -1 kills the series at k = 2, before c = -2 can hit its pole at k = 3
        p = Hyp2F1Terminating(5, -1.0, -2.0, 1.0)
        assert hyp2f1_terminating(p) == pytest.approx(1.0 + (-5.0) * (-1.0) / (-2.0), rel=1e-14)

    def test_invalid_m(self):
        with pytest.raises(DomainError):
            Hyp2F1Terminating(-1, 1.0, 1.0, 0.0)

