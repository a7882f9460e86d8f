import math

import numpy as np
import pytest

from grslab import (
    DomainError,
    MagnitudeError,
    Multiplication,
    StructureError,
    TranslationGenerator,
    anticommutes_with_parity,
    decay_scores,
    gauss_hermite_rule,
    hermite_basis,
)
from grslab.krein import CoefficientRep, apply_parity, inner, to_samples, unit_vector
from grslab.metric_ops import apply_exp_q

from reference import hermite_function

BASIS = hermite_basis(12)
RULE = gauss_hermite_rule(72)

Q_ODD = Multiplication("(scale 2 (atan x))")
Q_EVEN = Multiplication("(scale -0.5 (pow x 2))")
Q_TRANS = TranslationGenerator(0.5)
Q_ZERO = Multiplication("(scale 0 x)")


def domain_score(q_op, f, rule) -> float:
    """The worse of the two decay scores of f, moved by the reference path."""
    tables = [to_samples(apply_exp_q(q_op, t, f, rule), rule).samples[np.newaxis] for t in (0.5, -0.5)]
    return float(np.min(decay_scores(tables, rule)))


class TestConstruction:
    def test_translation_needs_nonzero_a(self):
        with pytest.raises(DomainError):
            TranslationGenerator(0.0)

    def test_translation_cap(self):
        with pytest.raises(DomainError):
            TranslationGenerator(1.5)  # default cap 1.0
        TranslationGenerator(1.5, cap=2.0)  # explicit widening is allowed
        with pytest.raises(DomainError):
            TranslationGenerator(3.0, cap=4.0)  # cap may not exceed 2.0


class TestApplyExpQ:
    def test_exponent_whitelist(self):
        with pytest.raises(DomainError):
            apply_exp_q(Q_ZERO, 0.25, unit_vector(BASIS, 0))

    def test_zero_symbol_is_identity(self):
        f = CoefficientRep(BASIS, np.arange(1.0, 5.0).astype(complex))
        for t in (-1.0, -0.5, 0.5, 1.0):
            g = apply_exp_q(Q_ZERO, t, f, RULE)
            assert np.array_equal(g.samples, to_samples(f, RULE).samples)

    def test_translation_exact_shift_oracle(self):
        # e^{tQ} e_0 at the origin equals e_0(2iat); for t = 1/2 this is
        # pi^{-1/4} exp(a^2/2) by direct substitution in the closed form
        f = unit_vector(BASIS, 0)
        g = apply_exp_q(Q_TRANS, 0.5, f)
        assert g.shift == 0.5j
        rule1 = gauss_hermite_rule(1)  # single node at 0
        val = to_samples(g, rule1).samples[0]
        assert val == pytest.approx(math.pi**-0.25 * math.exp(0.125), rel=1e-14)

    def test_translation_requires_analytic_coefficients(self):
        s = to_samples(unit_vector(BASIS, 0), RULE)
        with pytest.raises(StructureError):
            apply_exp_q(Q_TRANS, 0.5, s)

    def test_multiplication_matches_closed_form(self):
        # e^{Q/2} e_n with q = -x^2/2 is H_n(x) e^{-3x^2/4} / sqrt(2^n n! sqrt(pi))
        for n in (0, 1, 4):
            g = apply_exp_q(Q_EVEN, 0.5, unit_vector(BASIS, n), RULE)
            x = RULE.nodes
            want = hermite_function(n, x) * np.exp(-x * x / 4.0)
            assert np.max(np.abs(g.samples - want)) < 1e-14

    def test_multiplication_on_samples(self):
        f = to_samples(unit_vector(BASIS, 2), RULE)
        g = apply_exp_q(Q_ODD, 1.0, f)
        want = np.exp(2 * np.arctan(RULE.nodes)) * f.samples
        assert np.allclose(g.samples, want, atol=1e-15)

    def test_overflow_raises(self):
        from grslab import uniform_trapezoid_rule

        grow = Multiplication("(pow x 2)")
        wide = uniform_trapezoid_rule(30.0, 601)  # exp(30^2) overflows doubles
        f = to_samples(unit_vector(BASIS, 0), wide)
        with pytest.raises(MagnitudeError):
            apply_exp_q(grow, 1.0, f)

    @pytest.mark.parametrize("q_op", [Q_ODD, Q_EVEN, Q_TRANS], ids=["odd", "even", "trans"])
    def test_group_law(self, q_op):
        f = CoefficientRep(BASIS, (np.arange(6) + 1.0).astype(complex) / 10.0)
        half = apply_exp_q(q_op, 0.5, apply_exp_q(q_op, 0.5, f, RULE), RULE)
        whole = apply_exp_q(q_op, 1.0, f, RULE)
        gap = to_samples(half, RULE).samples - to_samples(whole, RULE).samples
        assert np.max(np.abs(gap)) < 1e-9

    @pytest.mark.parametrize("q_op", [Q_ODD, Q_EVEN, Q_TRANS], ids=["odd", "even", "trans"])
    def test_inverse_law(self, q_op):
        f = CoefficientRep(BASIS, (np.arange(6) + 1.0).astype(complex) / 10.0)
        assert domain_score(q_op, f, RULE) >= 0.9
        back = apply_exp_q(q_op, -0.5, apply_exp_q(q_op, 0.5, f, RULE), RULE)
        gap = to_samples(back, RULE).samples - to_samples(f, RULE).samples
        assert np.max(np.abs(gap)) < 1e-9

    @pytest.mark.parametrize("q_op", [Q_ODD, Q_EVEN, Q_TRANS], ids=["odd", "even", "trans"])
    def test_half_action_symmetry(self, q_op):
        f = CoefficientRep(BASIS, (np.arange(5) + 1.0).astype(complex) / 5.0)
        g = CoefficientRep(BASIS, np.array([0.3, -0.1j, 0.0, 0.7, 0.0, 0.2]))
        qf = to_samples(apply_exp_q(q_op, 0.5, f, RULE), RULE)
        qg = to_samples(apply_exp_q(q_op, 0.5, g, RULE), RULE)
        gs = to_samples(g, RULE)
        fs = to_samples(f, RULE)
        assert abs(inner(qf, gs) - inner(fs, qg)) < 1e-8


class TestAnticommutation:
    def test_odd_multiplication(self):
        assert anticommutes_with_parity(Q_ODD, RULE) is True

    def test_even_multiplication(self):
        assert anticommutes_with_parity(Q_EVEN, RULE) is False

    def test_translation(self):
        assert anticommutes_with_parity(Q_TRANS, RULE) is True

    def test_zero_symbol(self):
        assert anticommutes_with_parity(Q_ZERO, RULE) is True

    def test_overflowing_even_symbol(self):
        # exp(q) leaves the double range on this rule; the verdict reads the
        # symbol alone, so it is still a plain False
        huge = Multiplication("(scale 500 (pow x 2))")
        assert anticommutes_with_parity(huge, RULE) is False


class TestDecayScore:
    def test_even_gaussian_generator_high(self):
        f = unit_vector(BASIS, 0)
        assert domain_score(Q_EVEN, f, RULE) >= 0.99

    def test_growing_symbol_low(self):
        # e^{+x^2/2} e_0 is constant: a fixed fraction of its mass sits in the
        # outer window, so the truncated-mass score drops below the gate
        grow = Multiplication("(pow x 2)")
        f = unit_vector(BASIS, 0)
        assert domain_score(grow, f, RULE) < 0.9

    def test_translation_high(self):
        f = unit_vector(BASIS, 2)
        assert domain_score(Q_TRANS, f, RULE) >= 0.99

    def test_scores_one_column_per_table(self):
        x = RULE.nodes
        rows = np.vstack([np.exp(-x * x), np.zeros_like(x), np.full_like(x, np.inf), np.ones_like(x)])
        got = decay_scores([rows, None], RULE)
        # a decaying row keeps its mass inside, a row without mass scores 1,
        # an overflowing row and an overflowed sign score 0
        assert got.shape == (4, 2) and np.all(got[:, 1] == 0.0)
        assert got[0, 0] > 0.99 and got[1, 0] == 1.0 and got[2, 0] == 0.0
        assert 0.0 < got[3, 0] < 0.9
        assert np.array_equal(decay_scores([None, None], RULE), np.zeros((1, 2)))


class TestParityInteraction:
    def test_parity_flips_shift(self):
        f = apply_exp_q(Q_TRANS, 0.5, unit_vector(BASIS, 1))
        jf = apply_parity(f)
        assert jf.shift == -f.shift
        assert jf.coeffs[1] == -f.coeffs[1]

    def test_sampled_anticommutation_identity(self):
        # J e^{-Q} f and e^{Q} J f agree sample-by-sample for odd symbols
        f = to_samples(unit_vector(BASIS, 3), RULE)
        left = apply_parity(apply_exp_q(Q_ODD, -1.0, f))
        right = apply_exp_q(Q_ODD, 1.0, apply_parity(f))
        assert np.max(np.abs(left.samples - right.samples)) < 1e-12


def test_accumulated_shift_hits_the_analytic_bound():
    # two full exponentials of a capped generator walk the argument past the
    # representable strip and must refuse rather than degrade silently
    q = TranslationGenerator(1.0)
    f = unit_vector(BASIS, 0)
    g = apply_exp_q(q, 1.0, f)       # shift 2i
    assert g.shift == 2j
    with pytest.raises(MagnitudeError):
        apply_exp_q(q, 1.0, apply_exp_q(q, 1.0, g))  # shift 6i > bound 4
