import math

import numpy as np
import pytest

from grslab import (
    CoefficientRep,
    apply_exp_q,
    DomainError,
    Multiplication,
    TranslationGenerator,
    biorthogonality_defect,
    build_system,
    evaluate,
    family_samples,
    g0_quadratic_check,
    gauss_hermite_rule,
    gq_basis_defect,
    gram_matrix,
    hermite_basis,
    hermite_function,
    to_samples,
    truncated,
    unit_vector,
    weighted_gram,
    weighted_inner,
    weighted_product,
)
from grslab.cli import gaussian_test_function

BASIS = hermite_basis(16)


@pytest.fixture(scope="module")
def zero_sys():
    return build_system(Multiplication("(scale 0 x)"), BASIS, 8)


class TestBuild:
    def test_translation_members_are_shifted_members(self, shifted_sys):
        # phi_n(x) = e_n(x + ia), sampled anywhere
        x = np.linspace(-2, 2, 7)
        for n in (0, 3, 9):
            got = evaluate(shifted_sys.phi[n], x)
            want = hermite_function(n, x + 0.5j)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_example1_partner_weights(self, example1_sys):
        # psi_n carries the slow Gaussian H_n(x) e^{-x^2/4} / sqrt(2^n n! sqrt(pi))
        x = example1_sys.rule.nodes
        for n in (0, 2, 5):
            want = hermite_function(n, x) * np.exp(x * x / 4.0)
            got = np.asarray(example1_sys.psi_samples[n])
            assert np.max(np.abs(got - want)) < 1e-12

    def test_truncation_bounds(self, zero_sys):
        with pytest.raises(DomainError):
            build_system(zero_sys.q, BASIS, 17)

    @pytest.mark.parametrize(
        "symbol, n, named",
        [
            ("(pow x 2)", 4, "basis member 0: exp(+0.5 Q) mass escapes the window (score 0.855"),
            ("(scale 0.9 (pow x 2))", 24, "basis member 8: exp(+0.5 Q) mass escapes the window (score 0.844"),
            # exp(+Q/2) overflows on the window: the MagnitudeError scores 0
            ("(pow x 4)", 40, "basis member 0: exp(+0.5 Q) mass escapes the window (score 0.000"),
        ],
        ids=["x2", "slow_gaussian", "overflow"],
    )
    def test_domain_gate_names_offender(self, symbol, n, named):
        with pytest.raises(DomainError) as err:
            build_system(Multiplication(symbol), hermite_basis(max(n, BASIS.size)), n)
        assert named in str(err.value)

    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    def test_tables_equal_member_samples(self, fixture, request):
        sys_ = request.getfixturevalue(fixture)
        for t, reps, table in ((0.5, sys_.phi, sys_.phi_samples), (-0.5, sys_.psi, sys_.psi_samples)):
            members = [apply_exp_q(sys_.q, t, unit_vector(sys_.basis, k), sys_.rule) for k in range(sys_.n)]
            assert [type(r) for r in reps] == [type(m) for m in members]
            rows = np.vstack([to_samples(m, sys_.rule).samples for m in members])
            assert np.array_equal(table, rows)

    def test_build_records_quality(self, shifted_sys):
        assert shifted_sys.min_decay_score >= 0.9
        assert shifted_sys.biorth_defect < 1e-8


class TestBiorthogonality:
    def test_zero_generator_exact(self, zero_sys):
        assert biorthogonality_defect(zero_sys) <= 1e-14

    def test_shifted(self, shifted_sys):
        assert biorthogonality_defect(shifted_sys) <= 1e-8

    def test_example1(self, example1_sys):
        assert biorthogonality_defect(example1_sys) <= 1e-9

    def test_perturbed(self, perturbed_sys):
        assert biorthogonality_defect(perturbed_sys) <= 1e-7


class TestQuasiBasisResolution:
    def test_single_term_exact(self, zero_sys):
        e0 = unit_vector(BASIS, 0)
        d1, d2 = gq_basis_defect(zero_sys, e0, e0)
        assert d1 <= 1e-13 and d2 <= 1e-13

    def test_orthogonal_pair_reproduced(self, shifted_sys):
        f, g = unit_vector(BASIS, 1), unit_vector(BASIS, 2)
        d1, d2 = gq_basis_defect(shifted_sys, f, g)
        assert max(d1, d2) <= 1e-8

    def test_gaussian_probe_converges(self, shifted_sys32):
        probe = gaussian_test_function()
        defects = {m: gq_basis_defect(shifted_sys32, probe, probe, upto=m) for m in (8, 16, 32)}
        for m in (8, 16, 32):
            assert defects[m][0] == pytest.approx(defects[m][1], abs=1e-12)
        assert defects[32][0] <= 1e-6
        assert defects[32][0] < defects[16][0] - 1e-12
        assert defects[16][0] < defects[8][0] - 1e-12

    def test_domain_gate(self, shifted_sys):
        # a pure sample function cannot be translated analytically
        bad = to_samples(unit_vector(BASIS, 0), shifted_sys.rule)
        with pytest.raises(Exception):
            gq_basis_defect(shifted_sys, bad, bad)


class TestG0QuadraticForm:
    def test_first_unit_vector(self, shifted_sys):
        s, q = g0_quadratic_check(shifted_sys, [1.0])
        assert s == 1.0
        assert q == pytest.approx(1.0, abs=1e-10)

    def test_complex_unit(self, shifted_sys):
        c = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        s, q = g0_quadratic_check(shifted_sys, c)
        assert s == pytest.approx(1.0, rel=1e-15)
        assert q == pytest.approx(1.0, abs=1e-10)

    def test_three_four(self, example1_sys):
        s, q = g0_quadratic_check(example1_sys, [3.0, 4.0])
        assert s == pytest.approx(25.0, rel=1e-15)
        assert q == pytest.approx(25.0, abs=1e-8)

    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    def test_positivity_random(self, fixture, rng, request):
        sys_ = request.getfixturevalue(fixture)
        for _ in range(50):
            c = rng.standard_normal(sys_.n) + 1j * rng.standard_normal(sys_.n)
            s, q = g0_quadratic_check(sys_, c)
            assert q > 0.0
            assert abs(s - q) <= 1e-7 * max(1.0, s)

    def test_length_validation(self, zero_sys):
        with pytest.raises(DomainError):
            g0_quadratic_check(zero_sys, np.ones(zero_sys.n + 1))


class TestWeightedInner:
    def test_phi_family_orthonormal_negative_sign(self, shifted_sys):
        g = gram_matrix(list(shifted_sys.phi), weighted_product(shifted_sys.q, -1, shifted_sys.rule))
        assert np.max(np.abs(g - np.eye(shifted_sys.n))) <= 1e-8

    def test_psi_family_orthonormal_positive_sign(self, example1_sys):
        g = gram_matrix(list(example1_sys.psi), weighted_product(example1_sys.q, 1, example1_sys.rule))
        assert np.max(np.abs(g - np.eye(example1_sys.n))) <= 1e-8

    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    def test_weighted_orthonormality_all_systems(self, fixture, request):
        sys_ = request.getfixturevalue(fixture)
        for family, sign in ((sys_.phi, -1), (sys_.psi, 1)):
            g = gram_matrix(list(family), weighted_product(sys_.q, sign, sys_.rule))
            assert np.max(np.abs(g - np.eye(sys_.n))) <= 1e-8

    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    @pytest.mark.parametrize("which, sign", [("phi", -1), ("psi", 1), ("phi", 1)])
    def test_weighted_gram_matches_pairwise(self, fixture, which, sign, request):
        sys_ = request.getfixturevalue(fixture)
        family = list(sys_.phi if which == "phi" else sys_.psi)
        want = gram_matrix(family, weighted_product(sys_.q, sign, sys_.rule))
        got = weighted_gram(sys_, which, sign)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_weighted_gram_exact_for_translation(self, shifted_sys):
        assert np.array_equal(weighted_gram(shifted_sys, "phi", -1), np.eye(shifted_sys.n))
        assert np.array_equal(weighted_gram(shifted_sys, "psi", 1), np.eye(shifted_sys.n))

    def test_weighted_gram_validation(self, zero_sys):
        with pytest.raises(DomainError):
            weighted_gram(zero_sys, "phi", 2)
        with pytest.raises(DomainError):
            weighted_gram(zero_sys, "e", 1)

    def test_zero_generator_reduces_to_inner(self, zero_sys):
        # exp(0) = 1 exactly, so the weighted product is the plain product of
        # the sampled functions bit for bit
        f = CoefficientRep(BASIS, np.array([0.5, 0.25j, -1.0]))
        g = CoefficientRep(BASIS, np.array([1.0, 1.0, 1.0]))
        from grslab import inner

        rule = zero_sys.rule
        plain = inner(to_samples(f, rule), to_samples(g, rule))
        assert weighted_inner(zero_sys.q, 1, f, g, rule) == plain
        assert weighted_inner(zero_sys.q, -1, f, g, rule) == plain

    def test_sign_validation(self, zero_sys):
        f = unit_vector(BASIS, 0)
        with pytest.raises(DomainError):
            weighted_inner(zero_sys.q, 2, f, f)


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    def test_reconstruct_basis(self, fixture, request):
        from grslab import apply_exp_q

        sys_ = request.getfixturevalue(fixture)
        table = sys_.basis.table(sys_.rule)
        for n in range(0, sys_.n, 3):
            back = to_samples(apply_exp_q(sys_.q, -0.5, sys_.phi[n], sys_.rule), sys_.rule)
            assert np.max(np.abs(back.samples - table[n])) <= 1e-9

    def test_truncated_prefix(self, shifted_sys):
        cut = truncated(shifted_sys, 5)
        assert cut.n == 5
        assert np.array_equal(cut.phi_samples, shifted_sys.phi_samples[:5])
        assert cut.biorth_defect <= shifted_sys.biorth_defect + 1e-15

    def test_family_on_other_rule(self, shifted_sys):
        fine = gauss_hermite_rule(100, 1.0)
        phi = family_samples(shifted_sys, "phi", fine)
        want = hermite_function(3, fine.nodes + 0.5j)
        assert np.max(np.abs(phi[3] - want)) < 1e-13

    def test_rebuild_is_bit_identical(self):
        a = build_system(TranslationGenerator(0.5), BASIS, 8)
        b = build_system(TranslationGenerator(0.5), BASIS, 8)
        assert np.array_equal(a.phi_samples, b.phi_samples)
        assert np.array_equal(a.psi_samples, b.psi_samples)


class TestBounds:
    def test_truncated_bounds(self, shifted_sys):
        with pytest.raises(DomainError):
            truncated(shifted_sys, 0)
        with pytest.raises(DomainError):
            truncated(shifted_sys, 17)

    def test_gq_upto_bounds(self, shifted_sys):
        f = unit_vector(BASIS, 0)
        with pytest.raises(DomainError):
            gq_basis_defect(shifted_sys, f, f, upto=0)

    def test_family_samples_validates_name(self, shifted_sys):
        with pytest.raises(DomainError):
            family_samples(shifted_sys, "chi")
