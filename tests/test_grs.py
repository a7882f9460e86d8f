import dataclasses
import math

import numpy as np
import pytest

from grslab import (
    DomainError,
    Multiplication,
    StructureError,
    TranslationGenerator,
    biorthogonality_defect,
    build_system,
    family_samples,
    g0_quadratic_check,
    gauss_hermite_rule,
    gq_basis_defect,
    hermite_basis,
    hermite_function_table,
    weighted_gram,
)
from grslab.grs import weighted_inner
from grslab.krein import CoefficientRep, evaluate, gram_matrix, to_samples, unit_vector
from grslab.metric_ops import apply_exp_q

from conftest import member_reps
from reference import gaussian_probe_coefficients, hermite_function, truncated

BASIS = hermite_basis(16)


def weighted_product(q_op, sign, rule):
    """The reference weighted product as a callable for gram_matrix."""
    return lambda f, g: weighted_inner(q_op, sign, f, g, rule)


@pytest.fixture(scope="module")
def zero_sys():
    return build_system(Multiplication("(scale 0 x)"), BASIS, 8)


class TestBuild:
    def test_translation_members_are_shifted_members(self, shifted_sys):
        # phi_n(x) = e_n(x + ia), sampled anywhere
        x = np.linspace(-2, 2, 7)
        phi = member_reps(shifted_sys, "phi")
        for n in (0, 3, 9):
            got = evaluate(phi[n], x)
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

    def test_translation_needs_analytic_basis(self, perturbed_sys):
        with pytest.raises(StructureError):
            build_system(TranslationGenerator(0.5), perturbed_sys.basis, 4)

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
        for which, table in (("phi", sys_.phi_samples), ("psi", sys_.psi_samples)):
            rows = np.vstack([to_samples(m, sys_.rule).samples for m in member_reps(sys_, which)])
            assert np.array_equal(table, rows)

    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    def test_krein_gram_matches_pairwise(self, fixture, request):
        # shifted coefficient reps have no coefficient-space product, so every
        # member is sampled first; each entry is a sum of products, so it is
        # compared within a few roundings of the sum of their magnitudes
        sys_ = request.getfixturevalue(fixture)
        ref = gram_matrix([to_samples(m, sys_.rule) for m in member_reps(sys_, "phi")], "krein")
        phi, w = np.abs(sys_.phi_samples), sys_.rule.dx_weights
        kappa = (phi[:, ::-1] * w) @ phi.T
        assert np.all(np.abs(sys_.krein_gram - ref) <= 8 * np.finfo(float).eps * kappa)

    def test_build_records_quality(self, shifted_sys):
        assert shifted_sys.min_decay_score >= 0.9
        assert biorthogonality_defect(shifted_sys) < 1e-8


def pull_back(sys_, which):
    """The family pulled back by the inverse of its build exponent: the rows
    of its weighted Gram."""
    from grslab.grs import _moved_table

    t = 0.5 if which == "phi" else -0.5
    return _moved_table(sys_.q, sys_.basis, sys_.n, sys_.rule, -t, (t, family_samples(sys_, which)))


class TestRealTables:
    @pytest.mark.parametrize("fixture", ["example1_sys", "perturbed_sys"])
    def test_multiplication_is_real(self, fixture, request):
        sys_ = request.getfixturevalue(fixture)
        for table in (sys_.phi_samples, sys_.psi_samples, pull_back(sys_, "phi"), pull_back(sys_, "psi")):
            assert table.dtype == np.float64 and table.flags.c_contiguous
        for gram in (sys_.biorth_gram, sys_.krein_gram, sys_.phi_weighted_gram, weighted_gram(sys_, "psi")):
            assert gram.dtype == np.float64

    def test_translation_families_stay_complex(self, shifted_sys):
        assert shifted_sys.phi_samples.dtype == shifted_sys.psi_samples.dtype == np.complex128
        assert shifted_sys.biorth_gram.dtype == shifted_sys.krein_gram.dtype == np.complex128

    @pytest.mark.parametrize("a", [0.5, -1.3])
    def test_translation_pull_backs_are_one_table(self, a):
        # both families move back to shift 0: the same real member table, so
        # the psi weighted Gram is the phi weighted Gram bit for bit
        sys_ = build_system(TranslationGenerator(a, cap=2.0), BASIS, 12)
        phi, psi = pull_back(sys_, "phi"), pull_back(sys_, "psi")
        assert phi.dtype == np.float64
        assert np.array_equal(phi, psi)
        assert np.array_equal(weighted_gram(sys_, "phi"), weighted_gram(sys_, "psi"))

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_translation_psi_is_the_conjugate_of_phi(self, a):
        # on real nodes e_k(x - ia) is conj(e_k(x + ia)) bit for bit, signed
        # zeros included, up to the largest Gauss order (728, N = 344); a
        # build stores psi as that conjugate
        def bits(table):
            return table.view(np.uint64)

        nodes = gauss_hermite_rule(728).nodes
        phi = hermite_function_table(343, nodes + 1j * a)
        assert np.array_equal(bits(hermite_function_table(343, nodes - 1j * a)), bits(phi.conj()))
        sys_ = build_system(TranslationGenerator(a), hermite_basis(12), 12)
        psi = hermite_function_table(11, sys_.rule.nodes - 1j * a)
        assert np.array_equal(bits(sys_.psi_samples), bits(psi))

    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    def test_real_grams_match_the_complex_product(self, fixture, request):
        # a real GEMM reorders the sums of the complex one: each entry stays
        # within 8 eps of the sum of the magnitudes it adds up
        sys_ = request.getfixturevalue(fixture)
        w = sys_.rule.dx_weights
        phi, psi = sys_.phi_samples, sys_.psi_samples
        cases = [(pull_back(sys_, "phi"), pull_back(sys_, "phi"), sys_.phi_weighted_gram),
                 (pull_back(sys_, "psi"), pull_back(sys_, "psi"), weighted_gram(sys_, "psi"))]
        if phi.dtype == np.float64:
            cases += [(phi, psi, sys_.biorth_gram), (phi[:, ::-1], phi, sys_.krein_gram)]
        for a, b, got in cases:
            assert got.dtype == np.float64
            want = (a.astype(complex) * w) @ b.astype(complex).conj().T
            kappa = (np.abs(a) * w) @ np.abs(b).T
            assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * kappa)


class TestBiorthogonality:
    def test_zero_generator_exact(self, zero_sys):
        assert biorthogonality_defect(zero_sys) <= 1e-14

    def test_shifted(self, shifted_sys):
        assert biorthogonality_defect(shifted_sys) <= 1e-8

    def test_example1(self, example1_sys):
        assert biorthogonality_defect(example1_sys) <= 1e-9

    def test_perturbed(self, perturbed_sys):
        assert biorthogonality_defect(perturbed_sys) <= 1e-7


def probe_samples(rule):
    """The gq probe (2/pi)^{1/4} exp(-x^2) in closed form on ``rule``."""
    return (2 / np.pi) ** 0.25 * np.exp(-rule.nodes**2)


class TestQuasiBasisResolution:
    def test_gaussian_probe_converges(self, shifted_sys32):
        defects = {m: gq_basis_defect(truncated(shifted_sys32, m)) for m in (8, 16, 32)}
        assert defects[32] <= 1e-6
        assert defects[32] < defects[16] - 1e-12
        assert defects[16] < defects[8] - 1e-12

    def test_domain_gate(self, perturbed_sys):
        # exp(+x^3/2) piles the probe's mass onto the right end of the
        # uniform window (half-width 8)
        cubic = dataclasses.replace(perturbed_sys, q=Multiplication("(pow x 3)"))
        # with nearly all of it on the outer nodes the score is 0, never
        # negative: rounding can put the outer sum above the total
        with pytest.raises(DomainError, match=r"probe: exp\(\+0.5 Q\) mass escapes the window "
                                               r"\(score 0\.000 < 0\.9\)"):
            gq_basis_defect(cubic)

    def test_closed_form_probe_is_exact(self, shifted_sys32, perturbed_sys):
        # within two roundings of a 40-digit evaluation on both working rules
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for sys_ in (shifted_sys32, perturbed_sys):
                want = [float((2 / mpmath.pi) ** 0.25 * mpmath.exp(-mpmath.mpf(x) ** 2))
                        for x in sys_.rule.nodes]
                assert np.max(np.abs(probe_samples(sys_.rule) - want)) <= 2.3e-16

    def test_matches_the_function_rep_path(self, shifted_sys32, perturbed_sys):
        # the closed-form probe is the coefficient row of the reference probe
        # sampled on the working rule, up to the row's own rounding (1.8e-15
        # and 2.3e-15 from the 40-digit values), and the defect is the
        # resolution formula on the row's samples
        coeffs = gaussian_probe_coefficients()
        for sys_ in (shifted_sys32, perturbed_sys):
            w = sys_.rule.dx_weights
            fs = to_samples(CoefficientRep(hermite_basis(coeffs.size), coeffs), sys_.rule).samples
            assert np.max(np.abs(probe_samples(sys_.rule) - fs)) <= 4e-15
            fg = np.sum(w * np.abs(fs) ** 2)
            f_phi, psi_f = np.conj(sys_.phi_samples * w) @ fs, (sys_.psi_samples * w) @ np.conj(fs)
            want = abs(fg - np.sum(f_phi * psi_f))
            assert gq_basis_defect(sys_) == pytest.approx(want, abs=1e-14)

    def test_other_ordering_is_the_same_defect(self, shifted_sys32, perturbed_sys):
        # with f in both slots, sum <f, psi_n><phi_n, f> is the conjugate of
        # sum <f, phi_n><psi_n, f>: the dropped ordering carries no evidence
        for sys_ in (shifted_sys32, perturbed_sys):
            w = sys_.rule.dx_weights
            fs = probe_samples(sys_.rule)
            f_psi, phi_f = np.conj(sys_.psi_samples * w) @ fs, (sys_.phi_samples * w) @ np.conj(fs)
            other = abs(np.sum(w * fs * np.conj(fs)) - np.sum(f_psi * phi_f))
            assert other == gq_basis_defect(sys_)

    def test_gate_moves_only_the_probe_row(self, shifted_sys32, perturbed_sys, monkeypatch):
        import grslab.grs

        gated, multiplied = [], []
        scores, multiply = grslab.grs.decay_scores, grslab.grs.multiply_exp_q

        def recorded_scores(tables, rule):
            gated.append([None if t is None else t.shape for t in tables])
            return scores(tables, rule)

        def recorded_multiply(q_op, t, samples, rule):
            multiplied.append(samples.shape)
            return multiply(q_op, t, samples, rule)

        monkeypatch.setattr(grslab.grs, "decay_scores", recorded_scores)
        monkeypatch.setattr(grslab.grs, "multiply_exp_q", recorded_multiply)
        for sys_, multiplies in ((shifted_sys32, 0), (perturbed_sys, 2)):
            gated.clear()
            multiplied.clear()
            gq_basis_defect(sys_)
            assert gated == [[(1, len(sys_.rule))] * 2]
            assert len(multiplied) == multiplies
            assert all(shape == (1, len(sys_.rule)) for shape in multiplied)


class TestG0QuadraticForm:
    def test_first_unit_vector(self, shifted_sys):
        (s,), (q,) = g0_quadratic_check(shifted_sys, [[1.0]])
        assert s == 1.0
        assert q == pytest.approx(1.0, abs=1e-10)

    def test_complex_unit(self, shifted_sys):
        c = np.array([[1.0, 1.0j]]) / math.sqrt(2.0)
        (s,), (q,) = g0_quadratic_check(shifted_sys, c)
        assert s == pytest.approx(1.0, rel=1e-15)
        assert q == pytest.approx(1.0, abs=1e-10)

    def test_three_four(self, example1_sys):
        (s,), (q,) = g0_quadratic_check(example1_sys, [[3.0, 4.0]])
        assert s == pytest.approx(25.0, rel=1e-15)
        assert q == pytest.approx(25.0, abs=1e-8)

    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    def test_positivity_random(self, fixture, rng, request):
        sys_ = request.getfixturevalue(fixture)
        for _ in range(50):
            c = rng.standard_normal(sys_.n) + 1j * rng.standard_normal(sys_.n)
            (s,), (q,) = g0_quadratic_check(sys_, c[np.newaxis])
            assert q > 0.0
            assert abs(s - q) <= 1e-7 * max(1.0, s)

    def test_length_validation(self, zero_sys):
        with pytest.raises(DomainError):
            g0_quadratic_check(zero_sys, np.ones((1, zero_sys.n + 1)))
        # a single vector is a one-row batch, not a form of its own
        with pytest.raises(DomainError):
            g0_quadratic_check(zero_sys, np.ones(zero_sys.n))


class TestWeightedInner:
    def test_phi_family_orthonormal_negative_sign(self, shifted_sys):
        g = gram_matrix(member_reps(shifted_sys, "phi"), weighted_product(shifted_sys.q, -1, shifted_sys.rule))
        assert np.max(np.abs(g - np.eye(shifted_sys.n))) <= 1e-8

    def test_psi_family_orthonormal_positive_sign(self, example1_sys):
        g = gram_matrix(member_reps(example1_sys, "psi"), weighted_product(example1_sys.q, 1, example1_sys.rule))
        assert np.max(np.abs(g - np.eye(example1_sys.n))) <= 1e-8

    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    def test_weighted_orthonormality_all_systems(self, fixture, request):
        sys_ = request.getfixturevalue(fixture)
        for which, sign in (("phi", -1), ("psi", 1)):
            g = gram_matrix(member_reps(sys_, which), weighted_product(sys_.q, sign, sys_.rule))
            assert np.max(np.abs(g - np.eye(sys_.n))) <= 1e-8

    @pytest.mark.parametrize("fixture", ["shifted_sys", "example1_sys", "perturbed_sys"])
    @pytest.mark.parametrize("which, sign", [("phi", -1), ("psi", 1)])
    def test_weighted_gram_matches_pairwise(self, fixture, which, sign, request):
        # each family is pulled back by the inverse of its build exponent
        sys_ = request.getfixturevalue(fixture)
        want = gram_matrix(member_reps(sys_, which), weighted_product(sys_.q, sign, sys_.rule))
        got = weighted_gram(sys_, which)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("a", [1.0, -1.3])
    def test_translation_weighted_gram_is_the_pairwise_quadrature(self, a):
        # a quadrature Gram, not an exact coefficient-space identity
        sys_ = build_system(TranslationGenerator(a, cap=2.0), BASIS, 8)
        for which, sign in (("phi", -1), ("psi", 1)):
            want = gram_matrix(member_reps(sys_, which), weighted_product(sys_.q, sign, sys_.rule))
            got = weighted_gram(sys_, which)
            assert np.max(np.abs(got - want)) <= 1e-14
            assert np.max(np.abs(got - np.eye(sys_.n))) <= 1e-12

    def test_weighted_gram_validation(self, zero_sys):
        with pytest.raises(DomainError):
            weighted_gram(zero_sys, "e")

    def test_zero_generator_reduces_to_inner(self, zero_sys):
        # exp(0) = 1 exactly, so the weighted product is the plain product of
        # the sampled functions bit for bit
        f = CoefficientRep(BASIS, np.array([0.5, 0.25j, -1.0]))
        g = CoefficientRep(BASIS, np.array([1.0, 1.0, 1.0]))
        from grslab.krein import inner

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
        from grslab.metric_ops import apply_exp_q

        sys_ = request.getfixturevalue(fixture)
        table = sys_.basis.table(sys_.rule)
        phi = member_reps(sys_, "phi")
        for n in range(0, sys_.n, 3):
            back = to_samples(apply_exp_q(sys_.q, -0.5, phi[n], sys_.rule), sys_.rule)
            assert np.max(np.abs(back.samples - table[n])) <= 1e-9

    def test_truncated_prefix(self, shifted_sys):
        cut = truncated(shifted_sys, 5)
        assert cut.n == 5
        assert np.array_equal(cut.phi_samples, shifted_sys.phi_samples[:5])
        assert biorthogonality_defect(cut) <= biorthogonality_defect(shifted_sys) + 1e-15

    def test_family_on_other_rule(self, shifted_sys):
        fine = gauss_hermite_rule(100)
        phi = family_samples(shifted_sys, "phi", fine)
        want = hermite_function(3, fine.nodes + 0.5j)
        assert np.max(np.abs(phi[3] - want)) < 1e-13
        assert np.array_equal(family_samples(shifted_sys, "phi", fine, upto=4), phi[:4])

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

    def test_family_samples_validates_name(self, shifted_sys):
        with pytest.raises(DomainError):
            family_samples(shifted_sys, "chi")

    @pytest.mark.parametrize("upto", [0, 17])
    def test_family_samples_upto_bounds(self, shifted_sys, upto):
        with pytest.raises(DomainError):
            family_samples(shifted_sys, "phi", upto=upto)
