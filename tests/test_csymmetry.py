import dataclasses
import math

import numpy as np
import pytest

from grslab import (
    CoefficientRep,
    Multiplication,
    NotJOrthonormalError,
    StructureError,
    apply_c,
    apply_exp_q,
    build_system,
    c_inner,
    classify_type,
    expansion_residual,
    fundamental_split,
    hermite_basis,
    inner,
    j_orthonormality_defect,
    krein_gram,
    krein_inner,
    make_c_symmetry,
    partner_check,
    sign_sequence,
    to_samples,
    truncated,
    unit_vector,
    weighted_inner,
)
from grslab.cli import gaussian_test_function, span_functions
from grslab.csymmetry import c_squared_residual, jc_positivity_value

BASIS = hermite_basis(16)


@pytest.fixture(scope="module")
def zero_sys():
    return build_system(Multiplication("(scale 0 x)"), BASIS, 8)


@pytest.fixture(scope="module")
def shifted_c(shifted_sys):
    return make_c_symmetry(shifted_sys.q, shifted_sys.rule)


@pytest.fixture(scope="module")
def perturbed_c(perturbed_sys):
    return make_c_symmetry(perturbed_sys.q, perturbed_sys.rule)


class TestJOrthonormality:
    def test_shifted(self, shifted_sys):
        assert j_orthonormality_defect(shifted_sys) <= 1e-8

    def test_zero_generator(self, zero_sys):
        assert j_orthonormality_defect(zero_sys) <= 1e-14

    def test_example1_fails_with_witness(self, example1_sys):
        # |[phi_0, phi_0]| = sqrt(2/3), so the (0,0) entry alone contributes
        # | sqrt(2/3) - 1 | ~ 0.1835 to the defect
        k = krein_gram(example1_sys)
        witness = abs(abs(k[0, 0]) - 1.0)
        assert witness >= 0.18
        assert j_orthonormality_defect(example1_sys) >= 0.18

    def test_phase_rescaling_invariance(self, shifted_sys, rng):
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, shifted_sys.n))
        new_phi = tuple(
            CoefficientRep(r.basis, phases[k] * r.coeffs, r.shift)
            for k, r in enumerate(shifted_sys.phi)
        )
        rescaled = dataclasses.replace(
            shifted_sys,
            phi=new_phi,
            phi_samples=phases[:, None] * shifted_sys.phi_samples,
        )
        a = j_orthonormality_defect(shifted_sys)
        b = j_orthonormality_defect(rescaled)
        assert abs(a - b) <= 1e-12


class TestSignsAndPartner:
    def test_shifted_signs(self, shifted_sys):
        assert sign_sequence(shifted_sys) == tuple((-1) ** n for n in range(16))

    def test_zero_generator_signs(self, zero_sys):
        assert sign_sequence(zero_sys) == tuple((-1) ** n for n in range(8))

    def test_perturbed_signs(self, perturbed_sys):
        assert sign_sequence(perturbed_sys) == tuple((-1) ** n for n in range(8))

    def test_example1_not_unimodular(self, example1_sys):
        with pytest.raises(NotJOrthonormalError):
            sign_sequence(example1_sys)

    def test_partner_shifted(self, shifted_sys):
        assert partner_check(shifted_sys) <= 1e-8

    def test_partner_zero_generator(self, zero_sys):
        assert partner_check(zero_sys) == 0.0

    def test_partner_perturbed(self, perturbed_sys):
        assert partner_check(perturbed_sys) <= 1e-7

    @pytest.mark.parametrize("fixture", ["shifted_sys", "perturbed_sys"])
    def test_partner_matches_member_loop(self, fixture, request):
        sys_ = request.getfixturevalue(fixture)
        w, signs = sys_.rule.dx_weights, sign_sequence(sys_)
        worst = 0.0
        for n in range(sys_.n):
            diff = sys_.psi_samples[n] - signs[n] * sys_.phi_samples[n][::-1]
            num = math.sqrt(abs(np.sum(w * np.abs(diff) ** 2)))
            den = math.sqrt(abs(np.sum(w * np.abs(sys_.psi_samples[n]) ** 2)))
            worst = max(worst, num / den)
        assert partner_check(sys_) == worst


class TestClassification:
    def test_shifted_first_type(self, shifted_sys):
        cls = classify_type(shifted_sys)
        assert cls.verdict == "first_type"
        assert cls.q is shifted_sys.q
        assert cls.j_defect <= 1e-8
        assert cls.anticommutation_evidence <= 1e-8

    def test_perturbed_first_type(self, perturbed_sys):
        assert classify_type(perturbed_sys).verdict == "first_type"

    def test_example1_negative(self, example1_sys):
        cls = classify_type(example1_sys)
        assert cls.verdict == "not_j_orthonormal"
        assert cls.q is None
        assert cls.j_defect >= 0.18

    def test_undetermined_branch(self, zero_sys):
        # indefinitely orthonormal family whose wired-in generator is even:
        # no anticommutation witness, and second type is not certifiable
        even = Multiplication("(gauss 1)")
        synthetic = dataclasses.replace(zero_sys, q=even)
        assert classify_type(synthetic).verdict == "undetermined"


class TestOperatorC:
    def test_requires_anticommuting_generator(self, example1_sys):
        with pytest.raises(StructureError):
            make_c_symmetry(example1_sys.q, example1_sys.rule)

    def test_fixes_positive_members(self, shifted_sys, shifted_c):
        cphi = to_samples(apply_c(shifted_c, shifted_sys.phi[2]), shifted_sys.rule)
        assert np.max(np.abs(cphi.samples - shifted_sys.phi_samples[2])) <= 1e-8

    def test_negates_negative_members(self, shifted_sys, shifted_c):
        cphi = to_samples(apply_c(shifted_c, shifted_sys.phi[1]), shifted_sys.rule)
        assert np.max(np.abs(cphi.samples + shifted_sys.phi_samples[1])) <= 1e-8

    def test_zero_generator_reduces_to_parity(self, zero_sys):
        c_op = make_c_symmetry(zero_sys.q, zero_sys.rule)
        e0 = unit_vector(BASIS, 0)
        ce0 = apply_c(c_op, e0)
        assert np.max(np.abs(ce0.samples - to_samples(e0, zero_sys.rule).samples)) == 0.0

    @pytest.mark.parametrize("fixture,cfix", [("shifted_sys", "shifted_c"), ("perturbed_sys", "perturbed_c")])
    def test_involution_on_random_span(self, fixture, cfix, rng, request):
        sys_ = request.getfixturevalue(fixture)
        c_op = request.getfixturevalue(cfix)
        for f in span_functions(sys_, 10, rng):
            assert c_squared_residual(c_op, f) <= 1e-8

    @pytest.mark.parametrize("fixture,cfix", [("shifted_sys", "shifted_c"), ("perturbed_sys", "perturbed_c")])
    def test_jc_positivity_on_random_span(self, fixture, cfix, rng, request):
        sys_ = request.getfixturevalue(fixture)
        c_op = request.getfixturevalue(cfix)
        for f in span_functions(sys_, 10, rng):
            assert jc_positivity_value(c_op, f) > 0.0


class TestCMetric:
    def test_members_orthonormal(self, shifted_sys, shifted_c):
        for n in (0, 1, 3):
            for m in (0, 1, 3):
                z = c_inner(shifted_c, shifted_sys.phi[n], shifted_sys.phi[m])
                assert z == pytest.approx(1.0 if n == m else 0.0, abs=1e-8)

    def test_positive_definite(self, shifted_sys, shifted_c, rng):
        for f in span_functions(shifted_sys, 5, rng):
            z = c_inner(shifted_c, f, f)
            assert z.real > 0 and abs(z.imag) < 1e-10

    def test_zero_generator_is_plain_inner(self, zero_sys):
        c_op = make_c_symmetry(zero_sys.q, zero_sys.rule)
        f = unit_vector(BASIS, 0)
        g = unit_vector(BASIS, 2)
        assert c_inner(c_op, f, g) == pytest.approx(inner(f, g), abs=1e-14)
        assert c_inner(c_op, f, f) == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_weighted_inner(self, shifted_sys, shifted_c, rng):
        for f in span_functions(shifted_sys, 3, rng):
            for gfun in span_functions(shifted_sys, 2, rng):
                lhs = c_inner(shifted_c, f, gfun)
                rhs = weighted_inner(shifted_sys.q, -1, f, gfun, shifted_sys.rule)
                assert abs(lhs - rhs) <= 1e-9


class TestFundamentalSplit:
    def test_positive_member(self, shifted_sys, shifted_c):
        fp, fm = fundamental_split(shifted_c, shifted_sys.phi[0])
        fp_s = to_samples(fp, shifted_sys.rule).samples
        fm_s = to_samples(fm, shifted_sys.rule).samples
        assert np.max(np.abs(fp_s - shifted_sys.phi_samples[0])) <= 1e-8
        assert np.max(np.abs(fm_s)) <= 1e-8

    def test_negative_member(self, shifted_sys, shifted_c):
        fp, fm = fundamental_split(shifted_c, shifted_sys.phi[1])
        fp_s = to_samples(fp, shifted_sys.rule).samples
        fm_s = to_samples(fm, shifted_sys.rule).samples
        assert np.max(np.abs(fm_s - shifted_sys.phi_samples[1])) <= 1e-8
        assert np.max(np.abs(fp_s)) <= 1e-8

    def test_mixed_member_and_metric_identity(self, shifted_sys, shifted_c):
        coeffs = np.zeros(2, dtype=complex)
        coeffs[0] = shifted_sys.phi[0].coeffs[0]
        coeffs[1] = shifted_sys.phi[1].coeffs[1]
        f = CoefficientRep(BASIS, coeffs, 0.5j)  # phi_0 + phi_1
        fp, fm = fundamental_split(shifted_c, f)
        fp_s = to_samples(fp, shifted_sys.rule).samples
        fm_s = to_samples(fm, shifted_sys.rule).samples
        assert np.max(np.abs(fp_s - shifted_sys.phi_samples[0])) <= 1e-8
        assert np.max(np.abs(fm_s - shifted_sys.phi_samples[1])) <= 1e-8
        # exact reassembly
        f_s = to_samples(f, shifted_sys.rule).samples
        assert np.max(np.abs(fp_s + fm_s - f_s)) <= 1e-15

    def test_split_sign_and_orthogonality(self, shifted_sys, shifted_c, rng):
        for f in span_functions(shifted_sys, 3, rng):
            g = span_functions(shifted_sys, 1, rng)[0]
            fp, fm = fundamental_split(shifted_c, f)
            gp, gm = fundamental_split(shifted_c, g)
            r = shifted_sys.rule
            kpp = krein_inner(to_samples(fp, r), to_samples(fp, r))
            kmm = krein_inner(to_samples(fm, r), to_samples(fm, r))
            assert kpp.real >= -1e-8
            assert kmm.real <= 1e-8
            cross = krein_inner(to_samples(fp, r), to_samples(gm, r))
            assert abs(cross) <= 1e-8
            split_form = (
                krein_inner(to_samples(fp, r), to_samples(gp, r))
                - krein_inner(to_samples(fm, r), to_samples(gm, r))
            )
            assert abs(c_inner(shifted_c, f, g) - split_form) <= 1e-8


class TestExpansion:
    def test_single_member_exact(self, shifted_sys, shifted_c):
        assert expansion_residual(shifted_sys, shifted_c, shifted_sys.phi[3], 4) <= 1e-9

    def test_span_functions_exact(self, shifted_sys, shifted_c, rng):
        for f in span_functions(shifted_sys, 5, rng):
            assert expansion_residual(shifted_sys, shifted_c, f) <= 1e-8

    def test_gaussian_probe_converges(self, shifted_sys32):
        c_op = make_c_symmetry(shifted_sys32.q, shifted_sys32.rule)
        probe = gaussian_test_function()
        r8 = expansion_residual(shifted_sys32, c_op, probe, 8)
        r32 = expansion_residual(shifted_sys32, c_op, probe, 32)
        assert r32 < r8

    @pytest.mark.parametrize("fixture", ["shifted_sys", "perturbed_sys"])
    def test_matches_member_loop(self, fixture, request, rng):
        sys_ = request.getfixturevalue(fixture)
        c_op = make_c_symmetry(sys_.q, sys_.rule)
        r, w = sys_.rule, sys_.rule.dx_weights
        signs = np.array(sign_sequence(sys_))
        for f in span_functions(sys_, 3, rng):
            alphas = signs * (np.conj(sys_.phi_samples) @ (w * to_samples(f, r).samples[::-1]))
            for m in (4, sys_.n):
                u = to_samples(apply_exp_q(sys_.q, -0.5, f, r), r).samples.copy()
                for n in range(m):
                    u -= alphas[n] * to_samples(apply_exp_q(sys_.q, -0.5, sys_.phi[n], r), r).samples
                want = math.sqrt(abs(np.sum(w * np.abs(u) ** 2)))
                assert expansion_residual(sys_, c_op, f, m) == pytest.approx(want, abs=1e-14)

    def test_needs_first_type(self, example1_sys, shifted_c):
        with pytest.raises(StructureError):
            expansion_residual(example1_sys, shifted_c, example1_sys.phi[0])

    def test_truncated_system_consistency(self, shifted_sys32):
        c_op = make_c_symmetry(shifted_sys32.q, shifted_sys32.rule)
        small = truncated(shifted_sys32, 8)
        probe = gaussian_test_function()
        a = expansion_residual(shifted_sys32, c_op, probe, 8)
        b = expansion_residual(small, c_op, probe)
        assert a == pytest.approx(b, rel=1e-12)
