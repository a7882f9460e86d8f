import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grslab import (
    CoefficientRep,
    Multiplication,
    NotJOrthonormalError,
    SampleRep,
    StructureError,
    apply_exp_q,
    apply_parity,
    build_system,
    c_tables,
    classify_type,
    expansion_residual,
    hermite_basis,
    inner,
    j_orthonormality_defect,
    krein_gram,
    krein_rows,
    partner_check,
    sign_sequence,
    to_samples,
    truncated,
    weighted_gram,
    weighted_inner,
)
from grslab.cli import gaussian_test_function, span_functions
from grslab.csymmetry import c_squared_residual, jc_positivity_value
from grslab.grs import weighted_samples

BASIS = hermite_basis(16)


@pytest.fixture(scope="module")
def zero_sys():
    return build_system(Multiplication("(scale 0 x)"), BASIS, 8)


@pytest.fixture(scope="module")
def shifted_c(shifted_sys):
    return c_tables(shifted_sys)


@pytest.fixture(scope="module")
def perturbed_c(perturbed_sys):
    return c_tables(perturbed_sys)


def split_tables(sys_, c_phi):
    """The members split along the projectors (I +- C)/2."""
    return (sys_.phi_samples + c_phi) / 2, (sys_.phi_samples - c_phi) / 2


def span_rep(sys_, row):
    """One span row as a FunctionRep: exact coefficients for translation
    (every phi member carries the same argument shift), samples otherwise."""
    if isinstance(sys_.phi[0], CoefficientRep):
        return CoefficientRep(sys_.basis, row, sys_.phi[0].shift)
    return SampleRep(sys_.rule, row @ sys_.phi_samples)


def sampled_pair(sys_, f):
    """f and exp(-Q/2) f sampled on the working rule, as one-row tables."""
    r = sys_.rule
    fw = to_samples(apply_exp_q(sys_.q, -0.5, f, r), r).samples
    return to_samples(f, r).samples[np.newaxis], fw[np.newaxis]


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
        with pytest.raises(StructureError, match="no C-symmetry operator"):
            c_tables(example1_sys)

    def test_fixes_positive_members(self, shifted_sys, shifted_c):
        c_phi, _ = shifted_c
        assert np.max(np.abs(c_phi[2] - shifted_sys.phi_samples[2])) <= 1e-8

    def test_negates_negative_members(self, shifted_sys, shifted_c):
        c_phi, _ = shifted_c
        assert np.max(np.abs(c_phi[1] + shifted_sys.phi_samples[1])) <= 1e-8

    def test_zero_generator_reduces_to_parity(self, zero_sys):
        c_phi, cc_phi = c_tables(zero_sys)
        assert np.array_equal(c_phi, zero_sys.phi_samples[:, ::-1])
        assert np.array_equal(cc_phi, zero_sys.phi_samples)

    @pytest.mark.parametrize("fixture,cfix", [("shifted_sys", "shifted_c"), ("perturbed_sys", "perturbed_c")])
    def test_involution_on_random_span(self, fixture, cfix, rng, request):
        sys_ = request.getfixturevalue(fixture)
        _, cc_phi = request.getfixturevalue(cfix)
        r = sys_.rule
        assert np.max(r.norm(cc_phi - sys_.phi_samples) / r.norm(sys_.phi_samples)) <= 1e-8
        assert np.max(c_squared_residual(sys_, span_functions(sys_, 10, rng))) <= 1e-8

    @pytest.mark.parametrize("fixture,cfix", [("shifted_sys", "shifted_c"), ("perturbed_sys", "perturbed_c")])
    def test_jc_positivity_on_random_span(self, fixture, cfix, rng, request):
        sys_ = request.getfixturevalue(fixture)
        c_phi, _ = request.getfixturevalue(cfix)
        assert np.all(krein_rows(sys_.rule, c_phi, sys_.phi_samples).real > 0.0)
        assert np.all(jc_positivity_value(sys_, span_functions(sys_, 10, rng)) > 0.0)

    @pytest.mark.parametrize("fixture", ["shifted_sys", "perturbed_sys"])
    def test_tables_match_function_reps(self, fixture, request, rng):
        # reference: each span row as its own FunctionRep, moved by
        # apply_parity / apply_exp_q and sampled, as the per-function path did
        sys_ = request.getfixturevalue(fixture)
        r = sys_.rule
        c_phi, cc_phi = c_tables(sys_)
        coeffs = span_functions(sys_, 4, rng)
        c2 = c_squared_residual(sys_, coeffs)
        jc = jc_positivity_value(sys_, coeffs)
        for i, row in enumerate(coeffs):
            f = span_rep(sys_, row)
            cf = apply_exp_q(sys_.q, 1.0, apply_parity(f), r)
            ccf = apply_exp_q(sys_.q, 1.0, apply_parity(cf), r)
            fs, cfs, ccfs = (to_samples(h, r).samples for h in (f, cf, ccf))
            assert np.max(np.abs(row @ sys_.phi_samples - fs)) <= 1e-13
            assert np.max(np.abs(row @ c_phi - cfs)) <= 1e-13
            assert np.max(np.abs(row @ cc_phi - ccfs)) <= 1e-13
            assert abs(c2[i] - r.norm(ccfs - fs) / r.norm(fs)) <= 1e-13
            assert abs(jc[i] - inner(to_samples(apply_parity(cf), r), to_samples(f, r)).real) <= 1e-13


@given(which=st.sampled_from(["shifted_sys", "perturbed_sys"]), n=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_c_properties_on_random_span(which, n, seed, shifted_sys, perturbed_sys):
    sys_ = truncated(shifted_sys if which == "shifted_sys" else perturbed_sys, n)
    coeffs = span_functions(sys_, 2, np.random.default_rng(seed))
    plus, minus = split_tables(sys_, c_tables(sys_)[0])
    assert np.max(c_squared_residual(sys_, coeffs)) <= 1e-8
    assert np.all(jc_positivity_value(sys_, coeffs) > 0.0)
    assert abs(krein_rows(sys_.rule, coeffs[0] @ plus, coeffs[1] @ minus)) <= 1e-8
    assert np.max(np.abs(coeffs @ plus + coeffs @ minus - coeffs @ sys_.phi_samples)) <= 1e-13


class TestCMetric:
    def test_members_orthonormal(self, shifted_sys, shifted_c):
        c_phi, _ = shifted_c
        idx = [0, 1, 3]
        z = krein_rows(shifted_sys.rule, c_phi[idx, np.newaxis], shifted_sys.phi_samples[np.newaxis, idx])
        assert np.max(np.abs(z - np.eye(3))) <= 1e-8

    def test_positive_definite(self, shifted_sys, shifted_c, rng):
        c_phi, _ = shifted_c
        coeffs = span_functions(shifted_sys, 5, rng)
        z = krein_rows(shifted_sys.rule, coeffs @ c_phi, coeffs @ shifted_sys.phi_samples)
        assert np.all(z.real > 0) and np.all(np.abs(z.imag) < 1e-10)

    def test_zero_generator_is_plain_inner(self, zero_sys):
        c_phi, _ = c_tables(zero_sys)
        e0, e2 = (SampleRep(zero_sys.rule, zero_sys.phi_samples[k]) for k in (0, 2))
        assert krein_rows(zero_sys.rule, c_phi[0], e2.samples) == pytest.approx(inner(e0, e2), abs=1e-14)
        assert krein_rows(zero_sys.rule, c_phi[0], e0.samples) == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_weighted_inner(self, shifted_sys, shifted_c, rng):
        c_phi, _ = shifted_c
        r = shifted_sys.rule
        fs, gs = span_functions(shifted_sys, 3, rng), span_functions(shifted_sys, 2, rng)
        gram = weighted_gram(shifted_sys, "phi", -1)
        for a in fs:
            for b in gs:
                lhs = krein_rows(r, a @ c_phi, b @ shifted_sys.phi_samples)
                rhs = weighted_inner(shifted_sys.q, -1, span_rep(shifted_sys, a), span_rep(shifted_sys, b), r)
                assert abs(lhs - rhs) <= 1e-9
                assert abs(a @ gram @ np.conj(b) - rhs) <= 1e-9


class TestFundamentalSplit:
    def test_positive_member(self, shifted_sys, shifted_c):
        plus, minus = split_tables(shifted_sys, shifted_c[0])
        assert np.max(np.abs(plus[0] - shifted_sys.phi_samples[0])) <= 1e-8
        assert np.max(np.abs(minus[0])) <= 1e-8

    def test_negative_member(self, shifted_sys, shifted_c):
        plus, minus = split_tables(shifted_sys, shifted_c[0])
        assert np.max(np.abs(minus[1] - shifted_sys.phi_samples[1])) <= 1e-8
        assert np.max(np.abs(plus[1])) <= 1e-8

    def test_mixed_member_and_metric_identity(self, shifted_sys, shifted_c):
        row = np.zeros(shifted_sys.n, dtype=complex)
        row[:2] = 1.0  # phi_0 + phi_1
        plus, minus = split_tables(shifted_sys, shifted_c[0])
        fp, fm = row @ plus, row @ minus
        assert np.max(np.abs(fp - shifted_sys.phi_samples[0])) <= 1e-8
        assert np.max(np.abs(fm - shifted_sys.phi_samples[1])) <= 1e-8
        # exact reassembly
        assert np.max(np.abs(fp + fm - row @ shifted_sys.phi_samples)) <= 1e-15

    def test_split_sign_and_orthogonality(self, shifted_sys, shifted_c, rng):
        c_phi, _ = shifted_c
        r = shifted_sys.rule
        plus, minus = split_tables(shifted_sys, c_phi)
        for a in span_functions(shifted_sys, 3, rng):
            b = span_functions(shifted_sys, 1, rng)[0]
            fp, fm, gp, gm = a @ plus, a @ minus, b @ plus, b @ minus
            assert krein_rows(r, fp, fp).real >= -1e-8
            assert krein_rows(r, fm, fm).real <= 1e-8
            assert abs(krein_rows(r, fp, gm)) <= 1e-8
            split_form = krein_rows(r, fp, gp) - krein_rows(r, fm, gm)
            assert abs(krein_rows(r, a @ c_phi, b @ shifted_sys.phi_samples) - split_form) <= 1e-8


class TestExpansion:
    def test_single_member_exact(self, shifted_sys):
        e = weighted_samples(shifted_sys, "phi", -1)
        assert expansion_residual(shifted_sys, shifted_sys.phi_samples[3:4], e[3:4], 4)[0] <= 1e-9

    def test_span_functions_exact(self, shifted_sys, rng):
        coeffs = span_functions(shifted_sys, 5, rng)
        e = weighted_samples(shifted_sys, "phi", -1)
        assert np.max(expansion_residual(shifted_sys, coeffs @ shifted_sys.phi_samples, coeffs @ e)) <= 1e-8

    def test_gaussian_probe_converges(self, shifted_sys32):
        f, fw = sampled_pair(shifted_sys32, gaussian_test_function())
        r8 = expansion_residual(shifted_sys32, f, fw, 8)
        r32 = expansion_residual(shifted_sys32, f, fw, 32)
        assert r32[0] < r8[0]

    @pytest.mark.parametrize("fixture", ["shifted_sys", "perturbed_sys"])
    def test_matches_member_loop(self, fixture, request, rng):
        sys_ = request.getfixturevalue(fixture)
        r, w = sys_.rule, sys_.rule.dx_weights
        signs = np.array(sign_sequence(sys_))
        for row in span_functions(sys_, 3, rng):
            f = span_rep(sys_, row)
            fs, fw = sampled_pair(sys_, f)
            alphas = signs * (np.conj(sys_.phi_samples) @ (w * fs[0, ::-1]))
            for m in (4, sys_.n):
                u = fw[0].copy()
                for n in range(m):
                    u -= alphas[n] * to_samples(apply_exp_q(sys_.q, -0.5, sys_.phi[n], r), r).samples
                want = math.sqrt(abs(np.sum(w * np.abs(u) ** 2)))
                assert expansion_residual(sys_, fs, fw, m)[0] == pytest.approx(want, abs=1e-14)

    def test_needs_first_type(self, example1_sys):
        f = example1_sys.phi_samples[:1]
        with pytest.raises(StructureError):
            expansion_residual(example1_sys, f, f)

    def test_truncated_system_consistency(self, shifted_sys32):
        small = truncated(shifted_sys32, 8)
        f, fw = sampled_pair(shifted_sys32, gaussian_test_function())
        a = expansion_residual(shifted_sys32, f, fw, 8)
        b = expansion_residual(small, f, fw)
        assert a[0] == pytest.approx(b[0], rel=1e-12)


def test_grams_are_cached_read_only(shifted_sys):
    k = krein_gram(shifted_sys)
    assert k is krein_gram(shifted_sys) and not k.flags.writeable
    assert shifted_sys.parity is shifted_sys.parity
    assert shifted_sys.biorth_gram is shifted_sys.biorth_gram and not shifted_sys.biorth_gram.flags.writeable
    # a replaced or truncated system starts with empty caches
    assert krein_gram(truncated(shifted_sys, 4)).shape == (4, 4)
