import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grslab import (
    CoefficientRep,
    SampleRep,
    StructureError,
    apply_parity,
    gauss_hermite_rule,
    gram_matrix,
    hermite_basis,
    inner,
    krein_inner,
    to_samples,
    unit_vector,
)

BASIS = hermite_basis(8)
RULE = gauss_hermite_rule(64, 1.0)


def coeff(values) -> CoefficientRep:
    return CoefficientRep(BASIS, np.asarray(values, dtype=complex))


class TestFundamentalSymmetry:
    def test_parity_on_unit_vectors(self):
        e3 = unit_vector(BASIS, 3)
        je3 = apply_parity(e3)
        assert np.allclose(je3.coeffs, -e3.coeffs)

    def test_even_combination_fixed(self):
        f = coeff([1.0, 0.0, 2.0])
        jf = apply_parity(f)
        assert np.allclose(jf.coeffs, f.coeffs)

    def test_involution_on_coefficients(self):
        f = coeff([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(apply_parity(apply_parity(f)).coeffs, f.coeffs)

    def test_involution_on_samples(self):
        s = to_samples(coeff([0.3, -0.7, 0.1, 0.9]), RULE)
        back = apply_parity(apply_parity(s))
        assert np.max(np.abs(back.samples - s.samples)) <= 1e-14

    def test_sample_reversal_is_parity(self):
        f = coeff([0.5, 1.5, -0.25])
        lhs = apply_parity(to_samples(f, RULE)).samples
        rhs = to_samples(f, RULE).samples[::-1]
        assert np.array_equal(lhs, rhs)

    def test_asymmetric_grid_rejected(self):
        nodes = np.array([-1.0, 0.0, 2.0])
        w = np.array([1.0, 1.0, 1.0])
        rule = type(RULE)("uniform_trapezoid", nodes, w, w)
        s = SampleRep(rule, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(StructureError):
            apply_parity(s)

    def test_self_adjointness(self):
        f = coeff([0.2, 1.0, -0.5, 0.0, 2.0])
        g = coeff([1.0, 1.0j, 0.0, -1.0])
        lhs = inner(apply_parity(f), g)
        rhs = inner(f, apply_parity(g))
        assert abs(lhs - rhs) < 1e-10


class TestInner:
    def test_orthonormality(self):
        for n in range(4):
            for m in range(4):
                z = inner(unit_vector(BASIS, n), unit_vector(BASIS, m))
                assert z == pytest.approx(1.0 if n == m else 0.0, abs=1e-15)

    def test_sesquilinearity_example(self):
        f = coeff([2.0, 1j])  # 2 e_0 + i e_1
        assert inner(f, unit_vector(BASIS, 1)) == pytest.approx(1j, abs=1e-15)

    @given(st.integers(0, 100000))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_symmetry_and_positivity(self, seed):
        r = np.random.default_rng(seed)
        f = coeff(r.standard_normal(5) + 1j * r.standard_normal(5))
        g = coeff(r.standard_normal(5) + 1j * r.standard_normal(5))
        assert abs(inner(f, g) - np.conj(inner(g, f))) < 1e-12
        assert inner(f, f).real >= 0
        assert abs(inner(f, f).imag) < 1e-12

    def test_coefficient_vs_quadrature_agree(self):
        f = coeff([0.3, 0.1j, -0.4, 0.0, 0.2])
        g = coeff([1.0, -0.5, 0.25j])
        exact = inner(f, g)
        quad = inner(to_samples(f, RULE), to_samples(g, RULE))
        assert abs(exact - quad) < 1e-12

    def test_no_mixed_products(self):
        f = coeff([1.0])
        with pytest.raises(StructureError):
            inner(f, to_samples(f, RULE))

    def test_no_cross_basis_products(self):
        other = hermite_basis(4)
        with pytest.raises(StructureError):
            inner(unit_vector(BASIS, 0), unit_vector(other, 0))

    def test_shifted_reps_need_sampling(self):
        f = CoefficientRep(BASIS, np.array([1.0 + 0j]), shift=0.5j)
        with pytest.raises(StructureError):
            inner(f, f)
        # sampling works: ||e_0(. + i/2)||^2 = exp(a^2) by the Gaussian integral
        s = to_samples(f, RULE)
        assert inner(s, s).real == pytest.approx(math.exp(0.25), rel=1e-10)


class TestKreinInner:
    def test_basis_diagonal_signs(self):
        for n in range(5):
            z = krein_inner(unit_vector(BASIS, n), unit_vector(BASIS, n))
            assert z == pytest.approx((-1.0) ** n, abs=1e-15)

    def test_hermitian(self, rng):
        f = coeff(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        g = coeff(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert abs(krein_inner(f, g) - np.conj(krein_inner(g, f))) < 1e-12
        assert abs(krein_inner(f, f).imag) < 1e-12

    def test_indefiniteness_witness(self):
        e0, e1 = unit_vector(BASIS, 0), unit_vector(BASIS, 1)
        assert krein_inner(e1, e1).real == pytest.approx(-1.0, abs=1e-15)
        assert krein_inner(e0, e0).real == pytest.approx(1.0, abs=1e-15)

    def test_cauchy_schwarz_violation(self):
        f = coeff([1.0, 1.0])  # e_0 + e_1
        g = coeff([1.0, -1.0])  # e_0 - e_1
        lhs = abs(krein_inner(f, g)) ** 2
        rhs = abs(krein_inner(f, f) * krein_inner(g, g))
        assert lhs > rhs + 1.0  # |[f,g]|^2 = 4 while [f,f] = [g,g] = 0

    def test_cauchy_schwarz_holds_for_hilbert(self, rng):
        for _ in range(20):
            f = coeff(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            g = coeff(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            assert abs(inner(f, g)) ** 2 <= inner(f, f).real * inner(g, g).real * (1 + 1e-12)


class TestGram:
    def test_hilbert_identity(self):
        fam = [unit_vector(BASIS, n) for n in range(6)]
        gram = gram_matrix(fam, "hilbert")
        assert np.max(np.abs(gram - np.eye(6))) < 1e-14

    def test_krein_diagonal(self):
        fam = [unit_vector(BASIS, n) for n in range(6)]
        gram = gram_matrix(fam, "krein")
        want = np.diag([(-1.0) ** n for n in range(6)])
        assert np.max(np.abs(gram - want)) < 1e-14

    def test_krein_consistent_with_parity_then_inner(self, rng):
        fam = [
            to_samples(coeff(rng.standard_normal(6) + 1j * rng.standard_normal(6)), RULE)
            for _ in range(4)
        ]
        direct = gram_matrix(fam, "krein")
        via_parity = np.array([[inner(apply_parity(f), g) for g in fam] for f in fam])
        assert np.max(np.abs(direct - via_parity)) < 1e-12

    def test_hermitian_for_both_products(self, rng):
        fam = [coeff(rng.standard_normal(6) + 1j * rng.standard_normal(6)) for _ in range(4)]
        for product in ("hilbert", "krein"):
            gram = gram_matrix(fam, product)
            assert np.max(np.abs(gram - np.conj(gram.T))) < 1e-10

    def test_rejects_nonsense(self):
        with pytest.raises(StructureError):
            gram_matrix([], "hilbert")
        with pytest.raises(StructureError):
            gram_matrix([unit_vector(BASIS, 0)], "spectral")


class TestRepresentations:
    def test_evaluate_matches_sampling(self):
        from grslab import evaluate

        f = CoefficientRep(BASIS, np.array([0.5, -0.25j, 1.0]), shift=0.25j)
        got = evaluate(f, RULE.nodes)
        want = to_samples(f, RULE).samples
        assert np.allclose(got, want, rtol=0, atol=1e-15)


class TestNumericBasisReps:
    def test_coefficient_rep_over_numeric_basis(self, perturbed_sys):
        basis = perturbed_sys.basis
        f = unit_vector(basis, 2)
        s = to_samples(f, basis.grid)
        assert np.array_equal(s.samples, basis.vectors[:, 2].astype(complex))

    def test_numeric_rep_not_evaluable_off_grid(self, perturbed_sys):
        from grslab import evaluate

        f = unit_vector(perturbed_sys.basis, 0)
        with pytest.raises(StructureError):
            evaluate(f, 0.5)

    def test_sample_rep_not_evaluable(self):
        from grslab import evaluate

        s = to_samples(unit_vector(BASIS, 0), RULE)
        with pytest.raises(StructureError):
            evaluate(s, 0.0)

    def test_shift_on_numeric_basis_rejected(self, perturbed_sys):
        with pytest.raises(StructureError):
            CoefficientRep(perturbed_sys.basis, np.array([1.0 + 0j]), shift=0.5j)
