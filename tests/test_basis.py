import math

import numpy as np
import pytest

from grslab import (
    DomainError,
    MagnitudeError,
    StructureError,
    anharmonic_eigenbasis,
    gauss_hermite_rule,
    hermite_basis,
    hermite_function,
    hermite_function_table,
    log_gamma,
    uniform_trapezoid_rule,
)


def gaussian_moment(k: int, scale: float) -> float:
    """Analytic moment of x^k exp(-scale x^2): 0 for odd k, else
    Gamma((k+1)/2) / scale^{(k+1)/2}."""
    if k % 2 == 1:
        return 0.0
    return math.exp(log_gamma((k + 1) / 2.0)) / scale ** ((k + 1) / 2.0)


class TestGaussHermiteRule:
    def test_one_point(self):
        r = gauss_hermite_rule(1, 1.0)
        assert r.nodes.tolist() == [0.0]
        assert r.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_total_weight(self):
        r = gauss_hermite_rule(20, 1.0)
        assert np.sum(r.weights) == pytest.approx(math.sqrt(math.pi), abs=1e-13)

    def test_second_moment(self):
        r = gauss_hermite_rule(20, 1.0)
        assert np.sum(r.weights * r.nodes**2) == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-12)

    @pytest.mark.parametrize("order,scale", [(7, 1.0), (20, 1.0), (31, 1.5), (64, 0.5)])
    def test_moments_exact_through_2q_minus_1(self, order, scale):
        r = gauss_hermite_rule(order, scale)
        for k in range(0, 2 * order, 2):
            got = float(np.sum(r.weights * r.nodes**k))
            want = gaussian_moment(k, scale)
            assert got == pytest.approx(want, rel=1e-12)
        for k in range(1, 2 * order, 2):
            got = float(np.sum(r.weights * r.nodes**k))
            scale = float(np.sum(r.weights * np.abs(r.nodes) ** k))
            assert abs(got) <= 1e-13 * max(scale, 1.0)

    def test_norm_of_rows(self):
        r = gauss_hermite_rule(40, 1.0)
        table = hermite_function_table(9, r.nodes + 0.5j)
        norms = r.norm(table)
        assert norms.shape == (10,)
        assert norms.tolist() == [r.norm(row) for row in table]
        assert r.norm(table[0]) == pytest.approx(math.exp(0.125), rel=1e-14)

    def test_structure(self):
        r = gauss_hermite_rule(40, 2.0)
        assert np.all(np.diff(r.nodes) > 0)
        assert np.all(r.weights > 0)
        assert r.is_symmetric

    @pytest.mark.parametrize("order", [2, 3, 40, 72, 296, 388])
    def test_nodes_match_scipy_tridiagonal_oracle(self, order):
        # scipy's tridiagonal solver is the reference only; the rule itself
        # runs numpy's dense symmetric solver on the same Jacobi matrix
        from scipy.linalg import eigh_tridiagonal

        scale = 1.5
        x = eigh_tridiagonal(
            np.zeros(order), np.sqrt(np.arange(1, order) / 2.0), eigvals_only=True
        )
        want = (x - x[::-1]) / 2.0 / math.sqrt(scale)
        assert np.array_equal(gauss_hermite_rule(order, scale).nodes, want)

    def test_order_limits(self):
        with pytest.raises(DomainError):
            gauss_hermite_rule(0)
        with pytest.raises(DomainError):
            gauss_hermite_rule(1025)
        with pytest.raises(DomainError):
            gauss_hermite_rule(10, -1.0)


class TestUniformRule:
    def test_weights_sum_to_length(self):
        r = uniform_trapezoid_rule(5.0, 101)
        assert np.sum(r.weights) == pytest.approx(10.0, rel=1e-14)

    def test_exact_antisymmetry(self):
        r = uniform_trapezoid_rule(7.3, 500)
        assert r.is_symmetric

    def test_validation(self):
        with pytest.raises(DomainError):
            uniform_trapezoid_rule(-1.0, 100)
        with pytest.raises(DomainError):
            uniform_trapezoid_rule(1.0, 1)


class TestHermiteFunctions:
    def test_ground_state_at_zero(self):
        assert hermite_function(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-15)

    def test_odd_vanishes_at_zero(self):
        assert hermite_function(1, 0.0) == 0.0

    def test_analytic_continuation_oracle(self):
        # e_0(ia) = pi^{-1/4} exp(a^2/2) by direct substitution in the closed form
        for a in (0.25, 0.5, 1.0):
            want = math.pi**-0.25 * math.exp(a * a / 2)
            got = hermite_function(0, 1j * a)
            assert got == pytest.approx(want, rel=1e-14)

    def test_orthonormality_through_degree_39(self):
        n = 40
        rule = gauss_hermite_rule(n + 10, 1.0)
        table = hermite_function_table(n - 1, rule.nodes)
        gram = (table * rule.dx_weights) @ table.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_contour_shift_identity(self, a):
        # int e_n(x+ia) e_m(x+ia) dx = delta_nm for entire, decaying integrands
        n = 20
        rule = gauss_hermite_rule(2 * n + 40, 1.0)
        table = hermite_function_table(n - 1, rule.nodes + 1j * a)
        gram = (table * rule.dx_weights) @ table.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-8

    def test_imaginary_bound(self):
        with pytest.raises(MagnitudeError):
            hermite_function(0, 5.0j)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            hermite_function_table(513, 0.0)


@pytest.fixture(scope="module")
def basis():
    grid = uniform_trapezoid_rule(8.0, 2000)
    return anharmonic_eigenbasis(4.0, grid, 6)


class TestAnharmonicEigenbasis:
    def test_parity_signs_alternate(self, basis):
        assert basis.parity_signs == (1, -1, 1, -1, 1, -1)

    def test_gram_identity(self, basis):
        w = basis.grid.dx_weights
        gram = (basis.vectors.T * w) @ basis.vectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    def test_energies_strictly_increasing(self, basis):
        assert np.all(np.diff(basis.energies) > 0)

    def test_ground_energy_richardson(self):
        # Second-order stencil: the 2000-vs-4000 gap is ~4x the 4000-vs-8000 gap
        es = {}
        for pts in (2000, 4000, 8000):
            grid = uniform_trapezoid_rule(8.0, pts)
            es[pts] = anharmonic_eigenbasis(4.0, grid, 1).energies[0]
        coarse = abs(es[2000] - es[4000])
        fine = abs(es[4000] - es[8000])
        # the ratio-4 law holds up to the next Richardson order, ~h^2 * coarse
        assert coarse <= 4 * fine + 1e-8

    def test_deterministic_sign_fix(self):
        grid = uniform_trapezoid_rule(8.0, 1999)  # odd point count: node at 0
        b1 = anharmonic_eigenbasis(4.0, grid, 4)
        b2 = anharmonic_eigenbasis(4.0, grid, 4)
        assert np.array_equal(b1.vectors, b2.vectors)
        center = (1999 - 1) // 2
        assert b1.vectors[center, 0] > 0

    def test_validation(self):
        grid = uniform_trapezoid_rule(8.0, 2000)
        with pytest.raises(DomainError):
            anharmonic_eigenbasis(2.0, grid, 4)
        with pytest.raises(DomainError):
            anharmonic_eigenbasis(4.0, grid, 501)
        gh = gauss_hermite_rule(64, 1.0)
        with pytest.raises(StructureError):
            anharmonic_eigenbasis(4.0, gh, 4)

class TestBasisSet:
    def test_hermite_parity_signs(self):
        b = hermite_basis(5)
        assert b.parity_signs == (1, -1, 1, -1, 1)

    def test_numeric_basis_locked_to_grid(self, perturbed_sys):
        other = uniform_trapezoid_rule(8.0, 999)
        with pytest.raises(StructureError):
            perturbed_sys.basis.table(other)


def test_high_order_weight_underflow_is_loud():
    # raw weights leave the double range near order 400; the rule refuses
    # rather than violating its positive-weight contract
    from grslab import NumericError

    with pytest.raises(NumericError):
        gauss_hermite_rule(400, 1.0)
