import numpy as np
import pytest

from grslab import (
    DomainError,
    GrammarError,
    ResolutionError,
    StructureError,
    eigen_residual,
    family_samples,
    fd_apply,
    fd_matrix,
    gauss_hermite_rule,
    uniform_trapezoid_rule,
)

GRID = uniform_trapezoid_rule(12.0, 4000)
COARSE = uniform_trapezoid_rule(12.0, 2000)


def anharmonic(beta: float = 4.0):
    """The unperturbed stencil of -d^2/dx^2 + |x|^beta on GRID."""
    return fd_matrix("perturbed_anharmonic", GRID, beta=beta, p="0")


class TestFdAssembly:
    def test_zero_shift_is_hermitian(self):
        hd = fd_matrix("shifted_ho", GRID, a=0.0)
        assert np.array_equal(hd.upper, np.conj(hd.lower))
        assert np.all(hd.diag.imag == 0.0)

    def test_skew_part_is_shift_potential(self):
        hd = fd_matrix("shifted_ho", GRID, a=0.5)
        assert np.allclose(hd.diag.imag, 2 * 0.5 * GRID.nodes)
        assert np.allclose(hd.lower.imag, 0.0) and np.allclose(hd.upper.imag, 0.0)

    def test_example1_not_hermitian(self):
        # the drift -x/2 makes the off-diagonals differ by -(x_j + x_{j+1}) / (4h)
        hd = fd_matrix("example1", GRID)
        x, h = GRID.nodes, GRID.nodes[1] - GRID.nodes[0]
        assert np.allclose(hd.upper - hd.lower, -(x[:-1] + x[1:]) / (4 * h), rtol=1e-9, atol=1e-9)
        assert not np.allclose(hd.upper, np.conj(hd.lower))

    def test_anharmonic_symmetric(self):
        hd = anharmonic()
        assert np.array_equal(hd.lower, hd.upper)
        assert np.isrealobj(hd.diag) and np.array_equal(hd.diag, hd.diag[::-1])

    def test_zero_perturbation_matches_anharmonic(self):
        # p = 0 leaves the plain stencil: -1/h^2 off the diagonal, 2/h^2 + |x|^beta on it
        hd = anharmonic()
        h = GRID.nodes[1] - GRID.nodes[0]
        assert np.array_equal(hd.lower, np.full(len(GRID) - 1, -1.0 / h**2))
        assert np.array_equal(hd.diag, 2.0 / h**2 + np.abs(GRID.nodes) ** 4.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            fd_matrix("free_particle", GRID)
        with pytest.raises(StructureError):
            fd_matrix("example1", gauss_hermite_rule(300))
        with pytest.raises(ResolutionError):
            fd_matrix("example1", uniform_trapezoid_rule(12.0, 400))
        with pytest.raises(DomainError):
            anharmonic(beta=1.5)
        with pytest.raises(DomainError):
            fd_matrix("anharmonic", GRID, beta=4.0)
        with pytest.raises(GrammarError):
            fd_matrix("perturbed_anharmonic", GRID, beta=4.0, p="(sinh x)")

    def test_fd_apply_matches_dense(self):
        hd = fd_matrix("example1", uniform_trapezoid_rule(12.0, 500))
        v = np.exp(-hd.grid.nodes**2)
        dense = (
            np.diag(hd.diag)
            + np.diag(hd.upper, 1)
            + np.diag(hd.lower, -1)
        )
        assert np.allclose(fd_apply(hd, v), dense @ v, atol=1e-12)


class TestEigenResiduals:
    def test_example1_ladder(self, example1_sys):
        from grslab.suites import example1_eigen_defect

        assert example1_eigen_defect(example1_sys) <= 5e-3

    def test_shifted_ladder(self, shifted_sys):
        from grslab.suites import shifted_ho_eigen_defect

        assert shifted_ho_eigen_defect(shifted_sys, 0.5) <= 5e-3

    def test_perturbed_ladder(self, perturbed_sys):
        from grslab.catalog import DEFAULT_P_SOURCE
        from grslab.suites import perturbed_eigen_defect

        assert perturbed_eigen_defect(perturbed_sys, 4.0, DEFAULT_P_SOURCE) <= 1e-2

    @pytest.mark.parametrize("example", ["example1", "shifted_ho"])
    def test_eigen_defects_sample_only_the_rows_they_use(self, example, monkeypatch):
        # the defects read members 0..3, so no table on the 4000-point
        # finite-difference grid may carry more rows than that
        import sys

        import grslab.basis
        from grslab import ExampleSpec, make_example
        from grslab.suites import _fd_grid, example1_eigen_defect, shifted_ho_eigen_defect

        sys_ = make_example(ExampleSpec(id=example, n=64, a=0.5 if example == "shifted_ho" else None))
        real = grslab.basis.hermite_function_table
        points = len(_fd_grid())
        rows_on_grid = []

        def spy(nmax, z):
            if np.size(z) == points:
                rows_on_grid.append(nmax + 1)
            return real(nmax, z)

        # callers look the table up through their own module globals
        for name, mod in list(sys.modules.items()):
            if name.startswith("grslab") and getattr(mod, "hermite_function_table", None) is real:
                monkeypatch.setattr(mod, "hermite_function_table", spy)
        if example == "example1":
            example1_eigen_defect(sys_)
        else:
            shifted_ho_eigen_defect(sys_, 0.5)
        assert rows_on_grid and max(rows_on_grid) <= 4

    def test_second_order_convergence(self, shifted_sys):
        h_fine = fd_matrix("shifted_ho", GRID, a=0.5)
        h_coarse = fd_matrix("shifted_ho", COARSE, a=0.5)
        phi_c, phi_f = (family_samples(shifted_sys, "phi", grid, upto=4) for grid in (COARSE, GRID))
        for n in range(4):
            lam = 2 * n + 1 + 0.25
            r_c = eigen_residual(h_coarse, phi_c[n], lam)
            r_f = eigen_residual(h_fine, phi_f[n], lam)
            assert 3.0 <= r_c / r_f <= 5.0

    def test_spectral_vs_differential(self, shifted_sys, rng):
        # on the span of the first 8 members the stencil acts as the spectral
        # form sum_n lambda_n c_n phi_n, lambda_n = 2n + 1 + a^2
        hd = fd_matrix("shifted_ho", GRID, a=0.5)
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        c /= np.linalg.norm(c)
        lams = 2 * np.arange(8) + 1 + 0.25
        phi_fd = family_samples(shifted_sys, "phi", GRID)[:8]
        spectral_on_grid = (lams * c) @ phi_fd
        differential = fd_apply(hd, c @ phi_fd)
        inner_slice = slice(1, -1)
        gap = np.linalg.norm((spectral_on_grid - differential)[inner_slice])
        scale = np.linalg.norm(differential[inner_slice])
        assert gap / scale <= 1e-2

    def test_boundary_mass_guard(self):
        hd = anharmonic()
        flat = np.ones(len(GRID))
        with pytest.raises(ResolutionError):
            eigen_residual(hd, flat, 1.0)

    def test_zero_function_rejected(self):
        hd = anharmonic()
        with pytest.raises(DomainError):
            eigen_residual(hd, np.zeros(len(GRID)), 1.0)
