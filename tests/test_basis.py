import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from grslab import (
    DomainError,
    MagnitudeError,
    StructureError,
    anharmonic_eigenbasis,
    gauss_hermite_rule,
    hermite_basis,
    hermite_function_table,
    uniform_trapezoid_rule,
)

from grslab.basis import _gauss_hermite_rule
from grslab.defaults import GAUSS_MAX_ORDER
from reference import hermite_function


def gaussian_moment(k: int) -> float:
    """Analytic moment of x^k exp(-x^2): 0 for odd k, else Gamma((k+1)/2)."""
    if k % 2 == 1:
        return 0.0
    return math.exp(math.lgamma((k + 1) / 2.0))


def gauss_weights(r) -> np.ndarray:
    """The textbook weights of a Gauss-Hermite rule, which integrate against
    exp(-x^2): the rule's dx weights times that Gaussian."""
    return r.dx_weights * np.exp(-r.nodes**2)


class TestGaussHermiteRule:
    def test_one_point(self):
        r = gauss_hermite_rule(1)
        assert r.nodes.tolist() == [0.0]
        assert gauss_weights(r)[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_total_weight(self):
        r = gauss_hermite_rule(20)
        assert np.sum(gauss_weights(r)) == pytest.approx(math.sqrt(math.pi), abs=1e-13)

    def test_second_moment(self):
        r = gauss_hermite_rule(20)
        w = gauss_weights(r)
        assert np.sum(w * r.nodes**2) == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-12)

    # the ids name the order and the weight exp(-1.0 x^2)
    @pytest.mark.parametrize("order", [7, 20], ids=["7-1.0", "20-1.0"])
    def test_moments_exact_through_2q_minus_1(self, order):
        r = gauss_hermite_rule(order)
        w = gauss_weights(r)
        for k in range(0, 2 * order, 2):
            got = float(np.sum(w * r.nodes**k))
            want = gaussian_moment(k)
            assert got == pytest.approx(want, rel=1e-12)
        for k in range(1, 2 * order, 2):
            got = float(np.sum(w * r.nodes**k))
            scale = float(np.sum(w * np.abs(r.nodes) ** k))
            assert abs(got) <= 1e-13 * max(scale, 1.0)

    def test_norm_of_rows(self):
        r = gauss_hermite_rule(40)
        table = hermite_function_table(9, r.nodes + 0.5j)
        norms = r.norm(table)
        assert norms.shape == (10,)
        assert norms.tolist() == [r.norm(row) for row in table]
        assert r.norm(table[0]) == pytest.approx(math.exp(0.125), rel=1e-14)

    def test_structure(self):
        r = gauss_hermite_rule(40)
        assert np.all(np.diff(r.nodes) > 0)
        assert np.all(gauss_weights(r) > 0)
        assert r.is_symmetric

    @pytest.mark.parametrize("order", [2, 3, 40, 72, 296, 388])
    def test_nodes_match_scipy_tridiagonal_oracle(self, order):
        # scipy's tridiagonal solver is the reference only; the rule itself
        # runs numpy's dense symmetric solver on the same Jacobi matrix
        from scipy.linalg import eigh_tridiagonal

        x = eigh_tridiagonal(
            np.zeros(order), np.sqrt(np.arange(1, order) / 2.0), eigvals_only=True
        )
        want = (x - x[::-1]) / 2.0
        assert np.array_equal(gauss_hermite_rule(order).nodes, want)

    def test_order_limits(self):
        with pytest.raises(DomainError):
            gauss_hermite_rule(0)
        with pytest.raises(DomainError):
            gauss_hermite_rule(1025)


class TestGaussHermiteRuleCache:
    """Each valid order is built once per process."""

    def test_same_shared_read_only_rule(self):
        r = gauss_hermite_rule(40)
        assert gauss_hermite_rule(40) is r
        assert gauss_hermite_rule(np.int64(40)) is r
        for a in (r.nodes, r.dx_weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_cached_rule_equals_a_fresh_build(self):
        cached = gauss_hermite_rule(72)
        _gauss_hermite_rule.cache_clear()
        fresh = gauss_hermite_rule(72)
        assert fresh is not cached
        for name in ("nodes", "dx_weights"):
            assert np.array_equal(getattr(fresh, name), getattr(cached, name))

    @pytest.mark.parametrize(
        "args",
        [(0,), (1025,), (10.0,), ([10],), (np.array([10]),)],
    )
    def test_invalid_arguments_raise_on_every_call(self, args):
        # checked before the cache: an unhashable argument is a DomainError too
        before = _gauss_hermite_rule.cache_info().currsize
        for _ in range(2):
            with pytest.raises(DomainError):
                gauss_hermite_rule(*args)
        assert _gauss_hermite_rule.cache_info().currsize == before

    def test_weight_range_error_is_never_cached(self):
        # past the order cap the uncached rule's own recurrence refuses the start
        _gauss_hermite_rule.cache_clear()
        for _ in range(3):
            with pytest.raises(MagnitudeError, match="below the normal double range"):
                _gauss_hermite_rule(GAUSS_MAX_ORDER + 1)
        info = _gauss_hermite_rule.cache_info()
        assert info.currsize == 0 and info.misses == 3

    def test_cache_is_bounded(self):
        bound = _gauss_hermite_rule.cache_info().maxsize
        assert bound is not None and bound <= 256
        _gauss_hermite_rule.cache_clear()
        for order in range(1, bound + 6):
            gauss_hermite_rule(order)
        assert _gauss_hermite_rule.cache_info().currsize == bound
        _gauss_hermite_rule.cache_clear()


class TestUniformRule:
    def test_weights_sum_to_length(self):
        r = uniform_trapezoid_rule(5.0, 101)
        assert np.sum(r.dx_weights) == pytest.approx(10.0, rel=1e-14)

    def test_exact_antisymmetry(self):
        r = uniform_trapezoid_rule(7.3, 500)
        assert r.is_symmetric

    def test_validation(self):
        with pytest.raises(DomainError):
            uniform_trapezoid_rule(-1.0, 100)
        with pytest.raises(DomainError):
            uniform_trapezoid_rule(1.0, 1)

    @pytest.mark.parametrize("half_width", [math.inf, math.nan])
    def test_non_finite_half_width_is_a_domain_error_without_warning(self, half_width):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="positive and finite"):
                uniform_trapezoid_rule(half_width, 100)


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
        rule = gauss_hermite_rule(n + 10)
        table = hermite_function_table(n - 1, rule.nodes)
        gram = (table * rule.dx_weights) @ table.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_contour_shift_identity(self, a):
        # int e_n(x+ia) e_m(x+ia) dx = delta_nm for entire, decaying integrands
        n = 20
        rule = gauss_hermite_rule(2 * n + 40)
        table = hermite_function_table(n - 1, rule.nodes + 1j * a)
        gram = (table * rule.dx_weights) @ table.T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-8

    def test_imaginary_bound(self):
        with pytest.raises(MagnitudeError):
            hermite_function(0, 5.0j)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            hermite_function_table(513, 0.0)

    @pytest.mark.parametrize("z", [40.0, 38.0, -38.0, 40.0 + 1.0j])
    def test_start_below_the_normal_range_is_refused(self, z):
        # exp(-z^2/2) is subnormal at 38 and 0.0 at 40, where e_512 is 5.3e-56:
        # the recurrence cannot recover it and must not return a wrong value
        with pytest.raises(MagnitudeError, match="below the normal double range"):
            hermite_function_table(512, [0.0, z])


@functools.cache
def full_grid_oracle(points: int, beta: float):
    """The full-grid stencil and its lowest 33 eigenpairs (unit l2) from one
    ``eigh_tridiagonal`` call on all the points."""
    from scipy.linalg import eigh_tridiagonal

    x = uniform_trapezoid_rule(8.0, points).nodes
    h = x[1] - x[0]
    diag = 2.0 / h**2 + np.abs(x) ** beta
    off = np.full(points - 1, -1.0 / h**2)
    energies, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, 32))
    return diag, off, energies, vectors


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

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 33])
    @pytest.mark.parametrize("beta", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("points", [500, 501, 1999, 2000])
    def test_half_grid_solve_matches_full_grid_oracle(self, points, beta, k):
        # the two parity half-grid problems against one full-grid solve
        diag, off, want_e, want_v = full_grid_oracle(points, beta)
        b = anharmonic_eigenbasis(beta, uniform_trapezoid_rule(8.0, points), k)
        h = b.grid.nodes[1] - b.grid.nodes[0]
        t_norm = np.max(np.abs(diag) + np.abs(np.r_[0.0, off]) + np.abs(np.r_[off, 0.0]))
        assert np.max(np.abs(b.energies - want_e[:k])) <= np.finfo(float).eps * t_norm
        v = b.vectors * math.sqrt(h)  # unit l2, as the oracle returns them
        aligned = want_v[:, :k] * np.sign(np.sum(v * want_v[:, :k], axis=0))
        assert np.max(np.abs(v - aligned)) <= 1e-12
        signs = np.array(b.parity_signs)
        assert np.array_equal(b.vectors[::-1], signs * b.vectors)
        center = (points - 1) // 2
        for n in range(k):  # first resolvable sample at or left of the center is positive
            col = b.vectors[center::-1, n]
            assert col[np.abs(col) > 1e-8 * np.max(np.abs(b.vectors[:, n]))][0] > 0

    @pytest.mark.parametrize("points", [1999, 2000])
    @pytest.mark.parametrize("k", [1, 2, 16, 32, "max"])
    def test_parity_blocks_match_scipy_eigh_tridiagonal_bitwise(self, points, k):
        # the direct LAPACK calls give scipy's eigh_tridiagonal eigenpairs
        # bit for bit on both half-grid problems
        from scipy.linalg import eigh_tridiagonal

        k = points // 4 if k == "max" else k
        b = anharmonic_eigenbasis(4.0, uniform_trapezoid_rule(8.0, points), k)
        x = b.grid.nodes
        h = x[1] - x[0]
        half = points // 2
        diag = 2.0 / h**2 + np.abs(x[half:]) ** 4.0
        off = np.full(diag.size - 1, -1.0 / h**2)
        if points % 2:
            blocks = ((diag, np.r_[math.sqrt(2.0) * off[0], off[1:]]), (diag[1:], off[1:]))
        else:
            fold = np.r_[off[0], np.zeros(half - 1)]
            blocks = ((diag + fold, off), (diag - fold, off))
        for first, (d, o) in enumerate(blocks):
            count = (k + 1 - first) // 2
            if count == 0:
                continue
            w, u = eigh_tridiagonal(d, o, select="i", select_range=(0, count - 1))
            assert np.array_equal(b.energies[first::2], w)
            right = u[-half:] / math.sqrt(2.0) / math.sqrt(h)
            assert np.array_equal(np.abs(b.vectors[points - half:, first::2]), np.abs(right))
            if len(u) > half:  # the center node of an odd grid
                assert np.array_equal(np.abs(b.vectors[half, first::2]), np.abs(u[0] / math.sqrt(h)))

    def test_overflowing_potential_is_a_domain_error_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"beta=4\.0 on the grid half-width 1e\+80"):
                anharmonic_eigenbasis(4.0, uniform_trapezoid_rule(1e80, 2000), 8)
            with pytest.raises(DomainError, match="half-width 1e-200"):
                anharmonic_eigenbasis(4.0, uniform_trapezoid_rule(1e-200, 2000), 8)

    def test_validation(self):
        grid = uniform_trapezoid_rule(8.0, 2000)
        with pytest.raises(DomainError):
            anharmonic_eigenbasis(2.0, grid, 4)
        with pytest.raises(DomainError):
            anharmonic_eigenbasis(4.0, grid, 501)
        gh = gauss_hermite_rule(64)
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

    def test_numeric_members_must_be_parity_eigenvectors(self, perturbed_sys):
        # the first-type verdict takes parity purity from construction, so a
        # basis whose member breaks its mirror by one sample is refused
        basis = perturbed_sys.basis
        dataclasses.replace(basis, vectors=np.array(basis.vectors))  # an exact copy is accepted
        v = np.array(basis.vectors)
        v[np.argmax(np.abs(v[:, 2])), 2] *= 1.0 + 1e-12
        with pytest.raises(StructureError, match="parity eigenvectors"):
            dataclasses.replace(basis, vectors=v)


def test_high_order_weight_underflow_is_loud():
    # the first order past the frontier is refused, and the refusal names it
    with pytest.raises(DomainError, match=r"in \[1, 728\], got 729; past 728"):
        gauss_hermite_rule(729)


@pytest.mark.parametrize("order", [766, 800, 1024])
def test_weight_overflow_refuses_without_warning(order):
    # where the closed-form quotient would overflow, the order cap refuses
    # first: a DomainError, not a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"in \[1, 728\]"):
            gauss_hermite_rule(order)


@pytest.mark.parametrize("order", [389, 500, 700, GAUSS_MAX_ORDER])
def test_orders_past_the_old_weight_limit_build_without_warning(order):
    # the native weights underflowed from order 389; the dx weights do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = gauss_hermite_rule(order)
        total = np.sum(gauss_weights(r))
    assert total == pytest.approx(math.sqrt(math.pi), abs=1e-14)


def test_order_cap_is_the_true_frontier():
    # the recurrence starts at pi^{-1/4} exp(-x^2/2): a normal double at the
    # largest node of order 728, subnormal at that of order 729
    def start_at_largest_node(order):
        off = np.sqrt(np.arange(1, order) / 2.0)
        x = np.max(np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)))
        return math.pi ** -0.25 * math.exp(-x * x / 2.0), x

    tiny = np.finfo(float).tiny
    start, x = start_at_largest_node(GAUSS_MAX_ORDER)
    assert start >= tiny
    assert x == pytest.approx(gauss_hermite_rule(GAUSS_MAX_ORDER).nodes[-1], rel=1e-14)
    start, x = start_at_largest_node(GAUSS_MAX_ORDER + 1)
    assert 0 < start < tiny
    with pytest.raises(MagnitudeError):
        hermite_function_table(0, [x])
