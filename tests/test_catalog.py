import math

import numpy as np
import pytest

from grslab import (
    DomainError,
    ExampleSpec,
    catalog,
    classify_type,
    make_example,
    overlap_closed_form,
    overlap_matrices,
)

from reference import overlap_quadrature


def mpmath_overlap(mpmath, n: int, m: int):
    """The closed formula for an even n + m at the caller's mpmath precision:
    prefactor, Gamma factor and series, at exactly the (m, -n, (1-m-n)/2, 3/2)
    the overlap sums."""
    s = n + m + 1
    pre = mpmath.sqrt(mpmath.mpf(2) ** s / (mpmath.mpf(3) ** s * mpmath.pi
                                           * mpmath.factorial(n) * mpmath.factorial(m)))
    series = mpmath.hyp2f1(-m, -n, mpmath.mpf(1 - m - n) / 2, mpmath.mpf(3) / 2)
    return pre * mpmath.gamma(mpmath.mpf(s) / 2) * abs(series)


class TestMakeExample:
    def test_shifted_first_type(self, shifted_sys):
        assert classify_type(shifted_sys) == "first_type"

    def test_example1_negative(self, example1_sys):
        assert classify_type(example1_sys) == "not_j_orthonormal"

    def test_perturbed_first_type(self, perturbed_sys):
        assert classify_type(perturbed_sys) == "first_type"

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ExampleSpec(id="shifted_ho", a=0.0)
        with pytest.raises(DomainError):
            ExampleSpec(id="shifted_ho")
        with pytest.raises(DomainError):
            ExampleSpec(id="perturbed_anharmonic", beta=2.0)
        with pytest.raises(DomainError):
            ExampleSpec(id="mystery")

    def test_even_perturbation_rejected(self):
        spec = ExampleSpec(id="perturbed_anharmonic", beta=4.0, p="(gauss 1)", n=4)
        with pytest.raises(DomainError):
            make_example(spec)

    def test_rebuild_bit_identical(self):
        spec = ExampleSpec(id="example1", n=10)
        a = make_example(spec)
        b = make_example(spec)
        assert np.array_equal(a.phi_samples, b.phi_samples)
        assert np.array_equal(a.psi_samples, b.psi_samples)


PERTURBED = dict(id="perturbed_anharmonic", beta=4.0, n=8)


@pytest.fixture()
def solves(monkeypatch):
    """The eigen-solves that reach ``anharmonic_eigenbasis``, from an empty
    eigenbasis cache."""
    calls = []
    real = catalog.anharmonic_eigenbasis

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(catalog, "anharmonic_eigenbasis", counted)
    catalog._anharmonic_basis.cache_clear()
    yield calls
    catalog._anharmonic_basis.cache_clear()


class TestAnharmonicBasisCache:
    def test_one_solve_one_shared_read_only_basis(self, solves):
        a = make_example(ExampleSpec(**PERTURBED))
        b = make_example(ExampleSpec(**PERTURBED))
        assert len(solves) == 1
        assert a.basis is b.basis and a.rule is a.basis.grid
        for arr in (a.basis.vectors, a.basis.energies, a.basis.grid.nodes):
            assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "change", [{"beta": 3.0}, {"grid_l": 7.0}, {"grid_points": 1999}, {"n": 9}],
        ids=["beta", "grid_l", "grid_points", "n"],
    )
    def test_each_key_field_is_its_own_entry(self, solves, change):
        base = make_example(ExampleSpec(**PERTURBED))
        other = make_example(ExampleSpec(**{**PERTURBED, **change}))
        assert len(solves) == 2 and other.basis is not base.basis
        assert make_example(ExampleSpec(**{**PERTURBED, **change})).basis is other.basis
        assert len(solves) == 2 and catalog._anharmonic_basis.cache_info().currsize == 2

    def test_int_spelling_shares_the_float_entry(self, solves):
        a = make_example(ExampleSpec(**PERTURBED, grid_l=8.0))
        b = make_example(ExampleSpec(**{**PERTURBED, "beta": 4}, grid_l=8))
        assert len(solves) == 1 and b.basis is a.basis
        assert np.array_equal(a.phi_samples, b.phi_samples)
        assert np.array_equal(a.psi_samples, b.psi_samples)

    def test_even_symbol_is_refused_before_any_solve(self, solves):
        with pytest.raises(DomainError, match="not odd"):
            make_example(ExampleSpec(**PERTURBED, p="(gauss 1)"))
        assert solves == []

    @pytest.mark.parametrize(
        "change, match",
        [({"n": 600}, "points/4"), ({"grid_l": 1e80}, "overflows"), ({"n": 8.0}, "points/4")],
        ids=["n-past-cap", "overflowing-stencil", "float-n"],
    )
    def test_refusals_are_never_cached(self, solves, change, match):
        make_example(ExampleSpec(**PERTURBED))  # the int entry n = 8
        for attempt in (1, 2):
            with pytest.raises(DomainError, match=match):
                make_example(ExampleSpec(**{**PERTURBED, **change}))
            assert len(solves) == 1 + attempt
            assert catalog._anharmonic_basis.cache_info().currsize == 1


class TestOverlapClosedForm:
    def test_ground_pair_gaussian_oracle(self):
        # (1/sqrt(pi)) int exp(-3x^2/2) dx = (1/sqrt(pi)) sqrt(2 pi / 3) = sqrt(2/3)
        oracle = math.sqrt(2.0 * math.pi / 3.0) / math.sqrt(math.pi)
        assert oracle == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
        # the exact square 2/3, rounded once: the bits of math.sqrt(2/3)
        assert overlap_closed_form(0, 0) == math.sqrt(2.0 / 3.0)

    def test_odd_sum_vanishes(self):
        assert overlap_closed_form(1, 2) == 0.0
        assert overlap_closed_form(0, 7) == 0.0

    def test_one_one_moment_oracle(self):
        # [phi_1, phi_1] = -(2/sqrt(pi)) int x^2 exp(-3x^2/2) dx
        #               = -(2/sqrt(pi)) (1/3) sqrt(2 pi / 3) = -(2/3) sqrt(2/3)
        moment = (1.0 / 3.0) * math.sqrt(2.0 * math.pi / 3.0)
        oracle = (2.0 / math.sqrt(math.pi)) * moment
        assert oracle == pytest.approx((2.0 / 3.0) * math.sqrt(2.0 / 3.0), rel=1e-15)
        # the exact square 8/27, within one ulp of the doubly rounded product
        want = (2.0 / 3.0) * math.sqrt(2.0 / 3.0)
        assert abs(overlap_closed_form(1, 1) - want) <= math.ulp(want)

    def test_symmetry_in_indices(self):
        for n, m in ((0, 2), (1, 3), (2, 4), (3, 5)):
            assert overlap_closed_form(n, m) == pytest.approx(overlap_closed_form(m, n), rel=1e-12)

    def test_matches_mpmath_oracle_through_30(self):
        # the same closed formula at 40 digits: every entry is that value
        # correctly rounded, so within half an ulp
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n in range(31):
                for m in range(31):
                    got = overlap_closed_form(n, m)
                    if (n + m) % 2 == 1:
                        assert got == 0.0, (n, m)
                        continue
                    oracle = mpmath_overlap(mpmath, n, m)
                    assert got == float(oracle), (n, m)

    def test_even_sum_entries_are_positive_through_30(self):
        # the overlap suite reads n + m even off the table's nonzero entries
        for n in range(31):
            for m in range(n % 2, 31, 2):
                assert overlap_closed_form(n, m) > 0.0, (n, m)

    def test_index_cap(self):
        with pytest.raises(DomainError):
            overlap_closed_form(31, 1)
        with pytest.raises(DomainError):
            overlap_closed_form(2, -1)

    def test_radical_scope_pin(self):
        # the wrong reading (Gamma under the radical) gives ~0.613 at (0,0)
        wrong = math.sqrt(
            2.0 / (3.0 * math.pi) * math.exp(math.lgamma(0.5))
        )
        assert wrong == pytest.approx(0.6133, abs=5e-4)
        assert abs(overlap_closed_form(0, 0) - wrong) > 0.1
        assert overlap_closed_form(0, 0) == math.sqrt(2.0 / 3.0)


class TestOverlapTable:
    def test_evaluates_only_the_even_upper_triangle(self, monkeypatch):
        # n <= m with n + m even: 256 of the 31^2 entries at n_max = 30
        calls = []
        real = catalog.overlap_closed_form

        def counted(n, m):
            calls.append((n, m))
            return real(n, m)

        monkeypatch.setattr(catalog, "overlap_closed_form", counted)
        closed, _ = overlap_matrices(30)
        assert len(calls) == 256 and len(set(calls)) == 256
        assert all(n <= m and (n + m) % 2 == 0 for n, m in calls)
        assert np.array_equal(closed, closed.T)
        odd = np.add.outer(np.arange(31), np.arange(31)) % 2 == 1
        assert np.all(closed[odd] == 0.0) and np.all(closed[~odd] > 0.0)
        for n in range(31):
            for m in range(31):
                assert closed[n, m] == real(n, m), (n, m)


class TestOracleEquivalence:
    def test_quadrature_matches_closed_form_through_12(self):
        closed, sys_ = overlap_matrices(12)
        quad = sys_.krein_gram
        for n in range(13):
            for m in range(13):
                if (n + m) % 2 == 0:
                    rel = abs(abs(quad[n, m]) - closed[n, m]) / closed[n, m]
                    assert rel <= 1e-8, (n, m, rel)
                else:
                    assert abs(quad[n, m]) <= 1e-12, (n, m)

    def test_single_entry_api(self):
        z = overlap_quadrature(2, 4)
        assert abs(abs(z) - overlap_closed_form(2, 4)) <= 1e-12

    def test_quadrature_agrees_with_system_gram(self):
        # the quadrature table is the Krein Gram of the example1 system that
        # ``verify example1 --n n_max + 1`` builds, bit for bit, on its rule
        for n_max in (0, 12, 30):
            _, got = overlap_matrices(n_max)
            want = make_example(ExampleSpec(id="example1", n=n_max + 1))
            assert got.krein_gram.shape == want.krein_gram.shape, n_max
            assert np.array_equal(got.krein_gram, want.krein_gram), n_max
            assert got.rule.kind == want.rule.kind and np.array_equal(got.rule.nodes, want.rule.nodes)

    def test_quadrature_matches_mpmath_at_30(self):
        # every even entry of the system's Gram at N = 31, against the
        # closed formula at 40 digits
        mpmath = pytest.importorskip("mpmath")
        quad = overlap_matrices(30)[1].krein_gram
        with mpmath.workdps(40):
            for n in range(31):
                for m in range(n % 2, 31, 2):
                    oracle = mpmath_overlap(mpmath, n, m)
                    assert abs(abs(quad[n, m]) - oracle) <= 2e-9 * oracle, (n, m)
