"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
happen.  Every tolerance is pinned here at its contract value, not at
whatever the implementation currently achieves.
"""

import math
import time

import numpy as np

import grslab as g
from grslab.csymmetry import c_squared_residual, jc_positivity_value
from grslab.suites import (
    example1_eigen_defect,
    shifted_ho_eigen_defect,
    span_functions,
)

from reference import truncated


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_closed_form_overlap_against_quadrature():
    start = time.perf_counter()
    closed, sys_ = g.overlap_matrices(12)
    quad = sys_.krein_gram
    worst_rel = 0.0
    worst_odd = 0.0
    for n in range(13):
        for m in range(13):
            if (n + m) % 2 == 0:
                worst_rel = max(worst_rel, abs(abs(quad[n, m]) - closed[n, m]) / closed[n, m])
            else:
                worst_odd = max(worst_odd, abs(quad[n, m]))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-8 and worst_odd <= 1e-12 and elapsed < 1.0
    report(
        "criterion-01 closed-form overlap",
        ok,
        f"rel={worst_rel:.3e} (<=1e-8), odd={worst_odd:.3e} (<=1e-12), {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_spot_value_and_radical_scope():
    got = g.overlap_closed_form(0, 0)
    want = math.sqrt(2.0 / 3.0)
    alternative = math.sqrt(2.0 / (3.0 * math.pi) * math.exp(math.lgamma(0.5)))
    ok = abs(got - want) <= 1e-10 and abs(got - alternative) > 0.1
    report(
        "criterion-02 spot overlap value",
        ok,
        f"|got - sqrt(2/3)|={abs(got - want):.2e} (<=1e-10), "
        f"distance from wrong reading {abs(got - alternative):.3f} (>0.1)",
    )


def test_criterion_03_shifted_biorthogonality_three_shifts():
    start = time.perf_counter()
    worst = 0.0
    for a in (0.25, 0.5, 1.0):
        sys_ = g.make_example(g.ExampleSpec(id="shifted_ho", a=a, n=16))
        worst = max(worst, g.biorthogonality_defect(sys_))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 2.0
    report(
        "criterion-03 shifted biorthogonality",
        ok,
        f"max defect={worst:.3e} (<=1e-8) over a in {{0.25,0.5,1.0}}, {elapsed:.2f}s (<2s)",
    )


def test_criterion_04_shifted_indefinite_orthonormality(shifted_sys):
    defect = g.j_orthonormality_defect(shifted_sys)
    verdict = g.classify_type(shifted_sys)
    signs = g.sign_sequence(shifted_sys)
    partner = g.partner_check(shifted_sys)
    ok = (
        defect <= 1e-6
        and verdict == "first_type"
        and signs == tuple((-1) ** n for n in range(16))
        and partner <= 1e-7
    )
    report(
        "criterion-04 shifted indefinite orthonormality",
        ok,
        f"defect={defect:.3e} (<=1e-6), verdict={verdict}, alternating signs, "
        f"partner={partner:.3e} (<=1e-7)",
    )


def test_criterion_05_example1_negative_result(example1_sys):
    verdict = g.classify_type(example1_sys)
    witness = abs(abs(g.krein_gram(example1_sys)[0, 0]) - 1.0)
    ok = verdict == "not_j_orthonormal" and witness >= 0.18
    report(
        "criterion-05 non-orthonormal witness",
        ok,
        f"verdict={verdict}, | |[phi0,phi0]| - 1 |={witness:.4f} (>=0.18)",
    )


def test_criterion_06_perturbed_anharmonic():
    start = time.perf_counter()
    sys_ = g.make_example(
        g.ExampleSpec(id="perturbed_anharmonic", beta=4.0, p="(scale 0.5 (atan x))", n=8)
    )
    biorth = g.biorthogonality_defect(sys_)
    verdict = g.classify_type(sys_)
    signs = sys_.basis.parity_signs
    elapsed = time.perf_counter() - start
    ok = (
        biorth <= 1e-7
        and verdict == "first_type"
        and signs == tuple((-1) ** n for n in range(8))
        and elapsed < 30.0
    )
    report(
        "criterion-06 perturbed anharmonic",
        ok,
        f"biorth={biorth:.3e} (<=1e-7), verdict={verdict}, parity alternates, "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_07_quasi_basis_resolution_trend(shifted_sys32):
    defects = {m: g.gq_basis_defect(truncated(shifted_sys32, m)) for m in (8, 16, 32)}
    d8, d16, d32 = defects[8], defects[16], defects[32]
    ok = d32 < d16 < d8 and d32 <= 1e-6
    report(
        "criterion-07 quasi-basis resolution",
        ok,
        f"defects {d8:.2e} -> {d16:.2e} -> {d32:.2e} "
        "strictly decreasing, final <=1e-6 (the other ordering is its conjugate)",
    )


def test_criterion_08_c_symmetry_suite(shifted_sys, rng):
    sys_, r = shifted_sys, shifted_sys.rule
    coeffs = span_functions(sys_, 10, rng)
    rows = g.c_rows(sys_, coeffs)
    worst_c2 = max(c_squared_residual(r, rows))
    positive = all(jc_positivity_value(r, rows) > 0)
    f, cf, _ = rows
    plus, minus = (f + cf) / 2, (f - cf) / 2
    a, b = slice(0, 3), slice(3, 6)
    v1 = g.krein_rows(r, cf[a], f[b])
    v2 = np.sum((coeffs[a] @ g.weighted_gram(sys_, "phi")) * np.conj(coeffs[b]), axis=1)
    v3 = g.krein_rows(r, plus[a], plus[b]) - g.krein_rows(r, minus[a], minus[b])
    worst_tri = max(np.max(np.abs(v1 - v2)), np.max(np.abs(v1 - v3)))
    worst_exp = max(g.expansion_residual(sys_, coeffs))
    ok = worst_c2 <= 1e-8 and positive and worst_tri <= 1e-8 and worst_exp <= 1e-8
    report(
        "criterion-08 C-symmetry suite",
        ok,
        f"C^2 residual={worst_c2:.2e} (<=1e-8), JC positive={positive}, "
        f"metric triangle={worst_tri:.2e} (<=1e-8), expansion={worst_exp:.2e} (<=1e-8)",
    )


def test_criterion_09_eigen_residuals(shifted_sys, example1_sys):
    start = time.perf_counter()
    r_e1 = example1_eigen_defect(example1_sys)
    r_sho = shifted_ho_eigen_defect(shifted_sys, 0.5)
    coarse = g.uniform_trapezoid_rule(12.0, 2000)
    fine = g.uniform_trapezoid_rule(12.0, 4000)
    h_c = g.fd_matrix("shifted_ho", coarse, a=0.5)
    h_f = g.fd_matrix("shifted_ho", fine, a=0.5)
    phi_c, phi_f = (g.family_samples(shifted_sys, "phi", grid, upto=4) for grid in (coarse, fine))
    ratios = []
    for n in range(4):
        lam = 2 * n + 1 + 0.25
        rc = g.eigen_residual(h_c, phi_c[n], lam)
        rf = g.eigen_residual(h_f, phi_f[n], lam)
        ratios.append(rc / rf)
    elapsed = time.perf_counter() - start
    ratios_ok = all(3.0 <= r <= 5.0 for r in ratios)
    ok = r_e1 <= 5e-3 and r_sho <= 5e-3 and ratios_ok and elapsed < 20.0
    report(
        "criterion-09 eigen-residuals",
        ok,
        f"example1={r_e1:.2e} (<=5e-3), shifted={r_sho:.2e} (<=5e-3), "
        f"ratios {min(ratios):.2f}..{max(ratios):.2f} in [3,5], {elapsed:.1f}s (<20s)",
    )


def test_criterion_10_quadratic_form_positivity(
    shifted_sys, example1_sys, perturbed_sys, rng
):
    worst = 0.0
    all_positive = True
    for sys_ in (shifted_sys, example1_sys, perturbed_sys):
        c = [rng.standard_normal(sys_.n) + 1j * rng.standard_normal(sys_.n) for _ in range(50)]
        sum_sq, quad = g.g0_quadratic_check(sys_, np.array(c))
        worst = max(worst, float(np.max(np.abs(sum_sq - quad))))
        all_positive = all_positive and bool(np.all(quad > 0.0))
    ok = worst <= 1e-7 and all_positive
    report(
        "criterion-10 quadratic-form positivity",
        ok,
        f"max |sum - quadrature|={worst:.3e} (<=1e-7) over 150 draws, positive={all_positive}",
    )
