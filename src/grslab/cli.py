"""Command-line driver: build catalog systems, verify, report.

Subcommands::

    grslab verify shifted-ho --a 0.5 --n 16 --json out.json
    grslab verify example1 --n 12 --expect not_j_orthonormal
    grslab verify perturbed-anharmonic --beta 4 --n 8
    grslab overlap --n-max 12 --csv gram.csv

Exit codes: 0 when every check passes, 1 when any check fails, 2 for usage
errors (bad flags, unusable configuration).  Configuration precedence is
flags > the key=value file named by ``GRSLAB_CONFIG`` > named defaults; every
tolerance in a report records its source.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable

import numpy as np

from . import defaults as dflt
from .basis import (
    gauss_hermite_rule,
    hermite_basis,
    hermite_function_table,
    hermite_half_width,
    uniform_trapezoid_rule,
)
from .catalog import DEFAULT_P_SOURCE, ExampleSpec, make_example, overlap_matrices
from .csymmetry import (
    c_squared_residual,
    c_tables,
    classify_type,
    expansion_residual,
    j_orthonormality_defect,
    jc_positivity_value,
    krein_gram,
    krein_rows,
    partner_check,
)
from .errors import GrslabError
from .grs import (
    BiorthogonalSystem,
    biorthogonality_defect,
    family_samples,
    g0_quadratic_check,
    gq_basis_defect,
    weighted_gram,
    weighted_samples,
)
from .hamiltonian import eigen_residual, fd_matrix
from .krein import CoefficientRep, to_samples
from .report import (
    Check,
    VerificationReport,
    emit_json,
    run_check,
    write_matrix_csv,
    write_overlap_csv,
)

__all__ = ["main", "entrypoint", "gaussian_test_function", "span_functions"]


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


_EXPECTED = {
    "shifted_ho": "first_type",
    "perturbed_anharmonic": "first_type",
    "example1": "not_j_orthonormal",
}

#: which named default backs each fixed-tolerance check (resolvable ones --
#: biorthogonality, j_orthonormality, partner, eigen_residuals -- are listed
#: in settings["sources"] with their flag/config/default provenance)
_CHECK_TOLERANCE_NAMES = {
    "weighted_orthonormality": "TOL_WEIGHTED_ONB",
    "g0_agreement": "TOL_G0",
    "g0_positivity": "VERDICT_TOL",
    "sign_pattern": "tol_krein",
    "classification": "VERDICT_TOL",
    "c_squared": "TOL_C_SQUARED",
    "jc_positivity": "VERDICT_TOL",
    "c_metric_consistency": "TOL_SPLIT",
    "expansion": "TOL_EXPANSION",
    "gq_resolution": "TOL_GQ",
    "negative_witness": "TOL_JITTER",
    "indefinite_spot": "TOL_SPOT",
    "overlap_rel_even": "TOL_OVERLAP_REL",
    "overlap_abs_odd": "TOL_OVERLAP_ODD",
    "radical_scope_pin": "TOL_SPOT",
}

_VERDICTS = ("first_type", "not_j_orthonormal", "undetermined")


# ---------------------------------------------------------------------------
# shared test-function constructions (also used by the acceptance suite)
# ---------------------------------------------------------------------------

def gaussian_test_function(size: int = dflt.GQ_TEST_BASIS) -> CoefficientRep:
    """Normalized exp(-x^2) as a Hermite expansion of the given length.

    The coefficients fall off geometrically, so the truncation sits at
    machine noise long before the default length; normalizing the vector
    makes the function exactly unit in the Hilbert norm.
    """
    basis = hermite_basis(size)
    rule = gauss_hermite_rule(2 * size + dflt.QUAD_ORDER_PAD, 1.0)
    table = hermite_function_table(size - 1, rule.nodes)
    coeffs = (table * rule.dx_weights) @ np.exp(-rule.nodes**2)
    coeffs = coeffs.astype(complex)
    coeffs /= np.linalg.norm(coeffs)
    return CoefficientRep(basis, coeffs)


def span_functions(sys: BiorthogonalSystem, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-coefficient combinations of the phi family, one
    (count x N) row per function: f_i = sum_n coeffs[i, n] phi_n."""
    coeffs = np.empty((count, sys.n), dtype=complex)
    for row in coeffs:
        row[:] = rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
        row /= np.linalg.norm(row)
    return coeffs


# ---------------------------------------------------------------------------
# individual defect numbers
# ---------------------------------------------------------------------------

def weighted_onb_defect(sys: BiorthogonalSystem) -> float:
    """Worst deviation of the two weighted family Grams from the identity."""
    worst = 0.0
    for which, sign in (("phi", -1), ("psi", 1)):
        g = weighted_gram(sys, which, sign)
        worst = max(worst, float(np.max(np.abs(g - np.eye(sys.n)))))
    return worst


def g0_agreement_defect(sys: BiorthogonalSystem, rng: np.random.Generator, count: int = 50) -> float:
    worst = 0.0
    for _ in range(count):
        c = rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
        sum_sq, quad = g0_quadratic_check(sys, c)
        worst = max(worst, abs(sum_sq - quad))
    return worst


def g0_positivity_verdict(sys: BiorthogonalSystem, rng: np.random.Generator, count: int = 50) -> float:
    for _ in range(count):
        c = rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
        _, quad = g0_quadratic_check(sys, c)
        if not quad > 0.0:
            return 1.0
    return 0.0


def sign_pattern_defect(sys: BiorthogonalSystem) -> float:
    """max_n |[phi_n, phi_n] - (-1)^n|."""
    diag = np.diag(krein_gram(sys))
    signs = np.array([(-1.0) ** k for k in range(sys.n)])
    return float(np.max(np.abs(diag - signs)))


def c_metric_consistency_defect(sys: BiorthogonalSystem, coeffs: np.ndarray) -> float:
    """Consistency triangle between [Cf, g], the factored weighted product
    and the fundamental-split form, plus the split sign conditions, over the
    span-row pairs (f, g) = (row i, row i + 1), i < 3."""
    i = np.arange(min(3, len(coeffs)))
    a, b = coeffs[i], coeffs[(i + 1) % len(coeffs)]
    # <exp(-Q/2) f, exp(-Q/2) g> = a W b^H
    v2 = np.sum((a @ weighted_gram(sys, "phi", -1)) * np.conj(b), axis=1)
    c_phi = c_tables(sys)[0]
    f, g, cf, cg = a @ sys.phi_samples, b @ sys.phi_samples, a @ c_phi, b @ c_phi
    v1 = krein_rows(sys.rule, cf, g)
    # f = f_+ + f_- along the projectors (I +- C)/2
    fp, fm, gp, gm = (f + cf) / 2, (f - cf) / 2, (g + cg) / 2, (g - cg) / 2
    v3 = krein_rows(sys.rule, fp, gp) - krein_rows(sys.rule, fm, gm)
    cross = np.abs(krein_rows(sys.rule, fp, gm))
    pos = np.maximum(0.0, -krein_rows(sys.rule, fp, fp).real)
    neg = np.maximum(0.0, krein_rows(sys.rule, fm, fm).real)
    return float(np.max([np.abs(v1 - v2), np.abs(v1 - v3), cross, pos, neg]))


def span_expansion_defect(sys: BiorthogonalSystem, coeffs: np.ndarray) -> float:
    """Worst indefinite-expansion residual over the given span rows."""
    f_weighted = coeffs @ weighted_samples(sys, "phi", -1)
    return float(np.max(expansion_residual(sys, coeffs @ sys.phi_samples, f_weighted)))


def _fd_grid(n_top: int):
    """Default residual grid: half-width 12 covers indices up to ~5; the
    turning-point rule takes over beyond that."""
    half = max(dflt.FD_HALF_WIDTH, hermite_half_width(n_top))
    points = max(dflt.FD_POINTS, int(2 * half * dflt.POINTS_PER_UNIT))
    return uniform_trapezoid_rule(half, points)


def shifted_ho_eigen_defect(sys: BiorthogonalSystem, a: float, n_top: int = 3) -> float:
    grid = _fd_grid(n_top)
    hd = fd_matrix("shifted_ho", grid, a=a)
    worst = 0.0
    for n in range(min(n_top + 1, sys.n)):
        f = to_samples(sys.phi[n], grid)
        worst = max(worst, eigen_residual(hd, f, 2 * n + 1 + a * a))
    return worst


def example1_eigen_defect(sys: BiorthogonalSystem, n_top: int = 3) -> float:
    grid = _fd_grid(n_top)
    h_phi = fd_matrix("example1", grid)
    h_psi = fd_matrix("example1_adjoint", grid)
    phi = family_samples(sys, "phi", grid)
    psi = family_samples(sys, "psi", grid)
    worst = 0.0
    for n in range(min(n_top + 1, sys.n)):
        worst = max(worst, eigen_residual(h_phi, phi[n], n + 0.5))
        worst = max(worst, eigen_residual(h_psi, psi[n], n + 0.5))
    return worst


def perturbed_eigen_defect(sys: BiorthogonalSystem, beta: float, p_source: str, n_top: int = 3) -> float:
    hd = fd_matrix("perturbed_anharmonic", sys.rule, beta=beta, p=p_source)
    worst = 0.0
    for n in range(min(n_top + 1, sys.n)):
        worst = max(worst, eigen_residual(hd, np.asarray(sys.phi_samples[n]), sys.basis.energies[n]))
    return worst


def negative_witness_shortfall(sys: BiorthogonalSystem) -> float:
    """How far | |[phi_0, phi_0]| - 1 | falls short of the required margin."""
    k00 = krein_gram(sys)[0, 0]
    witness = abs(abs(k00) - 1.0)
    return max(0.0, dflt.WITNESS_MARGIN - witness)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _common_checks(sys, tols, rng) -> list[Check]:
    return [
        run_check("biorthogonality", tols["tol_biorth"], lambda: biorthogonality_defect(sys)),
        run_check("weighted_orthonormality", tols["tol_weighted"], lambda: weighted_onb_defect(sys)),
        run_check("g0_agreement", dflt.TOL_G0, lambda: g0_agreement_defect(sys, rng)),
        run_check("g0_positivity", dflt.VERDICT_TOL, lambda: g0_positivity_verdict(sys, rng)),
    ]


def _classification_check(sys, tols) -> Check:
    def verdict_gap() -> float:
        got = classify_type(sys, tols["tol_krein"]).verdict
        return 0.0 if got == tols["expect"] else 1.0

    return run_check("classification", dflt.VERDICT_TOL, verdict_gap)


def _first_type_checks(sys, tols, rng) -> list[Check]:
    checks = _common_checks(sys, tols, rng)
    checks.append(run_check("j_orthonormality", tols["tol_krein"], lambda: j_orthonormality_defect(sys)))
    checks.append(run_check("sign_pattern", tols["tol_krein"], lambda: sign_pattern_defect(sys)))
    checks.append(run_check("partner", tols["tol_partner"], lambda: partner_check(sys)))
    checks.append(_classification_check(sys, tols))

    coeffs = span_functions(sys, 10, rng)
    checks.append(
        run_check("c_squared", dflt.TOL_C_SQUARED,
                  lambda: np.max(c_squared_residual(sys, coeffs)))
    )
    checks.append(
        run_check("jc_positivity", dflt.VERDICT_TOL,
                  lambda: 0.0 if np.all(jc_positivity_value(sys, coeffs) > 0) else 1.0)
    )
    checks.append(
        run_check("c_metric_consistency", dflt.TOL_SPLIT,
                  lambda: c_metric_consistency_defect(sys, coeffs))
    )
    checks.append(
        run_check("expansion", dflt.TOL_EXPANSION, lambda: span_expansion_defect(sys, coeffs[:5]))
    )
    if sys.n >= 32:
        probe = gaussian_test_function()
        checks.append(
            run_check("gq_resolution", dflt.TOL_GQ,
                      lambda: max(gq_basis_defect(sys, probe, probe)))
        )
    return checks


def _suite_shifted_ho(sys, tols, rng) -> list[Check]:
    checks = _first_type_checks(sys, tols, rng)
    checks.append(
        run_check("eigen_residuals", tols["tol_eigen"],
                  lambda: shifted_ho_eigen_defect(sys, tols["a"]))
    )
    return checks


def _suite_perturbed(sys, tols, rng) -> list[Check]:
    checks = _first_type_checks(sys, tols, rng)
    checks.append(
        run_check("eigen_residuals", tols["tol_eigen"],
                  lambda: perturbed_eigen_defect(sys, tols["beta"], tols["p"]))
    )
    return checks


def _suite_example1(sys, tols, rng) -> list[Check]:
    checks = _common_checks(sys, tols, rng)
    checks.append(_classification_check(sys, tols))
    checks.append(
        run_check("negative_witness", dflt.TOL_JITTER, lambda: negative_witness_shortfall(sys))
    )

    def spot() -> float:
        return abs(abs(krein_gram(sys)[0, 0]) - math.sqrt(2.0 / 3.0))

    checks.append(run_check("indefinite_spot", dflt.TOL_SPOT, spot))
    checks.append(
        run_check("eigen_residuals", tols["tol_eigen"], lambda: example1_eigen_defect(sys))
    )
    return checks


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

_CASTS: dict[str, Callable] = {
    "n": int, "a": float, "beta": float, "p": str, "quad_order": int,
    "grid_l": float, "grid_points": int, "tol_biorth": float, "tol_krein": float,
    "expect": str, "n_max": int, "json": str, "csv": str,
}


def _load_config() -> dict[str, str]:
    path = os.environ.get("GRSLAB_CONFIG")
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read GRSLAB_CONFIG file {path!r}: {exc}") from exc
    out: dict[str, str] = {}
    for i, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{i}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CASTS:
            raise UsageError(f"{path}:{i}: unknown configuration key {key!r}")
        out[key] = value.strip()
    return out


def _resolve(args, cfg: dict, key: str, default, source: str):
    """flags > config file > named default; returns (value, source label)."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag, "flag"
    if key in cfg:
        try:
            return _CASTS[key](cfg[key]), "config"
        except ValueError as exc:
            raise UsageError(f"configuration key {key}={cfg[key]!r} is not a {_CASTS[key].__name__}") from exc
    return default, f"default:{source}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    cfg = _load_config()
    example = args.example.replace("-", "_")
    numeric = example == "perturbed_anharmonic"

    resolved: dict[str, object] = {}
    sources: dict[str, str] = {}

    def take(key, default, source):
        value, src = _resolve(args, cfg, key, default, source)
        resolved[key] = value
        sources[key] = src
        return value

    n = take("n", dflt.DEFAULT_N, "DEFAULT_N")
    # the uniform grid of perturbed-anharmonic has no Gauss order to set
    quad_order = None if numeric else take("quad_order", None, "QUAD_ORDER_PAD")
    tol_biorth = take(
        "tol_biorth",
        dflt.TOL_BIORTH_NUMERIC if numeric else dflt.TOL_BIORTH,
        "TOL_BIORTH_NUMERIC" if numeric else "TOL_BIORTH",
    )
    tol_krein = take("tol_krein", dflt.TOL_KREIN, "TOL_KREIN")
    for key, tol in (("tol_biorth", tol_biorth), ("tol_krein", tol_krein)):
        # nan fails every check and inf passes every one
        if not (math.isfinite(tol) and tol >= 0):
            raise UsageError(f"{key} must be finite and non-negative, got {tol!r}")
    expect = take("expect", _EXPECTED[example], f"expected[{example}]")
    if expect not in _VERDICTS:
        raise UsageError(f"--expect must be one of {_VERDICTS}, got {expect!r}")

    params: dict[str, object] = {"n": n}
    tols = {
        "tol_biorth": tol_biorth,
        "tol_krein": tol_krein,
        "tol_weighted": dflt.TOL_WEIGHTED_ONB,
        "expect": expect,
    }
    sources["tol_weighted"] = "default:TOL_WEIGHTED_ONB"

    try:
        if example == "shifted_ho":
            a = take("a", dflt.DEFAULT_A, "DEFAULT_A")
            params["a"] = a
            tols.update(a=a, tol_partner=dflt.TOL_PARTNER, tol_eigen=dflt.TOL_EIGEN_RESIDUAL)
            sources["tol_partner"] = "default:TOL_PARTNER"
            sources["tol_eigen"] = "default:TOL_EIGEN_RESIDUAL"
            spec = ExampleSpec(id=example, a=a, n=n, quad_order=quad_order)
            suite = _suite_shifted_ho
        elif example == "perturbed_anharmonic":
            beta = take("beta", dflt.DEFAULT_BETA, "DEFAULT_BETA")
            p = take("p", DEFAULT_P_SOURCE, "DEFAULT_P_SOURCE")
            grid_l = take("grid_l", None, "catalog")
            grid_points = take("grid_points", None, "catalog")
            params.update(beta=beta, p=p)
            tols.update(
                beta=beta, p=p,
                tol_partner=dflt.TOL_PARTNER_NUMERIC,
                tol_eigen=dflt.TOL_EIGEN_RESIDUAL_NUMERIC,
            )
            sources["tol_partner"] = "default:TOL_PARTNER_NUMERIC"
            sources["tol_eigen"] = "default:TOL_EIGEN_RESIDUAL_NUMERIC"
            spec = ExampleSpec(
                id=example, beta=beta, p=p, n=n,
                grid_l=grid_l, grid_points=grid_points,
            )
            suite = _suite_perturbed
        else:
            tols.update(tol_eigen=dflt.TOL_EIGEN_RESIDUAL)
            sources["tol_eigen"] = "default:TOL_EIGEN_RESIDUAL"
            spec = ExampleSpec(id=example, n=n, quad_order=quad_order)
            suite = _suite_example1
        sys_ = make_example(spec)
    except GrslabError as exc:
        raise UsageError(f"cannot build {example}: {exc}") from exc

    rng = np.random.default_rng(dflt.RNG_SEED)
    checks = suite(sys_, tols, rng)

    settings = {
        "rule": {"kind": sys_.rule.kind, "points": len(sys_.rule)},
        "seed": dflt.RNG_SEED,
        "min_decay_score": sys_.min_decay_score,
        "resolved": {k: v for k, v in resolved.items() if v is not None},
        "sources": sources,
        "check_tolerance_defaults": _CHECK_TOLERANCE_NAMES,
    }
    report = VerificationReport(example=example, params=params, settings=settings, checks=checks)

    csv_path, _ = _resolve(args, cfg, "csv", None, "none")
    if csv_path:
        write_matrix_csv(sys_.biorth_gram, csv_path)
        report.matrices.append(csv_path)
    json_path, _ = _resolve(args, cfg, "json", None, "none")
    if json_path:
        emit_json(report, json_path)

    return _print_outcome(report)


def _cmd_overlap(args) -> int:
    cfg = _load_config()
    n_max, n_max_src = _resolve(args, cfg, "n_max", dflt.DEFAULT_NMAX, "DEFAULT_NMAX")
    quad_order, _ = _resolve(args, cfg, "quad_order", None, "QUAD_ORDER_PAD")
    try:
        closed, quad = overlap_matrices(n_max, quad_order)
    except GrslabError as exc:
        raise UsageError(f"cannot evaluate overlaps: {exc}") from exc

    even = [(i, j) for i in range(n_max + 1) for j in range(n_max + 1) if (i + j) % 2 == 0]
    odd = [(i, j) for i in range(n_max + 1) for j in range(n_max + 1) if (i + j) % 2 == 1]

    def rel_even() -> float:
        return max(abs(abs(quad[i, j]) - closed[i, j]) / closed[i, j] for i, j in even)

    def abs_odd() -> float:
        return max((abs(quad[i, j]) for i, j in odd), default=0.0)

    checks = [
        run_check("overlap_rel_even", dflt.TOL_OVERLAP_REL, rel_even),
        run_check("overlap_abs_odd", dflt.TOL_OVERLAP_ODD, abs_odd),
        run_check(
            "radical_scope_pin", dflt.TOL_SPOT,
            lambda: abs(closed[0, 0] - math.sqrt(2.0 / 3.0)),
        ),
    ]
    report = VerificationReport(
        example="overlap",
        params={"n_max": n_max},
        settings={
            "sources": {"n_max": n_max_src},
            "check_tolerance_defaults": _CHECK_TOLERANCE_NAMES,
        },
        checks=checks,
    )
    csv_path, _ = _resolve(args, cfg, "csv", None, "none")
    if csv_path:
        write_overlap_csv(closed, quad, csv_path)
        report.matrices.append(csv_path)
    json_path, _ = _resolve(args, cfg, "json", None, "none")
    if json_path:
        emit_json(report, json_path)
    return _print_outcome(report)


def _print_outcome(report: VerificationReport) -> int:
    for c in report.checks:
        if c.value is None:
            line = f"[FAIL] {c.name}: {c.error}"
        else:
            mark = "PASS" if c.passed else "FAIL"
            line = f"[{mark}] {c.name}: value={c.value:.6e} tolerance={c.tolerance:.1e}"
        print(line)
    verdict = "PASS" if report.all_passed else "FAIL"
    print(f"{report.example}: {verdict} ({sum(c.passed for c in report.checks)}/{len(report.checks)} checks)")
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_GRAMMAR_HELP = """\
symbol grammar (for --p and config values):
  atoms    x, numeric literals
  forms    (add E1 E2 ...)   sum
           (scale C E)       scalar multiple, C a literal
           (pow E K)         integer power, K >= 0
           (atan E) (tanh E) elementwise
           (gauss C)         exp(-C x^2)
  examples "(scale 0.5 (atan x))", "(scale -0.5 (pow x 2))",
           "(add (tanh x) (scale 3 x))"

configuration: flags > key=value file named by GRSLAB_CONFIG > named defaults.
exit codes: 0 all checks pass, 1 some check fails, 2 usage error.
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grslab",
        description="Verification suites for biorthogonal systems built from exp(Q/2).",
        epilog=_GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite of one catalog system")
    verify.add_argument(
        "example",
        choices=["shifted-ho", "example1", "perturbed-anharmonic"],
        help="which catalog system to verify",
    )
    verify.add_argument("--n", type=int, help="truncation size")
    verify.add_argument("--a", type=float, help="shift parameter (shifted-ho)")
    verify.add_argument("--beta", type=float, help="anharmonic exponent (> 2)")
    verify.add_argument("--p", type=str, help='odd symbol, e.g. "(scale 0.5 (atan x))"')
    verify.add_argument("--quad-order", type=int, dest="quad_order", help="Gauss rule order")
    verify.add_argument("--grid-l", type=float, dest="grid_l", help="uniform grid half-width")
    verify.add_argument("--grid-points", type=int, dest="grid_points", help="uniform grid points")
    verify.add_argument("--tol-biorth", type=float, dest="tol_biorth", help="biorthogonality tolerance")
    verify.add_argument("--tol-krein", type=float, dest="tol_krein", help="indefinite-Gram tolerance")
    verify.add_argument("--json", type=str, help="write the JSON report here")
    verify.add_argument("--csv", type=str, help="write the biorthogonality Gram as CSV here")
    verify.add_argument(
        "--expect", type=str, choices=_VERDICTS,
        help="classification verdict that counts as success",
    )

    overlap = sub.add_parser("overlap", help="closed-form vs quadrature indefinite overlaps")
    overlap.add_argument("--n-max", type=int, dest="n_max", help="largest index compared")
    overlap.add_argument("--quad-order", type=int, dest="quad_order", help="Gauss rule order")
    overlap.add_argument("--json", type=str, help="write the JSON report here")
    overlap.add_argument("--csv", type=str, help="write the comparison table here")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_overlap(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GrslabError as exc:
        # anything that escapes the per-check capture is a setup/output
        # problem (e.g. an unwritable report path), not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
