"""Command-line driver: build catalog systems, verify, report.

Subcommands::

    grslab verify shifted-ho --a 0.5 --n 16 --json out.json
    grslab verify example1 --n 12 --expect not_j_orthonormal
    grslab verify perturbed-anharmonic --beta 4 --n 8
    grslab overlap --n-max 12 --csv gram.csv

Exit codes: 0 when every check passes, 1 when any check fails, 2 for usage
errors (bad flags, unusable configuration).  Configuration precedence is
flags > the key=value file named by ``GRSLAB_CONFIG`` > named defaults.
This module parses, resolves, builds and emits; which checks run, in what
order and against which tolerance is :mod:`grslab.suites`.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable

from . import defaults as dflt
from .catalog import DEFAULT_P_SOURCE, ExampleSpec, make_example, overlap_matrices
from .errors import GrslabError
from .report import VerificationReport, emit_json, write_matrix_csv, write_overlap_csv
from .suites import run_overlap, run_suite

__all__ = ["main", "entrypoint"]


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


_EXPECTED = {
    "shifted_ho": "first_type",
    "perturbed_anharmonic": "first_type",
    "example1": "not_j_orthonormal",
}

_VERDICTS = ("first_type", "not_j_orthonormal", "undetermined")


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

def _raised_in_build(exc: BaseException) -> bool:
    """Whether ``exc`` came out of :func:`grslab.grs.build_system`, whose Gauss
    rule and domain-decay gate depend on the order, rather than from a
    setting the catalog checks before it (N, a, the basis size)."""
    tb = exc.__traceback__
    while tb is not None and tb.tb_frame.f_code.co_name != "build_system":
        tb = tb.tb_next
    return tb is not None


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
    if example == "shifted_ho":
        params["a"] = take("a", dflt.DEFAULT_A, "DEFAULT_A")
    elif numeric:
        params["beta"] = take("beta", dflt.DEFAULT_BETA, "DEFAULT_BETA")
        params["p"] = take("p", DEFAULT_P_SOURCE, "DEFAULT_P_SOURCE")
    grid = {key: take(key, None, "catalog") for key in ("grid_l", "grid_points")} if numeric else {}
    try:
        sys_ = make_example(ExampleSpec(id=example, quad_order=quad_order, **params, **grid))
    except GrslabError as exc:
        hint = ""
        if sources.get("quad_order", "").startswith("default") and _raised_in_build(exc):
            # the order of the failing rule or decay gate came from N, not from the user
            hint = (f": it is the default 2N + {dflt.QUAD_ORDER_PAD} at N = {n}, so lower N "
                    f"or set --quad-order (at most {dflt.GAUSS_MAX_ORDER})")
        raise UsageError(f"cannot build {example}: {exc}{hint}") from exc

    checks = run_suite(example, sys_, resolved, sources)
    settings = {
        "rule": {"kind": sys_.rule.kind, "points": len(sys_.rule)},
        "seed": dflt.RNG_SEED,
        "min_decay_score": sys_.min_decay_score,
        "resolved": {k: v for k, v in resolved.items() if v is not None},
        "sources": sources,
    }
    report = VerificationReport(example=example, params=params, settings=settings, checks=checks)
    return _finish(args, cfg, report, lambda path: write_matrix_csv(sys_.biorth_gram, path))


def _cmd_overlap(args) -> int:
    cfg = _load_config()
    n_max, n_max_src = _resolve(args, cfg, "n_max", dflt.DEFAULT_NMAX, "DEFAULT_NMAX")
    quad_order, quad_order_src = _resolve(args, cfg, "quad_order", None, "QUAD_ORDER_PAD")
    try:
        closed, example1 = overlap_matrices(n_max, quad_order)
    except GrslabError as exc:
        raise UsageError(f"cannot evaluate overlaps: {exc}") from exc

    quad = example1.krein_gram
    settings = {
        "rule": {"kind": example1.rule.kind, "points": len(example1.rule)},
        "resolved": {k: v for k, v in (("n_max", n_max), ("quad_order", quad_order)) if v is not None},
        "sources": {"n_max": n_max_src, "quad_order": quad_order_src},
    }
    report = VerificationReport(
        example="overlap", params={"n_max": n_max}, settings=settings, checks=run_overlap(closed, quad)
    )
    return _finish(args, cfg, report, lambda path: write_overlap_csv(closed, quad, path))


def _finish(args, cfg: dict, report: VerificationReport, write_csv: Callable[[str], None]) -> int:
    """Write the CSV and JSON artifacts asked for, print one line per check
    and the verdict, and return the exit code."""
    csv_path, _ = _resolve(args, cfg, "csv", None, "none")
    if csv_path:
        write_csv(csv_path)
        report.matrices.append(csv_path)
    json_path, _ = _resolve(args, cfg, "json", None, "none")
    if json_path:
        emit_json(report, json_path)

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


@functools.cache  # built once per process; parse_args leaves it unchanged
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

    overlap = sub.add_parser("overlap", help="closed-form vs example1 Krein Gram indefinite overlaps")
    overlap.add_argument("--n-max", type=int, dest="n_max", help="largest index compared")
    overlap.add_argument(
        "--quad-order", type=int, dest="quad_order",
        help=f"order of example1's working Gauss rule at N = n_max + 1 (default 2N + {dflt.QUAD_ORDER_PAD})",
    )
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
    except (UsageError, GrslabError) as exc:
        # a library error that escapes the per-check capture is a setup or
        # output problem (e.g. an unwritable report path), not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
