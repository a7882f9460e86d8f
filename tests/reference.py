"""Reference helpers that only tests use.

No verify suite reaches these, so they live beside the tests instead of in
the library: a single Hermite function, a system restricted to its first
members, the single-entry quadrature oracle of the example1 overlaps, the
gq probe as a row of Hermite coefficients, and the matrix CSV written one
``repr`` per entry.
"""

import dataclasses
import math

import numpy as np

from grslab import DomainError, gauss_hermite_rule, hermite_function_table
from grslab.defaults import QUAD_ORDER_PAD


def hermite_function(n: int, z):
    """Normalized Hermite function e_n(z); entire, so z may be complex."""
    return hermite_function_table(n, z)[n][()]


def truncated(sys, m: int):
    """The same system restricted to its first m members (a fresh instance,
    so its cached Grams start empty)."""
    if not 1 <= m <= sys.n:
        raise DomainError(f"truncation {m} must lie in [1, {sys.n}]")
    if m == sys.n:
        return sys
    return dataclasses.replace(
        sys,
        n=int(m),
        phi_samples=np.array(sys.phi_samples[:m]),
        psi_samples=np.array(sys.psi_samples[:m]),
    )


def overlap_quadrature(n: int, m: int, order: int | None = None) -> complex:
    """[phi_n, phi_m] for example1 by Gauss quadrature with weight exp(-3x^2/2).

    This is an independent quadrature oracle on a Gauss rule scaled to the
    integrand's Gaussian: against that weight the integrand is exactly a
    polynomial of degree n + m, so the rule is exact once its order clears
    (n + m)/2.  It is the single-entry oracle for
    :func:`grslab.overlap_closed_form`.
    """
    if order is None:
        order = n + m + QUAD_ORDER_PAD // 2
    rule = gauss_hermite_rule(order)
    root = math.sqrt(1.5)
    nodes, dx_weights = rule.nodes / root, rule.dx_weights / root
    # rows phi_0..phi_max(n, m) of the example1 family on the scaled rule
    fam = hermite_function_table(max(n, m), nodes) * np.exp(-nodes**2 / 4.0)
    return complex(np.sum(dx_weights * fam[n][::-1] * np.conj(fam[m])))


#: expansion length of the coefficient form of the gq probe
PROBE_TERMS = 64


def gaussian_probe_coefficients() -> np.ndarray:
    """The gq probe (2/pi)^{1/4} exp(-x^2) as a row of PROBE_TERMS
    coefficients over the Hermite functions.

    The coefficients fall off geometrically, so the truncation sits at
    machine noise long before that length; normalizing the vector makes the
    function exactly unit in the Hilbert norm.
    """
    rule = gauss_hermite_rule(2 * PROBE_TERMS + QUAD_ORDER_PAD)
    table = hermite_function_table(PROBE_TERMS - 1, rule.nodes)
    coeffs = (table * rule.dx_weights) @ np.exp(-rule.nodes**2)
    return coeffs / np.linalg.norm(coeffs)


def write_matrix_csv(matrix, path: str) -> None:
    """The byte oracle of :func:`grslab.report.write_matrix_csv`: rows
    ``n,m,value_re,value_im`` with each float written by ``repr``, a real
    matrix writing the imaginary part 0.0 of its complex cast."""
    m = np.asarray(matrix)
    real = not np.iscomplexobj(m)
    m = np.atleast_2d(m.astype(float if real else complex, copy=False))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("n,m,value_re,value_im\r\n")
        cols = [f",{j}," for j in range(m.shape[1])]
        for i, row in enumerate(m):
            if real:
                lines = [f"{i}{c}{re!r},0.0\r\n" for c, re in zip(cols, row.tolist())]
            else:
                lines = [f"{i}{c}{re!r},{im!r}\r\n"
                         for c, re, im in zip(cols, row.real.tolist(), row.imag.tolist())]
            fh.write("".join(lines))
