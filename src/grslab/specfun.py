"""Scalar special-function kernels.

Log-gamma and the terminating Gauss hypergeometric series.  These are the
only special functions the closed-form indefinite overlaps need; everything
is pure, reentrant and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MagnitudeError, PoleError

__all__ = ["Hyp2F1Terminating", "log_gamma", "hyp2f1_terminating"]


def log_gamma(x: float) -> float:
    """Return ln Gamma(x) for x > 0.

    Delegates to the C library's ``lgamma`` (relative error well below 1e-13
    on [0.5, 170], exact at the integers 1 and 2); this wrapper only narrows
    the domain to the positive half-line.
    """
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


@dataclass(frozen=True)
class Hyp2F1Terminating:
    """Parameters of a terminating Gauss series with first parameter -m.

    The sum has exactly ``m + 1`` terms:

        sum_{k=0}^{m} (-m)_k (b)_k / ((c)_k k!) z^k
    """

    m: int
    b: float
    c: float
    z: float

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise DomainError(f"terminating series needs integer m >= 0, got {self.m!r}")
        for name in ("b", "c", "z"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"parameter {name} must be finite")


def hyp2f1_terminating(p: Hyp2F1Terminating) -> float:
    """Evaluate the terminating series by term-to-term recurrence.

    Terms are accumulated in order k = 0..m without compensation; at desk
    scale (m up to a few tens) the terms grow and shrink tamely.  A zero
    Pochhammer factor (c)_k met while the numerator is still alive raises
    :class:`PoleError`.
    """
    total = 1.0
    term = 1.0
    for k in range(p.m):
        num = (-p.m + k) * (p.b + k) * p.z
        den = (p.c + k) * (k + 1)
        if den == 0.0:
            if term != 0.0 and num != 0.0:
                raise PoleError(
                    f"Pochhammer pole: c + k = 0 at k = {k} with nonzero numerator"
                )
            break
        term = term * num / den
        if term == 0.0:
            break  # numerator exhausted early (b a nonpositive integer)
        total += term
    if not math.isfinite(total):
        raise MagnitudeError("terminating series left the representable range")
    return total

