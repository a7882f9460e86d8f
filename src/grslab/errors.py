"""Exception taxonomy.

Every failure mode raised by this package derives from :class:`GrslabError`,
so callers can distinguish library errors from genuine bugs (which surface as
built-in exceptions).
"""


class GrslabError(Exception):
    """Base class for all grslab errors."""


class DomainError(GrslabError):
    """An argument lies outside the mathematical domain of an operation."""


class MagnitudeError(GrslabError):
    """An intermediate or final value left the representable floating-point range.

    Raised instead of silently returning IEEE infinities so that verification
    reports stay interpretable.
    """


class NumericError(GrslabError):
    """A numerical kernel (eigensolver, quadrature construction) failed."""


class StructureError(GrslabError):
    """Incompatible representations: mismatched bases or grids, or an
    operation applied to a representation it does not support."""


class ResolutionError(GrslabError):
    """A grid is too coarse (or has too much boundary mass) for the request."""


class GrammarError(GrslabError):
    """A symbolic function expression could not be parsed."""


class NotJOrthonormalError(GrslabError):
    """A family failed the indefinite-orthonormality precondition."""
