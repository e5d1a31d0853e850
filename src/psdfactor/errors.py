"""Exception types shared by all psdfactor engines.

``HypothesisError`` subclasses signal that a theorem-level hypothesis of the
requested operation fails (these are hard errors, never silent infeasibility);
``ParseError`` signals malformed wire input.  The CLI maps hypothesis errors
to exit code 2 and every other error here to exit code 3.
"""


class PsdFactorError(Exception):
    """Base class for all psdfactor errors."""


class HypothesisError(PsdFactorError):
    """A precondition of the invoked operation does not hold."""


class NotHermitian(HypothesisError):
    pass


class NotPSD(HypothesisError):
    pass


class NotSquare(HypothesisError):
    pass


class DimensionMismatch(HypothesisError):
    pass


class NotNonnegSelfadjoint(HypothesisError):
    pass


class HypothesisFailed(HypothesisError):
    """A solver-specific hypothesis gate failed (e.g. T*B not Hermitian PSD)."""


class NotIntertwining(HypothesisError):
    pass


class NotInvertible(HypothesisError):
    pass


class NotScalarNonneg(HypothesisError):
    pass


class NotNonneg(HypothesisError):
    pass


class NoConvergence(PsdFactorError):
    """An iterative kernel exceeded its iteration cap."""


class UnrepresentableSymbol(PsdFactorError):
    """The exact result leaves the head-plus-power-tail symbol class."""


class ParseError(PsdFactorError):
    """Malformed JSON payload; carries a human-readable location."""
