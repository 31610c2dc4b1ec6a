"""Exception types shared across the package."""


class OrtholatError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(OrtholatError):
    """Operands have incompatible dimensions."""


class NoConvergence(OrtholatError):
    """Eigensolver failed to converge within the sweep budget."""


class NotPositive(OrtholatError):
    """An input required to be positive semidefinite is not."""


class InternalInconsistency(OrtholatError):
    """Independent routes to the same verdict disagree beyond tolerance.

    Signals a numerical-tolerance failure, not a mathematical one.
    """


class PreconditionFailed(OrtholatError):
    """An operation's stated precondition does not hold."""


class ComparablePair(OrtholatError):
    """The two operands are comparable in the Loewner order."""

