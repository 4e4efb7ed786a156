"""Exception types shared across the package."""


class LdnkitError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(LdnkitError):
    """A matrix is singular to working precision.

    Raised when its 1-norm condition number reaches 1 / eps (about 4.5e15),
    past which a solve would return rounding noise.
    """


class GenerationFailedError(LdnkitError):
    """Random basis generation exhausted its retry budget."""


class IncompatibleStepError(LdnkitError):
    """The sample period does not divide the window length, or overflows a step."""


class NonUniformSignalError(LdnkitError):
    """A signal's time column is not uniformly spaced."""


class FormatError(LdnkitError):
    """A document, CSV file, or basis file could not be parsed."""
