"""Exception types shared across the package."""


class LclError(Exception):
    """Base class for errors raised by this package; `exit_status` is the
    command line's exit code for it (2 bad input, 3 numerical failure)."""

    exit_status = 2


class ExpressionError(LclError):
    """Problem with a curvature expression string.

    `offset` is the byte offset into the source text where the problem
    was detected, or None when no position applies.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class ExpressionSyntaxError(ExpressionError):
    pass


class UnknownIdentifierError(ExpressionError):
    pass


class EvaluationError(LclError):
    """Expression evaluated to a non-finite value (division by zero, log of
    a nonpositive number, and similar domain faults)."""


class OutOfDomainError(LclError):
    """Requested arc-length parameter lies outside the profile domain."""


class ProfileError(LclError):
    """Curvature profile violates a family rule (zero curvature where the
    frame equations forbid it, pseudo null kappa != 1, bad domain)."""


class ConfigError(LclError):
    """Bad run parameter (step size, tolerance, malformed sweep spec), or
    an input file that is not UTF-8 JSON."""


class IntegrationError(LclError):
    """Frame integration aborted; the message carries the diagnostic."""

    exit_status = 3


class FrameError(LclError):
    """Bad initial frame or alpha0: wrong shape, non-finite, or off the Gram targets."""

    exit_status = 3


class GridMismatchError(LclError):
    """Axis candidate and trace were sampled on different grids."""


class DegenerateAxisError(LclError):
    """Axis construction is not defined for the fitted constants."""
