"""Exception hierarchy shared across the package."""


class SohbError(Exception):
    """Base class for all package-specific errors."""


class DegenerateAverage(SohbError):
    """The averaged orientation is too degenerate to define a target.

    Raised when a matrix average m has det(m) <= DELTA_DET * (|m|_F^2 / 3)^(3/2)
    (no well-defined polar rotation; the floor is relative, so it does not
    depend on how the average is normalized) or a Q-tensor average has an
    eigenvalue gap <= DELTA_GAP (no unique leading eigenvector), both
    constants of ``rotations``.
    """


class BoxTooSmall(SohbError):
    """A periodic box edge is shorter than twice the interaction radius."""


class NoConvergence(SohbError):
    """An iterative solve failed to reach its residual tolerance."""


class DomainError(SohbError):
    """An argument lies outside the mathematical domain of the function."""


class SignDiscontinuity(SohbError):
    """Adjacent quaternion nodes are not sign-continuous (lift is broken)."""


class CflViolation(SohbError):
    """The requested time step violates the CFL-like stability bound."""


class ConfigError(SohbError):
    """Base class for configuration loading problems."""


class ParseError(ConfigError):
    """The configuration file is not valid JSON."""


class SchemaError(ConfigError):
    """The configuration violates the JSON schema.

    Attributes:
        path: dotted path of the offending field ("" for the document root).
    """

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


class TooFewSamples(SohbError):
    """A statistical estimator received fewer samples than it supports."""
