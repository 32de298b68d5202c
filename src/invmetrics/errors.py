"""Exception types shared across the library.

Error class names are part of the public contract: the CLI reports them
verbatim, so they are spelled without an ``Error`` suffix.
"""


class InvMetricsError(Exception):
    """Base class for every library-specific error."""


class OutOfDomain(InvMetricsError):
    """A point is outside the domain the operation requires."""


class DegenerateMap(InvMetricsError):
    """Coefficient matrix is singular within the degeneracy tolerance."""


class NotFixed(InvMetricsError):
    """A point claimed to be fixed is moved by more than the tolerance."""

    def __init__(self, point, residual=None):
        self.point = point
        self.residual = residual
        msg = f"point {point!r} is not fixed"
        if residual is not None:
            msg += f" (residual {residual:.3e})"
        super().__init__(msg)


class Inconsistent(InvMetricsError):
    """Numerically verified facts contradict an exact algebraic identity."""


class ParseError(InvMetricsError):
    """Malformed serialized input."""

    def __init__(self, message, line=None, offset=None):
        self.line = line
        self.offset = offset
        if line is not None:
            message = f"{message} (line {line}, offset {offset})"
        super().__init__(message)


class ValidationError(InvMetricsError):
    """Structurally well-formed input violates a domain invariant."""


class Unsupported(InvMetricsError):
    """The operation is not defined for this domain variant."""


class NonConvergence(InvMetricsError):
    """An enumeration or iteration failed to certify within its budget."""


class Disconnected(InvMetricsError):
    """Two grid cells are not joined by any path of domain cells."""


class MarginTooSmall(InvMetricsError):
    """The sampled sub-grid does not leave room for the requested radii."""


class EmptyBall(InvMetricsError):
    """A rasterized metric ball contains no cell."""


class EmptyRegion(InvMetricsError):
    """A raster operation received an empty region."""


class NoCorridor(InvMetricsError):
    """No dilation step separates the two complement components."""


class LabelNotBounded(InvMetricsError):
    """A bounded complement component was required."""


class OnBoundary(InvMetricsError):
    """The query point lies on the polygon."""


class WrongConnectivity(InvMetricsError):
    """The grid does not have the connectivity the operation requires."""


class SolverDivergence(InvMetricsError):
    """The linear solver failed to reach the target residual.

    ``iterations`` and ``residual`` (the true relative residual
    ||b - Ax|| / ||b||) record the solver state when it stopped.
    """

    def __init__(self, message, iterations=None, residual=None):
        self.iterations = iterations
        self.residual = residual
        if iterations is not None:
            message = (f"{message} after {iterations} iterations "
                       f"(relative residual {residual:.3e})")
        super().__init__(message)


class CoverScaleTooLarge(InvMetricsError):
    """Cover radius exceeds half the certified injectivity bound."""


class NotMobiusRepresentable(InvMetricsError):
    """The map has no exact Mobius representation in the catalog."""


class NonPositive(InvMetricsError):
    """A strictly positive quantity was required."""


class DegenerateEndpoints(InvMetricsError):
    """A curve operation received two equal endpoints."""


class TheoremViolation(InvMetricsError):
    """A mathematically guaranteed property failed numerically.

    This always indicates a bug somewhere in the pipeline, never a fact
    about the input; the CLI maps it to its own exit code.
    """
