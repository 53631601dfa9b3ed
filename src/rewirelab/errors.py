"""Exception hierarchy and default seed shared by all rewirelab modules.

This module imports nothing, so the command line reads both before it loads
any numerical module.
"""

#: Fixed default seed so every pipeline run is reproducible by construction.
DEFAULT_SEED = 1729


class RewireLabError(Exception):
    """Base class for every error raised by this package."""


# -- graph construction and editing ------------------------------------------


class OutOfRangeVertex(RewireLabError):
    pass


class SelfLoop(RewireLabError):
    pass


class DuplicateEdge(RewireLabError):
    pass


class AdditionAlreadyPresent(RewireLabError):
    pass


class RemovalAbsent(RewireLabError):
    pass


class IsolatedVertex(RewireLabError):
    pass


class InfeasibleParameters(RewireLabError):
    pass


class MalformedHeader(RewireLabError):
    pass


class MalformedEdgeLine(RewireLabError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# -- numerical / exact computation --------------------------------------------


class ConvergenceFailure(RewireLabError):
    """Iterative eigensolver ran out of budget; carries the best estimate."""

    def __init__(self, message: str, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class ExactLimitExceeded(RewireLabError):
    pass


class DimensionMismatch(RewireLabError):
    pass


# -- cuts and bisection --------------------------------------------------------


class EmptySide(RewireLabError):
    pass


class ZeroVolumeSide(RewireLabError):
    pass


class OddVertexCount(RewireLabError):
    pass


# -- rewiring ------------------------------------------------------------------


class SearchSpaceTooLarge(RewireLabError):
    pass


class DisconnectedPair(RewireLabError):
    pass


class SameVertex(RewireLabError):
    pass


class EdgeAbsent(RewireLabError):
    pass


class SingularSystem(RewireLabError):
    pass


# -- reductions ------------------------------------------------------------------


class CertificationFailure(RewireLabError):
    def __init__(self, message: str, best_lambda2=None):
        super().__init__(message)
        self.best_lambda2 = best_lambda2


class DegreeTooHigh(RewireLabError):
    pass


class PadCompletionFailure(RewireLabError):
    pass


class ConstantConditionViolated(RewireLabError):
    pass
