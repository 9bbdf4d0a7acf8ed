"""Exception types shared across the library."""


class ShapeError(ValueError):
    """Operands have non-conformable or otherwise invalid dimensions."""


class ParseError(ValueError):
    """Malformed scalar, matrix, or corpus input."""


class SingularMatrixError(ArithmeticError):
    """An exact inverse was requested for a rank-deficient matrix."""


class NoGroupInverseError(ArithmeticError):
    """Group inverse requested for a matrix of index >= 2."""


class ConditionsViolatedError(ValueError):
    """A transfer operation was invoked on a quadruple that fails the side conditions.

    Carries the labels of the failed conditions so callers can report them.
    """

    def __init__(self, message, labels=()):
        super().__init__(message)
        self.labels = tuple(labels)


class IdentityFalsifiedError(ArithmeticError):
    """A claimed identity was evaluated exactly and the two sides differ.

    Carries both sides so callers can report the discrepancy.
    """

    def __init__(self, message, lhs=None, rhs=None):
        super().__init__(message)
        self.lhs = lhs
        self.rhs = rhs


class InternalInvariantError(RuntimeError):
    """A self-check inside a kernel failed; indicates a bug, not bad input."""


class GenerationExhaustedError(RuntimeError):
    """Rejection sampling failed to produce an instance within the attempt bound."""
