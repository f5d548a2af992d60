"""Exception types shared across the package."""


class MatChainError(Exception):
    """Base class for all errors raised by this package."""


class ParameterRangeError(MatChainError, ValueError):
    """A structural parameter (bandwidth, size, count) is out of range."""


class DegeneratePointError(MatChainError, ValueError):
    """A parameterization was evaluated at a non-smooth or invalid point."""


class NonMemberError(MatChainError, ValueError):
    """A fit's target lies outside the space its chain's products lie in."""


class NonGenericMatrixError(MatChainError, ValueError):
    """The input sits on the genericity boundary of an algorithm (e.g. a
    vanishing leading minor stops pivot-free elimination)."""


class InfeasibleProblemError(MatChainError, ValueError):
    """A decomposition problem fails the dimension count outright."""


class MatrixParseError(MatChainError, ValueError):
    """A matrix file could not be parsed.

    Carries the 1-based line and column of the offending token when known.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
            message = message + where
        super().__init__(message)
