"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when a measure, matrix, parameter or input file is malformed."""


class DimensionCapError(InvalidInputError):
    """Raised when a lift would exceed the configured ambient-dimension cap."""


class BudgetExhaustedError(RuntimeError):
    """Raised when an enumeration would exceed the word/length/time budget.

    Attributes
    ----------
    reason : str
        One of ``"max_words"``, ``"max_word_length"``, ``"wall_clock"``.
    length : int or None
        The word length whose evaluation was refused, when applicable.
    """

    def __init__(self, message, reason="max_words", length=None):
        super().__init__(message)
        self.reason = reason
        self.length = length


class InvertedIntervalError(RuntimeError):
    """Raised when a certified lower end reaches the upper: an internal error."""
