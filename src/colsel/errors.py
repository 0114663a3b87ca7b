"""Exception types shared across the package."""
from __future__ import annotations


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class InvalidSubset(ValueError):
    """A column index set is out of range or contains duplicates."""


class DimensionMismatch(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class RankDeficient(ValueError):
    """A matrix that must have full row rank does not."""


class DeflationFailure(ArithmeticError):
    """Synthetic division left a remainder above tolerance.

    Signals either numerical breakdown or a caller bug: the input was
    supposed to be exactly divisible by the given power of (x - 1).
    """


class NotRealRooted(ArithmeticError):
    """A polynomial expected to be real-rooted has no root in its bracket."""


class AlgorithmFailure(RuntimeError):
    """The greedy selection loop could not complete.

    ``report`` is the :class:`~colsel.selector.SelectionReport` that broke
    the proven guarantees, where the run got that far, and ``None``
    otherwise.  It is not part of ``args``, so ``str(exc)`` is the message.
    """

    def __init__(self, *args: object, report=None) -> None:
        super().__init__(*args)
        self.report = report


class TooLarge(ValueError):
    """An enumeration request exceeds the combinatorial guard."""


class FormatError(ValueError):
    """A matrix file is malformed."""
