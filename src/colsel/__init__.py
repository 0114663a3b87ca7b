"""Deterministic column subset selection with a fixed block.

Select k columns of a candidate matrix to supplement a fixed block so
that the pseudoinverse of the combined matrix has provably bounded
Frobenius and spectral norms.  The selector runs a greedy loop over
expected characteristic polynomials, locating smallest roots by Laguerre's
method inside certified brackets: a sign of the polynomial, from plain
Horner where it clears a rounding-error bound and compensated Horner
otherwise, shows a root at or below the upper end, and a Budan-Fourier
or Sturm count of zero shows no root at or below the lower end.  An
exhaustive oracle and barrier-function checks make every step
independently verifiable.

The root exports the selection path; helpers stay in ``colsel.linalg``,
``colsel.poly``, ``colsel.expected_charpoly`` and ``colsel.oracle``.
"""
from .errors import (
    AlgorithmFailure,
    DimensionMismatch,
    FormatError,
    InvalidInput,
    InvalidSubset,
    NotRealRooted,
    RankDeficient,
    TooLarge,
)
from .linalg import DenseMatrix
from .oracle import EnumerationResult, brute_force
# kept at the root only for the benchmark tracer, which wraps colsel.smallest_root
from .poly import Polynomial, smallest_root
from .selector import (
    SelectionProblem,
    SelectionReport,
    TraceStep,
    gamma,
    greedy_select,
    verify_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmFailure",
    "DimensionMismatch",
    "FormatError",
    "InvalidInput",
    "InvalidSubset",
    "NotRealRooted",
    "RankDeficient",
    "TooLarge",
    "DenseMatrix",
    "SelectionProblem",
    "SelectionReport",
    "TraceStep",
    "gamma",
    "greedy_select",
    "verify_bound",
    "EnumerationResult",
    "brute_force",
    "Polynomial",
    "smallest_root",
    "__version__",
]
