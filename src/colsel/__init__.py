"""Deterministic column subset selection with a fixed block.

Select k columns of a candidate matrix to supplement a fixed block so
that the pseudoinverse of the combined matrix has provably bounded
Frobenius and spectral norms.  The selector runs a greedy loop over
expected characteristic polynomials, locating smallest roots by Newton's
method inside certified brackets: a sign of the polynomial shows a root
at or below the upper end, and a Budan-Fourier or Sturm count of zero
shows no root at or below the lower end.  An exhaustive oracle and
barrier-function checks make every step independently verifiable.
"""
from .errors import (
    AlgorithmFailure,
    DeflationFailure,
    DimensionMismatch,
    FormatError,
    InvalidInput,
    InvalidSubset,
    NotRealRooted,
    RankDeficient,
    TooLarge,
)
from .expected_charpoly import (
    IsotropicInstance,
    charpoly_psd,
    expected_poly,
    root_sum_identity_check,
)
from .linalg import (
    DenseMatrix,
    SvdFactors,
    columns,
    gram_update,
    hcat,
    norms_sq,
    pseudoinverse,
    thin_svd,
)
from .oracle import (
    EnumerationResult,
    barrier,
    barrier_descent_check,
    brute_force,
    companion_smallest_root,
    interlacing_check,
)
from .poly import (
    Polynomial,
    count_roots_leq,
    derivative,
    is_real_rooted,
    smallest_root,
    sturm_chain,
)
from .selector import (
    SelectionProblem,
    SelectionReport,
    TraceStep,
    build_isotropic,
    gamma,
    greedy_select,
    min_singular_check,
    verify_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmFailure",
    "DeflationFailure",
    "DimensionMismatch",
    "FormatError",
    "InvalidInput",
    "InvalidSubset",
    "NotRealRooted",
    "RankDeficient",
    "TooLarge",
    "DenseMatrix",
    "SvdFactors",
    "thin_svd",
    "pseudoinverse",
    "norms_sq",
    "columns",
    "hcat",
    "gram_update",
    "Polynomial",
    "derivative",
    "sturm_chain",
    "count_roots_leq",
    "smallest_root",
    "is_real_rooted",
    "IsotropicInstance",
    "charpoly_psd",
    "expected_poly",
    "root_sum_identity_check",
    "SelectionProblem",
    "SelectionReport",
    "TraceStep",
    "gamma",
    "build_isotropic",
    "greedy_select",
    "verify_bound",
    "min_singular_check",
    "EnumerationResult",
    "brute_force",
    "barrier",
    "barrier_descent_check",
    "companion_smallest_root",
    "interlacing_check",
    "__version__",
]
