"""Dense real matrix arithmetic: thin SVD, pseudoinverse, norms, slicing.

Everything here is a pure function on immutable values.  Matrices are
small (tens of rows/columns), so the implementation leans on LAPACK via
numpy and favours clarity over asymptotics.
"""
from __future__ import annotations

import contextlib
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInput, InvalidSubset

__all__ = [
    "DenseMatrix",
    "SvdFactors",
    "thin_svd",
    "pseudoinverse",
    "norms_sq",
    "columns",
    "hcat",
    "gram_update",
]

DEFAULT_RANK_TOL = 1e-12


class DenseMatrix:
    """Immutable dense real matrix.

    Entries are stored row-major as a read-only C-contiguous float64
    array, from ``data`` by the package's rule for real arrays
    (:func:`_real_array`), so anything but a 2-d array of finite real
    numbers raises :class:`InvalidInput`; zero column counts are allowed
    (an empty fixed block is a legitimate input).
    """

    __slots__ = ("data",)

    data: np.ndarray

    def __init__(self, data: np.ndarray | Sequence[Sequence[float]]):
        a = _real_array(data, 2, "matrix data")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(np.eye(n))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which __eq__ already equates
        return hash((self.shape, (self.data + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``q = u @ diag(sigma) @ vt`` truncated at numerical rank.

    ``sigma`` is strictly positive and non-increasing; ``u`` is
    ``rows x rank`` with orthonormal columns and ``vt`` is
    ``rank x cols`` with orthonormal rows.
    """

    u: DenseMatrix
    sigma: tuple[float, ...]
    vt: DenseMatrix
    rank: int


def thin_svd(q: DenseMatrix) -> SvdFactors:
    """Thin SVD truncated at numerical rank.

    The numerical rank is the number of singular values
    ``sigma > DEFAULT_RANK_TOL * sigma_max`` (``1e-12``); the rest are
    dropped.  Every rank the package decides (of ``[a b]``, of ``a``, of a
    selected subset) reads this one rule.
    """
    a = q.data
    if a.size == 0:
        return SvdFactors(
            u=DenseMatrix(np.zeros((q.rows, 0))),
            sigma=(),
            vt=DenseMatrix(np.zeros((0, q.cols))),
            rank=0,
        )
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = 0 if s[0] <= 0.0 else int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))
    return SvdFactors(
        u=DenseMatrix(u[:, :rank]),
        sigma=tuple(float(v) for v in s[:rank]),
        vt=DenseMatrix(vt[:rank, :]),
        rank=rank,
    )


def pseudoinverse(q: DenseMatrix) -> DenseMatrix:
    """Moore-Penrose pseudoinverse ``V diag(1/sigma) U^T`` from the thin SVD.

    The pseudoinverse of a zero (or empty) matrix is the zero matrix of
    transposed shape.
    """
    f = thin_svd(q)
    if f.rank == 0:
        return DenseMatrix.zeros(q.cols, q.rows)
    inv = f.vt.data.T / np.asarray(f.sigma)
    return DenseMatrix(inv @ f.u.data.T)


def norms_sq(q: DenseMatrix) -> tuple[float, float]:
    """Return ``(frobenius_sq, spectral_sq)`` of ``q``.

    ``spectral_sq`` is clamped to ``frobenius_sq`` so the exact
    inequality ``sigma_max^2 <= sum sigma_i^2`` survives rounding.
    """
    a = q.data
    frob_sq = float(np.sum(a * a))
    if a.size == 0:
        return 0.0, 0.0
    s = np.linalg.svd(a, compute_uv=False)
    spec_sq = float(s[0]) ** 2
    return frob_sq, min(spec_sq, frob_sq)


def _as_index(value: object, error: type[ValueError], what: str) -> int:
    """``operator.index(value)``: Python and numpy integers pass; a bool
    (Python's or numpy's), a float or any other non-integer raises ``error``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _as_indices(values: Iterable[object], count: int, error: type[ValueError]) -> list[int]:
    """``values`` as distinct integer column indices in ``[0, count)``, or ``error``,
    also where ``values`` is not iterable."""
    try:
        items = iter(values)
    except TypeError:
        raise error(f"column indices must be an iterable of integers, got {values!r}") from None
    idx = [_as_index(j, error, "column index") for j in items]
    for j in idx:
        if not 0 <= j < count:
            raise error(f"column index {j} out of range [0, {count})")
    if len(set(idx)) != len(idx):
        raise error(f"duplicate column indices in {idx}")
    return idx


def _real_array(data: object, ndim: int, what: str) -> np.ndarray:
    """``data`` as a fresh C-contiguous ``ndim``-dimensional float64 array
    of finite entries, or :class:`InvalidInput` naming it as ``what``: the
    one rule for every real array the package takes.

    Bool, integer and float data convert, as do other numbers ``float()``
    takes, such as a ``Fraction`` or an int too large for an int64, each
    to the float ``float()`` gives it.  Ragged rows, strings and bytes
    (even ones that parse as numbers), complex entries (even with a zero
    imaginary part), ``None``, dates, records, ints beyond the float range
    and anything else ``float()`` rejects raise, as does a NaN or infinite
    entry.  A 1-d ``data`` is read with ``list()`` first, so it may be any
    iterable, such as a generator, and a string reads as its characters,
    which are strings.  Each of these raises whatever the warning filters.
    """
    try:
        a = np.asarray(list(data) if ndim == 1 else data)
        # bool, integer, float, or objects for float(): strings and bytes
        # would parse as numbers, and dates or records convert silently
        if a.dtype.kind not in "biufO":
            raise TypeError(f"got dtype {a.dtype}")
        # the cast of an object array would parse a string, take a NumPy
        # complex number's real part and read None as NaN
        if a.dtype.kind == "O" and any(
            isinstance(v, (str, bytes, complex, np.complexfloating, type(None))) for v in a.flat
        ):
            raise TypeError("got a string, bytes, complex or None entry")
        a = np.array(a, dtype=float, order="C", copy=True)
    except (TypeError, ValueError, OverflowError, RuntimeWarning) as exc:
        # also ragged rows, 10**400, {}, and, where warnings are errors, the
        # cast's overflow warning for a long double beyond the float range
        raise InvalidInput(f"{what} must be real numbers: {exc}") from None
    if a.ndim != ndim:
        raise InvalidInput(f"{what} must be {ndim}-dimensional, got ndim={a.ndim}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise InvalidInput(f"{what} must be finite (no NaN/Inf)")
    return a


def _as_real(value: object, error: type[ValueError], what: str) -> float:
    """``float(value)``: the one rule for every real scalar the package
    takes.  A ``numbers.Real`` that is neither a bool (Python's or NumPy's)
    nor NaN passes, infinities included; a string, a complex number, an
    int beyond the float range or anything else raises ``error``.  A float,
    the type of every value the greedy loop passes, skips the slower
    abstract-class check."""
    if type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range, such as 10**400
            if (x := float(value)) == x:  # not NaN
                return x
    raise error(f"{what} must be a real number other than NaN, got {value!r}")


def _wrap(a: np.ndarray) -> DenseMatrix:
    """``a`` as a :class:`DenseMatrix` without a copy or a finiteness scan.

    Only for a fresh C-contiguous 2-d float64 array with finite entries
    that nothing else holds; it is set read-only here.
    """
    a.setflags(write=False)
    q = object.__new__(DenseMatrix)
    object.__setattr__(q, "data", a)
    return q


def columns(q: DenseMatrix, s: Iterable[int]) -> DenseMatrix:
    """Extract the columns of ``q`` indexed by the integers ``s``, in the order listed."""
    # take() returns a fresh C-contiguous copy, finite because q's entries are
    return _wrap(q.data.take(_as_indices(s, q.cols, InvalidSubset), axis=1))


def hcat(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Columns of ``a`` followed by columns of ``b``.

    ``np.hstack`` returns a fresh C-contiguous float64 array, finite
    because both inputs' entries are, so it is wrapped as it is, with no
    second copy or finiteness scan.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(f"row counts differ: {a.rows} vs {b.rows}")
    return _wrap(np.hstack([a.data, b.data]))


def gram_update(g: DenseMatrix, y: np.ndarray | Sequence[float]) -> DenseMatrix:
    """Rank-one update ``g + y y^T`` of a symmetric Gram matrix; ``y`` is a
    real vector (:func:`_real_array`)."""
    v = _real_array(y, 1, "y")
    if g.rows != g.cols:
        raise DimensionMismatch(f"gram matrix must be square, got {g.rows}x{g.cols}")
    if v.shape[0] != g.rows:
        raise DimensionMismatch(f"vector length {v.shape[0]} != matrix size {g.rows}")
    return DenseMatrix(_gram_updates(g.data, v[:, None])[0])


def _gram_updates(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The ``(C, n, n)`` stack ``g + v_c v_c^T`` over the columns ``v_c`` of the
    ``n x C`` array ``v``, from one broadcast; :func:`gram_update` is its
    one-column case."""
    t = v.T
    return g + t[:, :, None] * t[:, None, :]
