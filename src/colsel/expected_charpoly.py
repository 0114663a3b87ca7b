"""Expected characteristic polynomials over size-k column subsets.

Given an isotropic instance (orthonormal-row ``y``, fixed block Gram
``gram_fixed``), the polynomial attached to a partial selection of size
``j`` is the average of ``det[xI - gram(S)]`` over all size-``k``
supersets ``S`` of the partial.  It is computed without enumeration from
the partial's characteristic polynomial, written in the basis
``y = x - 1`` as ``sum c_i y^i``.  There the operator "multiply by
``y^a``, differentiate ``d`` times, divide by ``y^(a-d)``" (with
``a = m - n - j`` and ``d = k - j``) is one weight per coefficient:

    f_i = c_i * prod_{t<d} (i+a-t) / (n+a-t)

and the result is already monic of degree ``n``.  It is returned in that
basis, as the coefficients ``f_i`` of ``y^i``: its roots are those of
the average in ``x``, each less one.  Only :func:`charpoly_psd` returns
a polynomial in ``x``.

The greedy loop scores every remaining candidate of an iteration, and
each candidate's Gram is the partial's Gram ``G`` plus ``v v^T``.  So
the transform takes ``G`` and the candidate columns ``v``: one ``eigh``
of ``G`` gives its roots ``r = mu - 1`` and the weights
``w = (Q^T v)^2``, and by the matrix determinant lemma

    det[(y + 1)I - G - v v^T] = p_G(y) - sum_i w_i p_G(y) / (y - r_i),
    p_G(y) = det[(y + 1)I - G] = prod_i (y - r_i),

every candidate's coefficients are ``p_G``'s less one matrix product of
``w`` with those of the ``n`` quotients ``p_G / (y - r_i)``.  No
candidate's Gram is formed and none is decomposed.  The stacked path,
one :func:`_psd_eigh` per candidate Gram, is kept as a reference in
:mod:`colsel.oracle`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .linalg import DenseMatrix, _as_index, _as_indices, gram_update, thin_svd
from .poly import Polynomial, _from_roots_rows, _wrap, from_roots

__all__ = [
    "IsotropicInstance",
    "charpoly_psd",
    "expected_poly",
    "expected_poly_from_gram",
    "root_sum_identity_check",
]

_SYMMETRY_TOL = 1e-10
_EIGENVALUE_CLAMP_TOL = 1e-12
_ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class IsotropicInstance:
    """Selection instance in the isotropic frame ``y y^T = I``.

    ``y`` is ``n x (l + m)``: the fixed block, then the ``m`` candidates.
    Only this class knows that layout; the rest of the package reads the
    views :attr:`fixed` and :attr:`candidates` and names candidate ``j``
    by its column ``j`` of ``b``.  ``r`` is the rank of the fixed block,
    decided by the caller (``from_y`` takes it with
    :func:`~colsel.linalg.thin_svd`) in ``[0, min(n, l)]``, and ``k`` is
    the selection budget with ``max(1, n - r) <= k <= m - 1``.  ``y`` is a
    :class:`~colsel.linalg.DenseMatrix`, and ``l``, ``r`` and ``k`` are
    integers (a bool is not).
    """

    y: DenseMatrix
    l: int
    r: int
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.y, DenseMatrix):
            raise InvalidInput(f"y must be a DenseMatrix, got {type(self.y).__name__}")
        for name in ("l", "r", "k"):
            object.__setattr__(self, name, _as_index(getattr(self, name), InvalidInput, name))
        n = self.y.rows
        if not 0 <= self.l <= self.y.cols:
            raise InvalidInput(f"fixed block width l={self.l} outside [0, {self.y.cols}]")
        if not 0 <= self.r <= min(n, self.l):
            raise InvalidInput(
                f"fixed block rank r={self.r} outside [0, min(n, l)] = [0, {min(n, self.l)}]"
            )
        gram = self.y.data @ self.y.data.T
        if np.max(np.abs(gram - np.eye(n))) > _ORTHONORMALITY_TOL:
            raise InvalidInput("rows of y are not orthonormal: y y^T != I to 1e-8")
        if not max(1, n - self.r) <= self.k <= self.m - 1:
            raise InvalidInput(
                f"selection budget k={self.k} outside [max(1, n - r), m - 1] = "
                f"[{max(1, n - self.r)}, {self.m - 1}]"
            )

    @classmethod
    def from_y(cls, y: DenseMatrix, l: int, k: int) -> "IsotropicInstance":
        """Build an instance from ``y`` alone, taking ``r`` as the numerical
        rank of its first ``l`` columns."""
        r = thin_svd(DenseMatrix(y.data[:, : _as_index(l, InvalidInput, "l")])).rank
        return cls(y=y, l=l, r=r, k=k)

    @property
    def n(self) -> int:
        return self.y.rows

    @property
    def m(self) -> int:
        return self.y.cols - self.l

    @property
    def fixed(self) -> np.ndarray:
        """The fixed block, a read-only ``n x l`` view of ``y``."""
        return self.y.data[:, : self.l]

    @property
    def candidates(self) -> np.ndarray:
        """The candidates, a read-only ``n x m`` view of ``y``: column ``j`` carries ``b``'s."""
        return self.y.data[:, self.l :]

    @cached_property
    def gram_fixed(self) -> DenseMatrix:
        """Gram matrix ``y_F y_F^T`` of the fixed block (``n x n``)."""
        return DenseMatrix(self.fixed @ self.fixed.T)


def _psd_eigenvalues(grams: np.ndarray) -> np.ndarray:
    """Eigenvalues of each symmetric PSD matrix of the ``(C, n, n)`` stack
    ``grams``, one row per matrix, ascending: :func:`_psd_eigh` on one
    matrix at a time, so each is checked and clamped against its own
    scale, and a failure names it as ``matrix i of the stack``.
    """
    if grams.ndim != 3 or grams.shape[1] != grams.shape[2]:
        raise InvalidInput(f"matrices must be a (C, n, n) stack, got shape {grams.shape}")
    eig = [_psd_eigh(g, f"matrix {i} of the stack")[0] for i, g in enumerate(grams)]
    return np.reshape(eig, grams.shape[:2])  # (0, n) for an empty stack


def _psd_eigh(gram: np.ndarray, name: str = "gram") -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and eigenvectors, as columns, of the
    symmetric PSD matrix ``gram``: the one eigensolver every Gram spectrum
    in the package goes through.

    ``gram`` must be finite and symmetric to ``1e-10`` of its scale
    ``max(1, max|G|)``: the largest entry of ``G - G^T`` is its largest
    absolute one, since a rounded difference changes sign exactly with its
    operands.  Its mildly negative eigenvalues (rounding noise), down to
    ``-1e-12`` of that scale, are set to zero; they come first, so a
    spectrum whose first eigenvalue is not negative is returned as
    ``eigh`` gives it.  A failure raises :class:`InvalidInput` naming
    ``gram`` as ``name``.
    """
    # max propagates NaN, so the largest entry is finite only if all are
    largest = np.abs(gram).max(initial=0.0)
    if not largest < math.inf:
        raise InvalidInput(f"{name} has a non-finite entry")
    scale = max(1.0, float(largest))
    if (gram - gram.T).max(initial=0.0) > _SYMMETRY_TOL * scale:
        raise InvalidInput(f"{name} is not symmetric to 1e-10")
    try:
        mu, q = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        raise InvalidInput(f"eigenvalues of {name} did not converge") from None
    if mu.size and mu[0] < 0.0:
        clamp = _EIGENVALUE_CLAMP_TOL * scale
        mu = np.where((-clamp <= mu) & (mu < 0.0), 0.0, mu)
    return mu, q


def charpoly_psd(g: DenseMatrix) -> Polynomial:
    """Monic characteristic polynomial of a symmetric PSD matrix.

    Eigenvalues are computed with a symmetric solver and mildly negative
    ones (rounding noise) are clamped to zero before the root expansion.
    """
    return from_roots(_psd_eigenvalues(g.data[None])[0].tolist())


def _candidate_charpolys(gram: np.ndarray, v: np.ndarray, a: int) -> np.ndarray:
    """Row ``c``: the coefficients of ``det[(y + 1)I - gram - v_c v_c^T]``
    in powers of ``y = x - 1``, ascending, for each column ``v_c`` of the
    ``n x C`` array ``v``, from one eigendecomposition of ``gram``.

    With ``gram = Q diag(mu) Q^T``, ``r = mu - 1`` and ``w = (Q^T v_c)^2``,
    the row is ``p(y) - sum_i w_i p(y) / (y - r_i)``, ``p = prod (y - r_i)``
    (the matrix determinant lemma).  One root expansion gives ``p`` and
    the quotients at once: its row ``i + 1`` has ``r_i`` replaced by zero,
    which makes it ``y p(y) / (y - r_i)``, the quotient shifted exactly.
    The roots come in descending ``mu``, ascending ``|r|``: a partial Gram
    has ``0 <= mu <= 1`` (``y_S y_S^T <= y y^T = I``), and a product of
    factors ``y + |r|`` has no cancellation.

    ``a = m - n - j`` for the candidates' partial size ``j``.  For ``a < 0``
    the first ``-a`` coefficients of every row are set to exactly zero:
    the identity minus the Gram of a size-``j`` partial is a sum of
    ``m - j`` rank-one terms, so that Gram has eigenvalue one with
    multiplicity at least ``-a``.  For the same reason ``gram``, a
    size-``j - 1`` partial's, has at least ``-a - 1``; their roots are set
    to zero, and so are their weights, since ``gram + v v^T <= I`` puts
    ``v`` orthogonal to that eigenspace.  ``IsotropicInstance`` checks
    ``y y^T = I`` to 1e-8.
    """
    n = gram.shape[0]
    mu, q = _psd_eigh(gram)
    r = mu[::-1] - 1.0
    w = np.square(q[:, ::-1].T @ v)
    if a < -1:
        r[: -a - 1] = 0.0
        w[: -a - 1] = 0.0
    # every root in row 0, and all but root i, set to zero, in row i + 1
    roots = np.empty((n + 1, n))
    roots[:] = r
    roots[1:].flat[:: n + 1] = 0.0
    c = _from_roots_rows(roots)
    rows = np.empty((v.shape[1], n + 1))
    rows[:, :n] = c[0, :n] - w.T @ c[1:, 1:]
    rows[:, n] = 1.0
    if a < 0:
        rows[:, :-a] = 0.0
    return rows


def _falling_weights(n: int, a: int, d: int) -> list[int]:
    """``prod_{t<d} (i+a-t)`` for ``i = 0..n``: the factor that multiplying
    by ``y^a``, differentiating ``d`` times and dividing by ``y^(a-d)``
    puts on ``y^i``.  Where ``i + a < 0`` the coefficient ``c_i`` is zero
    (see :func:`_candidate_charpolys`), so the weight is too."""
    return [math.perm(i + a, d) if i + a >= 0 else 0 for i in range(n + 1)]


def _weight_ratios(n: int, a: int, d: int) -> np.ndarray:
    """The weights of :func:`_falling_weights` over the leading one, which
    keep the result monic; Python-int true division rounds once, and the
    weights can exceed ``2**53``."""
    w = _falling_weights(n, a, d)
    return np.array([wi / w[n] for wi in w])


def expected_poly_from_gram(
    inst: IsotropicInstance, gram: np.ndarray, j: int, v: np.ndarray
) -> np.ndarray:
    """Expected polynomials of size-``j`` partials, one per column of the
    ``n x C`` array ``v``: the partial whose selected-plus-fixed Gram is
    ``gram`` (``n x n``) extended by that column.  Row ``c`` of the
    returned ``(C, n+1)`` array holds column ``c``'s coefficients in
    powers of ``y = x - 1``, ascending; every row is finite and monic of
    degree ``n``, so it is a :class:`~colsel.poly.Polynomial`'s
    coefficients as they are.

    All of them come from one eigendecomposition of ``gram`` and one
    matrix product (:func:`_candidate_charpolys`).  The products' blocking
    depends on the number of columns, so a row may differ in its last bits
    from the one ``v[:, [c]]`` alone gives.  An empty partial (``j = 0``)
    is scored by ``gram`` with a zero column.
    :class:`InvalidInput` names ``gram`` when it fails a check, and the
    position of a column of ``v`` that is not finite or whose polynomial
    is not.
    """
    if not 0 <= _as_index(j, InvalidInput, "partial size") <= inst.k:
        raise InvalidInput(f"partial size {j} outside [0, k={inst.k}]")
    n, a, d = inst.n, inst.m - inst.n - j, inst.k - j
    if gram.shape != (n, n):
        raise InvalidInput(f"gram must have shape ({n}, {n}), got {gram.shape}")
    if v.ndim != 2 or v.shape[0] != n:
        raise InvalidInput(f"candidate columns v must have shape ({n}, C), got {v.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the column
        f = _candidate_charpolys(gram, v, a) * _weight_ratios(n, a, d)
    # A non-finite entry of v_c reaches row c's coefficient of y^(n-1), -sum r_i - sum w_i.
    if not np.isfinite(f).all():
        column = int(np.argmin(np.isfinite(f).all(axis=1)))
        if not np.isfinite(v[:, column]).all():
            raise InvalidInput(f"column {column} of v has a non-finite entry")
        raise InvalidInput(
            f"the expected polynomial of column {column} of v has a non-finite coefficient"
        )
    return f


def _checked_partial(inst: IsotropicInstance, partial: Sequence[int], max_size: int) -> list[int]:
    """The candidates ``partial``, checked: distinct, in range, at most ``max_size``."""
    idx = _as_indices(partial, inst.m, InvalidInput)
    if len(idx) > max_size:
        raise InvalidInput(f"partial selection of size {len(idx)} exceeds {max_size}")
    return idx


def _partial_gram(inst: IsotropicInstance, idx: Sequence[int]) -> DenseMatrix:
    """The Gram matrix of the fixed block plus the checked candidates ``idx``."""
    g = inst.gram_fixed
    for j in idx:
        g = gram_update(g, inst.candidates[:, j])
    return g


def expected_poly(inst: IsotropicInstance, partial: Sequence[int]) -> Polynomial:
    """Expected characteristic polynomial over size-``k`` supersets of ``partial``.

    ``partial`` holds distinct candidates, each named by its column of
    ``b`` (column ``j`` of ``inst.candidates``); the result is monic of
    degree ``n``, in powers of ``y = x - 1``.  It is scored as the greedy
    loop scores it: the Gram of all but the last candidate, extended by
    the last.
    """
    idx = _checked_partial(inst, partial, inst.k)
    v = inst.candidates[:, idx[-1:]] if idx else np.zeros((inst.n, 1))
    row = expected_poly_from_gram(inst, _partial_gram(inst, idx[:-1]).data, len(idx), v)[0]
    return _wrap(tuple(row.tolist()))


def root_sum_identity_check(inst: IsotropicInstance, s: Sequence[int]) -> float:
    """Residual of the one-step summation identity at subset ``s``, which
    names at most ``m - 1`` candidates by their columns of ``b``.

    Compares the sum of the child characteristic polynomials of ``s``,
    the rows :func:`expected_poly_from_gram` weights, against the
    one-derivative weights (``d = 1``, not normalised) applied to the
    polynomial of ``s`` itself, both in powers of ``y = x - 1``; both
    sides have the number of children as leading coefficient, and the
    residual is scaled by it.  Test helper.
    """
    idx = _checked_partial(inst, s, inst.m - 1)
    gram = _partial_gram(inst, idx).data
    n, m = inst.n, inst.m

    children = [j for j in range(m) if j not in idx]
    a = m - n - len(idx)
    lhs = _candidate_charpolys(gram, inst.candidates[:, children], a - 1).sum(axis=0)

    w = np.array(_falling_weights(n, a, 1), dtype=float)
    rhs = _candidate_charpolys(gram, np.zeros((n, 1)), a)[0] * w

    return float(np.max(np.abs(lhs - rhs)) / len(children))
