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

The transform works on a stack of Gram matrices at once, as the greedy
loop scores every remaining candidate of an iteration: one stacked
``eigvalsh`` call, then each stage (exact zeros, root expansion,
weights) as one array operation per coefficient over all rows.  Each
row takes the same float operations, in the same order, as the stack
holding that Gram alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .linalg import DenseMatrix, _as_index, _as_indices, _gram_updates, gram_update, thin_svd
from .poly import Polynomial, from_roots

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
    ``grams``, one row per matrix, ascending, from one stacked solver call.

    Each matrix is checked, and its mildly negative eigenvalues (rounding
    noise) are clamped to zero, against its own scale ``max(1, max|G|)``.
    A failure raises :class:`InvalidInput` naming the matrix's position.
    """
    if grams.ndim != 3 or grams.shape[1] != grams.shape[2]:
        raise InvalidInput(f"matrices must be a (C, n, n) stack, got shape {grams.shape}")
    finite = np.isfinite(grams).all(axis=(1, 2))
    if not finite.all():
        raise InvalidInput(f"matrix {int(np.argmin(finite))} of the stack has a non-finite entry")
    # ufunc reductions run at C level; initial=0.0 covers the empty matrix.
    scale = np.maximum(1.0, np.maximum.reduce(np.abs(grams), axis=(1, 2), initial=0.0))
    asymmetry = np.maximum.reduce(
        np.abs(grams - grams.transpose(0, 2, 1)), axis=(1, 2), initial=0.0
    )
    asymmetric = asymmetry > _SYMMETRY_TOL * scale
    if asymmetric.any():
        raise InvalidInput(
            f"matrix {int(np.argmax(asymmetric))} of the stack is not symmetric to 1e-10"
        )
    try:
        eig = np.linalg.eigvalsh(grams)
    except np.linalg.LinAlgError:
        # The stacked call does not say which matrix failed; one call per matrix does.
        for i, g in enumerate(grams):
            try:
                np.linalg.eigvalsh(g)
            except np.linalg.LinAlgError:
                raise InvalidInput(
                    f"eigenvalues of matrix {i} of the stack did not converge"
                ) from None
        raise
    clamp = (_EIGENVALUE_CLAMP_TOL * scale)[:, None]
    return np.where((-clamp <= eig) & (eig < 0.0), 0.0, eig)


def charpoly_psd(g: DenseMatrix) -> Polynomial:
    """Monic characteristic polynomial of a symmetric PSD matrix.

    Eigenvalues are computed with a symmetric solver and mildly negative
    ones (rounding noise) are clamped to zero before the root expansion.
    """
    return from_roots(_psd_eigenvalues(g.data[None])[0].tolist())


def _from_roots_rows(roots: np.ndarray) -> np.ndarray:
    """Row ``i``: the monic polynomial with roots ``roots[i]``, ascending
    coefficients.  Factors are multiplied in column order, each by the
    update of :func:`~colsel.poly.from_roots`."""
    rows, n = roots.shape
    c = np.zeros((rows, n + 1))
    c[:, 0] = 1.0
    for t in range(n):
        r = roots[:, t]
        # c <- c * (x - r); the right-hand sides read the old values
        c[:, t + 1] = c[:, t]
        c[:, 1 : t + 1] = c[:, :t] - r[:, None] * c[:, 1 : t + 1]
        c[:, 0] = -r * c[:, 0]
    return c


def _shifted_charpolys(grams: np.ndarray, a: int) -> np.ndarray:
    """Row ``i``: the coefficients ``c`` of ``det[(y + 1)I - grams[i]]`` in
    powers of ``y = x - 1``, ascending.

    The roots ``r = mu - 1`` come in descending ``mu``, ``eigvalsh``'s order
    reversed: a partial Gram has ``0 <= mu <= 1`` (``y_S y_S^T <= y y^T = I``),
    so that is ascending ``|r|``, the order ``from_roots`` sorts into.  A
    product of factors ``y + |r|`` has no cancellation in any order, but
    the order still moves the rounding: in ``eigvalsh``'s own order the
    greedy subsets of ``tools/compare_trees.py`` stayed the same, while
    degree-12 roots moved by up to 47.5 eps.

    For ``a < 0`` the first ``-a`` roots, those of the largest eigenvalues,
    are set to exactly zero.  They are zero in exact arithmetic: with
    ``a = m - n - j``, the identity minus the Gram of a size-``j`` partial
    is a sum of ``m - j`` rank-one terms, so the Gram has eigenvalue one
    with multiplicity at least ``-a``.  ``IsotropicInstance`` checks
    ``y y^T = I`` to 1e-8.
    """
    r = _psd_eigenvalues(grams)[:, ::-1] - 1.0
    r[:, : max(-a, 0)] = 0.0
    return _from_roots_rows(r)


def _falling_weights(n: int, a: int, d: int) -> list[int]:
    """``prod_{t<d} (i+a-t)`` for ``i = 0..n``: the factor that multiplying
    by ``y^a``, differentiating ``d`` times and dividing by ``y^(a-d)``
    puts on ``y^i``.  Where ``i + a < 0`` the coefficient ``c_i`` is zero
    (see :func:`_shifted_charpolys`), so the weight is too."""
    return [math.perm(i + a, d) if i + a >= 0 else 0 for i in range(n + 1)]


def expected_poly_from_gram(
    inst: IsotropicInstance, grams: np.ndarray, j: int
) -> list[Polynomial]:
    """Expected polynomials of size-``j`` partials, one per matrix of the
    ``(C, n, n)`` stack ``grams`` of selected-plus-fixed Gram matrices;
    each is monic of degree ``n``, in powers of ``y = x - 1``.

    The whole stack goes through one eigenvalue call and one transform;
    each row takes the same float operations, in the same order, as a
    stack holding that Gram alone.  :class:`InvalidInput` names the
    position of a Gram that fails a check.
    """
    if not 0 <= _as_index(j, InvalidInput, "partial size") <= inst.k:
        raise InvalidInput(f"partial size {j} outside [0, k={inst.k}]")
    n, a, d = inst.n, inst.m - inst.n - j, inst.k - j
    if grams.shape[1:] != (n, n):
        raise InvalidInput(f"Gram stack must have shape (C, {n}, {n}), got {grams.shape}")
    w = _falling_weights(n, a, d)
    # Python-int true division rounds once; w can exceed 2**53
    ratio = np.array([wi / w[n] for wi in w])
    return [Polynomial(f) for f in (_shifted_charpolys(grams, a) * ratio).tolist()]


def _partial_gram(
    inst: IsotropicInstance, partial: Sequence[int], max_size: int
) -> tuple[list[int], DenseMatrix]:
    """The candidates ``partial``, checked, and the Gram matrix of the fixed block plus them."""
    idx = _as_indices(partial, inst.m, InvalidInput)
    if len(idx) > max_size:
        raise InvalidInput(f"partial selection of size {len(idx)} exceeds {max_size}")
    g = inst.gram_fixed
    for j in idx:
        g = gram_update(g, inst.candidates[:, j])
    return idx, g


def expected_poly(inst: IsotropicInstance, partial: Sequence[int]) -> Polynomial:
    """Expected characteristic polynomial over size-``k`` supersets of ``partial``.

    ``partial`` holds distinct candidates, each named by its column of
    ``b`` (column ``j`` of ``inst.candidates``); the result is monic of
    degree ``n``, in powers of ``y = x - 1``.
    """
    idx, gram = _partial_gram(inst, partial, inst.k)
    return expected_poly_from_gram(inst, gram.data[None], len(idx))[0]


def root_sum_identity_check(inst: IsotropicInstance, s: Sequence[int]) -> float:
    """Residual of the one-step summation identity at subset ``s``, which
    names at most ``m - 1`` candidates by their columns of ``b``.

    Compares the sum of the child characteristic polynomials of ``s``
    against the one-derivative weights (``d = 1``, not normalised)
    applied to the polynomial of ``s`` itself, both in powers of
    ``y = x - 1``; both sides have the number of children as leading
    coefficient, and the residual is scaled by it.  Test helper.
    """
    idx, gram = _partial_gram(inst, s, inst.m - 1)
    n, m = inst.n, inst.m

    children = [j for j in range(m) if j not in idx]
    child_grams = _gram_updates(gram.data, inst.candidates[:, children])
    lhs = _from_roots_rows(_psd_eigenvalues(child_grams) - 1.0).sum(axis=0)

    a = m - n - len(idx)
    w = np.array(_falling_weights(n, a, 1), dtype=float)
    rhs = (_shifted_charpolys(gram.data[None], a) * w)[0]

    return float(np.max(np.abs(lhs - rhs)) / len(children))
